"""The graded ring of quasimodular forms C[G2, G4, G6].

Provides basis enumeration by weight, exact evaluation of polynomials in
the generators to truncated q-series, the polynomial of each necklace
coefficient series built from q d/dq and the Eisenstein series, and the
inverse problem: exact recognition of a truncated series as such a
polynomial (`fit`), the top-weight check's oracle at low weight.

Both directions work on integer columns, one store for all of them:
24^a 240^b 504^c G2^a G4^b G6^c for every monomial, grown to the largest
order asked for (_column).  Each recognition matrix's leading square
block is a leading block of the larger ones, so one fraction-free LU
factorization, grown to the largest block asked for, serves every fit
(_solve); one exact scan of every row accepts its block's solution or
names the first row it misses.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add, index, mul

from .exact import factorial, rational
from .qseries import QSeries, eisenstein
from .report import _Frozen, _set

__all__ = [
    "FitInconsistency",
    "Monomial",
    "QuasimodularPoly",
    "basis",
    "evaluate",
    "evaluate_with_top",
    "fit",
    "graded_part",
    "monomial_weight",
    "necklace_polynomial",
]

# exponent triple (a, b, c) standing for G2^a * G4^b * G6^c
Monomial = tuple[int, int, int]

# surplus rows a fit needs beyond its unknowns
_MARGIN = 5

# Ramanujan's equations, D = q d/dq: DG2 = -2 G2^2 + (5/6) G4,
# DG4 = -8 G2 G4 + (7/10) G6, DG6 = -12 G2 G6 + (400/7) G4^2; _column has
# its own integers for them, so evaluating a built polynomial checks both
_RAMANUJAN = (Fraction(5, 6), Fraction(7, 10), Fraction(400, 7))


def monomial_weight(mono: Monomial) -> int:
    a, b, c = mono
    return 2 * a + 4 * b + 6 * c


def _basis_key(mono: Monomial):
    # graded order; within a weight, G2-heavy monomials first
    return (monomial_weight(mono), tuple(-e for e in mono))


class QuasimodularPoly:
    """Polynomial in G2, G4, G6 with exact rational coefficients, each
    given as an int or a Fraction (anything else raises TypeError).

    Stored as a canonical sorted tuple of (monomial, coefficient) pairs
    with zero coefficients dropped; the zero polynomial has no terms.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | Iterable = ()):
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = list(terms)
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            mono = tuple(map(index, mono))
            if len(mono) != 3 or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent triple {mono!r}")
            if not isinstance(coeff, Fraction):
                coeff = rational(coeff)
            if coeff != 0:
                acc[mono] = acc[mono] + coeff if mono in acc else coeff
        self._terms = tuple(
            (m, c) for m, c in sorted(acc.items(), key=lambda t: _basis_key(t[0]))
            if c != 0
        )

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, QuasimodularPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)


class FitInconsistency(_Frozen):
    """Report that a series is not a quasimodular polynomial at the
    requested weight bound: the exact linear system has no solution."""

    __slots__ = ("first_inconsistent_power", "max_weight")

    def __init__(self, first_inconsistent_power: int, max_weight: int):
        _set(self, "first_inconsistent_power", first_inconsistent_power)
        _set(self, "max_weight", max_weight)

    def __str__(self) -> str:
        return (
            f"no quasimodular polynomial of weight <= {self.max_weight} "
            f"matches; first inconsistent coefficient at q^"
            f"{self.first_inconsistent_power}"
        )


def basis(max_weight: int) -> list[Monomial]:
    """All exponent triples of weight <= max_weight, graded lexicographic."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    out = []
    for c in range(max_weight // 6 + 1):
        for b in range((max_weight - 6 * c) // 4 + 1):
            for a in range((max_weight - 6 * c - 4 * b) // 2 + 1):
                out.append((a, b, c))
    return sorted(out, key=_basis_key)


# monomial -> its _column, grown to the largest order asked for
_columns: dict[Monomial, tuple[int, tuple[int, ...]]] = {}


def _column(mono: Monomial, order: int) -> tuple[int, tuple[int, ...]]:
    """(scale, scale * G2^a G4^b G6^c up to at least q^order as integers)
    with scale = 24^a 240^b 504^c, kept in _columns and grown from its
    stored length.

    A generator G_k's column is den_k * eisenstein(k, order), den_k the
    denominator of the constant term -B_k/(2k); every coefficient beyond
    q^0 is a divisor sum, so it is integral, and that is checked here,
    not assumed.  A modular monomial G4^b G6^c is the column with its
    last nonzero exponent lowered times that generator's (_product).

    Every other monomial has a >= 1 and comes from Ramanujan's equations
    in O(order).  With D = q d/dq and col(a, b, c) its column,
      24 D col(a-1, b, c) = 2(a-1) col(a-2, b+1, c) + 8b col(a-1, b-1, c+1)
                            + 12c col(a-1, b+2, c-1) - k col(a, b, c),
    k = 2(a-1) + 8b + 12c, by the equations of _RAMANUJAN.  Its other
    three columns have the same weight and a lower G2 degree; each
    entry's division by k is checked, not assumed."""
    if not any(mono):
        return 1, (1,) + (0,) * order
    scale, col = _columns.get(mono, (0, ()))
    if len(col) > order:
        return scale, col
    a, b, c = mono
    if mono in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        k = 2 * a + 4 * b + 6 * c
        series = eisenstein(k, order)
        scale = series.coeffs[0].denominator
        scaled = [x * scale for x in series.coeffs]
        if any(x.denominator != 1 for x in scaled):
            raise ArithmeticError(f"{scale} * G_{k} is not an integer series")
        col = tuple(x.numerator for x in scaled)
    elif not a:
        unit = (0, 0, 1) if c else (0, 1, 0)
        scale, lower = _column((0, b - unit[1], c - unit[2]), order)
        den, gen = _column(unit, order)
        col += _product(lower, gen, len(col), order)
        scale *= den
    else:
        k = 2 * (a - 1) + 8 * b + 12 * c
        scale, lower = _column((a - 1, b, c), order)
        scale *= 24
        reads = [
            (f, _column(m, order)[1])
            for f, m in (
                (2 * (a - 1), (a - 2, b + 1, c)),
                (8 * b, (a - 1, b - 1, c + 1)),
                (12 * c, (a - 1, b + 2, c - 1)),
            )
            if f
        ]
        new = []
        for n in range(len(col), order + 1):
            x, r = divmod(
                sum(f * other[n] for f, other in reads) - 24 * n * lower[n], k
            )
            if r:
                raise ArithmeticError(f"column {mono} is not integral at q^{n}")
            new.append(x)
        col += tuple(new)
    _columns[mono] = scale, col
    return scale, col


def _product(lower, gen, start, order):
    """Entries start .. order of the product of two integer series, each
    the dot product of lower with the reversed gen."""
    rev = gen[order::-1]
    return tuple(
        sum(map(mul, lower, rev[order - n :])) for n in range(start, order + 1)
    )


def evaluate(p: QuasimodularPoly, order: int) -> QSeries:
    """Substitute the Eisenstein q-expansions and expand exactly: the sum
    of coeff/scale times the integer column of each monomial, over one
    common denominator."""
    den, total = _integer_sum(p._terms, order)
    return QSeries(tuple(Fraction(t, den) for t in total))


def evaluate_with_top(
    p: QuasimodularPoly, weight: int, order: int
) -> tuple[QSeries, QSeries]:
    """(evaluate(p, order), evaluate(graded_part(p, weight), order)),
    evaluating each term once: the two parts' integer sums are added
    over their common denominator."""
    top_den, top = _integer_sum(
        [t for t in p._terms if monomial_weight(t[0]) == weight], order
    )
    rest_den, rest = _integer_sum(
        [t for t in p._terms if monomial_weight(t[0]) != weight], order
    )
    den = lcm(top_den, rest_den)
    a, b = den // top_den, den // rest_den
    return (
        QSeries(tuple(Fraction(a * x + b * y, den) for x, y in zip(top, rest))),
        QSeries(tuple(Fraction(x, top_den) for x in top)),
    )


def _integer_sum(terms, order: int) -> tuple[int, list[int]]:
    """(den, den * the q^0 .. q^order coefficients of the sum of the
    terms), den the lcm of the denominators of each coeff/scale."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    scaled = []
    for mono, coeff in terms:
        scale, col = _column(mono, order)
        scaled.append((coeff / scale, col))
    den = lcm(*(c.denominator for c, _ in scaled))
    total = [0] * (order + 1)
    for c, col in scaled:
        x = c.numerator * (den // c.denominator)
        total = [t + x * y for t, y in zip(total, col)]
    return den, total


def graded_part(p: QuasimodularPoly, weight: int) -> QuasimodularPoly:
    """Restriction of p to the monomials of exactly the given weight."""
    return QuasimodularPoly(
        {m: c for m, c in p._terms if monomial_weight(m) == weight}
    )


@lru_cache(maxsize=None)
def _eisenstein_polynomial(k: int) -> QuasimodularPoly:
    """G_k, k >= 2 even, as a polynomial: G2, G4, G6 are generators, and
    G_2n (n >= 4) comes from G4 and G6 by Apostol's recurrence (Modular
    Functions and Dirichlet Series, Thm 1.13) for the Laurent coefficients
    c_n = 2 G_2n / (2n-2)! of elliptic.weierstrass_expansion:
        (2n+1)(n-3) c_n = 3 sum_{i=2}^{n-2} c_i c_(n-i)."""
    if k <= 6:
        return QuasimodularPoly({(k == 2, k == 4, k == 6): 1})
    n = k // 2
    scale = Fraction(6 * factorial(k - 2), (k + 1) * (n - 3))
    terms = []
    for i in range(2, n - 1):
        # the term c_i c_(n-i), solved for G_2n
        x = scale / (factorial(2 * i - 2) * factorial(k - 2 * i - 2))
        terms += (
            (tuple(map(add, m1, m2)), x * x1 * x2)
            for m1, x1 in _eisenstein_polynomial(2 * i)._terms
            for m2, x2 in _eisenstein_polynomial(k - 2 * i)._terms
        )
    return QuasimodularPoly(terms)


@lru_cache(maxsize=None)
def _derivative(p: QuasimodularPoly) -> QuasimodularPoly:
    """D = q d/dq on a polynomial: D(G2^a G4^b G6^c) is
    -(2a + 8b + 12c) G2^(a+1) G4^b G6^c plus a, b and c times the
    Ramanujan terms of DG2, DG4 and DG6 with that generator taken out."""
    r2, r4, r6 = _RAMANUJAN
    terms = []
    for (a, b, c), x in p._terms:
        terms.append(((a + 1, b, c), -(2 * a + 8 * b + 12 * c) * x))
        if a:
            terms.append(((a - 1, b + 1, c), a * r2 * x))
        if b:
            terms.append(((a, b - 1, c + 1), b * r4 * x))
        if c:
            terms.append(((a, b + 2, c - 1), c * r6 * x))
    return QuasimodularPoly(terms)


def necklace_polynomial(g: int, j_plus: int, j_minus: int) -> QuasimodularPoly:
    """The polynomial of elliptic.necklace_coefficient_series, built, not
    recognized (Oberdieck-Pixton: the series is quasimodular).

    With m = j_plus + j_minus and K = 2g - 2 + m the series is
    sum_{a, n >= 1} a^K P(n) q^(an), where P(n) = sum_i c_i n^i is
    C(n - j_minus + m - 1, m - 1) + C(n - j_plus + m - 1, m - 1) (each
    binomial vanishes below its branch's first term), so beyond q^0 it
    is sum_i c_i D^i G_(K-i+1); a nonzero c_i with K - i + 1 odd raises
    ArithmeticError.  No term is the constant monomial: c_0 = P(0) is
    nonzero only when j_minus = 0, whose q^0 coefficient fit leaves free.
    """
    if g < 1 or j_plus < 1 or j_minus < 0:
        raise ValueError("requires g >= 1, j_plus >= 1, j_minus >= 0")
    m = j_plus + j_minus
    c = [Fraction(0)] * m
    for start in (j_minus, j_plus):
        # (n - start + 1) ... (n - start + m - 1) / (m - 1)!, by powers of n
        binom = [Fraction(1, factorial(m - 1))]
        for t in range(1 - start, m - start):
            binom = [t * x + y for x, y in zip(binom + [0], [0] + binom)]
        c = list(map(add, c, binom))
    terms = []
    for i, ci in enumerate(c):
        k = 2 * g - 1 + m - i
        if ci and k % 2:
            raise ArithmeticError(f"c_{i} = {ci} would multiply D^{i} G_{k}")
        if ci:
            p = _eisenstein_polynomial(k)
            for _ in range(i):
                p = _derivative(p)
            terms += ((mono, ci * x) for mono, x in p._terms)
    return QuasimodularPoly(terms)


def _fit_monomials(max_weight: int, order: int) -> list[Monomial]:
    """The monomials a fit at max_weight solves for, all but 1; ValueError
    unless the rows q^1 .. q^order leave _MARGIN surplus rows (a fit that
    merely interpolates proves nothing)."""
    if max_weight < 0 or max_weight % 2:
        raise ValueError(f"max_weight must be even and >= 0, got {max_weight}")
    monos = [m for m in basis(max_weight) if m != (0, 0, 0)]
    surplus = order - len(monos)
    if surplus < _MARGIN:
        raise ValueError(
            f"series order {order} leaves surplus {surplus} rows for "
            f"{len(monos)} non-constant monomials; need {_MARGIN}"
        )
    return monos


def fit(s: QSeries, max_weight: int) -> QuasimodularPoly | FitInconsistency:
    """Recognize a truncated series as a polynomial in G2, G4, G6.

    Matches the coefficients of q^1 .. q^order exactly against the span
    of the non-constant monomials of weight <= max_weight, scaled to an
    integer system.  The constant monomial 1 is zero beyond q^0, so it
    can only absorb the q^0 row; the matrix therefore depends on
    (max_weight, order) alone.  One exact scan of every row accepts the
    solution of its leading square block (_solve) or names the first
    row it misses.

    Growing _lu costs O(C^3) steps on minors that grow with its C
    columns: from empty it took 0.1 s at weight 18, 1.3 s at 22 and
    11 s at 26 (CPython 3.11, 2 vCPUs), so elliptic.top_weight_check
    fits only up to weight 12 and builds the heavier polynomials.

    With s.constant_known the coefficient of 1 is s[0] minus the q^0
    value of the other terms.  Without it (a regularized series whose
    q^0 coefficient is undefined) the polynomial has no constant term
    and implies a regularized constant, namely its own q^0 value.

    Returns the unique matching polynomial, or a FitInconsistency naming
    the first q-power at which no polynomial can match.
    """
    monos = _fit_monomials(max_weight, s.order)
    powers = range(1, s.order + 1)
    cols = [_column(m, s.order) for m in monos]
    # rows q^1 .. q^order; a system without columns still has its rows
    matrix = list(zip(*(col[1 : s.order + 1] for _, col in cols))) or [()] * s.order
    # the system in integers: matrix * (x_j / scale_j) = rhs / den
    den = lcm(*(s.coeffs[n].denominator for n in powers))
    rhs = [
        s.coeffs[n].numerator * (den // s.coeffs[n].denominator) for n in powers
    ]
    w, det = _solve([col for _, col in cols], rhs)
    rows = zip(powers, matrix, rhs)
    miss = next((n for n, row, b in rows if sum(map(mul, row, w)) != det * b), None)
    if miss:
        return FitInconsistency(miss, max_weight)
    coeffs = [Fraction(scale * x, den * det) for (scale, _), x in zip(cols, w)]
    terms = dict(zip(monos, coeffs))
    if s.constant_known:
        terms[(0, 0, 0)] = s[0] - sum(
            (c * Fraction(col[0], scale) for c, (scale, col) in zip(coeffs, cols)),
            Fraction(0),
        )
    return QuasimodularPoly(terms)


# (pivots, lower, upper): the unpivoted fraction-free LU of A, the leading
# square block (rows q^1 .. q^C, first C = len(pivots) non-constant monomials)
# of the largest recognition matrix asked for so far.  With M_t(i, j) the
# minor of A on rows 0 .. t-1, i and columns 0 .. t-1, j: pivots[t] =
# M_t(t, t), lower[i] = [M_t(i, t) for t < i], upper[j] = [M_t(t, j) for t < j].
_lu: tuple[list, list, list] = ([], [], [])


def _bareiss(v, pivots, multipliers):
    """The Bareiss steps on v in place: step t = 0, 1, .. sets v[i] =
    (pivots[t] v[i] - multipliers[i][t] v[t]) / pivots[t-1] for i > t,
    exactly.  v[t] ends as M_t(t, j) on column j of A with lower, and as
    M_t(i, t) on row i with upper."""
    for t, (prev, pivot) in enumerate(zip([1] + pivots, pivots[: len(v) - 1])):
        vt = v[t]
        for i in range(t + 1, len(v)):
            v[i] = (pivot * v[i] - multipliers[i][t] * vt) // prev


def _solve(cols, rhs):
    """(w, det) for the leading square block of A z = b, A the recognition
    matrix of the columns cols: det is the block's determinant and
    w = det z, integers by Cramer's rule.  cols are those of the first
    len(cols) non-constant monomials, and basis(W) is a prefix of
    basis(W') for W <= W', so without pivoting a leading block's minors
    are those of the grown one: _lu grows by row j, then column j down to
    its pivot; a zero pivot (none through 313 columns) raises
    ValueError.  rhs[:C] goes forward through the same steps, then back
    through upper."""
    pivots, lower, upper = _lu
    for j in range(len(pivots), len(cols)):
        row = [col[j + 1] for col in cols[:j]]
        _bareiss(row, pivots, upper)
        col = list(cols[j][1 : j + 2])
        _bareiss(col, pivots, lower + [row])
        if not col[j]:
            raise ValueError(f"leading minor {j + 1} of the recognition matrix is 0")
        lower.append(row)
        upper.append(col[:j])
        pivots.append(col[j])
    n = len(cols)
    y = rhs[:n]
    _bareiss(y, pivots, lower)
    det = pivots[n - 1] if n else 1
    y = [det * x for x in y]
    w = [0] * n
    for k in reversed(range(n)):
        x = w[k] = y[k] // pivots[k]
        y = [a - u * x for a, u in zip(y, upper[k])]
    return w, det
