"""The graded ring of quasimodular forms C[G2, G4, G6].

Provides basis enumeration by weight, exact evaluation of polynomials in
the generators to truncated q-series, and the inverse problem: exact
recognition of a truncated series as such a polynomial.  Recognition is
the workhorse of the top-weight verification in the elliptic module.

Both directions work on integer columns, one store for all of them.
Each G_k beyond q^0 is a divisor sum, so den_k * G_k is an integer
series (den_k = 24, 240, 504) and is the generator's column; every
monomial G2^a G4^b G6^c is kept as the integer series of
24^a 240^b 504^c times it, grown to the largest order asked for.  Only
the modular monomials G4^b G6^c are series products; every monomial
with G2 comes in O(order) from Ramanujan's equations, which close the
ring under q d/dq (Kaneko-Zagier), and columns of its own weight.  Each
recognition matrix's leading square block is a leading block of the
larger ones, so one unpivoted LU factorization modulo the prime
2^127 - 1, grown to the largest block asked for, serves every fit,
which substitutes through its block and rebuilds a rational candidate
by rational reconstruction.  One exact scan of every row decides
consistency: Bareiss fraction-free elimination solves only the systems
whose candidate is missing or fails it, and its first unmatched row is
the witness of every inconsistent one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import index, mul
from typing import Iterable, Mapping

from .qseries import QSeries, eisenstein

__all__ = [
    "FitInconsistency",
    "Monomial",
    "QuasimodularPoly",
    "basis",
    "evaluate",
    "fit",
    "graded_part",
    "monomial_weight",
]

# exponent triple (a, b, c) standing for G2^a * G4^b * G6^c
Monomial = tuple[int, int, int]

# surplus rows a fit needs beyond its unknowns
_MARGIN = 5

# the modulus of the modular solve, the Mersenne prime 2^127 - 1; its
# reconstruction bound 2^63 is above the numerators it rebuilds (< 2^57)
# and the common denominators (< 2^50) of the top-weight fits at
# g, m <= 10, where the numerators over the final denominator reach 2^70
_PRIME = (1 << 127) - 1


def monomial_weight(mono: Monomial) -> int:
    a, b, c = mono
    return 2 * a + 4 * b + 6 * c


def _basis_key(mono: Monomial):
    # graded order; within a weight, G2-heavy monomials first
    return (monomial_weight(mono), tuple(-e for e in mono))


class QuasimodularPoly:
    """Polynomial in G2, G4, G6 with exact rational coefficients.

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
                coeff = Fraction(coeff)
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


@dataclass(frozen=True)
class FitInconsistency:
    """Report that a series is not a quasimodular polynomial at the
    requested weight bound: the exact linear system has no solution."""

    first_inconsistent_power: int
    max_weight: int

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
    k = 2(a-1) + 8b + 12c, since DG2 = -2 G2^2 + (5/6) G4,
    DG4 = -8 G2 G4 + (7/10) G6 and DG6 = -12 G2 G6 + (400/7) G4^2.  Its
    other three columns have the same weight and a lower G2 degree; each
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
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    terms = []
    for mono, coeff in p._terms:
        scale, col = _column(mono, order)
        terms.append((coeff / scale, col))
    den = lcm(*(c.denominator for c, _ in terms))
    weighted = [(c.numerator * (den // c.denominator), col) for c, col in terms]
    return QSeries(
        tuple(
            Fraction(sum(x * col[n] for x, col in weighted), den)
            for n in range(order + 1)
        )
    )


def graded_part(p: QuasimodularPoly, weight: int) -> QuasimodularPoly:
    """Restriction of p to the monomials of exactly the given weight."""
    return QuasimodularPoly(
        {m: c for m, c in p._terms if monomial_weight(m) == weight}
    )


def fit(s: QSeries, max_weight: int) -> QuasimodularPoly | FitInconsistency:
    """Recognize a truncated series as a polynomial in G2, G4, G6.

    Matches the coefficients of q^1 .. q^order exactly against the span
    of the non-constant monomials of weight <= max_weight, scaled to an
    integer system.  The constant monomial 1 is zero beyond q^0, so it
    can only absorb the q^0 row; the matrix therefore depends on
    (max_weight, order) alone, and _factor_modular serves its leading
    square block.  The modular solve only proposes a candidate.  One
    exact integer scan of every row decides consistency: it accepts the
    modular candidate, or, when there is none or it misses a row,
    accepts the Bareiss solution or names the first row that solution
    misses.  The system must be
    overdetermined by at least _MARGIN surplus rows (a fit that merely
    interpolates proves nothing); too small an order is an error.

    The mode is read off the series.  With s.constant_known the
    coefficient of 1 is s[0] minus the q^0 value of the other terms.
    Without it (a regularized series whose q^0 coefficient is
    undefined) the polynomial has no constant term and implies a
    regularized constant, namely its own q^0 value.

    Returns the unique matching polynomial, or a FitInconsistency naming
    the first q-power at which no polynomial can match.
    """
    if max_weight < 0 or max_weight % 2:
        raise ValueError(f"max_weight must be even and >= 0, got {max_weight}")
    monos = [m for m in basis(max_weight) if m != (0, 0, 0)]
    powers = range(1, s.order + 1)
    surplus = len(powers) - len(monos)
    if surplus < _MARGIN:
        raise ValueError(
            f"series order {s.order} leaves surplus {surplus} rows for "
            f"{len(monos)} non-constant monomials; need {_MARGIN}"
        )

    cols = [_column(m, s.order) for m in monos]
    # rows q^1 .. q^order; a system without columns still has its rows
    matrix = list(zip(*(col[1 : s.order + 1] for _, col in cols))) or [()] * s.order
    # the system in integers: matrix * (x_j / scale_j) = rhs / den
    den = lcm(*(s.coeffs[n].denominator for n in powers))
    rhs = [
        s.coeffs[n].numerator * (den // s.coeffs[n].denominator) for n in powers
    ]

    def unmatched(w, det):
        # the first q-power whose row w / det misses, or None
        rows = zip(powers, matrix, rhs)
        return next((n for n, row, b in rows if sum(map(mul, row, w)) != det * b), None)

    solved = _solve_modular([col for _, col in cols], rhs)
    if solved is None or unmatched(*solved):
        solved = _solve_fraction_free(matrix, rhs)
        miss = unmatched(*solved)
        if miss:
            return FitInconsistency(miss, max_weight)
    w, det = solved
    coeffs = [Fraction(scale * x, den * det) for (scale, _), x in zip(cols, w)]
    terms = dict(zip(monos, coeffs))
    if s.constant_known:
        terms[(0, 0, 0)] = s[0] - sum(
            (c * Fraction(col[0], scale) for c, (scale, col) in zip(coeffs, cols)),
            Fraction(0),
        )
    return QuasimodularPoly(terms)


# (lower, upper), A = L U modulo _PRIME without pivoting, A the leading
# square block of the largest recognition matrix asked for so far: the
# rows q^1 .. q^C and the first C = len(upper) non-constant monomials.
# lower[i] is L[i][:i]; upper[j] is the inverse of U[j][j] and U[:j][j].
_factors: tuple[list, list] = ([], [])


def _factor_modular(cols):
    """(lower, upper) of A = L U modulo _PRIME, A the leading square
    block of the recognition matrix of the columns cols (the rows
    q^1 .. q^len(cols)), cut from _factors; None when a pivot vanishes
    mod _PRIME.

    cols are those of the first len(cols) non-constant monomials, and
    basis(W) is a prefix of basis(W') for W <= W'.  Without pivoting the
    L and U of a leading block are the leading parts of the grown ones,
    so the store grows by one row and one column at a time (Doolittle):
    a new column j costs one integer dot product per entry of U[:j][j]
    and of L[j][:j], each reduced once mod _PRIME (delayed reduction, as
    in FFLAS-FFPACK).  No pivot vanishes through the 313 columns of the
    top-weight fits at g, m <= 10.
    """
    p = _PRIME
    lower, upper = _factors
    for j in range(len(upper), len(cols)):
        col = cols[j]
        v = []  # U[:j][j]
        for i, row in enumerate(lower):
            v.append((col[i + 1] - sum(map(mul, row, v))) % p)
        row = []  # L[j][:j]
        for c, (inv, u) in zip(cols, upper):
            row.append((c[j + 1] - sum(map(mul, row, u))) * inv % p)
        x = (col[j + 1] - sum(map(mul, row, v))) % p
        if not x:
            return None
        lower.append(row)
        upper.append((pow(x, -1, p), v))
    return lower[: len(cols)], upper[: len(cols)]


def _solve_modular(cols, rhs):
    """A candidate (w, det) for A z = b, A the recognition matrix of the
    columns cols and the rows q^1 .. q^len(rhs); fit's exact scan of
    every row decides whether it counts.

    Substitutes rhs[:len(cols)] forward through L and back through U of
    the leading square block (_factor_modular modulo _PRIME) and rebuilds
    z = w / det with a running common denominator det (Wang's rational
    reconstruction, numerator and denominator both at most
    isqrt(_PRIME // 2)).  That block is then invertible, so a candidate
    that matches every row is the unique solution.  None when a pivot
    vanishes mod _PRIME or reconstruction fails.
    """
    p = _PRIME
    lu = _factor_modular(cols)
    if lu is None:
        return None
    lower, upper = lu
    y = []
    for row, b in zip(lower, rhs):
        y.append((b - sum(map(mul, row, y))) % p)
    z = [0] * len(upper)
    for inv, u in reversed(upper):
        x = z[len(u)] = y.pop() * inv % p
        y = [a - c * x for a, c in zip(y, u)]

    bound = isqrt(p // 2)
    det = 1
    w = []
    for x in z:
        # Wang: the remainder sequence of (p, det * x) stops at the first
        # remainder <= bound; its cofactor is the denominator
        r0, r1, t0, t1 = p, det * x % p, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if t1 < 0:
            r1, t1 = -r1, -t1
        if det * t1 > bound or gcd(r1, t1) != 1:
            return None
        w = [v * t1 for v in w] + [r1]
        det *= t1
    return w, det


def _solve_fraction_free(matrix, rhs):
    """Solve the overdetermined integer system A z = b by Bareiss
    elimination, which keeps every entry an integer.

    Forward elimination runs over all rows; the pivot is the first
    nonzero entry at or below the current row.  Bareiss entries are
    nonzero multiples of the Gauss-Jordan entries, so the pivot rows are
    the ones Gauss-Jordan picks.  Returns (w, det): det is the
    determinant of the pivot rows and w = det * z the integer solution
    of the pivot rows; fit's exact scan of every row then accepts it or
    names the first surplus row it misses, the inconsistency witness.
    Raises if the columns are linearly dependent, which cannot happen
    for distinct Eisenstein monomials with enough rows.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    prev = 1
    for c in range(ncols):
        pr = next((i for i in range(c, nrows) if aug[i][c] != 0), None)
        if pr is None:
            raise ValueError("dependent monomial columns; increase the order")
        aug[c], aug[pr] = aug[pr], aug[c]
        pivot_row = aug[c]
        pv = pivot_row[c]
        for i in range(c + 1, nrows):
            row = aug[i]
            f = row[c]
            # exact: every entry is a minor of the row-permuted system
            row[c:] = [
                (pv * x - f * y) // prev for x, y in zip(row[c:], pivot_row[c:])
            ]
        prev = pv
    det = prev
    w = [0] * ncols
    for r in reversed(range(ncols)):
        row = aug[r]
        acc = det * row[ncols] - sum(row[k] * w[k] for k in range(r + 1, ncols))
        w[r] = acc // row[r]
    return w, det
