"""The graded ring of quasimodular forms C[G2, G4, G6].

Provides basis enumeration by weight, each necklace coefficient series
built as a sum of blocks D^i G_k (q d/dq and the Eisenstein series), and
the inverse problem: exact recognition of a truncated series as such a
polynomial (`fit`), the oracle that the top-weight check runs up to
weight 12 against the built polynomial.

Both directions work on integer columns, one store for all of them:
24^a 240^b 504^c G2^a G4^b G6^c for every monomial, grown to the largest
order asked for (_column); a column with G2 is extended in whole-row
passes from Ramanujan's equations, and one divmod pass checks and names
the first non-integral entry.  A block's integer series is summed once on
the columns and kept in a second store (_block), so a necklace series is
a short integer sum over blocks (block_sum).  One function,
_integer_sum, adds coefficient/scale times integer series over one lcm
denominator, on the columns and on the blocks alike.  Each recognition
matrix's leading square block is a leading block of the larger ones, so
one fraction-free LU factorization, grown to the largest block asked
for, serves every fit (_solve); its block's integer solution, summed on
the integer columns and compared with the series row by row over one
denominator, accepts the candidate or names the first q-power it misses.

Polynomials have one canonical form (_canonical: repeated monomials
merged, zeros dropped, basis order).  The public QuasimodularPoly
constructor validates each term and then canonicalizes; the ones the
module builds (_derivative, _block_polynomial, fit) go
through QuasimodularPoly._built, which only canonicalizes.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import add, index, mul

from .exact import factorial, rational
from .qseries import QSeries, divisor_sigmas, eisenstein
from .report import _Frozen, _set

__all__ = [
    "FitInconsistency",
    "Monomial",
    "QuasimodularPoly",
    "basis",
    "block_sum",
    "fit",
    "monomial_weight",
    "necklace_blocks",
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
    a, b, c = mono
    return (monomial_weight(mono), -a, -b, -c)


def _canonical(terms: Iterable) -> tuple:
    """The one canonical form of a QuasimodularPoly's terms: repeated
    monomials merged, zero coefficients dropped, sorted by _basis_key."""
    acc: dict[Monomial, Fraction] = {}
    for mono, coeff in terms:
        acc[mono] = acc[mono] + coeff if mono in acc else coeff
    terms = sorted(acc.items(), key=lambda t: _basis_key(t[0]))
    return tuple(t for t in terms if t[1])


class QuasimodularPoly:
    """Polynomial in G2, G4, G6 with exact rational coefficients, each
    given as an int or a Fraction (anything else raises TypeError).

    Stored as a canonical sorted tuple of (monomial, coefficient) pairs
    with zero coefficients dropped; the zero polynomial has no terms.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        checked = []
        for mono, coeff in items:
            mono = tuple(map(index, mono))
            if len(mono) != 3 or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent triple {mono!r}")
            if not isinstance(coeff, Fraction):
                coeff = rational(coeff)
            checked.append((mono, coeff))
        self._terms = _canonical(checked)

    @classmethod
    def _built(cls, terms: Iterable) -> QuasimodularPoly:
        """The polynomial of (monomial, coefficient) pairs that the package
        built itself, int triples and Fractions, so nothing is validated:
        the same canonical form as the public constructor's (_canonical)."""
        p = cls.__new__(cls)
        p._terms = _canonical(terms)
        return p

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


@lru_cache(maxsize=None)
def basis(max_weight: int) -> tuple[Monomial, ...]:
    """All exponent triples of weight <= max_weight, graded lexicographic,
    the constant monomial first; one memoized tuple per weight bound."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    out = []
    for c in range(max_weight // 6 + 1):
        for b in range((max_weight - 6 * c) // 4 + 1):
            for a in range((max_weight - 6 * c - 4 * b) // 2 + 1):
                out.append((a, b, c))
    return tuple(sorted(out, key=_basis_key))


# monomial -> its _column, grown to the largest order asked for
_columns: dict[Monomial, tuple[int, tuple[int, ...]]] = {}


def _column(mono: Monomial, order: int) -> tuple[int, tuple[int, ...]]:
    """(scale, scale * G2^a G4^b G6^c up to at least q^order as integers)
    with scale = 24^a 240^b 504^c, kept in _columns and grown from its
    stored length.

    A generator G_k's column is den_k * G_k: its constant term -B_k/(2k)
    (_eisenstein_constant) has the denominator den_k, and den_k times the
    divisor sums sigma_(k-1)(n) of qseries.divisor_sigmas are integers by
    construction, so no Fraction series is built.  A modular monomial
    G4^b G6^c is the column with its last nonzero exponent lowered times
    that generator's (_product).

    Every other monomial has a >= 1 and comes from Ramanujan's equations
    in O(order).  With D = q d/dq and col(a, b, c) its column,
      24 D col(a-1, b, c) = 2(a-1) col(a-2, b+1, c) + 8b col(a-1, b-1, c+1)
                            + 12c col(a-1, b+2, c-1) - k col(a, b, c),
    k = 2(a-1) + 8b + 12c, by the equations of _RAMANUJAN.  Its other
    three columns have the same weight and a lower G2 degree.  The new
    entries, from the stored length to q^order, are one row: -24 n
    col(a-1, b, c)[n], plus one list pass per nonzero Ramanujan term over
    the zipped columns, then one divmod pass by k.  Each division is
    checked, not assumed: a remainder raises ArithmeticError naming the
    first such q-power, and the stored column stays as it was."""
    if not any(mono):
        return 1, (1,) + (0,) * order
    scale, col = _columns.get(mono, (0, ()))
    if len(col) > order:
        return scale, col
    a, b, c = mono
    if mono in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        k = 2 * a + 4 * b + 6 * c
        constant = _eisenstein_constant(k)
        scale = constant.denominator
        sigmas = divisor_sigmas(k - 1, order)
        col = (constant.numerator, *(scale * x for x in sigmas))
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
        start = len(col)
        row = [-24 * n * x for n, x in enumerate(lower[start : order + 1], start)]
        for f, m in (
            (2 * (a - 1), (a - 2, b + 1, c)),
            (8 * b, (a - 1, b - 1, c + 1)),
            (12 * c, (a - 1, b + 2, c - 1)),
        ):
            if f:
                other = _column(m, order)[1][start : order + 1]
                row = [x + f * y for x, y in zip(row, other)]
        new, rems = zip(*map(divmod, row, repeat(k)))
        if any(rems):
            n = start + next(i for i, r in enumerate(rems) if r)
            raise ArithmeticError(f"column {mono} is not integral at q^{n}")
        col += new
    _columns[mono] = scale, col
    return scale, col


def _product(lower, gen, start, order):
    """Entries start .. order of the product of two integer series, each
    the dot product of lower with the reversed gen."""
    rev = gen[order::-1]
    return tuple(
        sum(map(mul, lower, rev[order - n :])) for n in range(start, order + 1)
    )


def _integer_sum(terms, series, order: int) -> tuple[int, list[int]]:
    """(den, den * the q^0 .. q^order coefficients of sum coeff/scale * ints
    over the (key, coeff) of terms, with (scale, ints) = series(key, order)),
    den the lcm of the denominators of each coeff/scale.  The one integer
    sum of the module: on the columns (_block) and on the blocks
    (block_sum).  Each coeff/scale is reduced in integers, without a
    Fraction."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    # coeff/scale in lowest terms, with gcd(num, scale) alone: num and
    # coeff's denominator are coprime already
    scaled = []
    for key, coeff in terms:
        scale, ints = series(key, order)
        num = coeff.numerator
        g = gcd(num, scale)
        scaled.append((num // g, coeff.denominator * (scale // g), ints))
    den = lcm(*(d for _, d, _ in scaled))
    total = [0] * (order + 1)
    for num, d, ints in scaled:
        x = num * (den // d)
        total = [t + x * y for t, y in zip(total, ints)]
    return den, total


def _apostol_terms(k: int) -> list[tuple[Fraction, int, int]]:
    """The (x, w, k-w), w <= k-w, with G_k = sum x G_w G_(k-w), k >= 8
    even: Apostol's recurrence (Modular Functions and Dirichlet Series,
    Thm 1.13) for the Laurent coefficients c_n = 2 G_2n / (2n-2)! of
    elliptic.weierstrass_expansion,
        (2n+1)(n-3) c_n = 3 sum_{i=2}^{n-2} c_i c_(n-i),
    solved for G_k, k = 2n, with the terms i and n-i taken together
    (w = 2i).  The one home of the recurrence: _block_polynomial (G_k
    as its i = 0 case) and _eisenstein_constant both read it."""
    # term i is 6 (k-2)! / ((k+1)(n-3) (2i-2)! (k-2i-2)!), one binomial
    # C(k-4, 2i-2) since (2i-2) + (k-2i-2) = k-4, stepped along its row
    # two entries at a time; for i < n/2 it also stands for the equal term
    # n-i, so it counts twice
    n = k // 2
    num, den = 6 * (k - 2) * (k - 3), (k + 1) * (n - 3)
    terms = []
    binom = 1
    for i in range(2, n // 2 + 1):
        r = 2 * i - 2
        binom = binom * (k - 2 - r) * (k - 3 - r) // ((r - 1) * r)
        x = Fraction(num * binom, den)
        terms.append((x if 2 * i == n else 2 * x, 2 * i, k - 2 * i))
    return terms


# [q^0]G_2, [q^0]G_4, ..: entry i is [q^0]G_(2i+2), grown by
# _eisenstein_constant to the largest weight asked for
_eisenstein_constants: list[Fraction] = []


def _eisenstein_constant(k: int) -> Fraction:
    """[q^0]G_k, k >= 2 even: eisenstein(k, 0) for k <= 6, then
    _apostol_terms at q^0 (Euler's convolution identity for zeta(2n)), so
    it equals -B_k/(2k) without reading a Bernoulli number above B_6:
    each weight is the Fraction sum of its terms x G_i G_(k-i) at q^0.
    Grown bottom-up in _eisenstein_constants, so no call recurses by
    weight."""
    c = _eisenstein_constants
    for w in range(2 * len(c) + 2, k + 1, 2):
        if w <= 6:
            c.append(eisenstein(w, 0).coeffs[0])
            continue
        c.append(
            sum(x * c[i // 2 - 1] * c[j // 2 - 1] for x, i, j in _apostol_terms(w))
        )
    return c[k // 2 - 1]


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
    return QuasimodularPoly._built(terms)


@lru_cache(maxsize=None)
def _block_polynomial(i: int, k: int) -> QuasimodularPoly:
    """The block D^i G_k, k >= 2 even, as a polynomial of weight k + 2i;
    the one builder of every block.  G_k is its i = 0 case: a generator
    for k <= 6, else the products of _apostol_terms(k) over i = 0 blocks."""
    if i:
        return _derivative(_block_polynomial(i - 1, k))
    if k <= 6:
        mono = (int(k == 2), int(k == 4), int(k == 6))
        return QuasimodularPoly._built([(mono, Fraction(1))])
    return QuasimodularPoly._built(
        (tuple(map(add, m1, m2)), x * x1 * x2)
        for x, w, v in _apostol_terms(k)
        for m1, x1 in _block_polynomial(0, w)._terms
        for m2, x2 in _block_polynomial(0, v)._terms
    )


# (i, k) -> (den, den * D^i G_k up to at least q^order as integers), grown
# by _block to the largest order asked for
_blocks: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}


def _block(i: int, k: int, order: int) -> tuple[int, tuple[int, ...]]:
    """The integer series of the block D^i G_k, summed on the columns by
    _integer_sum once, and again only when a larger order is asked for."""
    block = _blocks.get((i, k))
    if block is None or len(block[1]) <= order:
        den, ints = _integer_sum(_block_polynomial(i, k)._terms, _column, order)
        block = _blocks[i, k] = den, tuple(ints)
    return block


@lru_cache(maxsize=None)
def _necklace_coefficients(j_plus: int, j_minus: int) -> tuple[Fraction, ...]:
    """c_i for i = 0 .. m-1, m = j_plus + j_minus, with
    P(n) = sum_i c_i n^i = C(n - j_minus + m - 1, m - 1)
    + C(n - j_plus + m - 1, m - 1): each binomial times (m-1)! is the
    integer polynomial (n - start + 1) ... (n - start + m - 1)."""
    m = j_plus + j_minus
    c = [0] * m
    for start in (j_minus, j_plus):
        binom = [1]
        for t in range(1 - start, m - start):
            binom = [t * x + y for x, y in zip(binom + [0], [0] + binom)]
        c = list(map(add, c, binom))
    return tuple(Fraction(x, factorial(m - 1)) for x in c)


def necklace_blocks(
    g: int, j_plus: int, j_minus: int
) -> list[tuple[Fraction, int, int]]:
    """The polynomial of the necklace coefficient series
    (elliptic._necklace_row), built, not recognized (Oberdieck-Pixton: the
    series is quasimodular), as the (c_i, i, k) of its blocks: it is
    sum c_i D^i G_k over them; elliptic.top_weight_check compares its sum
    with the series from q^0 at every weight, and fit's result with it up
    to weight 12.

    With m = j_plus + j_minus and K = 2g - 2 + m the series is
    sum_{a, n >= 1} a^K P(n) q^(an), where P(n) = sum_i c_i n^i is
    C(n - j_minus + m - 1, m - 1) + C(n - j_plus + m - 1, m - 1) (each
    binomial vanishes below its branch's first term), so beyond q^0 it
    is sum_i c_i D^i G_(K-i+1); the c_i (_necklace_coefficients) are the
    polynomial's own Fraction coefficients, the same for every genus, and
    only the nonzero ones are listed.  A nonzero c_i with K - i + 1 odd
    raises ArithmeticError.  No block is the constant monomial.  At q^0
    the sum is c_0 [q^0]G_(K+1), c_0 = P(0) nonzero only when
    j_minus = 0, and it equals the series' regularized constant
    zeta(-K) = -B_(K+1)/(K+1): Apostol's constant of G_(K+1) against a
    Bernoulli number when m is odd, 0 = 0 when m is even.
    """
    if g < 1 or j_plus < 1 or j_minus < 0:
        raise ValueError("requires g >= 1, j_plus >= 1, j_minus >= 0")
    terms = []
    for i, c in enumerate(_necklace_coefficients(j_plus, j_minus)):
        k = 2 * g - 1 + j_plus + j_minus - i
        if c and k % 2:
            raise ArithmeticError(f"c_{i} = {c} would multiply D^{i} G_{k}")
        if c:
            terms.append((c, i, k))
    return terms


def block_sum(terms, order: int) -> tuple[int, list[int]]:
    """(den, den * the q^0 .. q^order coefficients of sum c D^i G_k over
    the (c, i, k) of terms): _integer_sum on each block's integer series
    from _block."""
    return _integer_sum(
        (((i, k), c) for c, i, k in terms), lambda key, n: _block(*key, n), order
    )


def _fit_monomials(max_weight: int, order: int) -> tuple[Monomial, ...]:
    """The monomials a fit at max_weight solves for, all but 1; ValueError
    unless the rows q^1 .. q^order leave _MARGIN surplus rows (a fit that
    merely interpolates proves nothing)."""
    if max_weight < 0 or max_weight % 2:
        raise ValueError(f"max_weight must be even and >= 0, got {max_weight}")
    monos = basis(max_weight)[1:]
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
    (max_weight, order) alone.  The solution of its leading square block
    (_solve) is the candidate, kept as integers w = det z: summed on the
    integer columns, sum_j w_j col_j at q^n must equal det times the
    series' integer row rhs at every q^1 .. q^order (rhs = den s, den
    the lcm of the row's denominators), or the first q-power it misses
    is the witness.  No Fraction is built before the candidate is
    accepted.

    Growing _lu costs O(C^3) steps on minors that grow with its C
    columns: from empty it took 0.1 s at weight 18, 1.0-1.3 s at 22 and
    11 s at 26 (CPython 3.11, 2 vCPUs).  elliptic.top_weight_check builds
    the polynomial at every weight and runs fit as its recognition oracle
    up to _FIT_MAX_WEIGHT only.

    The coefficient of 1 is the series' q^0 coefficient minus the
    candidate's q^0 value, the same column sum at q^0 over den det; for a
    necklace series, whose built polynomial has no constant monomial, it
    must be 0, which compares the series' q^0 with the fitted terms.

    Returns the unique matching polynomial, or a FitInconsistency naming
    the first q-power at which no polynomial can match.
    """
    monos = _fit_monomials(max_weight, s.order)
    powers = range(1, s.order + 1)
    cols = [_column(m, s.order) for m in monos]
    # rows q^1 .. q^order in integers: sum_j col_j[n] x_j / scale_j = rhs / den
    den = lcm(*(s.coeffs[n].denominator for n in powers))
    rhs = [
        s.coeffs[n].numerator * (den // s.coeffs[n].denominator) for n in powers
    ]
    w, det = _solve([col for _, col in cols], rhs)
    # den det times the candidate's q^0 .. q^order coefficients
    values = [0] * (s.order + 1)
    for x, (_, col) in zip(w, cols):
        values = [v + x * y for v, y in zip(values, col)]
    miss = next((n for n in powers if values[n] != det * rhs[n - 1]), None)
    if miss:
        return FitInconsistency(miss, max_weight)
    terms = [
        (m, Fraction(scale * x, den * det)) for m, (scale, _), x in zip(monos, cols, w)
    ]
    terms.append(((0, 0, 0), s.coeffs[0] - Fraction(values[0], den * det)))
    return QuasimodularPoly._built(terms)


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
