"""The graded ring of quasimodular forms C[G2, G4, G6].

Provides basis enumeration by weight, exact evaluation of polynomials in
the generators to truncated q-series, and the inverse problem: exact
recognition of a truncated series as such a polynomial.  Recognition is
the workhorse of the top-weight verification in the elliptic module.

Both directions work on integer columns.  Each G_k beyond q^0 is a
divisor sum, so den_k * G_k is an integer series (den_k = 24, 240, 504);
every monomial G2^a G4^b G6^c is kept as the integer series of
24^a 240^b 504^c times it, built from a cached monomial of one generator
fewer.  Recognition solves the resulting integer system modulo the
prime 2^127 - 1, rebuilds the rational solution by rational
reconstruction and certifies it exactly on every row.  Bareiss
fraction-free elimination solves only the systems that this cannot
certify, among them every inconsistent one, whose witness it gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
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
# reconstruction bound 2^63 is far above the numerators (< 2^28) and
# common denominators (< 2^32) of the top-weight fits at g, m <= 6
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
            mono = tuple(int(e) for e in mono)
            if len(mono) != 3 or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent triple {mono!r}")
            coeff = Fraction(coeff)
            if coeff != 0:
                acc[mono] = acc.get(mono, Fraction(0)) + coeff
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

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        names = ("G2", "G4", "G6")
        parts = []
        for mono, coeff in self._terms:
            factors = []
            for name, e in zip(names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors) if factors else "1"
            parts.append(body if coeff == 1 and factors else f"({coeff})*{body}")
        return " + ".join(parts)


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


@lru_cache(maxsize=None)
def _generator(k: int, order: int) -> tuple[int, tuple[int, ...]]:
    """(den_k, den_k * G_k up to q^order as integers), where den_k is the
    denominator of the constant term -B_k/(2k): 24, 240, 504 for k = 2,
    4, 6.  Every coefficient beyond q^0 is a divisor sum, so the scaled
    series is integral; that is checked here, not assumed."""
    series = eisenstein(k, order)
    den = series.coeffs[0].denominator
    scaled = [c * den for c in series.coeffs]
    if any(c.denominator != 1 for c in scaled):
        raise ArithmeticError(f"{den} * G_{k} is not an integer series")
    return den, tuple(c.numerator for c in scaled)


@lru_cache(maxsize=None)
def _column(mono: Monomial, order: int) -> tuple[int, tuple[int, ...]]:
    """(scale, scale * G2^a G4^b G6^c up to q^order as integers), with
    scale = 24^a 240^b 504^c.  Built as the cached column of the monomial
    with one generator fewer (its last nonzero exponent lowered) times
    that generator."""
    if not any(mono):
        return 1, (1,) + (0,) * order
    j = max(i for i, e in enumerate(mono) if e)
    lower = mono[:j] + (mono[j] - 1,) + mono[j + 1 :]
    scale, col = _column(lower, order)
    den, gen = _generator(2 * j + 2, order)
    out = [0] * (order + 1)
    for i, x in enumerate(col):
        if x:
            out[i:] = [o + x * y for o, y in zip(out[i:], gen)]
    return scale * den, tuple(out)


def evaluate(p: QuasimodularPoly, order: int) -> QSeries:
    """Substitute the Eisenstein q-expansions and expand exactly: the sum
    of coeff/scale times the integer column of each monomial, over one
    common denominator."""
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
    of the non-constant monomials of weight <= max_weight: the
    right-hand side is scaled to integers and the system is solved
    against the integer monomial columns.  The solve runs modulo _PRIME
    with rational reconstruction, and its candidate counts only after an
    exact integer check of every row.  When the columns lose rank modulo
    _PRIME, the system is inconsistent there, or the candidate fails,
    Bareiss fraction-free elimination solves it instead and gives the
    inconsistency witness.  The constant monomial 1 is zero beyond q^0,
    so it can only absorb the q^0 row; the system therefore depends on
    (max_weight, order) alone.  It must be overdetermined by at least
    _MARGIN surplus rows (a fit that merely interpolates proves
    nothing); too small an order is an error, not a guess.

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
    matrix = [[col[n] for _, col in cols] for n in powers]
    # the system in integers: matrix * (x_j / scale_j) = rhs / den
    den = lcm(*(s.coeffs[n].denominator for n in powers))
    rhs = [
        s.coeffs[n].numerator * (den // s.coeffs[n].denominator) for n in powers
    ]

    w, det, ok = _solve_modular(matrix, rhs) or _solve_fraction_free(matrix, rhs)
    if not ok:
        for row, b, row_power in zip(matrix, rhs, powers):
            if sum(a * x for a, x in zip(row, w)) != det * b:
                return FitInconsistency(row_power, max_weight)
        raise AssertionError("inconsistent solve reported but residual is zero")
    coeffs = [Fraction(scale * x, den * det) for (scale, _), x in zip(cols, w)]
    terms = dict(zip(monos, coeffs))
    if s.constant_known:
        terms[(0, 0, 0)] = s[0] - sum(
            (c * Fraction(col[0], scale) for c, (scale, col) in zip(coeffs, cols)),
            Fraction(0),
        )
    return QuasimodularPoly(terms)


def _solve_modular(matrix, rhs):
    """Solve the overdetermined integer system A z = b modulo _PRIME and
    certify the rational solution exactly, or return None.

    Eliminates [A | b] mod _PRIME with the pivot rule of
    _solve_fraction_free, back-substitutes, and rebuilds z = w / det
    component by component with a running common denominator det (Wang's
    rational reconstruction, numerator and denominator both at most
    isqrt(_PRIME // 2)).  The candidate counts only if A w == det * b
    holds exactly in integers on every row, surplus rows included.  By
    then A has full column rank mod _PRIME, hence over Q, so a certified
    w / det is the unique solution: the same fractions as the (w, det,
    True) of _solve_fraction_free.

    Returns None when A loses rank mod _PRIME, when [A | b] is
    inconsistent mod _PRIME (and so over Q: the caller needs Bareiss's
    witness), or when reconstruction or certification fails.
    """
    p = _PRIME
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [[x % p for x in row] + [b % p] for row, b in zip(matrix, rhs)]
    for c in range(ncols):
        pr = next((i for i in range(c, nrows) if aug[i][c]), None)
        if pr is None:
            return None
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c][c:] = tail = [x * inv % p for x in aug[c][c:]]
        for row in aug[c + 1 :]:
            f = row[c]
            if f:
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
    if any(aug[i][ncols] for i in range(ncols, nrows)):
        return None
    z = [0] * ncols
    for r in reversed(range(ncols)):
        row = aug[r]
        z[r] = (row[ncols] - sum(row[k] * z[k] for k in range(r + 1, ncols))) % p

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
    for row, b in zip(matrix, rhs):
        if sum(a * v for a, v in zip(row, w)) != det * b:
            return None
    return w, det, True


def _solve_fraction_free(matrix, rhs):
    """Solve the overdetermined integer system A z = b by Bareiss
    elimination, which keeps every entry an integer.

    Forward elimination runs over all rows; the pivot is the first
    nonzero entry at or below the current row.  Bareiss entries are
    nonzero multiples of the Gauss-Jordan entries, so the pivot rows are
    the ones Gauss-Jordan picks.  Returns (w, det, consistent): det is the
    determinant of the pivot rows, w = det * z is the integer solution of
    the pivot rows, and consistent says whether z satisfies every
    surplus row too.  Raises if the columns are linearly dependent, which
    cannot happen for distinct Eisenstein monomials with enough rows.
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
    consistent = all(aug[i][ncols] == 0 for i in range(ncols, nrows))
    return w, det, consistent
