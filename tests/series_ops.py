"""Test-local q-series operations that the package itself never runs:
q d/dq, the coefficientwise sum and the Cauchy product, which truncate to
the smaller order as QSeries's product does, and the Fraction oracle of
the quasimodular polynomials: each monomial as a literal product of
Eisenstein series, and a polynomial as the sum of its monomials."""

from functools import lru_cache

from soclecalc.qseries import QSeries, eisenstein


def q_d_q(s):
    # the derivation q d/dq kills the constant, so the result's q^0 is known
    return QSeries(tuple(n * c for n, c in enumerate(s.coeffs)))


def plus(s, t):
    n = min(s.order, t.order)
    return QSeries(
        tuple(s.coeffs[i] + t.coeffs[i] for i in range(n + 1)),
        s.constant_known and t.constant_known,
    )


def times(s, t):
    # the Cauchy product of two series, truncated to the smaller order
    n = min(s.order, t.order)
    return QSeries(
        tuple(
            sum(s.coeffs[i] * t.coeffs[m - i] for i in range(m + 1))
            for m in range(n + 1)
        )
    )


@lru_cache(maxsize=None)
def monomial_series(mono, order):
    # G2^a G4^b G6^c as a literal product of Eisenstein series: the
    # memoized monomial with its last nonzero exponent lowered, times
    # that generator
    if not any(mono):
        return QSeries.constant(1, order)
    j = max(i for i, e in enumerate(mono) if e)
    lower = tuple(e - (i == j) for i, e in enumerate(mono))
    return times(monomial_series(lower, order), eisenstein(2 * j + 2, order))


def evaluate(p, order):
    # substitute the Eisenstein q-expansions and expand exactly, in
    # Fractions: the sum of coefficient times monomial series
    total = QSeries.zero(order)
    for mono, c in p.terms.items():
        total = plus(total, monomial_series(mono, order).scale(c))
    return total
