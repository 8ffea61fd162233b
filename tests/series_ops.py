"""Test-local q-series operations that the package itself never runs:
the zero and constant series, scaling by a number, q d/dq, the
coefficientwise sum and the Cauchy product, which truncate to the smaller
order as QSeries's product does, and the Fraction oracle of the
quasimodular polynomials: each monomial as a literal product of
Eisenstein series, and a polynomial as the sum of its monomials.  Also
the necklace coefficient series as a QSeries, read off the integer row
that the top-weight check compares, and a polynomial's graded part."""

from functools import lru_cache

from soclecalc import elliptic
from soclecalc.exact import rational
from soclecalc.modfit import QuasimodularPoly, monomial_weight
from soclecalc.qseries import QSeries, eisenstein


def zero(order):
    return QSeries((0,) * (order + 1))


def constant(value, order):
    return QSeries((rational(value),) + (0,) * order)


def scale(s, c):
    # c times every coefficient
    c = rational(c)
    return QSeries(tuple(c * x for x in s.coeffs))


def q_d_q(s):
    # the derivation q d/dq, which kills the constant
    return QSeries(tuple(n * c for n, c in enumerate(s.coeffs)))


def plus(s, t):
    n = min(s.order, t.order)
    return QSeries(tuple(s.coeffs[i] + t.coeffs[i] for i in range(n + 1)))


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
        return constant(1, order)
    j = max(i for i, e in enumerate(mono) if e)
    lower = tuple(e - (i == j) for i, e in enumerate(mono))
    return times(monomial_series(lower, order), eisenstein(2 * j + 2, order))


def evaluate(p, order):
    # substitute the Eisenstein q-expansions and expand exactly, in
    # Fractions: the sum of coefficient times monomial series
    total = zero(order)
    for mono, c in p.terms.items():
        total = plus(total, scale(monomial_series(mono, order), c))
    return total


def necklace_series(g, j_plus, j_minus, order):
    # the necklace coefficient series up to q^order, its regularized q^0
    # included, as the QSeries of elliptic._necklace_row's (den, ints)
    return QSeries._built(*elliptic._necklace_row(g, j_plus, j_minus, order))


def graded_part(p, weight):
    # the terms of p whose monomial has exactly the given weight
    return QuasimodularPoly(
        (m, c) for m, c in p.terms.items() if monomial_weight(m) == weight
    )
