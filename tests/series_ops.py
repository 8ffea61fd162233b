"""Test-local q-series operations that the package itself never runs:
q d/dq, and the coefficientwise sum and the Cauchy product, which
truncate to the smaller order as QSeries's product does."""

from soclecalc.qseries import QSeries


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
