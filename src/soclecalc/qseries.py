"""Truncated formal power series in q over exact rationals.

A QSeries keeps coefficients of q^0 .. q^order inclusive: a frozen value
without scalar algebra.  Its product of two series, truncated to the
smaller order, stays only for the benchmark tracer.

The q^0 slot can be flagged unknown (constant_known=False), for the
regularized coefficient series whose constant term is only defined
through a limiting procedure; reading that constant or multiplying by
the series raises.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact import bernoulli, rational
from .report import _Frozen, _set

__all__ = [
    "QSeries",
    "eisenstein",
]


class QSeries(_Frozen):
    """Coefficients of q^0 .. q^order, each an int or a Fraction (kept as
    Fractions; anything else raises TypeError)."""

    __slots__ = ("coeffs", "constant_known")

    def __init__(self, coeffs, constant_known: bool = True):
        coeffs = tuple(c if isinstance(c, Fraction) else rational(c) for c in coeffs)
        if not coeffs:
            raise ValueError("QSeries needs at least the q^0 coefficient")
        if not constant_known:
            # canonical placeholder so that equality stays structural
            coeffs = (Fraction(0),) + coeffs[1:]
        _set(self, "coeffs", coeffs)
        _set(self, "constant_known", constant_known)

    @classmethod
    def _built(cls, row, constant_known: bool) -> QSeries:
        """The series of an integer row that the package built itself, so
        no coefficient is validated: each becomes a Fraction, and the row's
        q^0 entry is already the placeholder 0 when constant_known is
        false, the public constructor's canonical form."""
        s = cls.__new__(cls)
        _set(s, "coeffs", tuple(map(Fraction, row)))
        _set(s, "constant_known", constant_known)
        return s

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        if n == 0 and not self.constant_known:
            raise ValueError("q^0 coefficient of this series is unknown")
        return self.coeffs[n]

    def __mul__(self, other):
        """The product truncated to the smaller order.  The package
        multiplies no series: this stays only because benchmarks/tracing.py
        wraps it, and the next change to the benchmark deletes it."""
        if not isinstance(other, QSeries):
            return NotImplemented
        if not (self.constant_known and other.constant_known):
            raise ValueError(
                "cannot multiply series with unknown q^0 coefficient"
            )
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, ci in enumerate(self.coeffs[: n + 1]):
            if ci == 0:
                continue
            for j in range(n - i + 1):
                out[i + j] += ci * other.coeffs[j]
        return QSeries(tuple(out))


@lru_cache(maxsize=None)
def divisor_sigmas(power: int, order: int) -> tuple[int, ...]:
    """(sigma_power(1), .., sigma_power(order)), sigma_power(n) the sum of
    d^power over the divisors d of n: one sieve that adds d^power to every
    multiple of each d <= order.  Memoized, and a tuple so that no caller
    can change the shared sums: eisenstein, modfit's generator columns and
    elliptic._top_weight_target read the same ones."""
    sums = [0] * (order + 1)
    for d in range(1, order + 1):
        dp = d**power
        for n in range(d, order + 1, d):
            sums[n] += dp
    return tuple(sums[1:])


@lru_cache(maxsize=None)
def eisenstein(k: int, order: int) -> QSeries:
    """Eisenstein series G_k truncated at q^order.

    G_k(q) = -B_k/(2k) + sum_{n>=1} sigma_{k-1}(n) q^n.  The divisor
    power k-1 is the one consistent with the weight convention
    wt(G_k) = k and with the Laurent expansion of the shifted
    Weierstrass function; elliptic.check_divisor_power_k_fails shows
    that the power k breaks the propagator identity.
    """
    if k < 2 or k % 2 or order < 0:
        raise ValueError(f"need an even weight k >= 2 and order >= 0, got {k}, {order}")
    coeffs = [-bernoulli(k) / (2 * k)]
    coeffs.extend(map(Fraction, divisor_sigmas(k - 1, order)))
    return QSeries(tuple(coeffs))
