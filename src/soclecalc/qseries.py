"""Truncated formal power series in q over exact rationals.

A QSeries keeps coefficients of q^0 .. q^order inclusive.  Arithmetic
between two series truncates to the smaller order: series are
approximations by construction, so the silent truncation is the
documented behaviour, never an error.

The q^0 slot can be flagged unknown (constant_known=False).  That state
arises for regularized coefficient series whose constant term is only
defined through a limiting procedure; any operation that would read the
unknown constant either propagates the flag or raises.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact import bernoulli, rational
from .report import _Frozen, _set

__all__ = [
    "QSeries",
    "eisenstein",
    "q_d_q",
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

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls((Fraction(0),) * (order + 1))

    @classmethod
    def constant(cls, value, order: int) -> "QSeries":
        return cls((rational(value),) + (Fraction(0),) * order)

    def __getitem__(self, n: int) -> Fraction:
        if n == 0 and not self.constant_known:
            raise ValueError("q^0 coefficient of this series is unknown")
        return self.coeffs[n]

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        known = self.constant_known and other.constant_known
        return QSeries(
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)), known
        )

    def __neg__(self) -> "QSeries":
        return QSeries(tuple(-c for c in self.coeffs), self.constant_known)

    def scale(self, c) -> "QSeries":
        c = rational(c)
        return QSeries(tuple(c * x for x in self.coeffs), self.constant_known)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
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

    __rmul__ = __mul__


def divisor_sigmas(power: int, order: int) -> list[int]:
    """[sigma_power(1), .., sigma_power(order)], sigma_power(n) the sum of
    d^power over the divisors d of n: one sieve that adds d^power to every
    multiple of each d <= order."""
    sums = [0] * (order + 1)
    for d in range(1, order + 1):
        dp = d**power
        for n in range(d, order + 1, d):
            sums[n] += dp
    return sums[1:]


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


def q_d_q(s: QSeries) -> QSeries:
    """The derivation q d/dq: multiplies the q^n coefficient by n.

    The constant is killed, so the output q^0 coefficient is known (0)
    even when the input constant was a regularization placeholder.
    """
    return QSeries(tuple(n * c for n, c in enumerate(s.coeffs)))
