"""Exact rational arithmetic and the classical integer sequences.

Every scalar in this package is a Python int or a fractions.Fraction;
floating point is never used, so all comparisons are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "bernoulli",
    "double_factorial_odd",
    "factorial",
    "format_rational",
]

# n!, which raises ValueError for n < 0
factorial = math.factorial

_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k, convention B_1 = -1/2.

    Only even indices are consumed by the intersection formulas, so the
    B_1 convention never becomes observable there.  Values are computed
    by the defining recurrence and cached; the cache grows to the
    largest index requested.
    """
    if k < 0:
        raise ValueError(f"bernoulli index must be >= 0, got {k}")
    for m in range(len(_bernoulli_cache), k + 1):
        acc = sum(math.comb(m + 1, j) * _bernoulli_cache[j] for j in range(m))
        _bernoulli_cache.append(Fraction(-acc, m + 1))
    return _bernoulli_cache[k]


@lru_cache(maxsize=None)
def double_factorial_odd(m: int) -> int:
    """m!! for odd m >= -1, with the empty-product convention (-1)!! = 1."""
    if m < -1 or m % 2 == 0:
        raise ValueError(f"double_factorial_odd requires odd m >= -1, got {m}")
    out = 1
    while m >= 1:
        out *= m
        m -= 2
    return out


def format_rational(x: Fraction | int) -> str:
    """Serialize an exact scalar as "num/den", always with the denominator."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
