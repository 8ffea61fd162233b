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
    "rational",
]

# n!, which raises ValueError for n < 0
factorial = math.factorial

# entry i is B_2i, grown by bernoulli to the largest index asked for
_bernoulli_cache: list[Fraction] = [Fraction(1)]


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k, convention B_1 = -1/2.

    Only even indices are consumed by the intersection formulas, so the
    B_1 convention never becomes observable there.  B_1 and the odd
    B_k = 0 (k >= 3) are constants; the even ones come from the defining
    recurrence sum_{j<=2n} C(2n+1, j) B_j = 0 with its one odd term,
    j = 1, written out:
        B_2n = 1/2 - sum_{i<n} C(2n+1, 2i) B_2i / (2n+1),
    cached up to the largest index requested.
    """
    if k < 0:
        raise ValueError(f"bernoulli index must be >= 0, got {k}")
    if k % 2:
        return Fraction(-1, 2) if k == 1 else Fraction(0)
    c = _bernoulli_cache
    for n in range(len(c), k // 2 + 1):
        # C(2n+1, 2i) stepped along its row two entries at a time
        top, binom, acc = 2 * n + 1, 1, Fraction(0)
        for i in range(n):
            acc += binom * c[i]
            r = top - 2 * i
            binom = binom * r * (r - 1) // ((2 * i + 1) * (2 * i + 2))
        c.append(Fraction(1, 2) - acc / (2 * n + 1))
    return c[k // 2]


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


def rational(x: Fraction | int) -> Fraction:
    """x as a Fraction; TypeError unless x is an int or a Fraction, so no
    float becomes a binary fraction unnoticed."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"need an int or a Fraction, got {type(x).__name__} {x!r}")


def format_rational(x: Fraction | int) -> str:
    """Serialize an exact scalar as "num/den", always with the denominator."""
    x = rational(x)
    return f"{x.numerator}/{x.denominator}"
