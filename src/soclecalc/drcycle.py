"""Integrals of three-point ramification cycles against the top Hodge
class and a power of the first cotangent class.

Two deliberately independent evaluators are provided for the three-point
integral: a closed summation formula (dr3_closed) and a genus recursion
(dr3_recursive).  Their exact agreement is the module's principal
self-check, so they share no code beyond rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exact import double_factorial_odd, factorial
from .report import CheckResult, failed, passed

__all__ = [
    "dr2",
    "dr3_bssz_check",
    "dr3_closed",
    "dr3_recursive",
    "dr_standard",
]


def dr3_closed(g: int, a1: int, a2: int) -> Fraction:
    """Closed form of the three-point integral, genus g >= 0.

    A homogeneous polynomial of degree 2g in (a1, a2); defined for all
    integer multiplicities including zero and mixed signs.
    """
    if g < 0:
        raise ValueError("genus must be >= 0")
    s2 = (a1 + a2) ** 2
    p = a1 * a1 - a1 * a2 + a2 * a2
    total = Fraction(0)
    for j in range(g + 1):
        coeff = Fraction(
            double_factorial_odd(2 * j - 1),
            double_factorial_odd(2 * g + 1) * 2**j * factorial(j),
        )
        total += coeff * s2**j * p ** (g - j)
    return total / 12**g


@lru_cache(maxsize=None)
def _dr3_rec(g: int, p: int, s2: int) -> Fraction:
    # recursion depends on (a1, a2) only through p = a1^2-a1*a2+a2^2
    # and s2 = (a1+a2)^2
    if g == 0:
        return Fraction(1)
    top = Fraction(s2**g, 24**g * factorial(g)) + Fraction(p, 12) * _dr3_rec(
        g - 1, p, s2
    )
    return top / (2 * g + 1)


def dr3_recursive(g: int, a1: int, a2: int) -> Fraction:
    """Independent evaluator for the same integral, by genus recursion."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    return _dr3_rec(g, a1 * a1 - a1 * a2 + a2 * a2, (a1 + a2) ** 2)


def dr2(g: int, b: int) -> Fraction:
    """Two-point value b^(2g) / (24^g g!)."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    return Fraction(b ** (2 * g), 24**g * factorial(g))


def dr3_bssz_check(g: int, a1: int, a2: int) -> CheckResult:
    """Exact check of the two-point reduction identity for the
    three-point integral, in the strictly positive regime:

        (a1+a2)(2g+1) I_g(a1,a2)
          = (a1+a2) dr2(g, a1+a2)
          + 2 I_{g-1}(a1,a2) (a1 dr2(1,a1) + a2 dr2(1,a2)).
    """
    if g < 1 or a1 <= 0 or a2 <= 0:
        raise ValueError("requires g >= 1 and strictly positive multiplicities")
    lhs = (a1 + a2) * (2 * g + 1) * dr3_closed(g, a1, a2)
    rhs = (a1 + a2) * dr2(g, a1 + a2) + 2 * dr3_closed(g - 1, a1, a2) * (
        a1 * dr2(1, a1) + a2 * dr2(1, a2)
    )
    if lhs == rhs:
        return passed("dr.bssz", g=g, a1=a1, a2=a2)
    return failed("dr.bssz", {"lhs": lhs, "rhs": rhs}, g=g, a1=a1, a2=a2)


@lru_cache(maxsize=None)
def dr_standard(g: int) -> Fraction:
    """The unit-multiplicity specialization dr3_closed(g, 1, -1), equal
    to 1 / ((2g+1)!! 4^g); the per-vertex factor of the necklace sums."""
    return dr3_closed(g, 1, -1)
