"""Integrals of three-point ramification cycles against the top Hodge
class and a power of the first cotangent class.

Two deliberately independent evaluators are provided for the three-point
integral: a closed summation formula (dr3_closed) and a genus recursion
(dr3_recursive).  Their exact agreement is the module's principal
self-check, so they share no code beyond integer arithmetic.  Each sums
an integer numerator over a denominator it knows in closed form and
builds one Fraction at the end.  The recursion also serves the wheel
oracle (socle.wheel_collapse_check), whose literal side takes its vertex
integrals from dr3_recursive while the collapsed side takes them from
dr3_closed through dr_standard.
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
    """Closed form of the three-point integral, genus g >= 0:

        sum_j (2j-1)!! 2^(g-j) (g!/j!) s2^j p^(g-j)
          / (12^g (2g+1)!! 2^g g!)

    with s2 = (a1+a2)^2 and p = a1^2 - a1 a2 + a2^2.  A homogeneous
    polynomial of degree 2g in (a1, a2); defined for all integer
    multiplicities including zero and mixed signs.
    """
    if g < 0:
        raise ValueError("genus must be >= 0")
    s2 = (a1 + a2) ** 2
    p = a1 * a1 - a1 * a2 + a2 * a2
    g_fact = factorial(g)
    odd = 1  # (2j-1)!!
    falling = g_fact  # g!/j!
    num = 0
    for j in range(g + 1):
        if j:
            odd *= 2 * j - 1
            falling //= j
        num += odd * 2 ** (g - j) * falling * s2**j * p ** (g - j)
    return Fraction(num, 12**g * double_factorial_odd(2 * g + 1) * 2**g * g_fact)


@lru_cache(maxsize=None)
def _dr3_rec(g: int, p: int, s2: int) -> tuple[int, int, int]:
    # (N_g, (2g+1)!!, 24^g g! (2g+1)!!), the integral being N_g over the
    # last entry, with N_g = s2^g (2g-1)!! + 2g p N_{g-1} and N_0 = 1;
    # depends on (a1, a2) only through p = a1^2-a1*a2+a2^2 and
    # s2 = (a1+a2)^2
    if g == 0:
        return 1, 1, 1
    num, odd, den = _dr3_rec(g - 1, p, s2)
    return (
        s2**g * odd + 2 * g * p * num,
        (2 * g + 1) * odd,
        24 * g * (2 * g + 1) * den,
    )


def dr3_recursive(g: int, a1: int, a2: int) -> Fraction:
    """Independent evaluator for the same integral, by the genus
    recursion (2g+1) I_g = s2^g / (24^g g!) + (p/12) I_{g-1}, I_0 = 1."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    num, _, den = _dr3_rec(g, a1 * a1 - a1 * a2 + a2 * a2, (a1 + a2) ** 2)
    return Fraction(num, den)


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
