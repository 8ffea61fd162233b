from fractions import Fraction
from math import factorial

import pytest

from soclecalc.drcycle import (
    dr2,
    dr3_bssz_check,
    dr3_closed,
    dr3_recursive,
    dr_standard,
)
from soclecalc.exact import double_factorial_odd


@pytest.mark.parametrize(
    "g,a1,a2,value",
    [
        (0, 7, -3, Fraction(1)),
        (1, 1, -1, Fraction(1, 12)),
        (1, 1, 1, Fraction(1, 12)),
        (2, 1, -1, Fraction(1, 240)),
    ],
)
def test_dr3_closed_frozen_values(g, a1, a2, value):
    # genus 1 values hand-checked: (a1^2-a1*a2+a2^2) = 3 gives 3/36,
    # and (1,1) gives 1/36 + 4/72
    assert dr3_closed(g, a1, a2) == value


def test_dr3_recursive_base_and_first_step():
    assert dr3_recursive(0, 123, -5) == 1
    # 3*I_1 = 4/24 + (1/12)*1
    assert dr3_recursive(1, 1, 1) == Fraction(1, 12)


def test_homogeneity_degree_2g():
    for g in range(0, 5):
        for t in (2, 3, -4):
            for a1, a2 in [(1, 2), (3, -1), (0, 5)]:
                assert dr3_closed(g, t * a1, t * a2) == t ** (
                    2 * g
                ) * dr3_closed(g, a1, a2)


def test_symmetry():
    for g in range(0, 6):
        for a1, a2 in [(1, 2), (4, -3), (2, 2), (0, 3)]:
            v = dr3_closed(g, a1, a2)
            assert dr3_closed(g, a2, a1) == v
            assert dr3_closed(g, -a1, -a2) == v


def test_dr2_values():
    assert dr2(1, 1) == Fraction(1, 24)
    assert dr2(0, 5) == 1
    assert dr2(2, 2) == Fraction(1, 72)


def test_bssz_rejects_out_of_regime_input():
    with pytest.raises(ValueError):
        dr3_bssz_check(0, 1, 1)
    with pytest.raises(ValueError):
        dr3_bssz_check(2, -1, 3)


def test_dr_standard_closed_value():
    assert dr_standard(0) == 1
    assert dr_standard(1) == Fraction(1, 12)
    assert dr_standard(2) == Fraction(1, 240)
    for g in range(0, 13):
        assert dr_standard(g) * double_factorial_odd(2 * g + 1) * 4**g == 1



# --- the Fraction-chain evaluators that dr3_closed and dr3_recursive
# replaced by one integer numerator over a known denominator


def _fraction_chain_closed(g, a1, a2):
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


def _fraction_chain_recursive(g, a1, a2):
    s2 = (a1 + a2) ** 2
    p = a1 * a1 - a1 * a2 + a2 * a2
    value = Fraction(1)
    for k in range(1, g + 1):
        top = Fraction(s2**k, 24**k * factorial(k)) + Fraction(p, 12) * value
        value = top / (2 * k + 1)
    return value


def test_integer_kernels_match_the_fraction_chains():
    for g in range(15):
        for a1 in range(-6, 7):
            for a2 in range(-6, 7):
                value = _fraction_chain_closed(g, a1, a2)
                assert _fraction_chain_recursive(g, a1, a2) == value
                assert dr3_closed(g, a1, a2) == value
                assert dr3_recursive(g, a1, a2) == value
