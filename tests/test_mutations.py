"""Mutation rows: each perturbs one exact kernel and names the check that
must catch it.

A row holds the kernel, its perturbation (applied with monkeypatch), and
the checks that must fail; every memo the perturbation reaches is
cleared before and after it.  The rows cover the built top-weight
polynomial (modfit.necklace_polynomial): each constant of Ramanujan's
equations in the derivation, and one value of the Apostol recurrence.
Each must fail elliptic.top_weight at g = 4, m = 4 (weight 14, above
the fitted weights) with j- = 0 and with j- >= 1, through the
comparison of the built polynomial with the necklace series.
"""

from fractions import Fraction

import pytest

from soclecalc import modfit
from soclecalc.elliptic import top_weight_check
from soclecalc.modfit import QuasimodularPoly, basis

# the memos of the construction
CACHES = (modfit._eisenstein_polynomial, modfit._derivative)


def _ramanujan(i, value):
    constants = list(modfit._RAMANUJAN)
    constants[i] = value
    return tuple(constants)


def _doubled_g8():
    honest = modfit._eisenstein_polynomial

    def doubled(k):
        p = honest(k)
        if k == 8:
            p = QuasimodularPoly((m, 2 * x) for m, x in p.terms.items())
        return p

    return doubled


ROWS = {
    "DG2 5/6 -> 5/7": ("_RAMANUJAN", lambda: _ramanujan(0, Fraction(5, 7))),
    "DG4 7/10 -> 7/11": ("_RAMANUJAN", lambda: _ramanujan(1, Fraction(7, 11))),
    "DG6 400/7 -> 400/9": ("_RAMANUJAN", lambda: _ramanujan(2, Fraction(400, 9))),
    "Apostol G_8 doubled": ("_eisenstein_polynomial", _doubled_g8),
}


@pytest.mark.parametrize("row", ROWS)
def test_construction_mutation_fails_top_weight(row, monkeypatch):
    name, perturbed = ROWS[row]
    q_order = len(basis(14)) + 5
    try:
        with monkeypatch.context() as patch:
            for cache in CACHES:
                cache.cache_clear()
            patch.setattr(modfit, name, perturbed())
            for j_plus in (4, 2):
                res = top_weight_check(4, j_plus, 4 - j_plus, q_order)
                assert not res.ok, (row, j_plus)
                assert "construction_q_power" in res.witness, (row, res.witness)
    finally:
        for cache in CACHES:
            cache.cache_clear()
    assert top_weight_check(4, 2, 2, q_order).ok
