"""Mutation rows: each perturbs one exact kernel and names the check that
must catch it.

A row holds the kernel (a module and a name), its perturbation (a
function of the honest value, applied with monkeypatch in every module
that binds it), the checks to run, the check names they report, and a
key of the witness that locates the mismatch.  Every check the row
runs must fail.  Every memo of the package is cleared before and after
each row, so no perturbed value survives it and none computed before it
hides it.

The construction rows perturb the built top-weight polynomial
(modfit.necklace_polynomial): each constant of Ramanujan's equations in
the derivation, and one value of the Apostol recurrence.  Each must fail
elliptic.top_weight at g = 4, m = 4 (weight 14, above the fitted
weights) with j- = 0 and with j- >= 1, through the comparison of the
built polynomial with the necklace series.  The kernel rows perturb one
value of a shared sequence or constant.
"""

from fractions import Fraction

import pytest

from soclecalc import cli, drcycle, elliptic, exact, modfit, qseries, socle
from soclecalc.elliptic import top_weight_check
from soclecalc.modfit import QuasimodularPoly, basis
from soclecalc.socle import (
    relation_integral_check,
    verify_string_consistency,
    wheel_collapse_check,
)

MODULES = (exact, qseries, modfit, elliptic, drcycle, socle, cli)

# every memo of the package, taken before any row replaces a name
MEMOS = (
    exact.double_factorial_odd,
    qseries.eisenstein,
    modfit._eisenstein_polynomial,
    modfit._derivative,
    drcycle._dr3_rec,
    drcycle.dr_standard,
    socle._necklace_value,
)


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()
    del exact._bernoulli_cache[1:]
    modfit._columns.clear()
    for part in modfit._lu:
        part.clear()


def _ramanujan(i, value):
    def perturb(constants):
        constants = list(constants)
        constants[i] = value
        return tuple(constants)

    return perturb


def _doubled_at(x):
    def perturb(honest):
        def doubled(*args):
            value = honest(*args)
            return 2 * value if args[0] == x else value

        return doubled

    return perturb


def _doubled_g8(honest):
    def doubled(k):
        p = honest(k)
        if k == 8:
            p = QuasimodularPoly((m, 2 * x) for m, x in p.terms.items())
        return p

    return doubled


def _top_weight_g4_m4():
    q_order = len(basis(14)) + 5
    return [top_weight_check(4, j_plus, 4 - j_plus, q_order) for j_plus in (4, 2)]


# label -> (module, name, perturbation); each must fail both checks of
# _top_weight_g4_m4 through the construction comparison
CONSTRUCTION_ROWS = {
    "DG2 5/6 -> 5/7": (modfit, "_RAMANUJAN", _ramanujan(0, Fraction(5, 7))),
    "DG4 7/10 -> 7/11": (modfit, "_RAMANUJAN", _ramanujan(1, Fraction(7, 11))),
    "DG6 400/7 -> 400/9": (modfit, "_RAMANUJAN", _ramanujan(2, Fraction(400, 9))),
    "Apostol G_8 doubled": (modfit, "_eisenstein_polynomial", _doubled_g8),
}

# label -> (module, name, perturbation, checks, check name(s), witness key)
KERNEL_ROWS = {
    # the m = 1 target constant 2 [q^0]G_8; faber and the necklace
    # constant read the same B_8, so no socle check sees it
    "B_8 doubled": (
        exact, "bernoulli", _doubled_at(8),
        lambda: [top_weight_check(4, 1, 0, len(basis(8)) + 5)],
        "elliptic.top_weight", "q_power",
    ),
    # faber(4, (4, 0)) against its reductions faber(4, (3,)) and back
    "7!! doubled": (
        exact, "double_factorial_odd", _doubled_at(7),
        lambda: [verify_string_consistency(4, (4,))],
        "socle.string_consistency", "lhs",
    ),
    # the vertex integral of genus 2, against the closed formula and
    # against the literal wheel sum, which takes it from dr3_recursive
    "dr_standard(2) doubled": (
        drcycle, "dr_standard", _doubled_at(2),
        lambda: [relation_integral_check(3, (3,)), wheel_collapse_check(3, (3,))],
        {"socle.relation_integral", "socle.wheel_collapse"}, "lhs",
    ),
    # every relation check of g <= 3, m <= 4
    "necklace constant doubled": (
        socle, "_necklace_normalization",
        lambda honest: lambda g, m: 2 * honest(g, m),
        lambda: cli.suite_relation(3, 4, 0, 0),
        "socle.relation_integral", "rhs",
    ),
}


def _assert_caught(home, name, perturb, checks, check_name, key, patch):
    names = check_name if isinstance(check_name, set) else {check_name}
    honest = getattr(home, name)
    try:
        with patch.context() as m:
            _clear_memos()
            perturbed = perturb(honest)
            for module in MODULES:
                if getattr(module, name, None) is honest:
                    m.setattr(module, name, perturbed)
            results = checks()
            assert results
            assert {r.check for r in results} == names
            for r in results:
                assert not r.ok, r.check_id
                assert key in r.witness, (r.check_id, r.witness)
    finally:
        _clear_memos()
    assert all(r.ok for r in checks())


@pytest.mark.parametrize("row", CONSTRUCTION_ROWS)
def test_construction_mutation_fails_top_weight(row, monkeypatch):
    construction = (_top_weight_g4_m4, "elliptic.top_weight", "construction_q_power")
    _assert_caught(*CONSTRUCTION_ROWS[row], *construction, monkeypatch)


@pytest.mark.parametrize("row", KERNEL_ROWS)
def test_kernel_mutation_fails_its_named_check(row, monkeypatch):
    _assert_caught(*KERNEL_ROWS[row], monkeypatch)
