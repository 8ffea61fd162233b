"""Mutation rows: each perturbs one exact kernel and names the check that
must catch it.

A row holds the kernel (a module and a name), its perturbation (a
function of the honest value, applied with monkeypatch in every module
that binds it), the checks to run, the check names they report, and a
key of the witness that locates the mismatch.  Every check the row
runs must fail.  Every memo of the package is cleared before and after
each row, so no perturbed value survives it and none computed before it
hides it: MEMOS and the stores of _clear_memos, and a test checks that
MEMOS names every object with cache_clear that a soclecalc module binds,
so a memo added later cannot slip past the rows.

The construction rows perturb the blocks D^i G_k of the built top-weight
polynomial (modfit.necklace_blocks, with the polynomial's own Fraction
coefficients, each block built once by modfit._block_polynomial, G_k as
its D^0 case, and summed by modfit.block_sum through
modfit._integer_sum, the one integer sum that also evaluates each block
on the columns): each constant of Ramanujan's equations in the
derivation, and the k = 8 term of the Apostol recurrence.  Each must
fail elliptic.top_weight at g = 4, m = 4 (weight 14, above the weights
where the fit oracle runs) with j- = 0 and with j- >= 1, through the
comparison of the built polynomial with the necklace series' integer
row (elliptic._necklace_row), which every split makes from q^0.  The
kernel rows perturb one value of a shared sequence or constant; the
Apostol row there is the construction row's perturbation, caught on the
socle side through Faber's constant, and the two dr.oracle rows perturb
one side each of the three-point oracle, its closed form's integer core
and its genus recursion.

The dr.oracle, string, relation and wheel checks compare integer
numerators over their denominators and build Fractions only for a
witness: every failing one of them must carry the witness that both of
its sides give when evaluated here in Fractions (WITNESSES).
"""

import importlib
import pkgutil
from fractions import Fraction
from math import factorial, prod

import pytest

import soclecalc
from soclecalc import cli, drcycle, elliptic, exact, modfit, qseries, socle
from soclecalc.elliptic import top_weight_check
from soclecalc.elliptic import check_propagator_identity
from soclecalc.modfit import basis
from soclecalc.qseries import QSeries, divisor_sigmas
from soclecalc.socle import (
    SocleQuery,
    relation_integral_check,
    verify_string_consistency,
    wheel_collapse_check,
)

MODULES = (exact, qseries, modfit, elliptic, drcycle, socle, cli)

# every memo of the package, taken before any row replaces a name
MEMOS = (
    exact.double_factorial_odd,
    qseries.divisor_sigmas,
    qseries.eisenstein,
    modfit.basis,
    modfit._block_polynomial,
    modfit._necklace_coefficients,
    drcycle._dr3_rec,
    drcycle.dr_standard,
    socle._faber_prefactor,
    socle._necklace_normalization,
    socle._level_denominator,
    socle._necklace_numerator,
)


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()
    del exact._bernoulli_cache[1:]
    modfit._eisenstein_constants.clear()
    modfit._columns.clear()
    modfit._blocks.clear()
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
    # G_8 = x G_4 G_4, the one term of _apostol_terms(8), with 2x
    def terms(k):
        out = honest(k)
        return [(2 * x, i, j) for x, i, j in out] if k == 8 else out

    return terms


def _numerator_plus_one_at(x):
    # one more in the numerator of an integer core's (num, ...) at genus x
    def perturb(honest):
        def core(*args):
            num, *rest = honest(*args)
            return (num + 1 if args[0] == x else num, *rest)

        return core

    return perturb


def _dr_oracle_g2():
    # every dr.oracle check of suite_dr at g = 2
    return [
        drcycle.dr3_oracle_check(2, a1, a2)
        for a1 in range(-5, 6)
        for a2 in range(-5, 6)
    ]


def _drops_last_of_several(honest):
    # a string step that loses its last reduction whenever it has more
    # than one; a one-slot list keeps its single reduction
    def dropped(d):
        out = honest(d)
        return out[:-1] if len(out) > 1 else out

    return dropped


def _string_and_relation_with_several_slots():
    # every string and relation check of g <= 3 (n <= 5, m <= 4) whose
    # list has at least two slots, so its string step has several branches
    lists = [(g, d) for g, d in cli._positive_lists(3, 5) if len(d) > 1]
    return [verify_string_consistency(g, d) for g, d in lists] + [
        relation_integral_check(g, d) for g, d in lists if len(d) <= 4
    ]


def _extra_power_of_n(honest):
    # 2 n^m sigma_(2g-1)(n) / (m-1)! in place of 2 n^(m-1) sigma_(2g-1)(n) / (m-1)!
    def target(g, m, q_order):
        den, c = honest(g, m, q_order)
        return den, [c[0]] + [n * c[n] for n in range(1, q_order + 1)]

    return target


def _divisor_power_k(honest):
    # G_k with sigma_k(n) beyond q^0 in place of sigma_(k-1)(n)
    def series(k, order):
        constant = honest(k, order).coeffs[0]
        return QSeries((constant,) + tuple(map(Fraction, divisor_sigmas(k, order))))

    return series


def _g8_constant_doubled(honest):
    # G_8 with its q^0 doubled and every divisor sum kept
    def series(k, order):
        s = honest(k, order)
        return QSeries((2 * s.coeffs[0],) + s.coeffs[1:]) if k == 8 else s

    return series


def _last_plus_det(honest):
    # fit's candidate w = det z with det added to its last entry
    def solve(cols, rhs):
        w, det = honest(cols, rhs)
        return w[:-1] + [w[-1] + det], det

    return solve


def _top_weight_g4_m4():
    q_order = len(basis(14)) + 5
    return [top_weight_check(4, j_plus, 4 - j_plus, q_order) for j_plus in (4, 2)]


def _top_weight_at_q0_k13():
    # (5, 5, 0) and (6, 3, 0), each at its `verify all` order; a failing
    # one misses at q^0
    results = [top_weight_check(5, 5, 0, 58), top_weight_check(6, 3, 0, 46)]
    assert all(r.ok or r.witness["construction_q_power"] == 0 for r in results)
    return results


# label -> (module, name, perturbation); each must fail both checks of
# _top_weight_g4_m4 through the construction comparison
CONSTRUCTION_ROWS = {
    "DG2 5/6 -> 5/7": (modfit, "_RAMANUJAN", _ramanujan(0, Fraction(5, 7))),
    "DG4 7/10 -> 7/11": (modfit, "_RAMANUJAN", _ramanujan(1, Fraction(7, 11))),
    "DG6 400/7 -> 400/9": (modfit, "_RAMANUJAN", _ramanujan(2, Fraction(400, 9))),
    "Apostol G_8 doubled": (modfit, "_apostol_terms", _doubled_g8),
}

# label -> (module, name, perturbation, checks, check name(s), witness key)
KERNEL_ROWS = {
    # each side of the three-point oracle, perturbed at g = 2: the closed
    # form's integer core, and the genus recursion behind dr3_recursive
    "closed three-point core": (
        drcycle, "_dr3_closed_core", _numerator_plus_one_at(2),
        _dr_oracle_g2, "dr.oracle", "closed",
    ),
    "three-point genus recursion": (
        drcycle, "_dr3_rec", _numerator_plus_one_at(2),
        _dr_oracle_g2, "dr.oracle", "recursive",
    ),
    # the regularized constant zeta(-13) = -B_14/14 of the two j- = 0,
    # odd-m splits with K = 13 of `verify all` (g, m <= 6), against the
    # built polynomial's 2 [q^0]G_14 from Apostol's recurrence
    "B_14 doubled": (
        exact, "bernoulli", _doubled_at(14),
        _top_weight_at_q0_k13, "elliptic.top_weight", "construction_q_power",
    ),
    # the row's regularized q^0, zeta(-7) = -B_8/8, against the built
    # polynomial's 2 [q^0]G_8 from Apostol's recurrence; it reaches the
    # m = 1 target constant 2 [q^0]G_8 = -B_8/8 too, but the construction
    # comparison comes first
    "B_8 doubled": (
        exact, "bernoulli", _doubled_at(8),
        lambda: [top_weight_check(4, 1, 0, len(basis(8)) + 5)],
        "elliptic.top_weight", "construction_q_power",
    ),
    # the m = 1 target constant 2 [q^0]G_8 alone, read off
    # qseries.eisenstein; the built polynomial reads no eisenstein above
    # G_6, so only the top part against the target sees it
    "eisenstein G_8 constant doubled": (
        qseries, "eisenstein", _g8_constant_doubled,
        lambda: [top_weight_check(4, 1, 0, len(basis(8)) + 5)],
        "elliptic.top_weight", "q_power",
    ),
    # every top-weight check of g <= 3, m <= 4 runs the fit oracle, and
    # nothing else in the check reads fit's solve
    "_solve off by det": (
        modfit, "_solve", _last_plus_det,
        lambda: cli.suite_topweight(3, 4, None, None),
        "elliptic.top_weight", "fit_inconsistency",
    ),
    # faber's B_8 against the necklace constant [q^0]G_8, which comes
    # from Apostol's recurrence seeded with G4 and G6
    "B_8 doubled (relation)": (
        exact, "bernoulli", _doubled_at(8),
        lambda: [relation_integral_check(4, (4,))],
        "socle.relation_integral", "rhs",
    ),
    # the construction row's perturbation: the necklace constant
    # [q^0]G_8 doubles, faber's B_8 does not
    "Apostol G_8 doubled": (
        modfit, "_apostol_terms", _doubled_g8,
        lambda: [relation_integral_check(4, (4,))],
        "socle.relation_integral", "rhs",
    ),
    # faber(4, (4, 0)) against its reductions faber(4, (3,)) and back
    "7!! doubled": (
        exact, "double_factorial_odd", _doubled_at(7),
        lambda: [verify_string_consistency(4, (4,))],
        "socle.string_consistency", "lhs",
    ),
    # the vertex integral of genus 2, against the closed formula and
    # against the literal wheel sum, which takes it from dr3_recursive;
    # on one vertex and on two
    "dr_standard(2) doubled": (
        drcycle, "dr_standard", _doubled_at(2),
        lambda: [
            check(g, d)
            for g, d in ((3, (3,)), (4, (3, 2)))
            for check in (relation_integral_check, wheel_collapse_check)
        ],
        {"socle.relation_integral", "socle.wheel_collapse"}, "lhs",
    ),
    # every relation check of g <= 3, m <= 4
    "necklace constant doubled": (
        socle, "_necklace_normalization",
        lambda honest: lambda g, m: 2 * honest(g, m),
        lambda: cli.suite_relation(3, 4, 0, 0),
        "socle.relation_integral", "rhs",
    ),
    # 52 string checks and 31 relation checks: each sums the closed
    # formula over one string step, which misses a reduction
    "string_apply drops its last branch": (
        socle, "string_apply", _drops_last_of_several,
        _string_and_relation_with_several_slots,
        {"socle.string_consistency", "socle.relation_integral"}, "rhs",
    ),
    # all 40 top-weight checks of g, m <= 4
    "top-weight target n^m": (
        elliptic, "_top_weight_target", _extra_power_of_n,
        lambda: cli.suite_topweight(4, 4, None, None),
        "elliptic.top_weight", "q_power",
    ),
    # the shifted Weierstrass rows read G_(e+2), first wrong at q^2;
    # check_divisor_power_k_fails rebuilds its rows with the same powers,
    # so it still passes
    "eisenstein divisor power k": (
        qseries, "eisenstein", _divisor_power_k,
        lambda: [check_propagator_identity(8, 8)],
        "elliptic.propagator_identity", "q_power",
    ),
}


def _faber_sum(g, d):
    return sum(
        (socle.faber(SocleQuery(g, rd)) for rd in socle.string_apply(d)),
        Fraction(0),
    )


def _wheel_sum(g, d):
    target = tuple(x - 1 for x in d)
    total = Fraction(0)
    for wheel in socle.iter_wheels(len(d), g - 1):
        if wheel.genera == target:
            total += prod(
                (drcycle.dr3_recursive(k, 1, -1) for k in wheel.genera),
                start=Fraction(1),
            )
    return total / factorial(len(d) - 1)


# check name -> the witness of a failing check from its parameters: both
# sides evaluated here in Fractions through the module attributes, so
# under the row's perturbation, against the checks' integer comparisons
WITNESSES = {
    "dr.oracle": lambda g, a1, a2: {
        "closed": drcycle.dr3_closed(g, a1, a2),
        "recursive": drcycle.dr3_recursive(g, a1, a2),
    },
    "socle.string_consistency": lambda g, d: {
        "appended": d + (0,),
        "lhs": socle.faber(SocleQuery(g, d + (0,))),
        "rhs": _faber_sum(g, d + (0,)),
    },
    "socle.relation_integral": lambda g, d: {
        "lhs": socle.necklace_lhs(g, d),
        "rhs": _faber_sum(g, d + (0,)) / socle._necklace_normalization(g, len(d)),
    },
    "socle.wheel_collapse": lambda g, d: {
        "lhs": _wheel_sum(g, d),
        "rhs": socle.necklace_lhs(g, d),
    },
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
                if r.check in WITNESSES:
                    expected = WITNESSES[r.check](**r.params)
                    assert r.witness == expected, r.check_id
    finally:
        _clear_memos()
    assert all(r.ok for r in checks())


def test_memos_name_every_memo_of_the_package():
    # a memo missing here would carry a perturbed value from one row into
    # the next, so every object with cache_clear that a module binds is in it
    bound = {
        f"{info.name}.{name}": value
        for info in pkgutil.iter_modules(soclecalc.__path__)
        for name, value in vars(
            importlib.import_module(f"soclecalc.{info.name}")
        ).items()
        if hasattr(value, "cache_clear")
    }
    assert bound
    assert [name for name, memo in bound.items() if memo not in MEMOS] == []


@pytest.mark.parametrize("row", CONSTRUCTION_ROWS)
def test_construction_mutation_fails_top_weight(row, monkeypatch):
    construction = (_top_weight_g4_m4, "elliptic.top_weight", "construction_q_power")
    _assert_caught(*CONSTRUCTION_ROWS[row], *construction, monkeypatch)


@pytest.mark.parametrize("row", KERNEL_ROWS)
def test_kernel_mutation_fails_its_named_check(row, monkeypatch):
    _assert_caught(*KERNEL_ROWS[row], monkeypatch)
