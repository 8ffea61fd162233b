import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial, prod

import pytest

import soclecalc.drcycle as drcycle
import soclecalc.socle as socle
from soclecalc.drcycle import dr_standard
from soclecalc.socle import (
    DimensionError,
    SocleQuery,
    Wheel,
    faber,
    iter_socle_queries,
    iter_wheels,
    necklace_lhs,
    relation_integral_check,
    socle_compute,
    socle_necklace,
    string_apply,
    verify_string_consistency,
    wheel_collapse_check,
)


def test_socle_query_validation():
    q = SocleQuery(2, (2, 0))
    assert q.n == 2
    with pytest.raises(DimensionError) as err:
        SocleQuery(2, (2, 1))
    assert "sum(d) = 3" in str(err.value) and "g-2+n = 2" in str(err.value)
    with pytest.raises(ValueError):
        SocleQuery(0, (0,))
    with pytest.raises(ValueError):
        SocleQuery(2, (3, -1))


@pytest.mark.parametrize(
    "g,d,value",
    [
        (1, (0,), Fraction(1, 24)),
        (2, (1,), Fraction(1, 2880)),
        (2, (2, 0), Fraction(1, 2880)),
    ],
)
def test_faber_frozen_values(g, d, value):
    assert faber(SocleQuery(g, d)) == value


def test_wheel_validation():
    Wheel((1, 3, 2), (0, 1, 0))
    with pytest.raises(ValueError):
        Wheel((2, 1), (0, 0))
    with pytest.raises(ValueError):
        Wheel((1, 2), (0,))


def test_wheels_enumerate_counts():
    w30 = list(iter_wheels(3, 0))
    assert len(w30) == 2
    assert all(w.genera == (0, 0, 0) for w in w30)
    assert len(list(iter_wheels(1, 2))) == 1
    w21 = list(iter_wheels(2, 1))
    assert len(w21) == 2
    assert {w.genera for w in w21} == {(0, 1), (1, 0)}
    # (m-1)! orientations times compositions of the genus budget
    assert len(list(iter_wheels(4, 2))) == 6 * 10


@pytest.mark.parametrize("m,t", [(1, 2), (3, 0), (3, 2), (4, 3)])
def test_wheel_order_is_orientations_then_genus_splits(m, t):
    # the oriented cyclic orders in permutations order, and within each
    # one every genus split in lexicographic order
    splits = [c for c in product(range(t + 1), repeat=m) if sum(c) == t]
    expected = [
        Wheel((1,) + tail, genera)
        for tail in permutations(range(2, m + 1))
        for genera in splits
    ]
    wheels = list(iter_wheels(m, t))
    assert wheels == expected
    counts = Counter(w.genera for w in wheels)
    assert set(counts) == set(splits)
    assert set(counts.values()) == {factorial(m - 1)}


@pytest.mark.parametrize(
    "g,d,value",
    [
        (2, (2,), Fraction(1, 12)),
        (2, (1, 2), Fraction(1, 12)),
        (3, (2, 2), Fraction(1, 144)),
    ],
)
def test_necklace_lhs_values(g, d, value):
    assert necklace_lhs(g, d) == value


def test_necklace_lhs_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        necklace_lhs(2, (3,))
    with pytest.raises(ValueError):
        necklace_lhs(2, (2, 0))


def test_necklace_socle_values():
    assert socle_necklace(SocleQuery(2, (2, 0))) == Fraction(1, 2880)
    assert socle_necklace(SocleQuery(1, (1, 0))) == Fraction(1, 24)
    q = SocleQuery(3, (2, 2, 0))
    assert socle_necklace(q) == faber(q)


def test_string_apply_mechanics():
    assert string_apply((2, 0)) == [(1,)]
    assert string_apply((1, 1, 0)) == [(0, 1), (1, 0)]
    # removes the LAST zero; purely mechanical on the list
    assert string_apply((0, 0, 1)) == [(0, 0)]
    with pytest.raises(ValueError):
        string_apply((1, 1))
    with pytest.raises(ValueError):
        string_apply((0,))
    with pytest.raises(ValueError):
        string_apply((0, 0))


def test_socle_compute_agreement_anchors():
    r = socle_compute(SocleQuery(2, (1,)), "both")
    assert r.faber_value == r.necklace_value == Fraction(1, 2880)
    assert r.agree
    assert socle_compute(SocleQuery(3, (2, 2, 0)), "both").agree
    r1 = socle_compute(SocleQuery(1, (0,)), "both")
    assert r1.agree and r1.value == Fraction(1, 24)
    single = socle_compute(SocleQuery(2, (2, 0)), "faber")
    assert single.necklace_value is None and single.value == Fraction(1, 2880)
    with pytest.raises(ValueError):
        socle_compute(SocleQuery(2, (1,)), "fastest")


def test_necklace_value_invariant_under_permutation():
    # the string engine removes the last zero first; the computed value
    # must not depend on the ordering of the exponent list
    cases = [(2, (2, 2, 0, 0)), (3, (3, 2, 0, 0)), (2, (2, 2, 1, 0, 0))]
    for g, d in cases:
        vals = {
            socle_necklace(SocleQuery(g, p))
            for p in set(__import__("itertools").permutations(d))
        }
        assert len(vals) == 1, (g, d, vals)


def test_multi_zero_domain_boundary():
    """The closed formula provably departs from the string-consistent
    value once two exponents vanish; both exact values are frozen here.

    The 1/24 is forced by two string steps from the one-point genus-one
    value; the closed formula gives 1/36 instead.
    """
    q = SocleQuery(1, (2, 0, 0))
    assert faber(q) == Fraction(1, 36)
    assert socle_necklace(q) == Fraction(1, 24)
    r = socle_compute(q, "both")
    assert r.agree is False

    q2 = SocleQuery(2, (2, 2, 0, 0))
    assert faber(q2) == Fraction(1, 432)
    assert socle_necklace(q2) == Fraction(1, 360)


def test_agreement_on_single_zero_domain_random_sample():
    rng = random.Random(2024)
    pool = [q for q in iter_socle_queries(6, 6) if q.d.count(0) <= 1]
    for q in rng.sample(pool, k=100):
        assert socle_compute(q, "both").agree, q


def test_iter_socle_queries_census():
    # frozen census of the g <= 6, n <= 6 exponent multisets: 288 valid
    # queries, of which 133 carry at most one zero
    allq = list(iter_socle_queries(6, 6))
    assert len(allq) == 288
    assert sum(1 for q in allq if q.d.count(0) <= 1) == 133


def _filtered_listing(g_max, n_max, max_zeros=None):
    # reference enumeration: every descending tuple over 0..g-2+n, kept
    # when it sums to g-2+n
    for g in range(1, g_max + 1):
        for n in range(1, n_max + 1):
            total = g - 2 + n
            for d in combinations_with_replacement(range(total, -1, -1), n):
                if sum(d) != total:
                    continue
                if max_zeros is not None and d.count(0) > max_zeros:
                    continue
                yield (g, d)


@pytest.mark.parametrize("max_zeros", [None, 1])
def test_iter_socle_queries_matches_filtered_listing(max_zeros):
    for g_max in range(1, 8):
        for n_max in range(1, 8):
            got = [
                (q.g, q.d)
                for q in iter_socle_queries(g_max, n_max)
                if max_zeros is None or q.d.count(0) <= max_zeros
            ]
            assert got == list(_filtered_listing(g_max, n_max, max_zeros)), (
                g_max,
                n_max,
            )


def test_string_consistency_spec_anchors():
    # sum(d) = g-1+n: the zero-appended query is dimension-valid
    assert verify_string_consistency(3, (2, 2)).ok
    assert verify_string_consistency(2, (2,)).ok
    for d in [(4, 1, 1), (3, 2, 1), (3, 1, 2)]:
        assert verify_string_consistency(4, d).ok
    # any other sum, a query valid on its own (g-2+n) included
    for g, d in [(3, (1, 1)), (2, (1,)), (4, (3, 1, 1))]:
        with pytest.raises(DimensionError):
            verify_string_consistency(g, d)


def test_string_consistency_fails_outside_positive_domain():
    # appending a zero to a list that still contains one leaves a
    # multi-zero reduction, where the closed formula is not consistent
    res = verify_string_consistency(1, (2, 0))
    assert not res.ok
    assert res.witness["lhs"] == Fraction(1, 36)
    assert res.witness["rhs"] == Fraction(1, 24)


def _positive_lists(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_lists(total - first, parts - 1):
            yield (first,) + rest


def test_string_consistency_exhaustive_positive_domain():
    for g in range(1, 7):
        for n in range(1, 6):
            for d in _positive_lists(g - 1 + n, n):
                assert verify_string_consistency(g, d).ok, (g, d)


def test_relation_integral_anchor():
    res = relation_integral_check(2, (2,))
    assert res.ok
    # the anchor identity: 1/12 against 240 * 1/2880
    assert necklace_lhs(2, (2,)) == Fraction(1, 12)
    assert faber(SocleQuery(2, (1,))) == Fraction(1, 2880)


def test_relation_integral_sweep():
    for g in range(1, 6):
        for m in range(1, 5):
            for d in _positive_lists(g - 1 + m, m):
                assert relation_integral_check(g, d).ok, (g, d)


def test_wheel_collapse_matches_product():
    for g, d in [(2, (2,)), (2, (1, 2)), (3, (2, 2)), (4, (2, 2, 2, 1))]:
        res = wheel_collapse_check(g, d)
        assert res.ok
        assert necklace_lhs(g, d) == prod(
            (dr_standard(x - 1) for x in d), start=Fraction(1)
        )


def test_wheel_oracle_is_not_vacuous(monkeypatch):
    literal = socle.iter_wheels
    seen = []

    def counting(m, total_genus):
        for wheel in literal(m, total_genus):
            seen.append(wheel)
            yield wheel

    g, d = 4, (2, 1, 3)
    m = len(d)
    monkeypatch.setattr(socle, "iter_wheels", counting)
    assert wheel_collapse_check(g, d).ok
    assert len(seen) == factorial(m - 1) * comb(g - 2 + m, m - 1) == 20

    target = tuple(x - 1 for x in d)

    def dropping(m, total_genus):
        return (w for w in literal(m, total_genus) if w.genera != target)

    monkeypatch.setattr(socle, "iter_wheels", dropping)
    res = wheel_collapse_check(g, d)
    assert not res.ok
    assert res.witness == {"lhs": 0, "rhs": necklace_lhs(g, d)}


@pytest.mark.parametrize(
    "g,d", [(3, (2, 2, 1)), (4, (3, 2, 1, 1)), (6, (4, 3)), (4, (2, 2, 2, 1))]
)
def test_wheel_oracle_certifies_the_vertex_integral(monkeypatch, g, d):
    # a wrong closed three-point formula moves necklace_lhs (through
    # dr_standard) but not the literal side, which takes its vertex
    # integrals from the genus recursion
    closed = drcycle.dr3_closed

    def scaled(k, a1, a2):
        return (k + 2) * closed(k, a1, a2)

    monkeypatch.setattr(drcycle, "dr3_closed", scaled)
    monkeypatch.setattr(socle, "dr3_closed", scaled, raising=False)
    dr_standard.cache_clear()
    try:
        assert dr_standard(2) == Fraction(1, 60)
        res = wheel_collapse_check(g, d)
    finally:
        dr_standard.cache_clear()
    assert not res.ok
    assert res.witness["lhs"] != res.witness["rhs"]


def test_wheel_oracle_limit(monkeypatch):
    # the largest verify relation sample (g = 6, m = 5) stays below it
    assert factorial(4) * comb(9, 4) == 3024 <= socle._MAX_WHEELS

    def raising(m, total_genus):
        raise AssertionError("a wheel was built above the limit")

    monkeypatch.setattr(socle, "iter_wheels", raising)
    g, d = 6, (2, 2, 2, 2, 2, 1, 1)
    assert factorial(6) * comb(11, 6) == 332_640
    with pytest.raises(ValueError, match="332640 wheels"):
        wheel_collapse_check(g, d)


def test_necklace_normalization_is_shared(monkeypatch):
    # one constant serves the evaluator and the relation check: a wrong
    # value fails the check and moves the necklace value off faber()
    normalization = socle._necklace_normalization
    monkeypatch.setattr(
        socle, "_necklace_normalization", lambda g, m: 2 * normalization(g, m)
    )
    socle._necklace_value.cache_clear()
    try:
        res = relation_integral_check(3, (2, 2))
        q = SocleQuery(3, (2, 2, 0))
        value = socle_necklace(q)
    finally:
        socle._necklace_value.cache_clear()
    lhs = necklace_lhs(3, (2, 2))
    assert not res.ok
    assert res.witness == {"lhs": lhs, "rhs": lhs / 2}
    assert value == 2 * faber(q) != faber(q)


def test_evaluation_path_builds_no_wheels(monkeypatch):
    queries = list(iter_socle_queries(5, 5))
    values = [socle_compute(q, "necklace").value for q in queries]
    relations = [
        (g, d)
        for g in range(1, 5)
        for m in range(1, 4)
        for d in _positive_lists(g - 1 + m, m)
    ]
    checks = [relation_integral_check(g, d) for g, d in relations]

    def raising(m, total_genus):
        raise AssertionError("the evaluation path enumerated wheels")

    monkeypatch.setattr(socle, "iter_wheels", raising)
    socle._necklace_value.cache_clear()
    assert [socle_compute(q, "necklace").value for q in queries] == values
    assert [relation_integral_check(g, d) for g, d in relations] == checks
    assert all(c.ok for c in checks)


def test_socle_value_prefers_necklace():
    # outside the closed formula's domain the value is the necklace one
    r = socle_compute(SocleQuery(1, (2, 0, 0)), "both")
    assert (r.faber_value, r.necklace_value) == (Fraction(1, 36), Fraction(1, 24))
    assert r.value == Fraction(1, 24)
    assert socle_compute(SocleQuery(1, (2, 0, 0)), "faber").value == Fraction(1, 36)
