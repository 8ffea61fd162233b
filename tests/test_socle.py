import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial, prod

import pytest

import soclecalc.drcycle as drcycle
import soclecalc.modfit as modfit
import soclecalc.qseries as qseries
import soclecalc.socle as socle
from soclecalc.drcycle import dr_standard
from soclecalc.exact import bernoulli, double_factorial_odd
from soclecalc.socle import (
    DimensionError,
    SocleQuery,
    Wheel,
    compositions,
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


def test_compositions():
    for total in range(6):
        for parts in range(1, 5):
            got = list(compositions(total, parts))
            every = [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]
            assert got == every, (total, parts)
    # no parts, or a negative total, has no composition and is an error,
    # not an endless recursion or a negative part
    for total, parts in ((0, 0), (3, 0), (2, -1), (-1, 1), (-1, 2)):
        with pytest.raises(ValueError, match="need parts >= 1 and total >= 0"):
            list(compositions(total, parts))


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
    # a negative exponent is refused, not dropped or decremented past
    for d in ((-1, 0), (2, -1, 0)):
        with pytest.raises(ValueError, match="exponents must be >= 0"):
            string_apply(d)


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


def test_query_count_is_the_listing_length():
    for g_max in range(9):
        for n_max in range(1, 9):
            count = socle._query_count(g_max, n_max)
            assert count == len(list(iter_socle_queries(g_max, n_max)))


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


def test_relation_integral_anchor():
    res = relation_integral_check(2, (2,))
    assert res.ok
    # the anchor identity: 1/12 against 240 * 1/2880
    assert necklace_lhs(2, (2,)) == Fraction(1, 12)
    assert faber(SocleQuery(2, (1,))) == Fraction(1, 2880)


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
    socle._necklace_numerator.cache_clear()
    try:
        res = relation_integral_check(3, (2, 2))
        q = SocleQuery(3, (2, 2, 0))
        value = socle_necklace(q)
    finally:
        socle._necklace_numerator.cache_clear()
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
    socle._necklace_numerator.cache_clear()
    assert [socle_compute(q, "necklace").value for q in queries] == values
    assert [relation_integral_check(g, d) for g, d in relations] == checks
    assert all(c.ok for c in checks)


def test_socle_value_prefers_necklace():
    # outside the closed formula's domain the value is the necklace one
    r = socle_compute(SocleQuery(1, (2, 0, 0)), "both")
    assert (r.faber_value, r.necklace_value) == (Fraction(1, 36), Fraction(1, 24))
    assert r.value == Fraction(1, 24)
    assert socle_compute(SocleQuery(1, (2, 0, 0)), "faber").value == Fraction(1, 36)


@pytest.mark.parametrize(
    "call",
    [
        lambda: SocleQuery(2, (1.9,)),
        lambda: SocleQuery(1, ("0",)),
        lambda: SocleQuery(2.0, (1,)),
        lambda: SocleQuery(Fraction(2), (1,)),
        lambda: necklace_lhs(2, (2.0,)),
        lambda: string_apply((1.0, 0)),
        lambda: verify_string_consistency(1, (1.5,)),
        lambda: relation_integral_check(2, (2.0,)),
        lambda: wheel_collapse_check(2, ("2",)),
    ],
    ids=[
        "query-float",
        "query-str",
        "genus-float",
        "genus-fraction",
        "necklace_lhs",
        "string_apply",
        "string_consistency",
        "relation",
        "wheel_collapse",
    ],
)
def test_non_integer_exponents_are_rejected(call):
    # int() would truncate 1.9 to 1 (a valid g = 2 query, 1/2880) and
    # parse "0"; an exponent or a genus must be an integer
    with pytest.raises(TypeError):
        call()


# --- the Fraction chains that faber and _necklace_normalization replaced
# by one integer numerator over one denominator


def _fraction_chain_faber(q):
    g, n = q.g, q.n
    value = (
        Fraction((-1) ** (g - 1))
        * bernoulli(2 * g)
        * factorial(2 * g - 3 + n)
        / (2 ** (2 * g - 1) * factorial(2 * g))
    )
    for di in q.d:
        value /= double_factorial_odd(2 * di - 1)
    return value


def _fraction_chain_normalization(g, m):
    return (
        Fraction((-1) ** (g - 1))
        * bernoulli(2 * g)
        * factorial(2 * g - 2 + m)
        / (2 * factorial(2 * g))
    )


def test_integer_kernels_match_the_fraction_chains():
    # one query per exponent multiset: both sides are symmetric in d
    queries = list(iter_socle_queries(8, 8))
    assert len(queries) == 1273
    for q in queries:
        assert faber(q) == _fraction_chain_faber(q)
    pairs = [(g, m) for g in range(1, 26) for m in range(1, 9)]
    assert len(pairs) == 200
    for g, m in pairs:
        assert socle._necklace_normalization(g, m) == (
            _fraction_chain_normalization(g, m)
        )


# --- the Fraction recursion that _necklace_numerator replaced by integer
# numerators over the level denominators


def _fraction_recursion(g, d, memo):
    # d canonical; the string recursion with a Fraction at every step
    if (g, d) in memo:
        return memo[g, d]
    zeros = d.count(0)
    if d == (0,):
        value = _fraction_recursion(1, (1, 0), memo)
    elif zeros == 1:
        value = socle._necklace_normalization(g, len(d) - 1) * necklace_lhs(g, d[:-1])
    elif zeros == 0:
        lifted = (d[0] + 1,) + d[1:] + (0,)
        _, *branches = string_apply(lifted)
        value = _fraction_recursion(g, lifted, memo)
        for branch in branches:
            value -= _fraction_recursion(g, tuple(sorted(branch, reverse=True)), memo)
    else:
        value = sum(
            (
                _fraction_recursion(g, tuple(sorted(rd, reverse=True)), memo)
                for rd in string_apply(d)
            ),
            Fraction(0),
        )
    memo[g, d] = value
    return value


def test_integer_recursion_matches_the_fraction_recursion():
    # every canonical list of g, n <= 8: zero-free lists (the lift), one
    # zero and several zeros
    queries = list(iter_socle_queries(8, 8))
    shapes = Counter(min(q.d.count(0), 2) for q in queries)
    assert shapes[0] and shapes[1] and shapes[2]
    memo = {}
    for q in queries:
        assert socle_necklace(q) == _fraction_recursion(q.g, q.d, memo), q


@pytest.mark.parametrize("g,d", [(3, (2, 2, 0)), (3, (2, 1)), (2, (2, 2, 0, 0))])
def test_inexact_level_division_raises(monkeypatch, g, d):
    # a prime that divides no level denominator of these genera, in the
    # denominator of every vertex integral: each division checks its
    # remainder instead of truncating to a wrong value
    monkeypatch.setattr(socle, "dr_standard", lambda k: dr_standard(k) / 1_000_003)
    socle._necklace_numerator.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="is not an integer"):
            socle_necklace(SocleQuery(g, d))
    finally:
        socle._necklace_numerator.cache_clear()


def test_recursion_reads_no_bernoulli_number(monkeypatch):
    # the necklace normalization, the one place Faber's constant enters
    # the necklace path, is applied by socle_necklace alone: the integer
    # numerators of every canonical list of g, n <= 8 come from wheel sums
    # and the string equation
    queries = list(iter_socle_queries(8, 8))
    assert len(queries) == 1273
    numerators = [socle._necklace_numerator(q.g, q.d) for q in queries]
    memos = (
        socle._necklace_numerator,
        socle._level_denominator,
        socle._necklace_normalization,
    )

    def refused(*args):
        raise AssertionError("the string recursion read a Bernoulli number")

    monkeypatch.setattr(socle, "bernoulli", refused)
    monkeypatch.setattr(socle, "_necklace_normalization", refused)
    for memo in memos:
        memo.cache_clear()
    try:
        assert [socle._necklace_numerator(q.g, q.d) for q in queries] == numerators
    finally:
        for memo in memos:
            memo.cache_clear()


def test_necklace_path_reads_no_bernoulli_number_above_b6(monkeypatch):
    # Faber's constant comes from modfit's Apostol recurrence, seeded with
    # the constants of G2, G4 and G6: with socle's bernoulli refused and
    # qseries' refused from B_8 on, every value of g, n <= 8 is unchanged
    queries = list(iter_socle_queries(8, 8))
    assert len(queries) == 1273
    values = [socle_necklace(q) for q in queries]
    memos = (
        socle._necklace_numerator,
        socle._level_denominator,
        socle._necklace_normalization,
        qseries.eisenstein,
    )

    def refused(k):
        raise AssertionError(f"the necklace path read B_{k}")

    monkeypatch.setattr(socle, "bernoulli", refused)
    monkeypatch.setattr(
        qseries, "bernoulli", lambda k: bernoulli(k) if k < 8 else refused(k)
    )
    monkeypatch.setattr(modfit, "_eisenstein_constants", [])
    for memo in memos:
        memo.cache_clear()
    try:
        assert [socle_necklace(q) for q in queries] == values
    finally:
        for memo in memos:
            memo.cache_clear()


def test_one_zero_numerator_closed_form():
    # on a list with at most one zero the numerator is the positive
    # integer ((s+g-1)!/s!) multinomial(2s; 2d) prod(d_i!), s = g-2+n
    lists = [q for q in iter_socle_queries(10, 10) if q.d.count(0) <= 1]
    assert len(lists) == 1144
    for q in lists:
        s = q.g - 2 + q.n
        multinomial = factorial(2 * s) // prod(factorial(2 * x) for x in q.d)
        expected = (
            factorial(s + q.g - 1) // factorial(s) * multinomial
            * prod(factorial(x) for x in q.d)
        )
        assert socle._necklace_numerator(q.g, q.d) == expected, q


def test_recursion_does_no_fraction_arithmetic(monkeypatch):
    queries = list(iter_socle_queries(6, 6))
    values = [socle_necklace(q) for q in queries]

    def refused(*args):
        raise AssertionError("Fraction arithmetic in the string recursion")

    socle._necklace_numerator.cache_clear()
    dr_standard.cache_clear()
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Fraction, op, refused)
    assert [socle_necklace(q) for q in queries] == values


# --- the dilaton equation, which the string recursion never uses, and the
# recursion's grouped string step against the per-slot string_apply


def _dilaton_misses(value, queries):
    # the queries q on which value(g, d + (1,)) is not (2g-2+n) value(g, d)
    return [
        q
        for q in queries
        if value(SocleQuery(q.g, q.d + (1,))) != (2 * q.g - 2 + q.n) * value(q)
    ]


def test_depth_bound_covers_the_recursion(monkeypatch):
    # from a cold memo per query, the longest chain of nested
    # _necklace_numerator calls never passes _depth_bound, and reaches it
    # on each of the three shapes the bound distinguishes
    honest = socle._necklace_numerator.__wrapped__
    depth = [0, 0]

    @lru_cache(maxsize=None)
    def counted(g, d):
        depth[0] += 1
        depth[1] = max(depth[1], depth[0])
        try:
            return honest(g, d)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(socle, "_necklace_numerator", counted)
    reached = set()
    for q in iter_socle_queries(7, 7):
        d = socle._canonical(q.d)
        counted.cache_clear()
        depth[1] = 0
        counted(q.g, d)
        bound = socle._depth_bound(d)
        assert depth[1] - 1 <= bound, (q.g, d)
        if depth[1] - 1 == bound:
            reached.add(min(d.count(0), 2))
    assert reached == {0, 1, 2}


def test_dilaton_equation():
    # the necklace path on every query of g <= 10, n <= 9, and the closed
    # formula on those with at most one zero (so has d + (1,))
    queries = list(iter_socle_queries(10, 9))
    assert len(queries) == 3257
    assert _dilaton_misses(socle_necklace, queries) == []
    one_zero = [q for q in queries if q.d.count(0) <= 1]
    assert len(one_zero) == 980
    assert _dilaton_misses(faber, one_zero) == []


def test_grouped_string_step_matches_string_apply():
    # every canonical list with a zero of g, n <= 8: one branch per
    # distinct positive value, weighted by its multiplicity and already
    # non-increasing, together string_apply's per-slot branches
    lists = [q.d for q in iter_socle_queries(8, 8) if 0 in q.d and q.n > 1]
    assert len(lists) == 1080
    for d in lists:
        step = socle._string_step(d)
        grouped = Counter({branch: k for k, branch in step})
        assert len(grouped) == len(step), d
        assert grouped == Counter(socle._canonical(b) for b in string_apply(d)), d


def _weights_forced_to_one(honest):
    return lambda d: [(1, branch) for _, branch in honest(d)]


def _drops_last_of_several_groups(honest):
    def dropped(d):
        out = honest(d)
        return out[:-1] if len(out) > 1 else out

    return dropped


@pytest.mark.parametrize(
    "perturb", [_weights_forced_to_one, _drops_last_of_several_groups]
)
def test_perturbed_grouped_step_fails_the_comparisons(monkeypatch, perturb):
    # the recursion's step, perturbed, must move values off the dilaton
    # equation and off the closed formula on lists with at most one zero
    queries = list(iter_socle_queries(6, 6))
    monkeypatch.setattr(socle, "_string_step", perturb(socle._string_step))
    socle._necklace_numerator.cache_clear()
    try:
        assert _dilaton_misses(socle_necklace, queries)
        assert [
            q for q in queries if q.d.count(0) <= 1 and socle_necklace(q) != faber(q)
        ]
    finally:
        socle._necklace_numerator.cache_clear()
