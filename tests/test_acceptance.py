"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -v -s` to see them).

All comparisons are exact; there are no tolerances anywhere.

Criterion 1 checks the necklace path against Faber's formula on every
query with g <= 6, n <= 6: directly on Faber's domain (at most one zero
exponent), and against Faber's formula plus the string equation on
lists with two or more zeros, where the closed product itself is not
string-consistent (see test_criterion_1 and the README).  Its companion
tests run the direct comparison on the single-zero domain and pin the
exact agree/disagree split of the closed product up to g, n <= 10.
"""

import random
import time
from fractions import Fraction
from math import factorial, prod

from soclecalc.drcycle import dr3_bssz_check, dr3_closed, dr3_recursive
from soclecalc.elliptic import (
    check_divisor_power_k_fails,
    check_propagator_identity,
    necklace_coefficient_series,
    top_weight_check,
)
from soclecalc.modfit import basis
from soclecalc.qseries import eisenstein
from soclecalc.socle import (
    SocleQuery,
    faber,
    iter_socle_queries,
    relation_integral_check,
    socle_compute,
    verify_string_consistency,
    wheel_collapse_check,
)

from series_ops import q_d_q, scale


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")


def _positive_lists(total, parts):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_lists(total - first, parts - 1):
            yield (first,) + rest


def _faber_string_reference(g, d):
    """The value that Faber's formula and the string equation force
    together: while d has two or more zeros, drop one zero and sum over
    the lists with one positive slot decremented; at most one zero is
    Faber's domain, where the closed formula gives the value.  Shares no
    code with the necklace path (no string_apply, no _necklace_numerator)."""
    if d.count(0) <= 1:
        return faber(SocleQuery(g, d))
    rest = list(d)
    rest.remove(0)
    return sum(
        (
            _faber_string_reference(g, tuple(rest[:j] + [x - 1] + rest[j + 1 :]))
            for j, x in enumerate(rest)
            if x >= 1
        ),
        Fraction(0),
    )


def test_criterion_1_faber_reproduction_exhaustive():
    """Criterion 1: on every dimension-valid (g, d) with g <= 6, n <= 6
    the necklace path reproduces Faber's formula.

    Faber's formula (the lambda_g lambda_{g-1} form) holds for lists with
    at most one zero exponent; there faber() must equal the necklace
    value exactly.  On lists with two or more zeros the closed product
    is not compatible with the string equation (removing a zero from a
    list that still contains one changes the factorial bookkeeping by
    2*sum(d)-#positives instead of the required 2*sum(d)-n), so there
    the necklace value must equal what Faber's formula and the string
    equation force together, computed by _faber_string_reference.
    Smallest witness: g=1, d=(2,0,0), where two string steps force 1/24
    while the closed product yields 1/36.  Every genus-one value is also
    checked against the independent closed anchor
    (n-1)! / (24 * prod(d_i!)) of the string equation alone.
    """
    t0 = time.monotonic()
    mismatches = []
    total = direct = reduced = genus_one = 0
    for q in iter_socle_queries(6, 6):
        total += 1
        r = socle_compute(q, "both")
        if q.d.count(0) <= 1:
            direct += 1
            expected = r.faber_value
        else:
            reduced += 1
            expected = _faber_string_reference(q.g, q.d)
        if r.necklace_value != expected:
            mismatches.append((q.g, q.d, expected, r.necklace_value))
        if q.g == 1:
            genus_one += 1
            anchor = Fraction(
                factorial(q.n - 1), 24 * prod(factorial(x) for x in q.d)
            )
            if r.necklace_value != anchor:
                mismatches.append((q.g, q.d, anchor, r.necklace_value))
    elapsed = time.monotonic() - t0
    spot = {
        (1, (0,)): Fraction(1, 24),
        (2, (1,)): Fraction(1, 2880),
        (2, (2, 0)): Fraction(1, 2880),
    }
    spot_ok = all(
        socle_compute(SocleQuery(g, d), "faber").value == v
        for (g, d), v in spot.items()
    )
    ok = not mismatches and spot_ok and elapsed < 10
    _report(
        1,
        ok,
        f"necklace vs Faber on all {total} queries (g<=6, n<=6): {direct} "
        f"direct, {reduced} through the string equation, {genus_one} "
        f"genus-one anchors, {len(mismatches)} mismatches, {elapsed:.2f}s",
    )
    assert elapsed < 10
    assert spot_ok
    assert (total, direct, reduced) == (288, 133, 155)
    assert genus_one == 19
    assert not mismatches, (
        f"{len(mismatches)} mismatches (g, d, expected, necklace); "
        f"first: {mismatches[0]}"
    )


def test_criterion_1_companion_single_zero_domain():
    """The same exhaustive comparison on the provable domain: every
    query with at most one zero exponent agrees exactly."""
    t0 = time.monotonic()
    total = 0
    for q in iter_socle_queries(6, 6):
        if q.d.count(0) > 1:
            continue
        total += 1
        r = socle_compute(q, "both")
        assert r.agree, (q, r)
    assert socle_compute(SocleQuery(1, (0,)), "both").value == Fraction(1, 24)
    assert socle_compute(SocleQuery(2, (1,)), "both").value == Fraction(1, 2880)
    assert socle_compute(SocleQuery(2, (2, 0)), "both").value == Fraction(1, 2880)
    elapsed = time.monotonic() - t0
    _report(
        "1 (provable domain)",
        True,
        f"faber == necklace on all {total} queries with <= 1 zero, "
        f"{elapsed:.2f}s",
    )
    assert elapsed < 10


def test_criterion_1_exhaustive_split_g10_n10():
    """The exact agree/disagree split of criterion 1 on every
    dimension-valid query with g <= 10, n <= 10: the two paths agree
    exactly when d has at most one zero exponent."""
    t0 = time.monotonic()
    total = agree = 0
    for q in iter_socle_queries(10, 10):
        total += 1
        r = socle_compute(q, "both")
        assert r.agree == (q.d.count(0) <= 1), (q, r)
        agree += r.agree
    spot = {
        (1, (0,)): Fraction(1, 24),
        (2, (1,)): Fraction(1, 2880),
        (2, (2, 0)): Fraction(1, 2880),
    }
    for (g, d), v in spot.items():
        r = socle_compute(SocleQuery(g, d), "both")
        assert r.faber_value == r.necklace_value == v, (g, d)
    elapsed = time.monotonic() - t0
    _report(
        "1 (split, g<=10, n<=10)",
        True,
        f"{agree} of {total} queries agree, {total - agree} with >= 2 zeros "
        f"disagree, {elapsed:.2f}s",
    )
    assert (total, agree, total - agree) == (4667, 1144, 3523)
    assert elapsed < 5


def test_criterion_2_dr_oracle_equivalence():
    t0 = time.monotonic()
    nontrivial = 0
    for g in range(0, 9):
        for a1 in range(-5, 6):
            for a2 in range(-5, 6):
                assert dr3_closed(g, a1, a2) == dr3_recursive(g, a1, a2)
                if g >= 1:
                    nontrivial += 1
    elapsed = time.monotonic() - t0
    _report(2, True, f"closed == recursive on {nontrivial} nontrivial pairs, "
            f"{elapsed:.2f}s")
    assert nontrivial == 968
    assert elapsed < 1


def test_criterion_3_bssz_identity():
    t0 = time.monotonic()
    count = 0
    for g in range(1, 7):
        for a1 in range(1, 5):
            for a2 in range(1, 5):
                assert dr3_bssz_check(g, a1, a2).ok
                count += 1
    elapsed = time.monotonic() - t0
    _report(3, True, f"two-point reduction identity on {count} cases, "
            f"{elapsed:.2f}s")
    assert elapsed < 1


def test_criterion_4_propagator_equals_weierstrass():
    t0 = time.monotonic()
    good = check_propagator_identity(8, 8)
    wrong = check_divisor_power_k_fails(8, 8)
    elapsed = time.monotonic() - t0
    ok = good.ok and wrong.ok
    _report(
        4,
        ok,
        "coefficient-wise equality at q-order 8, w^-2 .. w^8; divisor "
        f"power k variant fails at {wrong.params.get('mismatch_at')}, "
        f"{elapsed:.2f}s",
    )
    assert good.ok
    assert wrong.ok, "the divisor-power-k convention must not satisfy the identity"
    assert wrong.params["mismatch_at"] == (2, 0)
    assert elapsed < 5


def test_criterion_5_top_weight_claim():
    t0 = time.monotonic()
    count = 0
    for g in range(1, 4):
        for m in range(2, 5):
            q_order = len(basis(2 * g - 2 + 2 * m)) + 5
            for j_plus in range(1, m + 1):
                res = top_weight_check(g, j_plus, m - j_plus, q_order)
                assert res.ok, res
                count += 1
    # closed-form anchor: the balanced two-edge series at genus one
    anchor = necklace_coefficient_series(1, 1, 1, 20)
    assert anchor.coeffs[1:4] == (2, 12, 24)
    assert anchor == scale(q_d_q(eisenstein(2, 20)), 2)
    elapsed = time.monotonic() - t0
    _report(5, True, f"quasimodular fit and top-weight extraction on {count} "
            f"splits (g<=3, 2<=m<=4, including free-constant), {elapsed:.2f}s")
    assert elapsed < 30


def test_criterion_6_integrated_relation():
    t0 = time.monotonic()
    count = 0
    for g in range(1, 6):
        for m in range(1, 5):
            for d in _positive_lists(g - 1 + m, m):
                assert relation_integral_check(g, d).ok, (g, d)
                count += 1
    # anchor: 1/12 == 240 * 1/2880
    assert relation_integral_check(2, (2,)).ok
    assert faber(SocleQuery(2, (1,))) * 240 == Fraction(1, 12)
    elapsed = time.monotonic() - t0
    _report(6, True, f"necklace relation against decremented closed values "
            f"on {count} exponent lists (g<=5, m<=4), {elapsed:.2f}s")
    assert elapsed < 5


def test_criterion_7_string_consistency():
    """Exhaustive over the all-positive exponent lists with
    sum(d) = g-1+n, i.e. every list whose zero-appended query is
    canonical.  That is the domain on which the consistency identity is
    mathematically true (and the only shape the criterion's own
    examples use).  Appending a zero to a list that already contains
    one leaves a multi-zero list, outside Faber's domain, where the
    closed product does not commute with the string equation (witness
    g=1, d=(2,0,0): 1/36 against the forced 1/24, see
    test_criterion_1)."""
    t0 = time.monotonic()
    count = 0
    for g in range(1, 7):
        for n in range(1, 6):
            for d in _positive_lists(g - 1 + n, n):
                assert verify_string_consistency(g, d).ok, (g, d)
                count += 1
    elapsed = time.monotonic() - t0
    _report(7, True, f"string-equation consistency of the closed formula on "
            f"{count} positive exponent lists (g<=6, n<=5), {elapsed:.2f}s")
    assert elapsed < 5


def test_criterion_8_wheel_collapse():
    t0 = time.monotonic()
    rng = random.Random(0)
    seen = []
    for _ in range(20):
        g = rng.randint(1, 6)
        m = rng.randint(1, 5)
        cuts = sorted(rng.randint(0, g - 1) for _ in range(m - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [g - 1])]
        d = tuple(p + 1 for p in parts)
        assert wheel_collapse_check(g, d).ok, (g, d)
        seen.append((g, d))
    elapsed = time.monotonic() - t0
    _report(8, True, f"literal wheel sums equal the collapsed product on "
            f"{len(seen)} sampled (g, d), {elapsed:.2f}s")
    assert elapsed < 5
