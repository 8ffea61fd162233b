"""Property tests: symmetries and algebraic laws checked on random inputs.

Each property is a statement the exact computations must satisfy on every
input, so a single counterexample is a defect; the example counts are
kept small so that the file runs in a few seconds.
"""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from soclecalc.cli import render_report
from soclecalc.drcycle import dr3_closed
from soclecalc.qseries import QSeries
from soclecalc.report import failed, passed
from soclecalc.socle import (
    SocleQuery,
    faber,
    iter_socle_queries,
    socle_necklace,
    string_apply,
)

from series_ops import constant, plus

small = settings(max_examples=40, deadline=None)

QUERIES = list(iter_socle_queries(5, 5))
AT_MOST_ONE_ZERO = [q for q in QUERIES if q.d.count(0) <= 1]


# ------------------------------------------------------------- socle values


@small
@given(st.data())
def test_both_evaluators_symmetric_on_at_most_one_zero(data):
    q = data.draw(st.sampled_from(AT_MOST_ONE_ZERO))
    shuffled = SocleQuery(q.g, tuple(data.draw(st.permutations(q.d))))
    assert faber(shuffled) == faber(q)
    assert socle_necklace(shuffled) == socle_necklace(q)


@small
@given(st.data())
def test_necklace_symmetric_on_all_lists(data):
    q = data.draw(st.sampled_from(QUERIES))
    shuffled = SocleQuery(q.g, tuple(data.draw(st.permutations(q.d))))
    assert socle_necklace(shuffled) == socle_necklace(q)


@st.composite
def positive_lists(draw):
    # (g, d): d of n >= 1 positive exponents with sum(d) = g-1+n
    g = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    cuts = sorted(draw(st.lists(st.integers(0, g - 1), min_size=n - 1, max_size=n - 1)))
    return g, tuple(b - a + 1 for a, b in zip([0] + cuts, cuts + [g - 1]))


@small
@given(positive_lists(), st.data())
def test_faber_commutes_with_one_string_step(gd, data):
    # appending a zero to an all-positive list gives a single-zero query,
    # and every string reduction of it has at most one zero
    g, d = gd
    appended = tuple(data.draw(st.permutations(d + (0,))))
    lhs = faber(SocleQuery(g, appended))
    rhs = sum(
        (faber(SocleQuery(g, rd)) for rd in string_apply(appended)),
        Fraction(0),
    )
    assert lhs == rhs


# -------------------------------------------------------- ramification cycles


@small
@given(st.integers(0, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-4, 4))
def test_dr3_closed_homogeneous_of_degree_2g(g, a1, a2, t):
    assert dr3_closed(g, t * a1, t * a2) == t ** (2 * g) * dr3_closed(g, a1, a2)


# ----------------------------------------------------------------- q-series

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))


@st.composite
def series_triples(draw):
    order = draw(st.integers(0, 6))
    coeffs = st.lists(rationals, min_size=order + 1, max_size=order + 1)
    return tuple(QSeries(tuple(draw(coeffs))) for _ in range(3))


@small
@given(series_triples())
def test_qseries_ring_laws(abc):
    a, b, c = abc
    one = constant(1, a.order)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * one == a
    assert a * plus(b, c) == plus(a * b, a * c)


# ------------------------------------------------------------------ reports

names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
# "check" and "witness" are the positional parameters of passed/failed
params = st.dictionaries(
    names.filter(lambda k: k not in ("check", "witness")),
    st.one_of(st.integers(-99, 99), st.tuples(st.integers(0, 9), st.integers(0, 9))),
)
witness_values = st.one_of(rationals, st.lists(rationals, max_size=4), st.integers(-99, 99))


@small
@given(names, params, st.one_of(st.none(), st.dictionaries(names, witness_values)))
def test_check_result_survives_json_round_trip(check, kwargs, witness):
    # the path `soclecalc verify --format json` serializes a check through
    result = passed(check, **kwargs) if witness is None else failed(check, witness, **kwargs)
    (decoded,) = json.loads(render_report("s", [result], "json", {}))["checks"]
    inner = ",".join(
        f"{k}={'+'.join(map(str, v)) if isinstance(v, tuple) else v}"
        for k, v in kwargs.items()
    )
    assert decoded["id"] == f"{check}[{inner}]"
    assert decoded["status"] == result.status
    assert (decoded["witness"] is None) == (witness is None)
    for key, value in (witness or {}).items():
        back = decoded["witness"][key]
        if isinstance(value, Fraction):
            assert Fraction(back) == value
        elif isinstance(value, list):
            assert [Fraction(x) for x in back] == value
        else:
            assert back == value
