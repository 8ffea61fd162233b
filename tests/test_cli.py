import csv
import io
import json
import time
from fractions import Fraction

import pytest

from soclecalc import cli, elliptic, exact, socle
from soclecalc.cli import (
    _MAX_LISTS,
    FORMATS,
    _positive_list_count,
    _positive_lists,
    main,
    render_report,
)
from soclecalc.report import failed, passed
from soclecalc.socle import _MAX_DEPTH, _MAX_QUERIES, _query_count


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_socle_both_agreement(capsys):
    code, out, _ = run(capsys, "socle", "--g", "2", "--d", "1", "--method", "both")
    assert code == 0
    assert "1/2880" in out
    assert "agree    = yes" in out


def test_socle_dimension_violation_is_usage_error(capsys):
    code, _, err = run(capsys, "socle", "--g", "2", "--d", "2,1")
    assert code == 1
    assert "sum(d) = 3" in err and "g-2+n = 2" in err


def test_socle_malformed_d_list(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["socle", "--g", "2", "--d", "2;1"])
    assert exc.value.code == 1


def test_socle_json_output_round_trips(capsys):
    code, out, _ = run(capsys, "socle", "--g", "1", "--d", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1/24"
    assert Fraction(payload["value"]) == Fraction(1, 24)
    assert payload["agree"] is True


def test_socle_disagreement_exit_code(capsys):
    # two zero exponents: the provable boundary of the closed formula
    code, out, _ = run(
        capsys, "socle", "--g", "1", "--d", "2,0,0", "--method", "both"
    )
    assert code == 2
    assert "agree    = NO" in out


def test_socle_value_outside_closed_formula_domain(capsys):
    # two zero exponents: the reported value is the necklace value, and
    # the closed formula alone is refused
    code, out, _ = run(
        capsys, "socle", "--g", "1", "--d", "2,0,0", "--format", "json"
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["value"] == payload["necklace"] == "1/24"
    assert payload["faber"] == "1/36"
    code, out, err = run(
        capsys, "socle", "--g", "1", "--d", "2,0,0", "--method", "faber"
    )
    assert code == 1
    assert out == ""
    assert "at most one zero" in err
    code, out, _ = run(
        capsys, "socle", "--g", "2", "--d", "2,0", "--method", "faber"
    )
    assert (code, out.strip()) == (0, "1/2880")


def test_socle_zero_limit(capsys):
    # (k+1, 0^k) at g=2 string-reduces to (2, 0), whose value is 1/2880;
    # its recursion depth bound is k - 1, one string step per extra zero
    def d(zeros):
        return ",".join([str(zeros + 1)] + ["0"] * zeros)

    code, out, _ = run(
        capsys, "socle", "--g", "2", "--d", d(_MAX_DEPTH + 1), "--method", "necklace"
    )
    assert (code, out.strip()) == (0, "1/2880")
    code, out, err = run(capsys, "socle", "--g", "2", "--d", d(_MAX_DEPTH + 2))
    assert code == 1
    assert out == ""
    assert f"at most {_MAX_DEPTH} levels deep; d needs up to {_MAX_DEPTH + 1}" in err


def _ones(k):
    # (2, 1^k, 0, 0) at g=1: each string step that decrements a 1 keeps
    # both zeros, so the recursion is k + 1 levels deep
    return ",".join(["2"] + ["1"] * k + ["0", "0"])


@pytest.mark.parametrize(
    "g, d, depth",
    [
        (1, _ones(520), 521),
        # zero-free: each lift moves one unit onto the largest exponent
        (522, ",".join(["2"] * 520), 520),
        (1000, "500,500", 500),
    ],
    ids=["ones", "twos", "pair"],
)
def test_socle_depth_limit_refuses_each_shape(capsys, g, d, depth):
    t0 = time.monotonic()
    code, out, err = run(
        capsys, "socle", "--g", str(g), "--d", d, "--method", "necklace"
    )
    assert time.monotonic() - t0 < 1
    assert (code, out) == (1, "")
    assert err.startswith("soclecalc socle: error: ")
    assert f"at most {_MAX_DEPTH} levels deep; d needs up to {depth}" in err


def test_socle_depth_limit_refuses_before_faber(capsys, monkeypatch):
    # the default --method both evaluates the necklace side first, so the
    # refusal comes before faber reads B_2000, about 5 s from a cold
    # Bernoulli cache
    monkeypatch.setattr(exact, "_bernoulli_cache", [Fraction(1)])
    t0 = time.monotonic()
    code, out, err = run(capsys, "socle", "--g", "1000", "--d", "500,500")
    assert time.monotonic() - t0 < 1
    assert (code, out) == (1, "")
    assert f"at most {_MAX_DEPTH} levels deep; d needs up to 500" in err


def test_socle_list_at_the_depth_limit(capsys):
    # from a cold memo, so the recursion really runs _MAX_DEPTH levels
    # deep under pytest's own frames
    d = _ones(_MAX_DEPTH - 1)
    assert socle._depth_bound(tuple(map(int, d.split(",")))) == _MAX_DEPTH
    socle._necklace_numerator.cache_clear()
    code, out, _ = run(capsys, "socle", "--g", "1", "--d", d, "--method", "necklace")
    assert code == 0
    assert Fraction(out.strip()) > 0


@pytest.mark.parametrize(
    "argv, count",
    [
        (("verify", "string", "--g-max", "100"), 96_560_645),
        (("verify", "relation", "--g-max", "12", "--m-max", "12"), 2_704_155),
    ],
)
def test_positive_list_limit(capsys, argv, count):
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 1
    assert (code, out) == (1, "")
    assert f"gives {count} exponent lists; the limit is {_MAX_LISTS}" in err


def test_verify_all_stops_at_the_positive_list_limit(capsys, monkeypatch):
    # every limit is checked before the first suite runs: the dr suite,
    # first in `verify all`, has no limit of its own and would run for
    # seconds at g <= 100 before the string suite refused; at g, m <= 12
    # only the relation suite's lists pass the limit
    ran = []
    monkeypatch.setattr(cli, "suite_dr", lambda *args: ran.append(args) or [])
    for argv, count in (
        (("--g-max", "100"), 96_560_645),
        (("--g-max", "12", "--m-max", "12"), 2_704_155),
    ):
        t0 = time.monotonic()
        code, out, err = run(capsys, "verify", "all", *argv)
        assert time.monotonic() - t0 < 1
        assert (code, out) == (1, "")
        assert f"gives {count} exponent lists; the limit is {_MAX_LISTS}" in err
    assert ran == []


def test_positive_list_count_is_the_listing_length():
    for g_max in range(7):
        for n_max in range(7):
            count = _positive_list_count(g_max, n_max)
            assert count == len(list(_positive_lists(g_max, n_max)))
    # the default run and the benchmark stay far below the limit
    assert _positive_list_count(6, 6) == 923
    assert _positive_list_count(6, 5) == 461


def test_socle_table_limit(capsys):
    t0 = time.monotonic()
    code, out, err = run(capsys, "table", "socle", "--g-max", "30", "--n-max", "30")
    assert time.monotonic() - t0 < 1
    assert (code, out) == (1, "")
    assert f"gives 29359834 socle queries; the limit is {_MAX_QUERIES}" in err
    # CI's g, n <= 16 pin stays below the limit
    assert _query_count(16, 16) == 115_956 <= _MAX_QUERIES


def test_unknown_usage_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["socle", "--g", "2"])  # missing --d
    assert exc.value.code == 1


def test_verify_propagator_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "propagator", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "propagator"
    assert {c["status"] for c in payload["checks"]} == {"pass"}
    ids = [c["id"] for c in payload["checks"]]
    assert any("propagator_identity" in i for i in ids)
    assert any("must_fail_with_divisor_power_k" in i for i in ids)
    assert payload["config"]["q_order"] == 20
    # the echoed orders are the ones the checks ran at
    assert all("[q_order=20,w_order=8" in i for i in ids)


@pytest.mark.parametrize("suite", ["propagator", "all"])
def test_verify_propagator_below_q_squared_is_usage_error(capsys, monkeypatch, suite):
    # sigma_p(1) = 1 for every p: no order below q^2 separates the
    # divisor powers k-1 and k, so the run refuses instead of failing;
    # `verify all` refuses before its first suite, dr, runs, and before
    # the string and relation suites would take seconds at g <= 20
    ran = []
    monkeypatch.setattr(cli, "suite_dr", lambda *args: ran.append(args) or [])
    sizes = ("--g-max", "20", "--m-max", "2") if suite == "all" else ()
    t0 = time.monotonic()
    code, out, err = run(capsys, "verify", suite, "--q-order", "1", *sizes)
    assert time.monotonic() - t0 < 1
    assert (code, out) == (1, "")
    assert "q^2" in err and "q_order >= 2" in err
    assert ran == []


def test_verify_relation_runs_requested_genus(capsys):
    code, out, _ = run(capsys, "verify", "relation", "--g-max", "6", "--format", "json")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["checks"]]
    relation = [i for i in ids if i.startswith("socle.relation_integral[")]
    # positive d of length m <= 6 (the default --m-max) with
    # sum(d) = g-1+m, for g <= 6
    assert len(relation) == 923
    assert "socle.relation_integral[g=6,d=6]" in relation


def test_verify_dr_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "dr", "--g-max", "4")
    assert code == 0
    assert "0 failed" in out


def test_verify_topweight_restricted(capsys):
    code, out, _ = run(capsys, "verify", "topweight", "--g", "2", "--m", "3")
    assert code == 0
    lines = [l for l in out.splitlines() if "top_weight" in l]
    assert len(lines) == 3  # the three splits of m=3


def test_verify_topweight_runs_requested_genus(capsys):
    code, out, _ = run(
        capsys, "verify", "topweight", "--g", "5", "--m", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    ids = [c["id"] for c in payload["checks"]]
    assert ids == ["elliptic.top_weight[g=5,j_plus=1,j_minus=0,q_order=21]"]
    # the restriction is echoed after the default keys
    assert list(payload["config"])[-2:] == ["g", "m"]
    assert (payload["config"]["g"], payload["config"]["m"]) == (5, 1)


@pytest.mark.parametrize(
    "argv,config",
    [
        (("dr", "--g-max", "1"), {"g_max": 1}),
        (("string", "--g-max", "2"), {"g_max": 2}),
        (
            ("relation", "--g-max", "2", "--m-max", "2", "--samples", "3", "--seed", "5"),
            {"g_max": 2, "m_max": 2, "samples": 3, "seed": 5},
        ),
        (("propagator", "--q-order", "4", "--w-order", "2"), {"q_order": 4, "w_order": 2}),
        # topweight picks each check's order itself (q_order=7 here), so
        # the requested --q-order 50 is not read and not echoed
        (("topweight", "--g-max", "1", "--m-max", "1", "--q-order", "50"), {"g_max": 1, "m_max": 1}),
        (
            ("topweight", "--g-max", "2", "--m-max", "2", "--g", "2", "--m", "1"),
            {"g_max": 2, "m_max": 2, "g": 2, "m": 1},
        ),
        (
            ("all", "--g-max", "1", "--m-max", "1", "--samples", "2", "--q-order", "4", "--w-order", "2"),
            {"g_max": 1, "m_max": 1, "samples": 2, "seed": 0, "q_order": 4, "w_order": 2},
        ),
    ],
    ids=["dr", "string", "relation", "propagator", "topweight", "topweight-g-m", "all"],
)
def test_verify_config_echoes_exactly_the_flags_read(capsys, argv, config):
    # each flag its suites read, once, in the order first read
    code, out, _ = run(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    assert list(json.loads(out)["config"].items()) == list(config.items())


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "dr", "--g", "2"),
        ("verify", "all", "--m", "2"),
        ("verify", "string", "--g", "1", "--m", "1"),
    ],
)
def test_verify_restriction_outside_topweight_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "--g and --m apply only to the topweight suite" in err


def test_verify_without_checks_exits_one(capsys):
    code, out, err = run(capsys, "verify", "topweight", "--g", "5", "--g-max", "4")
    assert code == 1
    assert out == ""
    assert "ran no checks" in err


def test_table_without_rows_exits_one(capsys):
    # no genus g >= 1 is at most 0, so the socle table has no row
    code, out, err = run(capsys, "table", "socle", "--g-max", "0")
    assert code == 1
    assert out == ""
    assert err.startswith("soclecalc table: error:")
    assert "has no rows" in err


def test_verify_all_deterministic_given_seed(capsys):
    code1, out1, _ = run(
        capsys, "verify", "all", "--g-max", "3", "--format", "json", "--seed", "7"
    )
    code2, out2, _ = run(
        capsys, "verify", "all", "--g-max", "3", "--format", "json", "--seed", "7"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_environment_does_not_change_a_run(capsys, monkeypatch):
    # the flags alone decide a run, whatever SOCLECALC_* variables the
    # environment holds
    plain = run(capsys, "verify", "all", "--format", "json")
    monkeypatch.setenv("SOCLECALC_G_MAX", "2")
    monkeypatch.setenv("SOCLECALC_Q_ORDER", "1")
    monkeypatch.setenv("SOCLECALC_FORMAT", "xml")
    assert run(capsys, "verify", "all", "--format", "json") == plain
    assert plain[0] == 0
    assert len(json.loads(plain[1])["checks"]) == 2367
    code, _, err = run(capsys, "table", "dr", "--g-max", "0", "--a-max", "0")
    assert (code, err) == (0, "")


def test_orders_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "propagator", "--q-order", "0"])
    assert exc.value.code == 1
    assert "--q-order" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "relation", "--g-max", "2", "--samples", "-3"], "--samples"),
        (["table", "eisenstein", "--k", "2", "--order", "-1"], "--order"),
        (["table", "dr", "--g-max", "-1"], "--g-max"),
        (["table", "dr", "--a-max", "-1"], "--a-max"),
        (["table", "socle", "--n-max", "-1"], "--n-max"),
        (["verify", "all", "--m-max", "-1"], "--m-max"),
        (["socle", "--g", "2", "--d", "2;1"], "--d"),
        (["table", "eisenstein", "--k", "2,x"], "--k"),
    ],
)
def test_negative_sizes_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("socle", "--g", "1", "--d", "2,0,0", "--method", "faber"),
        ("verify", "dr", "--g", "2"),
        ("table", "eisenstein", "--k", "3"),
    ],
)
def test_usage_errors_name_their_subcommand(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"soclecalc {argv[0]}: error:")


# recorded at the commit before the CLI wrote Fractions through json's
# default hook and its cell formatter instead of a converted copy of each
# witness: a Fraction(3) as "3/1", a negative Fraction, a tuple holding a
# Fraction, a list and a string, and a passing check's null witness
FAILING_REPORT = {
    "json": (
        '{\n  "suite": "demo",\n  "checks": [\n    {\n      "id": "demo.scalar[k=1]",'
        '\n      "status": "fail",\n      "witness": "3/1"\n    },\n    {\n      "id": '
        '"demo.mixed[g=2,d=1+0]",\n      "status": "fail",\n      "witness": {\n       '
        ' "lhs": "-5/7",\n        "rhs": [\n          "1/2",\n          4\n        ],\n'
        '        "where": [\n          1,\n          2\n        ],\n        "note": '
        '"text"\n      }\n    },\n    {\n      "id": "demo.ok[g=1]",\n      "status": '
        '"pass",\n      "witness": null\n    }\n  ],\n  "config": {\n    "g_max": 2\n'
        "  }\n}"
    ),
    "csv": (
        'id,status,witness\r\ndemo.scalar[k=1],fail,"""3/1"""\r\n"demo.mixed[g=2,'
        'd=1+0]",fail,"{""lhs"": ""-5/7"", ""rhs"": [""1/2"", 4], ""where"": [1, 2], '
        '""note"": ""text""}"\r\ndemo.ok[g=1],pass,null\r'
    ),
    "markdown": (
        '## verify demo\n\n| check | status |\n|---|---|\n| demo.scalar[k=1] | FAIL '
        '"3/1" |\n| demo.mixed[g=2,d=1+0] | FAIL {"lhs": "-5/7", "rhs": ["1/2", 4], '
        '"where": [1, 2], "note": "text"} |\n| demo.ok[g=1] | pass |\n\n3 checks, 1 '
        "passed, 2 failed"
    ),
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_failing_report_bytes(fmt):
    witness = {
        "lhs": Fraction(-5, 7),
        "rhs": (Fraction(1, 2), 4),
        "where": [1, 2],
        "note": "text",
    }
    checks = [
        failed("demo.scalar", Fraction(3), k=1),
        failed("demo.mixed", witness, g=2, d=(1, 0)),
        passed("demo.ok", g=1),
    ]
    assert render_report("demo", checks, fmt, {"g_max": 2}) == FAILING_REPORT[fmt]


def test_table_socle_csv(capsys):
    code, out, _ = run(
        capsys, "table", "socle", "--g-max", "2", "--n-max", "2",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_key = {(r["g"], r["d"]): r for r in rows}
    assert by_key[("2", "2,0")]["faber"] == "1/2880"
    assert by_key[("2", "2,0")]["equal"] == "True"
    # every rational in the table re-parses exactly
    for r in rows:
        assert Fraction(r["faber"]) == Fraction(r["necklace"])


def test_table_dr(capsys):
    code, out, _ = run(
        capsys, "table", "dr", "--g-max", "2", "--a-max", "1", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3 * 9
    lookup = {
        (r["g"], r["a1"], r["a2"]): Fraction(r["value"]) for r in rows
    }
    assert lookup[("1", "1", "-1")] == Fraction(1, 12)
    assert lookup[("0", "0", "0")] == 1


def test_table_eisenstein_markdown(capsys):
    code, out, _ = run(
        capsys, "table", "eisenstein", "--k", "2,4,6", "--order", "4"
    )
    assert code == 0
    assert "-1/24" in out and "1/240" in out and "-1/504" in out


def test_verify_all_fits_every_top_weight_check_up_to_weight_12(capsys, monkeypatch):
    # the benchmark's `verify all` flags: each of its 30 top-weight checks
    # (g <= 3, m <= 4, weights 2 .. 12) sums the built polynomial and runs
    # the fit oracle once, the fits that benchmarks/selftest.py counts;
    # m = 5 adds checks of weight 14 and above at g = 3, which sum the
    # built polynomial alone and never fit
    fits, per_check = [], []
    fit, check = elliptic.fit, cli.top_weight_check

    def counted_fit(s, max_weight):
        fits.append(max_weight)
        return fit(s, max_weight)

    def counted_check(g, j_plus, j_minus, q_order):
        before = len(fits)
        result = check(g, j_plus, j_minus, q_order)
        weight = 2 * g - 2 + 2 * (j_plus + j_minus)
        per_check.append((weight, fits[before:]))
        return result

    monkeypatch.setattr(elliptic, "fit", counted_fit)
    monkeypatch.setattr(cli, "top_weight_check", counted_check)
    flags = ["--g-max", "3", "--q-order", "8", "--w-order", "8", "--samples", "20"]
    assert run(capsys, "verify", "all", "--m-max", "4", *flags)[0] == 0
    assert len(per_check) == len(fits) == 30
    assert all(called == [weight] for weight, called in per_check)
    per_check.clear()
    assert run(capsys, "verify", "topweight", "--m-max", "5", *flags[:2])[0] == 0
    heavy = [called for weight, called in per_check if weight > 12]
    assert len(heavy) == 5 and not any(heavy)
    assert len(per_check) == 45
