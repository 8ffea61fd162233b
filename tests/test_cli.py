import csv
import io
import json
from fractions import Fraction

import pytest

from soclecalc.cli import main
from soclecalc.exact import parse_rational
from soclecalc.socle import _MAX_ZEROS


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
    code, _, err = run(capsys, "socle", "--g", "2", "--d", "2;1")
    assert code == 1


def test_socle_json_output_round_trips(capsys):
    code, out, _ = run(capsys, "socle", "--g", "1", "--d", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1/24"
    assert parse_rational(payload["value"]) == Fraction(1, 24)
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
    # (k+1, 0^k) at g=2 string-reduces to (2, 0), whose value is 1/2880
    def d(zeros):
        return ",".join([str(zeros + 1)] + ["0"] * zeros)

    code, out, _ = run(
        capsys, "socle", "--g", "2", "--d", d(_MAX_ZEROS), "--method", "necklace"
    )
    assert (code, out.strip()) == (0, "1/2880")
    code, out, err = run(capsys, "socle", "--g", "2", "--d", d(_MAX_ZEROS + 1))
    assert code == 1
    assert out == ""
    assert f"at most {_MAX_ZEROS} zero exponents, got {_MAX_ZEROS + 1}" in err


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
def test_verify_propagator_below_q_squared_is_usage_error(capsys, suite):
    # sigma_p(1) = 1 for every p: no order below q^2 separates the
    # divisor powers k-1 and k, so the run refuses instead of failing
    code, out, err = run(capsys, "verify", suite, "--q-order", "1")
    assert code == 1
    assert out == ""
    assert "q^2" in err and "q_order >= 2" in err


def test_verify_relation_runs_requested_genus(capsys):
    code, out, _ = run(capsys, "verify", "relation", "--g-max", "6", "--format", "json")
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["checks"]]
    relation = [i for i in ids if i.startswith("socle.relation_integral[")]
    # positive d of length m <= 4 with sum(d) = g-1+m, for g <= 6
    assert len(relation) == 209
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


def test_verify_all_deterministic_given_seed(capsys):
    code1, out1, _ = run(
        capsys, "verify", "all", "--g-max", "3", "--format", "json", "--seed", "7"
    )
    code2, out2, _ = run(
        capsys, "verify", "all", "--g-max", "3", "--format", "json", "--seed", "7"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SOCLECALC_G_MAX", "2")
    code, out, _ = run(capsys, "verify", "string", "--format", "json")
    assert code == 0
    assert json.loads(out)["config"]["g_max"] == 2


def test_malformed_env_value_only_breaks_its_reader(capsys, monkeypatch):
    monkeypatch.setenv("SOCLECALC_SEED", "abc")
    code, _, err = run(capsys, "table", "dr", "--g-max", "0", "--a-max", "0")
    assert (code, err) == (0, "")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "dr", "--g-max", "1"])
    assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["socle", "--g", "1", "--d", "0"],
        ["verify", "dr", "--g-max", "1"],
        ["table", "dr", "--g-max", "0", "--a-max", "0"],
    ],
)
def test_env_format_is_checked(capsys, monkeypatch, argv):
    monkeypatch.setenv("SOCLECALC_FORMAT", "xml")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "SOCLECALC_FORMAT" in captured.err and "'xml'" in captured.err


def test_orders_must_be_positive(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "propagator", "--q-order", "0"])
    assert exc.value.code == 1
    assert "--q-order" in capsys.readouterr().err
    monkeypatch.setenv("SOCLECALC_W_ORDER", "0")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "propagator"])
    assert exc.value.code == 1
    assert "--w-order" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "relation", "--g-max", "2", "--samples", "-3"], "--samples"),
        (["table", "eisenstein", "--k", "2", "--order", "-1"], "--order"),
        (["table", "dr", "--g-max", "-1"], "--g-max"),
        (["table", "dr", "--a-max", "-1"], "--a-max"),
        (["table", "socle", "--n-max", "-1"], "--n-max"),
        (["verify", "all", "--m-max", "-1"], "--m-max"),
    ],
)
def test_negative_sizes_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}" in captured.err


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
        assert parse_rational(r["faber"]) == parse_rational(r["necklace"])


def test_table_dr(capsys):
    code, out, _ = run(
        capsys, "table", "dr", "--g-max", "2", "--a-max", "1", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3 * 9
    lookup = {
        (r["g"], r["a1"], r["a2"]): parse_rational(r["value"]) for r in rows
    }
    assert lookup[("1", "1", "-1")] == Fraction(1, 12)
    assert lookup[("0", "0", "0")] == 1


def test_table_eisenstein_markdown(capsys):
    code, out, _ = run(
        capsys, "table", "eisenstein", "--k", "2,4,6", "--order", "4"
    )
    assert code == 0
    assert "-1/24" in out and "1/240" in out and "-1/504" in out
