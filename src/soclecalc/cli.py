"""Command-line front end: socle values, verification suites, tables.

Exit codes form a stable contract for CI use: 0 success/agreement,
1 usage error, 2 mathematical disagreement.  A failed identity is a
result with a serialized witness, not a crash.  Outside the contract,
the `soclecalc` command exits 141 (128 + SIGPIPE), with no traceback,
when the reader closes its stdout early, as `| head` does.  The flags
alone decide a run; no environment variable is read.  Usage errors
found after parsing are ValueErrors, which main reports.

This is the one module that prints.  Each Fraction goes out as exact
"num/den" (exact.format_rational): as a JSON string from the indented
JSON writer (_json_value), as a cell from the formatter of
_rows_to_output, and as a line of cmd_socle's markdown.  The writer
gives the bytes of json.dumps(obj, indent=2, default=format_rational)
and writes every scalar itself; it leaves to json, and to json's
default hook for a Fraction, only a nested container (a failing
witness, socle's d list) and a value of any other type, such as a
float.  CSV and markdown witnesses are json.dumps without indent.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
from collections.abc import Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from math import comb

from .drcycle import dr3_bssz_check, dr3_closed, dr3_oracle_check, dr_standard
from .elliptic import (
    _check_separating_order,
    check_divisor_power_k_fails,
    check_propagator_identity,
    top_weight_check,
)
from .exact import double_factorial_odd, format_rational
from .modfit import basis
from .qseries import eisenstein
from .report import CheckResult, failed, passed
from .socle import (
    SocleQuery,
    compositions,
    iter_socle_queries,
    relation_integral_check,
    socle_compute,
    verify_string_consistency,
    wheel_collapse_check,
)

__all__ = ["main"]

FORMATS = ("json", "csv", "markdown")
EXIT_OK, EXIT_USAGE, EXIT_DISAGREE = 0, 1, 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; the disagreement code is 2
    # here, so reroute usage errors to exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least(lo: int):
    """argparse type= for a size flag: an integer >= lo."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if value < lo:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {lo}, got {text!r}"
            )
        return value

    return parse


def _int_list(text: str) -> list[int]:
    """argparse type= for a list flag: comma-separated integers."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def build_parser() -> _Parser:
    parser = _Parser(prog="soclecalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="markdown")

    p_socle = sub.add_parser(
        "socle", parents=[common], help="evaluate one socle query"
    )
    p_socle.add_argument("--g", type=int, required=True)
    p_socle.add_argument(
        "--d",
        type=_int_list,
        required=True,
        help="comma-separated exponents, e.g. 2,0",
    )
    p_socle.add_argument(
        "--method", choices=("faber", "necklace", "both"), default="both"
    )

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a verification suite"
    )
    p_verify.add_argument("suite", choices=(*SUITES, "all"))
    p_verify.add_argument("--q-order", type=_at_least(1), default=20)
    p_verify.add_argument("--w-order", type=_at_least(1), default=8)
    p_verify.add_argument("--g-max", type=_at_least(1), default=6)
    p_verify.add_argument("--m-max", type=_at_least(1), default=6)
    p_verify.add_argument("--g", type=_at_least(1), help="restrict to one genus")
    p_verify.add_argument(
        "--m", type=_at_least(1), help="restrict to one edge count"
    )
    p_verify.add_argument("--samples", type=_at_least(0), default=20)
    p_verify.add_argument("--seed", type=int, default=0)

    p_table = sub.add_parser(
        "table", parents=[common], help="emit a golden value table"
    )
    p_table.add_argument("kind", choices=("socle", "dr", "eisenstein"))
    p_table.add_argument("--g-max", type=_at_least(0), default=3)
    p_table.add_argument("--n-max", type=_at_least(1), default=3)
    p_table.add_argument("--a-max", type=_at_least(0), default=3)
    p_table.add_argument("--k", type=_int_list, default="2,4,6")
    p_table.add_argument("--order", type=_at_least(0), default=10)
    return parser


# ---------------------------------------------------------------- suites


def suite_dr(g_max: int) -> list[CheckResult]:
    checks = []
    for g in range(1, g_max + 1):
        for a1 in range(-5, 6):
            for a2 in range(-5, 6):
                checks.append(dr3_oracle_check(g, a1, a2))
    for g in range(1, g_max + 1):
        for a1 in range(1, 5):
            for a2 in range(1, 5):
                checks.append(dr3_bssz_check(g, a1, a2))
    for g in range(0, 13):
        lhs = dr_standard(g) * double_factorial_odd(2 * g + 1) * 4**g
        if lhs == 1:
            checks.append(passed("dr.standard_unit", g=g))
        else:
            checks.append(failed("dr.standard_unit", {"value": lhs}, g=g))
    return checks


# most lists _positive_lists yields: a string or relation check takes
# about 30-90 microseconds per list, from 31 on 98 279 lists of n <= 5 to
# 86 on 74 612 of g <= 6, n <= 16 (Python 3.11.7, 2 vCPUs), so about
# 3-9 s of work
_MAX_LISTS = 100_000


def _positive_list_count(g_max: int, n_max: int) -> int:
    # compositions of g-1 into n parts, summed over g <= g_max, n <= n_max
    return sum(
        comb(g + n - 2, n - 1)
        for g in range(1, g_max + 1)
        for n in range(1, n_max + 1)
    )


def _check_list_limit(g_max: int, n_max: int) -> None:
    # ValueError when _positive_lists(g_max, n_max) would pass _MAX_LISTS
    count = _positive_list_count(g_max, n_max)
    if count > _MAX_LISTS:
        raise ValueError(
            f"g <= {g_max} with n <= {n_max} parts gives {count} exponent "
            f"lists; the limit is {_MAX_LISTS}"
        )


def _positive_lists(g_max: int, n_max: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    # (g, d) with g <= g_max and d all-positive, n <= n_max parts and
    # sum(d) = g-1+n: the domain where the zero-appended query is canonical;
    # more than _MAX_LISTS raise ValueError before the first is yielded
    _check_list_limit(g_max, n_max)
    for g in range(1, g_max + 1):
        for n in range(1, n_max + 1):
            for c in compositions(g - 1, n):
                yield g, tuple(x + 1 for x in c)


# the parts of suite_string's lists: the consistency identity is a theorem
# on _positive_lists, n <= 5 is fixed, and benchmarks/workloads.py derives
# its expected counts from that range
_STRING_N_MAX = 5


def suite_string(g_max: int) -> list[CheckResult]:
    return [
        verify_string_consistency(g, d)
        for g, d in _positive_lists(g_max, _STRING_N_MAX)
    ]


def suite_relation(
    g_max: int, m_max: int, samples: int, seed: int
) -> list[CheckResult]:
    checks = [relation_integral_check(g, d) for g, d in _positive_lists(g_max, m_max)]
    rng = random.Random(seed)
    for _ in range(samples):
        g = rng.randint(1, 6)
        m = rng.randint(1, 5)
        cuts = sorted(rng.randint(0, g - 1) for _ in range(m - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [g - 1])]
        d = tuple(p + 1 for p in parts)
        checks.append(wheel_collapse_check(g, d))
    return checks


def suite_propagator(q_order: int, w_order: int) -> list[CheckResult]:
    return [
        check_propagator_identity(q_order, w_order),
        check_divisor_power_k_fails(q_order, w_order),
    ]


def suite_topweight(
    g_max: int, m_max: int, g_only: int | None, m_only: int | None
) -> list[CheckResult]:
    checks = []
    for g in range(1, g_max + 1):
        if g_only is not None and g != g_only:
            continue
        for m in range(1, m_max + 1):
            if m_only is not None and m != m_only:
                continue
            q_order = len(basis(2 * g - 2 + 2 * m)) + 5
            for j_plus in range(1, m + 1):
                checks.append(
                    top_weight_check(g, j_plus, m - j_plus, q_order)
                )
    return checks


# suite name -> the flags its suite_<name> reads, in argument order, and
# the suites in `verify all` order; cmd_verify passes exactly these flags
# and echoes exactly these in the JSON config
SUITES = {
    "dr": ("g_max",),
    "string": ("g_max",),
    "relation": ("g_max", "m_max", "samples", "seed"),
    "propagator": ("q_order", "w_order"),
    "topweight": ("g_max", "m_max", "g", "m"),
}


# ------------------------------------------------------------- rendering


def _dumps(obj, indent: int | None = None) -> str:
    # JSON with every Fraction, at any depth, as "num/den"
    return json.dumps(obj, indent=indent, default=format_rational)


# The indented JSON writer: _json_value, _json_object and _json_array
# give the bytes that _dumps(..., indent=2) gives for a value whose line
# is indented by pad.  Before Python 3.13, json encodes with indent only
# in pure Python, so the writer encodes each scalar itself and passes
# only the rest to _dumps, re-indented to its depth: an encoded JSON
# string holds no raw newline, so every "\n" of that text starts one of
# its lines.
_INDENT = "  "


def _json_value(value, pad: str) -> str:
    # json's order of tests: None, True and False before int, since bool
    # is an int; the Fraction case is json's default hook, inlined
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, Fraction):
        return _encode_str(format_rational(value))
    return _dumps(value, indent=2).replace("\n", "\n" + pad)


def _json_heads(keys, pad: str) -> list[str]:
    # what precedes each value of a dict with these string keys at pad
    return [f"\n{pad}{_INDENT}{_encode_str(k)}: " for k in keys]


def _json_object(heads, values, pad: str) -> str:
    # a dict from its _json_heads(keys, pad) and its values
    inner = pad + _INDENT
    members = ",".join([h + _json_value(v, inner) for h, v in zip(heads, values)])
    return f"{{{members}\n{pad}}}" if members else "{}"


def _json_array(texts, pad: str) -> str:
    # a list from the texts of its elements, each written at pad + _INDENT
    inner = pad + _INDENT
    elements = f",\n{inner}".join(texts)
    return f"[\n{inner}{elements}\n{pad}]" if elements else "[]"


def render_report(suite: str, checks: list[CheckResult], fmt: str, config: dict) -> str:
    if fmt == "json":
        # one f-string per check: id and status are always strings, and
        # a passing check's witness is None
        checks_text = _json_array(
            (
                f'{{\n      "id": {_encode_str(c.check_id)},'
                f'\n      "status": {_encode_str(c.status)},'
                f'\n      "witness": {_json_value(c.witness, "      ")}\n    }}'
                for c in checks
            ),
            _INDENT,
        )
        config_text = _json_object(
            _json_heads(config, _INDENT), config.values(), _INDENT
        )
        return (
            f'{{\n  "suite": {_encode_str(suite)},\n  "checks": {checks_text},'
            f'\n  "config": {config_text}\n}}'
        )
    if fmt == "csv":
        rows = [(c.check_id, c.status, _dumps(c.witness)) for c in checks]
        return _rows_to_output(["id", "status", "witness"], rows, "csv")
    lines = [f"## verify {suite}", ""]
    lines.append("| check | status |")
    lines.append("|---|---|")
    for c in checks:
        mark = "pass" if c.ok else f"FAIL {_dumps(c.witness)}"
        lines.append(f"| {c.check_id} | {mark} |")
    n_fail = sum(not c.ok for c in checks)
    lines.append("")
    lines.append(f"{len(checks)} checks, {len(checks) - n_fail} passed, {n_fail} failed")
    return "\n".join(lines)


def _rows_to_output(header, rows, fmt: str) -> str:
    if fmt == "json":
        heads = _json_heads(header, _INDENT)
        return _json_array((_json_object(heads, r, _INDENT) for r in rows), "")
    # each Fraction cell as "num/den", every other cell as it is, row by row
    rows = (
        [format_rational(v) if isinstance(v, Fraction) else v for v in r]
        for r in rows
    )
    if fmt == "csv":
        import csv  # here, not at import: most runs write no csv

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    cells = [[str(v) for v in r] for r in [header, *rows]]
    widths = [max(map(len, column)) for column in zip(*cells)]
    out = [
        "| " + " | ".join(v.ljust(w) for v, w in zip(r, widths)) + " |"
        for r in cells
    ]
    out.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(out)


# ------------------------------------------------------------- commands


def cmd_socle(args) -> int:
    query = SocleQuery(args.g, args.d)
    zeros = query.d.count(0)
    if args.method == "faber" and zeros >= 2:
        raise ValueError(
            "the closed formula is the socle value only on exponent lists "
            f"with at most one zero; d has {zeros} "
            "(use --method necklace or both)"
        )
    result = socle_compute(query, args.method)
    payload = {
        "g": query.g,
        "d": list(query.d),
        "method": args.method,
        "value": result.value,
        "faber": result.faber_value,
        "necklace": result.necklace_value,
        "agree": result.agree,
    }
    payload = {k: v for k, v in payload.items() if v is not None}
    if args.format == "json":
        print(_json_object(_json_heads(payload, ""), payload.values(), ""))
    elif args.format == "csv":
        print(_rows_to_output(list(payload), [list(payload.values())], "csv"))
    else:
        if args.method == "both":
            print(f"faber    = {format_rational(result.faber_value)}")
            print(f"necklace = {format_rational(result.necklace_value)}")
            print(f"agree    = {'yes' if result.agree else 'NO'}")
        else:
            print(format_rational(result.value))
    if result.agree is False:
        return EXIT_DISAGREE
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite != "topweight" and (args.g is not None or args.m is not None):
        raise ValueError(
            "--g and --m apply only to the topweight suite, "
            f"not to {args.suite!r}"
        )
    names = SUITES if args.suite == "all" else (args.suite,)
    # every stated limit and precondition is checked before the first suite
    if "string" in names:
        _check_list_limit(args.g_max, _STRING_N_MAX)
    if "relation" in names:
        _check_list_limit(args.g_max, args.m_max)
    if "propagator" in names:
        _check_separating_order(args.q_order)
    checks, config = [], {}
    for name in names:
        flags = {flag: getattr(args, flag) for flag in SUITES[name]}
        # looked up at call time, so a wrapper installed on the module
        # attribute sees every call
        checks += globals()[f"suite_{name}"](*flags.values())
        # each flag once, where it is first read; --g/--m only when given
        config.update((f, v) for f, v in flags.items() if v is not None)
    if not checks:
        raise ValueError(
            f"suite {args.suite!r} ran no checks for these parameters"
        )
    print(render_report(args.suite, checks, args.format, config))
    return EXIT_OK if all(c.ok for c in checks) else EXIT_DISAGREE


def cmd_table(args) -> int:
    if args.kind == "socle":
        header = ["g", "d", "faber", "necklace", "equal"]
        rows = []
        for q in iter_socle_queries(args.g_max, args.n_max):
            r = socle_compute(q, "both")
            rows.append(
                (
                    q.g,
                    ",".join(str(x) for x in q.d),
                    r.faber_value,
                    r.necklace_value,
                    r.agree,
                )
            )
    elif args.kind == "dr":
        header = ["g", "a1", "a2", "value"]
        rows = [
            (g, a1, a2, dr3_closed(g, a1, a2))
            for g in range(0, args.g_max + 1)
            for a1 in range(-args.a_max, args.a_max + 1)
            for a2 in range(-args.a_max, args.a_max + 1)
        ]
    else:
        header = ["k", "n", "coefficient"]
        rows = [
            (k, n, eisenstein(k, args.order).coeffs[n])
            for k in args.k
            for n in range(args.order + 1)
        ]
    if not rows:
        raise ValueError(f"table {args.kind!r} has no rows for these parameters")
    print(_rows_to_output(header, rows, args.format))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "socle":
            return cmd_socle(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_table(args)
    except ValueError as exc:
        print(f"soclecalc {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: exit as a
        # process killed by SIGPIPE would, 128 + 13, with no traceback, and
        # point stdout at os.devnull so that the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
