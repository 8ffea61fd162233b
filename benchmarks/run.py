"""Cold-process benchmark of soclecalc.

    python3 benchmarks/run.py --workload verify-all --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seconds 10

Runs one workload (or all of them) for about --seconds: one child
interpreter at a time, each a cold run of the whole workload (closed
loop, one client).  With --trace 0 it reports the end-to-end metrics of
BENCHMARK.json as the median over children; with --trace 1 it alternates
traced and untraced children and reports the per-layer metrics.  Every
child checks every output; a wrong result or an exception is a failed
operation.  The last line of stdout is one JSON object; a result file
with every raw sample goes to .bench-results/.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, workload_params  # noqa: E402

CHILD_TIMEOUT_S = 120
MIN_CHILDREN = 3  # per kind (untraced, traced) in one run
RESULTS_DIR = os.path.join(ROOT, ".bench-results")


class BenchError(Exception):
    """No result can be given: a child crashed or ran over time, or a
    metric of BENCHMARK.json was not measured."""


def child_env() -> dict:
    # SOCLECALC_* would override CLI defaults; PYTHON* could redirect the
    # import or turn off bytecode caching.  A fixed hash seed keeps set and
    # dict iteration orders, and so the traced counts, the same per child.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("SOCLECALC_", "PYTHON"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, traced: bool, spans_file: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed)]
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd += [str(t0), "1" if traced else "0", spans_file]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child ran over {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise BenchError(f"{workload} child printed no result:\n{proc.stderr[-2000:]}") from exc


def summarize(values) -> dict:
    values = list(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Run children for about `seconds` and aggregate them into one result."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    spans_file = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}.spans")
    plain, traced, walls = [], [], []
    start = time.monotonic()
    # start another child while the run would end nearer to `seconds` with it
    while (time.monotonic() - start + statistics.median(walls or [0]) / 2 < seconds
           or len(plain) < MIN_CHILDREN or (trace and len(traced) < MIN_CHILDREN)):
        use_trace = trace and len(traced) < len(plain)
        t0 = time.monotonic()
        (traced if use_trace else plain).append(run_child(workload, seed, use_trace, spans_file))
        walls.append(time.monotonic() - t0)
    samples = plain + traced

    # the same seed must give identical outputs (for verify-all, the same
    # report bytes) in every child
    shas = [s["output_sha256"] for s in samples]
    nondeterministic = sum(sha != shas[0] for sha in shas)
    attempted = sum(s["attempted"] for s in samples)
    failed = min(attempted, sum(s["failed"] for s in samples) + nondeterministic)

    stats = {
        "setup_s": summarize(s["setup_s"] for s in plain),
        "solve_rel": summarize(s["solve_s"] / s["ref_s"] for s in plain),
        "peak_rss_mb": summarize(s["peak_rss_mb"] for s in plain),
        "solve_s": summarize(s["solve_s"] for s in plain),
        "ops_per_s": summarize(s["attempted"] / s["solve_s"] for s in plain),
        "ref_s": summarize(s["ref_s"] for s in plain),
    }
    if trace:
        for key in traced[0]["layers"]:
            stats[key] = summarize(s["layers"][key] for s in traced)
        stats["trace.solve_s"] = summarize(s["solve_s"] for s in traced)
        stats["trace.overhead_s"] = {
            "median": stats["trace.solve_s"]["median"] - stats["solve_s"]["median"],
            "n": len(traced),
        }
        counts_repeat = all(
            s["layers"][k] == traced[0]["layers"][k]
            for s in traced for k in traced[0]["layers"] if not k.endswith(("_s", "_ratio"))
        )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(solve_s="s", ops_per_s="1/s", ref_s="s")
    reported = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [name for name in reported if name not in stats]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    if not trace:
        reported += ["solve_s", "ops_per_s", "ref_s"]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "params": workload_params(workload, seed),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "runs": {"untraced": len(plain), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "nondeterministic_outputs": nondeterministic,
        "metrics": {name: dict(stats[name], unit=units[name]) for name in reported},
        "samples": {"untraced": plain, "traced": traced},
    }
    if trace:
        result["trace_counts_repeat"] = counts_repeat
    path = os.path.join(RESULTS_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    return result


def print_summary(result: dict) -> None:
    op = WORKLOADS[result["workload"]].ops
    rate = result["failed"] / result["attempted"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"children={result['runs']} python={result['python']} nproc={result['nproc']}")
    for name, m in result["metrics"].items():
        spread = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}" if "q1" in m else ""
        print(f"  {name:32s} {m['median']:14.6g} {m['unit']:6s}{spread}  n={m['n']}")
    print(f"  {'error_rate':32s} {rate:14.6g} {'1':6s}  "
          f"({result['failed']} failed of {result['attempted']} {op})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = os.path.join(ROOT, "BENCHMARK.json")
    package = os.path.join(ROOT, "src", "soclecalc", "__init__.py")
    missing = [p for p in (spec_file, package) if not os.path.isfile(p)]
    if missing:
        print(f"run.py: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(spec_file) as f:
        spec = json.load(f)
    # build: byte-compile once, so no child pays for compiling
    if not compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1):
        print("run.py: the package source does not compile", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [measure(n, args.seed, args.seconds, bool(args.trace), spec) for n in names]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for r in results:
        print_summary(r)
    prefix = len(results) > 1
    contract = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): {
                "value": r["metrics"][k]["median"], "unit": r["metrics"][k]["unit"]}
            for r in results for k in contract
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
