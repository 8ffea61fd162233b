"""One cold run of one workload, in a fresh interpreter.

    python3 benchmarks/child.py WORKLOAD SEED T0_NS TRACE [SPANS_FILE]

T0_NS is the parent's CLOCK_MONOTONIC reading just before it started this
process, so setup_s covers interpreter start-up and the package import.
The package memoizes with unbounded caches, so only a fresh process times
what a CLI user pays.  Prints one JSON object on stdout.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import soclecalc  # noqa: E402
import soclecalc.cli  # noqa: E402,F401

setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(sys.argv[3])) / 1e9

import json  # noqa: E402
import resource  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """This process's peak resident set size.  Linux carries the parent's
    peak over exec into ru_maxrss, and the parent is about as large as
    this child, so VmHWM (the peak of this process image) is read where
    there is one."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    name, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[4] == "1"
    if not os.path.abspath(soclecalc.__file__).startswith(SRC + os.sep):
        print(f"imported soclecalc from {soclecalc.__file__}, not {SRC}", file=sys.stderr)
        return 3
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    sample = workloads.run(name, seed)
    sample["setup_s"] = setup_s
    sample["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        sample["layers"] = tracer.metrics()
        tracer.dump(sys.argv[5])
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
