"""One pass of one workload in a fresh interpreter; prints one JSON record.

Started by ``bench/run.py``, never by hand:

    python3 bench/child.py --workload battery --seed 1 --trace 0

Set-up is timed from the first statement: importing ``vermalab`` and
generating the workload's inputs.  The pass starts with every library
cache cold, as it does for a user's ``vermalab verify-sl2`` process.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def matmul_probe(np) -> float:
    """Median seconds of a fixed int64 121x121 matmul-and-reduce loop."""
    a = (np.arange(121 * 121, dtype=np.int64) * 7 % 11).reshape(121, 121)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        b = a
        for _ in range(10):
            b = (b @ a) % 11
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-wrong", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import vermalab

    if Path(vermalab.__file__).resolve().parent != (SRC / "vermalab").resolve():
        raise SystemExit(f"vermalab imported from {vermalab.__file__}, not from {SRC}")
    import layertrace
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.tiny, args.inject_wrong)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = layertrace.Tracer(layertrace.TARGETS if args.trace else [])
    tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    res = workloads.RUNNERS[args.workload](inputs, tracer)
    run_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": res.latencies_s,
        "attempted": res.attempted,
        "failed": res.failed,
        "failures": res.failures,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "seed": args.seed,
        },
        "matmul_probe_s": matmul_probe(np),
    }
    if args.trace:
        record["trace"] = {
            "stats": {
                name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, **s.extra}
                for name, s in tracer.stats.items()
            },
            "library_s": tracer.library_seconds(),
            "suites": tracer.suite_seconds(),
            "scopes": tracer.scopes,
            "spans": tracer.spans,
        }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
