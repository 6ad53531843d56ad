#!/usr/bin/env python3
"""Run the benchmark over several seeds and write the medians to a JSON file.

    python3 scripts/bench.py --out BENCH_7.json --seeds 1,2,3
    python3 scripts/bench.py --out BENCH_7.json --seeds 1,2,3 --baseline ../parent

Every workload named in BENCHMARK.json runs once per seed through the
checkout's own ``bench/run.py`` at ``--trace 0`` and at the run length
BENCHMARK.json sets.  With ``--baseline`` (another checkout), each seed
runs on both trees as one pair, alternating which runs first, and the
file also counts per metric how many pairs the change won.  Then each
tree runs every workload once more at ``--trace 1``, with the first
seed, and the file keeps that run's per-layer metrics.  The file holds
every run, the median and quartiles of each end-to-end metric per tree,
the per-layer metrics per tree, and the Python and numpy versions and
CPU count of the host.  Exits 1 if any run fails.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MIN_SEEDS = 3


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``bench/run.py`` run in `tree`; its closing JSON line."""
    cmd = [
        sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    result["returncode"] = proc.returncode
    return result


def summarize(runs: list, names: list) -> dict:
    """Median and quartiles of each metric over the runs of one tree."""
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if len(values) >= 2:
            q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
            out[name] = {"median": q2, "q1": q1, "q3": q3, "n": len(values)}
        elif values:
            out[name] = {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    return out


def wins(change: list, baseline: list, spec: list) -> dict:
    """Per metric, the pairs in which the change read strictly better."""
    out = {}
    for metric in spec:
        sign = 1 if metric["better"] == "lower" else -1
        name = metric["name"]
        out[name] = sum(
            sign * c["metrics"][name]["value"] < sign * b["metrics"][name]["value"]
            for c, b in zip(change, baseline)
            if name in c["metrics"] and name in b["metrics"]
        )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument("--seeds", required=True,
                    help=f"comma-separated workload seeds, at least {MIN_SEEDS}")
    ap.add_argument("--baseline", type=Path, help="checkout to pair every run with")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < MIN_SEEDS:
        ap.error(f"need at least {MIN_SEEDS} seeds for a median, got {len(seeds)}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = bench["end_to_end"]
    names = [m["name"] for m in spec]
    trees = {"change": ROOT}
    if args.baseline is not None:
        trees["baseline"] = args.baseline.resolve()

    record = {
        "command": ["scripts/bench.py", *sys.argv[1:]],
        "seconds": bench["run_seconds"],
        "seeds": seeds,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "workloads": {},
    }
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = {label: [] for label in trees}
        for i, seed in enumerate(seeds):
            order = list(trees) if i % 2 == 0 else list(trees)[::-1]
            for label in order:
                result = run_bench(trees[label], workload, seed, bench["run_seconds"])
                result.update(seed=seed, first=label == order[0])
                runs[label].append(result)
                ok &= bool(result["correct"])
                shown = {n: round(result["metrics"][n]["value"], 4)
                         for n in names if n in result["metrics"]}
                print(f"{workload} seed {seed} {label}: correct {result['correct']} {shown}",
                      flush=True)
        entry = {label: {"summary": summarize(rs, names), "runs": rs}
                 for label, rs in runs.items()}
        for label, tree in trees.items():
            traced = run_bench(tree, workload, seeds[0], bench["run_seconds"], trace=1)
            ok &= bool(traced["correct"])
            entry[label]["per_layer"] = {
                "seed": seeds[0],
                "correct": traced["correct"],
                "metrics": {n: m["value"] for n, m in traced["metrics"].items()},
            }
            print(f"{workload} traced {label}: correct {traced['correct']}", flush=True)
        if "baseline" in trees:
            entry["change_wins"] = wins(runs["change"], runs["baseline"], spec)
        record["workloads"][workload] = entry

    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
