#!/usr/bin/env python3
"""The vermalab benchmark: one command, every metric, checked outputs.

    python3 bench/run.py --workload battery --seed 1 --seconds 60 --trace 0

Workloads (inputs, checks and the reason for each are in ``workloads.py``):
``battery`` and ``queries``.  Each pass runs in a fresh interpreter
(``child.py``), one process at a time, with every library cache cold.
Before each pass, two set-up-only processes sample the set-up time, so
its samples spread over the whole run.  Passes repeat while the next one
is expected to finish within ``--seconds`` (at the median time so far).
On a shared host the CPU's speed can drift over tens of seconds, so every
metric is taken over all passes of the run, never from one stretch of it.

``--trace 0`` reports the end-to-end metrics:
  setup_s       import vermalab and generate the inputs, in the fresh process;
                the median of every set-up sample
  run_s         wall time of one pass over the inputs; the median over passes
  peak_rss_mb   maximum resident set size of the pass's process; the median
  query_p50_ms, query_p99_ms
                latency of one user-facing call, percentiles of the calls of
                every pass together: a ``vermalab.cli.main`` weight-verb call
                on ``queries`` (1360 per pass); on ``battery`` the whole
                battery, one per pass, so there p50 is close to run_s and
                p99 to the slowest pass
``--trace 1`` runs one pass with every layer wrapped (``layertrace.py``) and
reports the per-layer metrics, plus untraced passes to measure the tracing
overhead.

Failed operations count against attempted ones in ``failed``/``attempted``
(their ratio is printed as fail_ratio); any failure makes ``correct``
false.  The last line of standard output is the result as JSON.  The full
record of the run (environment, matmul probe, every pass, trace spans)
is written to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PER_PASS = 2  # set-up-only processes before each pass

# wrapped functions that must record calls on each workload, or a layer
# metric assigned to that workload would silently read zero
REQUIRED_CALLS = {
    "battery": [
        "gf.matmul", "gf.rref", "gf.nullspace", "gf.solve", "gf.inverse",
        "modules.hom_space", "modules.projective_cover", "modules.syzygy",
        "modules.is_isomorphic", "modules.decompose", "modules.is_indecomposable",
        "modules.algebra_radical", "sl2.hyper_projectives", "sl2.restricted_projectives",
        "sl2.tensor", "heisenberg.count_points",
        "sl2.verify_vv6", "sl2.verify_dr2", "sl2.verify_periodicity_and_tube",
        "sl2.verify_ar_middle_term", "sl2.verify_heart", "sl2.verify_vv4_filtration",
    ],
    "queries": [
        "rootsys.build_root_system", "rootsys.dot_action", "verma.block_contains",
        "verma.smith_diagonalize", "verma.classify", "heisenberg.count_points", "cli.main",
    ],
}


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(args, trace: int, deadline: float, *extra: str):
    """One child process; returns (record or None, wall seconds, error text)."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace), *extra,
    ]
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--inject-wrong"] if args.inject_wrong else []
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - t0, "pass killed at the run deadline"
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), wall, ""


def layer_metrics(trace: dict, overhead_s: float, suite_names) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    ``suite_names`` are the sl2.suite.* metrics; a suite this workload
    does not run reads 0.
    """
    st = trace["stats"]
    hom = st["modules.hom_space"]
    cp = st["heisenberg.count_points"]
    out = {
        "gf.matmul.calls": (st["gf.matmul"]["calls"], "count"),
        "gf.matmul.self_s": (st["gf.matmul"]["self_s"], "s"),
        "gf.rref.calls": (st["gf.rref"]["calls"], "count"),
        "gf.rref.cells": (st["gf.rref"].get("cells", 0), "count"),
        "gf.rref.self_s": (st["gf.rref"]["self_s"], "s"),
        "gf.nullspace.self_s": (st["gf.nullspace"]["self_s"], "s"),
        "gf.solve.self_s": (st["gf.solve"]["self_s"] + st["gf.inverse"]["self_s"], "s"),
        "modules.hom_space.calls": (hom["calls"], "count"),
        "modules.hom_space.self_s": (hom["self_s"], "s"),
        "modules.hom_space.unknowns": (hom.get("unknowns", 0), "count"),
        "modules.hom_space.repeats": (hom.get("repeats", 0), "count"),
        "modules.hom_space.repeat_ratio": (
            hom.get("repeats", 0) / hom["calls"] if hom["calls"] else 0.0, "ratio"),
    }
    for name in ("projective_cover", "syzygy", "is_isomorphic", "decompose",
                 "is_indecomposable", "algebra_radical"):
        out[f"modules.{name}.self_s"] = (st[f"modules.{name}"]["self_s"], "s")
    out["modules.syzygy.calls"] = (st["modules.syzygy"]["calls"], "count")
    out["sl2.library_s"] = (trace["library_s"], "s")
    out["sl2.tensor.self_s"] = (st["sl2.tensor"]["self_s"], "s")
    out.update({name: (0.0, "s") for name in suite_names})
    for key, seconds in trace["suites"]:
        name = f"sl2.suite.{key}_s"
        out[name] = (out.get(name, (0.0, "s"))[0] + seconds, "s")
    out.update({
        "rootsys.build_root_system.self_s": (st["rootsys.build_root_system"]["self_s"], "s"),
        "rootsys.dot_action.calls": (st["rootsys.dot_action"]["calls"], "count"),
        "rootsys.dot_action.self_s": (st["rootsys.dot_action"]["self_s"], "s"),
        "verma.block_contains.calls": (st["verma.block_contains"]["calls"], "count"),
        "verma.block_contains.self_s": (st["verma.block_contains"]["self_s"], "s"),
        "verma.smith_diagonalize.calls": (st["verma.smith_diagonalize"]["calls"], "count"),
        "verma.classify.self_s": (st["verma.classify"]["self_s"], "s"),
        "heisenberg.count_points.self_s": (cp["self_s"], "s"),
        "heisenberg.pairs_per_s": (
            cp.get("pairs", 0) / cp["self_s"] if cp["self_s"] else 0.0, "1/s"),
        "cli.main.calls": (st["cli.main"]["calls"], "count"),
        "cli.self_s": (st["cli.main"]["self_s"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("battery", "queries"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="self-test: corrupt one expected answer")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "vermalab" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no vermalab source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    start = time.monotonic()
    deadline = start + DEADLINE_S
    passes, walls, errors, setups = [], [], [], []
    traced = None
    if args.trace:
        traced, wall, err = run_pass(args, 1, deadline)
        if traced is None:
            errors.append(f"traced pass: {err}")
        else:
            print(f"traced pass: run_s {traced['run_s']:.4f} wall {wall:.2f}s")
    while not errors:
        t0 = time.monotonic()
        for _ in range(0 if args.trace else SETUP_PER_PASS):
            rec, _, err = run_pass(args, 0, deadline, "--setup-only")
            if rec is None:
                errors.append(err)
                break
            setups.append(rec["setup_s"])
        else:
            rec, _, err = run_pass(args, 0, deadline)
            if rec is None:
                errors.append(err)
        if errors:
            break
        passes.append(rec)
        walls.append(time.monotonic() - t0)
        print(f"pass {len(passes)}: setup_s {rec['setup_s']:.4f} run_s {rec['run_s']:.4f} "
              f"peak_rss_mb {rec['peak_rss_mb']:.1f} calls {len(rec['latencies_s'])} "
              f"ops {rec['attempted']} failed {rec['failed']} "
              f"matmul_probe_s {rec['matmul_probe_s']:.5f}")
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(walls) > min(args.seconds, DEADLINE_S - max(walls)):
            break

    done = passes + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    failures = [f for r in done for f in r["failures"]]

    def fail(what: str) -> None:
        nonlocal attempted, failed
        attempted, failed = attempted + 1, failed + 1
        failures.append(what)

    for err in errors:
        fail(err)
    for name in REQUIRED_CALLS[args.workload] if traced else []:
        if traced["trace"]["stats"][name]["calls"] == 0:
            fail(f"{name} recorded no calls on {args.workload}")

    metrics = {}
    if passes:
        run_s = statistics.median(r["run_s"] for r in passes)
        latencies = [x for r in passes for x in r["latencies_s"]]
        if traced is not None:
            suite_names = [n for n in wanted if n.startswith("sl2.suite.")]
            metrics = layer_metrics(traced["trace"], traced["run_s"] - run_s, suite_names)
        else:
            metrics = {
                "setup_s": (statistics.median(setups + [r["setup_s"] for r in passes]), "s"),
                "run_s": (run_s, "s"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
                "query_p50_ms": (1000 * percentile(latencies, 50), "ms"),
                "query_p99_ms": (1000 * percentile(latencies, 99), "ms"),
            }
    if passes and sorted(metrics) != sorted(wanted):
        fail(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(wanted))}")

    env = (passes or [traced or {}])[0].get("env", {})
    print(f"env: {json.dumps(env, sort_keys=True)}")
    if passes:
        print(f"passes: {len(passes)}; user-facing calls: {len(latencies)} "
              f"({sorted({len(r['latencies_s']) for r in passes})} per pass); "
              f"set-up samples: {len(setups) + len(passes)}")
    for name in wanted:
        if name in metrics:
            value, unit = metrics[name]
            print(f"{name}: {value} {unit}")
    print(f"fail_ratio: {failed / max(attempted, 1)} ({failed} of {attempted} operations)")
    for f in failures[:20]:
        print(f"FAILED: {f}")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_only_s": setups, "passes": passes,
        "traced_pass": traced,
        "failures": failures, "metrics": {k: v[0] for k, v in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))

    correct = bool(passes) and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
