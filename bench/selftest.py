#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks, for every workload, that an untraced and a traced run pass their
output checks and emit exactly the metrics (names and units) listed in
BENCHMARK.json; that a deliberately wrong expected answer makes the run
report failed operations; that two traced runs report identical counts;
and that the benchmark exits nonzero, printing no result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, workload: str, trace: int, *extra: str):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def expect(cond: bool, what: str, problems: list) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        problems.append(what)


def main() -> int:
    problems: list[str] = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for w in WORKLOADS:
            code, res, _ = bench(ROOT, w, trace, "--tiny")
            got = {k: v["unit"] for k, v in res["metrics"].items()} if res else {}
            expect(code == 0 and res["correct"] and res["failed"] == 0,
                   f"{w} trace {trace}: correct with no failed operations", problems)
            expect(got == want, f"{w} trace {trace}: emits exactly the {key} metrics", problems)

    for w in WORKLOADS:
        code, res, _ = bench(ROOT, w, 0, "--tiny", "--inject-wrong")
        expect(code != 0 and res is not None and res["failed"] > 0 and not res["correct"],
               f"{w}: a wrong expected answer gives a nonzero fail ratio", problems)

    counts = []
    for _ in range(2):
        _, res, _ = bench(ROOT, "battery", 1, "--tiny")
        counts.append({k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"})
    expect(counts[0] == counts[1], "battery: two traced runs report identical counts", problems)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, res, proc = bench(bare, WORKLOADS[0], 0)
    expect(code != 0 and not proc.stdout.strip(),
           "bare directory: exits nonzero without printing a result", problems)
    shutil.rmtree(bare)

    print("self-test passed" if not problems else f"{len(problems)} self-test failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
