#!/usr/bin/env python3
"""Run the full verification battery and summarize per-check results.

Covers the structural suites at every wired (p, r) pair plus the
commuting-variety slope fits.  Each level's library(p, r), its simples
and covers, is built and timed as a row of its own before that level's
suites, so no suite's time carries it.  Exits 1 if anything fails, so
the script doubles as a CI gate.
"""
import argparse
import json
import sys
import time

from vermalab.heisenberg import dimension_fit
from vermalab.sl2 import level_suites, library


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rows = []
    ok = True
    for p, r in [(3, 1), (3, 2), (5, 1), (5, 2), (7, 2)]:
        start = time.perf_counter()
        lib = library(p, r)
        rows.append(
            {
                "suite": "library",
                "p": p,
                "r": r,
                "cases": len(lib.simples),
                "pass": True,
                "seconds": round(time.perf_counter() - start, 2),
            }
        )
        for suite in level_suites(p, r, seed=args.seed):
            start = time.perf_counter()
            rep = suite()
            rows.append(
                {
                    "suite": rep.check,
                    "p": p,
                    "r": r,
                    "cases": len(rep.cases),
                    "pass": rep.passed,
                    "seconds": round(time.perf_counter() - start, 2),
                }
            )
            ok = ok and rep.passed

    for r, qs in [(1, [3, 5, 7]), (2, [3, 5, 7]), (3, [3, 5])]:
        start = time.perf_counter()
        fit = dimension_fit(r, qs)
        rows.append(
            {
                "suite": "commuting-variety-slope",
                "p": None,
                "r": r,
                "cases": len(qs),
                "pass": fit.passed,
                "seconds": round(time.perf_counter() - start, 2),
            }
        )
        ok = ok and fit.passed

    if args.json:
        print(json.dumps({"rows": rows, "pass": ok}, indent=2, sort_keys=True))
    else:
        for row in rows:
            where = f"p={row['p']} r={row['r']}" if row["p"] else f"r={row['r']}"
            state = "PASS" if row["pass"] else "FAIL"
            print(
                f"{row['suite']:32s} {where:10s} {row['cases']:3d} cases "
                f"{row['seconds']:6.2f}s {state}"
            )
        print("all suites passed" if ok else "FAILURES present")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
