#!/usr/bin/env python3
"""Tabulate commuting-variety point counts and their growth exponents.

For each number of generator pairs r the script lists exact counts
over the requested fields, confirms them against the closed form, and
fits the growth slope whose target is 2r + 1.  Exits 1 if any count
differs from the closed form.
"""
import argparse
import sys

from vermalab.heisenberg import closed_form, count_points, dimension_fit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r-max", type=int, default=3)
    parser.add_argument("--qs", default="2,3,5,7", help="comma-separated field sizes")
    args = parser.parse_args()

    qs = [int(x) for x in args.qs.split(",")]
    mismatches = 0
    for r in range(1, args.r_max + 1):
        print(f"r = {r}  (ambient dimension {2 * r + 1})")
        counts = []
        for q in qs:
            pc = count_points(r, q)
            counts.append(pc)
            formula = closed_form(r, q)
            tag = "ok" if pc.count == formula else f"MISMATCH formula={formula}"
            mismatches += pc.count != formula
            print(f"  q={q:3d}  count={pc.count:12d}  {tag}")
        fit = dimension_fit(r, qs)
        print(
            f"  slope {fit.slope:.4f}  target {fit.target}  "
            f"residual {fit.residual:.5f}"
        )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
