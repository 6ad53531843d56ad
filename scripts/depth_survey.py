#!/usr/bin/env python3
"""Sweep the classifier over a weight window and tabulate the reports.

Rank-one weights are swept directly; higher ranks sweep a box of the
given radius around the origin in fundamental-weight coordinates.
"""
import argparse
import itertools
import sys

from vermalab.rootsys import NAMED_TYPES, CartanSpec
from vermalab.verma import classify


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--type", default="A1", help=", ".join(NAMED_TYPES))
    parser.add_argument("--p", type=int, default=5)
    parser.add_argument("--r", type=int, default=2)
    parser.add_argument("--radius", type=int, default=12, help="half-width of the sweep box")
    args = parser.parse_args()

    window = range(-args.radius, args.radius + 1)
    try:
        spec = CartanSpec.from_type(args.type)
        reports = [
            (lam, classify(spec, lam, args.p, args.r))
            for lam in itertools.product(window, repeat=spec.rank)
        ]
    except ValueError as e:
        # bad input, as vermalab reports it: one line and exit 2
        print(f"error: {e}")
        return 2
    print(f"type {args.type}  p {args.p}  r {args.r}")
    print(f"{'weight':>12s} {'depth':>6s} {'proj':>5s} {'dimV':>5s} {'cx':>4s}  position")
    for lam, rep in reports:
        d = rep.to_json_dict()["depth"]
        dim_v = "-" if rep.variety_dim is None else str(rep.variety_dim)
        cx = "-" if rep.cx is None else str(rep.cx)
        print(
            f"{str(lam):>12s} {str(d):>6s} {'yes' if rep.projective else 'no':>5s} "
            f"{dim_v:>5s} {cx:>4s}  {rep.ar_position}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
