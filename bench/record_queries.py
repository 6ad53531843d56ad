#!/usr/bin/env python3
"""Record the query pool of the ``queries`` workload and its answers.

Builds well-formed weight-verb queries per stratum (verb x root system),
runs each through ``vermalab.cli.main`` and keeps the ones that exit 0,
with a digest of their exact output, in ``bench/queries.json``.  The
workload samples its stream from this pool by seed and fails a query
whose output digest differs.

The recorded answers are the reference for later changes, so re-record
only when an answer is meant to change, and say so in the change.

    python3 bench/record_queries.py
"""
from __future__ import annotations

import collections
import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import vermalab  # noqa: E402
import vermalab.cli  # noqa: E402

from workloads import digest  # noqa: E402

# named types through --type; F4 and A5 through an explicit --cartan
TYPES = {
    "A2": ("--type A2", 2, (3, 5, 7, 11)),
    "B2": ("--type B2", 2, (3, 5, 7, 11)),
    "G2": ("--type G2", 2, (5, 7, 11)),
    "F4": ("--cartan 2,-1,0,0;-1,2,-2,0;0,-1,2,-1;0,0,-1,2", 4, (5, 7, 11)),
    "A5": ("--cartan 2,-1,0,0,0;-1,2,-1,0,0;0,-1,2,-1,0;0,0,-1,2,-1;0,0,0,-1,2", 5, (3, 5, 7)),
}
LIGHT_VERBS = ("classify", "depth", "psi", "regular", "reduce")
LIGHT_KEEP = 60
BLOCK_KEEP = 80


def _weight(rng, rank, p, r, deep=None):
    """Uniform in [-p^r, 2p^r) per coordinate, or p^d mu + (p^d - 1) rho."""
    if deep is None and rng.random() < 0.5:
        return [rng.randrange(-(p**r), 2 * p**r) for _ in range(rank)]
    d = deep if deep is not None else rng.randrange(1, r + 1)
    q = p**d
    return [q * rng.randrange(-1, p) + q - 1 for _ in range(rank)]


def _fmt(vec) -> str:
    return ",".join(str(x) for x in vec)


def candidate(verb: str, tname: str, rng: random.Random) -> str:
    type_args, rank, primes = TYPES[tname]
    p = rng.choice(primes)
    r = rng.randrange(2, 4) if verb == "reduce" else rng.randrange(1, 4)
    if verb == "reduce":
        lam = _weight(rng, rank, p, r, deep=rng.randrange(1, r))
    else:
        lam = _weight(rng, rank, p, r)
    head = f"{verb} {type_args} --p {p}"
    if verb != "depth":
        head += f" --r {r}"
    if verb == "block":
        if rng.random() < 0.5:
            gamma = [x + p**r * rng.randrange(-2, 3) for x in lam]
        else:
            gamma = _weight(rng, rank, p, r)
        head += f" --gamma={_fmt(gamma)}"
    return f"{head} --weight={_fmt(lam)} --json"


def run(argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = vermalab.cli.main(argv.split())
    return code, out.getvalue()


def main() -> int:
    strata = [(f"{v}-{t}", v, t, LIGHT_KEEP) for v in LIGHT_VERBS for t in TYPES]
    strata += [(f"block-{t}", "block", t, BLOCK_KEEP) for t in ("F4", "A5")]
    pool = {}
    rejected = collections.Counter()
    for name, verb, tname, keep in strata:
        rng = random.Random(f"pool-{name}")
        seen, kept = set(), []
        while len(kept) < keep:
            argv = candidate(verb, tname, rng)
            if argv in seen:
                continue
            seen.add(argv)
            code, text = run(argv)
            if code != 0:
                # out-of-domain input, e.g. reduce outside 2 <= depth <= r
                rejected[(verb, json.loads(text)["error"].split(";")[0][:40])] += 1
                continue
            kept.append([argv, digest(text)])
        pool[name] = kept
    doc = {
        "about": "weight-verb queries and sha256[:16] of their exact --json output, "
        f"recorded with vermalab {vermalab.__version__} by bench/record_queries.py",
        "strata": pool,
    }
    lines = ['{\n  "about": ' + json.dumps(doc["about"]) + ',\n  "strata": {']
    for i, name in enumerate(sorted(pool)):
        rows = ",\n".join("      " + json.dumps(e) for e in pool[name])
        lines.append(f'    {json.dumps(name)}: [\n{rows}\n    ]' + ("," if i < len(pool) - 1 else ""))
    lines.append("  }\n}\n")
    (HERE / "queries.json").write_text("\n".join(lines))
    for (verb, why), n in sorted(rejected.items()):
        print(f"rejected {n:4d} {verb}: {why}")
    print(f"kept {sum(map(len, pool.values()))} queries in {len(pool)} strata")
    return 0


if __name__ == "__main__":
    sys.exit(main())
