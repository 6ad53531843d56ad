"""The two benchmark workloads: inputs from a seed, one pass, output checks.

``battery``     the structural suites at (3,1), (3,2), (5,1), (5,2) through
                ``run_sl2_suites`` plus the three ``dimension_fit`` slope fits:
                what ``scripts/run_verification.py`` gates CI on.  Many small
                ``hom_space`` calls, so per-call overhead and repeated work
                show; it also reaches every other ``gf`` and ``modules``
                function (``decompose``, ``algebra_radical``, ...) on the
                covers at p=3 and p=5.
``queries``     a seeded stream of weight verbs and ``verify-heisenberg`` calls
                through ``vermalab.cli.main``; never reaches the matrix layers,
                so it is the no-change control for module-layer changes.

Every pass is fail-closed: an operation counts as failed when it raises,
when a suite fails or has another case count than (p, r) implies, and when
a query exits nonzero or answers differently from the answers recorded in
``queries.json``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path

import vermalab
import vermalab.cli
import vermalab.sl2

HERE = Path(__file__).resolve().parent

BATTERY_LEVELS = [(3, 1), (3, 2), (5, 1), (5, 2)]
BATTERY_FITS = [(1, [3, 5, 7], 0.15), (2, [3, 5, 7], 0.15), (3, [3, 5], 0.3)]
HEISENBERG = [(2, [3, 5, 7, 9, 25, 49]), (3, [3, 5, 7, 11, 13]), (4, [3, 5, 7])]
LIGHT_PER_STRATUM = 48  # of 60 recorded per (verb, type): 25 strata -> 1200 calls
# every recorded block query, so the slowest calls, which set query_p99_ms,
# are the same for every seed: 2 types -> 160 calls, 12% of the verbs
BLOCK_PER_TYPE = 80


def expected_suites(p: int, r: int) -> list[tuple[str, int]]:
    """(check name, case count) of every suite run_sl2_suites(p, r) returns."""
    if r == 1:
        return [
            ("projectivity-criterion", p),
            ("syzygy-periodicity", p - 1),
            ("middle-term-indecomposable", p - 1),
            ("heart-decomposition", p - 1),
        ]
    # level-one restriction splits once for every lam with p | lam + 1
    return [
        ("projectivity-criterion", p * p + p),
        ("depth-reduction-tensor", p - 1),
        ("restriction-filtration", p * p),
    ]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def make_inputs(workload: str, seed: int, tiny: bool = False, inject_wrong: bool = False) -> dict:
    """The workload's inputs and expected answers, a function of the seed only.

    ``tiny`` shrinks every workload for the self-test; ``inject_wrong``
    corrupts one expected answer, so the checks must report a failure.
    """
    rng = random.Random(seed)
    if workload == "battery":
        levels = BATTERY_LEVELS[:2] if tiny else BATTERY_LEVELS
        fits = BATTERY_FITS[:1] if tiny else BATTERY_FITS
        expect = {pr: expected_suites(*pr) for pr in levels}
        if inject_wrong:
            check, n = expect[levels[0]][0]
            expect[levels[0]][0] = (check, n + 1)
        return {"seed": seed, "levels": levels, "fits": fits, "expect": expect}
    if workload == "queries":
        pool = json.loads((HERE / "queries.json").read_text())["strata"]
        light, block = (2, 2) if tiny else (LIGHT_PER_STRATUM, BLOCK_PER_TYPE)
        stream = []
        for stratum in sorted(pool):
            entries = pool[stratum]
            take = block if stratum.startswith("block") else light
            stream.extend(rng.sample(entries, take))
        rng.shuffle(stream)
        if inject_wrong:
            argv, answer = stream[0]
            stream[0] = [argv, "0" * len(answer)]
        heis = HEISENBERG[:1] if tiny else HEISENBERG
        for r, qs in heis:
            qs = qs[:2] if tiny else qs
            argv = f"verify-heisenberg --r {r} --qs {','.join(map(str, qs))} --json"
            stream.insert(rng.randrange(len(stream) + 1), [argv, None])
        return {"seed": seed, "stream": stream}
    raise ValueError(f"unknown workload {workload!r}")


class PassResult:
    """Counts of one pass, per-call latencies and the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies_s: list[float] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def _check_reports(res: PassResult, p: int, r: int, expect, reports) -> None:
    got = {rep.check: rep for rep in reports}
    if [rep.check for rep in reports] != [c for c, _ in expect]:
        res.op(False, f"p={p} r={r}: suites {sorted(got)} differ from {[c for c, _ in expect]}")
    for check, n in expect:
        rep = got.get(check)
        ok = (
            rep is not None
            and (rep.p, rep.r) == (p, r)
            and len(rep.cases) == n > 0
            and all(c.get("ok") is True for c in rep.cases)
            and rep.passed
        )
        cases = None if rep is None else len(rep.cases)
        res.op(ok, f"{check} p={p} r={r}: {cases} cases (want {n}), passed={rep and rep.passed}")


def _suites(res: PassResult, p: int, r: int, expect, seed: int) -> None:
    try:
        reports = vermalab.run_sl2_suites(p, r, seed=seed)
    except Exception as exc:  # an exception fails every suite of the batch
        for check, _ in expect:
            res.op(False, f"{check} p={p} r={r}: {type(exc).__name__}: {exc}")
        return
    _check_reports(res, p, r, expect, reports)


def _covers(res: PassResult, p: int) -> None:
    """The projective covers the suites built at p: shape and total dimension."""
    try:
        covers = vermalab.sl2.restricted_projectives(p)
        dims = [covers[vermalab.sl2.simple_key(lam)].dim for lam in range(p)]
    except Exception as exc:
        res.op(False, f"covers p={p}: {type(exc).__name__}: {exc}")
        return
    # P(L_lam) has dim 2p below the Steinberg weight p-1, where it is L_{p-1}
    shape_ok = len(covers) == p and dims == [2 * p] * (p - 1) + [p]
    total = sum(d * (lam + 1) for lam, d in enumerate(dims))
    res.op(
        shape_ok and total == p**3,
        f"covers p={p}: dims {dims}, sum dim P * dim L = {total} (want {p**3})",
    )


def run_battery(inputs: dict, tracer) -> PassResult:
    """Latency sample: one per pass, the whole battery as CI runs it.

    The battery is a single user-facing call, ``run_verification.py``.  Its
    (p, r) batches are no steadier stand-in: the three short ones last
    0.1-0.8 s, long enough only to catch the host's second-to-second speed,
    and a percentile over them falls at the edge between two batches.
    """
    res = PassResult()
    t_pass = time.perf_counter()
    for p, r in inputs["levels"]:
        before = tracer.calls()
        _suites(res, p, r, inputs["expect"][(p, r)], inputs["seed"])
        after = tracer.calls()
        tracer.scopes[f"p{p}r{r}"] = {k: after[k] - before.get(k, 0) for k in after}
    for p in sorted({p for p, _ in inputs["levels"]}):
        _covers(res, p)
    for r, qs, tol in inputs["fits"]:
        try:
            fit = vermalab.dimension_fit(r, qs, tol=tol)
        except Exception as exc:
            res.op(False, f"dimension_fit r={r}: {type(exc).__name__}: {exc}")
            continue
        exact = [c.count == vermalab.closed_form(r, c.q) for c in fit.counts]
        ok = fit.passed and len(exact) == len(qs) and all(exact)
        res.op(ok, f"dimension_fit r={r}: slope {fit.slope} pass={fit.passed} exact={exact}")
    res.latencies_s.append(time.perf_counter() - t_pass)
    return res


def run_queries(inputs: dict, tracer) -> PassResult:
    """Latency samples: one per weight-verb call of cli.main."""
    res = PassResult()
    for argv, answer in inputs["stream"]:
        args = argv.split()
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = vermalab.cli.main(args)
        except Exception as exc:
            res.op(False, f"{argv}: {type(exc).__name__}: {exc}")
            continue
        dt = time.perf_counter() - t0
        text = out.getvalue()
        if answer is not None:
            res.latencies_s.append(dt)
            got = digest(text)
            res.op(code == 0 and got == answer, f"{argv}: exit {code}, answer {got} want {answer}")
            continue
        ok = code == 0
        if ok:
            report = json.loads(text)
            r, qs = int(args[args.index("--r") + 1]), args[args.index("--qs") + 1]
            counts = [(c["q"], c["count"]) for c in report["counts"]]
            ok = report["r"] == r and [q for q, _ in counts] == sorted(map(int, qs.split(",")))
            ok = ok and all(n == vermalab.closed_form(r, q) for q, n in counts)
        res.op(ok, f"{argv}: exit {code}")
    return res


RUNNERS = {"battery": run_battery, "queries": run_queries}
