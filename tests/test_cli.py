"""CLI round trips, exit codes, and golden-file byte comparisons."""
import argparse
import enum
import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings, strategies as st

import vermalab
import vermalab.cli
from vermalab.cli import build_parser, canon, main
from vermalab.modules import parse_text
from vermalab.sl2 import Sl2Schema

GOLDEN = Path(__file__).parent / "golden"
QUERIES = Path(__file__).parents[1] / "bench" / "queries.json"


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def check_golden(capsys, argv, name):
    code, out = run(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


def test_golden_classify_rank_one(capsys):
    check_golden(
        capsys,
        ["classify", "--type", "A1", "--p", "5", "--r", "2", "--weight", "9", "--json"],
        "classify_a1_p5_r2_w9.json",
    )


def test_golden_classify_rank_two(capsys):
    check_golden(
        capsys,
        ["classify", "--type", "A2", "--p", "7", "--r", "1", "--weight", "1,1", "--json"],
        "classify_a2_p7_r1_rho.json",
    )


def test_golden_heisenberg(capsys):
    check_golden(
        capsys,
        ["verify-heisenberg", "--r", "2", "--qs", "3,5,7", "--json"],
        "heisenberg_r2.json",
    )


@pytest.mark.parametrize(
    "r, qs, name", [("3", "3,5,7,11,13", "heisenberg_r3.json"), ("4", "3,5,7", "heisenberg_r4.json")]
)
def test_golden_heisenberg_past_rank_two(capsys, r, qs, name):
    check_golden(capsys, ["verify-heisenberg", "--r", r, "--qs", qs, "--json"], name)


def test_golden_verify_sl2(capsys):
    check_golden(
        capsys,
        ["verify-sl2", "--p", "3", "--r", "1", "--json"],
        "verify_sl2_p3_r1.json",
    )


def test_golden_psi(capsys):
    check_golden(
        capsys,
        ["psi", "--type", "B2", "--p", "3", "--r", "1", "--weight", "2,0", "--json"],
        "psi_b2_p3_w20.json",
    )


def test_verify_sl2_deterministic(capsys):
    argv = ["verify-sl2", "--p", "3", "--r", "2", "--json"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_depth_text_negative_infinity(capsys):
    code, out = run(capsys, ["depth", "--type", "A1", "--p", "5", "--weight", "-1"])
    assert code == 0
    assert out == "-inf\n"


def test_depth_text_finite(capsys):
    code, out = run(capsys, ["depth", "--type", "A1", "--p", "5", "--weight", "9"])
    assert code == 0
    assert out == "2\n"


def test_regular_text(capsys):
    code, out = run(
        capsys, ["regular", "--type", "A1", "--p", "5", "--r", "1", "--weight", "3"]
    )
    assert code == 0 and out == "true\n"
    code, out = run(
        capsys, ["regular", "--type", "A1", "--p", "5", "--r", "1", "--weight", "4"]
    )
    assert code == 0 and out == "false\n"


def test_reduce_text(capsys):
    code, out = run(
        capsys, ["reduce", "--type", "A1", "--p", "5", "--r", "2", "--weight", "9"]
    )
    assert code == 0
    assert out == "d 1 mu 1\n"


def test_block_text(capsys):
    code, out = run(
        capsys,
        ["block", "--type", "A1", "--p", "5", "--r", "1", "--weight", "0", "--gamma", "3"],
    )
    assert code == 0 and out == "true\n"
    code, out = run(
        capsys,
        ["block", "--type", "A1", "--p", "5", "--r", "1", "--weight", "0", "--gamma", "1"],
    )
    assert code == 0 and out == "false\n"


def test_explicit_cartan_matches_named_type(capsys):
    named = ["depth", "--type", "A2", "--p", "3", "--weight", "1,1", "--json"]
    explicit = ["depth", "--cartan", "2,-1;-1,2", "--p", "3", "--weight", "1,1", "--json"]
    _, a = run(capsys, named)
    _, b = run(capsys, explicit)
    assert a == b


@pytest.mark.parametrize("n", [7, 8])
def test_weight_verbs_answer_on_e7_and_e8(capsys, n):
    # no Weyl group is formed, so E7 and E8 answer through --cartan; the
    # oracle grows the positive roots by height, not by reflection
    matrix = oracles.cartan_e(n)
    cartan = ";".join(",".join(map(str, row)) for row in matrix)
    roots = oracles.simply_laced_positive_roots(matrix)
    assert len(roots) == {7: 63, 8: 120}[n]
    rng = random.Random(n)
    for p in (2, 3, 5, 7):
        weights = [(-1,) * n] + [
            tuple(scale * rng.randint(-4, 4) - 1 for _ in range(n)) for scale in (1, p, p * p)
        ]
        weights.append(tuple(rng.randint(-9, 9) for _ in range(n)))
        for lam in weights:
            pairings = [sum(c * (x + 1) for c, x in zip(root, lam)) for root in roots]
            weight = "--weight=" + ",".join(map(str, lam))
            common = ["--cartan", cartan, "--p", str(p), weight, "--json"]
            code, out = run(capsys, ["depth", *common])
            want = oracles.brute_depth(pairings, p)
            assert code == 0 and json.loads(out)["depth"] == ("-inf" if want is None else want)
            for r in (1, 2, 3):
                divisible = {root for root, a in zip(roots, pairings) if a % p**r == 0}
                code, out = run(capsys, ["psi", *common, "--r", str(r)])
                got = json.loads(out)
                assert code == 0 and len(got["indices"]) == len(got["roots"]) == len(divisible)
                assert set(map(tuple, got["roots"])) == divisible
                code, out = run(capsys, ["regular", *common, "--r", str(r)])
                assert code == 0 and json.loads(out)["regular"] == (not divisible)


def test_psi_empty_text(capsys):
    code, out = run(
        capsys, ["psi", "--type", "A1", "--p", "5", "--r", "1", "--weight", "3"]
    )
    assert code == 0
    assert out == "(empty)\n"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb", "--p", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["depth", "--type", "A1"])
    assert exc.value.code == 2


def test_dropped_flags_exit_two(capsys):
    # --text did nothing and is gone; --seed stays only where a seed is read
    with pytest.raises(SystemExit) as exc:
        main(["depth", "--type", "A1", "--p", "5", "--weight", "3", "--text"])
    assert exc.value.code == 2
    for argv in (
        ["depth", "--type", "A1", "--p", "5", "--weight", "3", "--seed", "1"],
        ["verify-heisenberg", "--r", "2", "--qs", "3,5", "--seed", "1"],
        ["dump-module", "--p", "3", "--r", "1", "--kind", "steinberg", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_verify_sl2_accepts_seed(capsys):
    code, out = run(capsys, ["verify-sl2", "--p", "3", "--r", "1", "--seed", "1"])
    assert code == 0
    assert out.endswith("all checks passed\n")


def test_main_reuses_one_parser(capsys):
    run(capsys, ["depth", "--type", "A1", "--p", "5", "--weight", "9"])
    parser = build_parser()
    built = build_parser.cache_info().misses
    for weight in ("9", "-1", "3"):
        run(capsys, ["depth", "--type", "A1", "--p", "5", "--weight", weight])
    assert build_parser() is parser
    assert build_parser.cache_info().misses == built


def _alone(capsys, argv):
    build_parser.cache_clear()
    return run(capsys, argv)


def test_successive_calls_share_no_state(capsys):
    cartan = ["depth", "--cartan", "2,-1;-1,2", "--p", "5", "--weight", "4,4", "--json"]
    named = ["depth", "--type", "A1", "--p", "5", "--weight", "9"]
    alone = [_alone(capsys, cartan), _alone(capsys, named)]
    assert alone[1] == (0, "2\n")
    assert [run(capsys, cartan), run(capsys, named)] == alone
    # a usage error leaves nothing behind for the next call
    with pytest.raises(SystemExit) as exc:
        main(["depth", "--cartan", "2,-1;-1,2", "--weight", "4,4"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, named) == alone[1]


def test_input_errors_exit_two(capsys):
    code, out = run(capsys, ["depth", "--type", "A1", "--p", "5", "--weight", "x"])
    assert code == 2 and out.startswith("error:")
    code, out = run(capsys, ["depth", "--p", "5", "--weight", "1"])
    assert code == 2 and "--type or --cartan" in out
    code, out = run(capsys, ["depth", "--type", "A1", "--p", "5", "--weight", "1,2"])
    assert code == 2 and "rank" in out
    code, out = run(
        capsys,
        ["block", "--type", "A1", "--p", "5", "--r", "1", "--weight", "1", "--gamma", "1,2"],
    )
    assert (code, out) == (2, "error: weight has 2 coordinates but the root system has rank 1\n")
    code, out = run(
        capsys, ["depth", "--type", "A2", "--cartan", "2", "--p", "5", "--weight", "1"]
    )
    assert (code, out) == (2, "error: give one of --type or --cartan, not both\n")
    code, out = run(
        capsys,
        ["classify", "--type", "A1", "--p", "4", "--r", "1", "--weight", "2", "--json"],
    )
    assert code == 2 and '"error"' in out
    code, out = run(capsys, ["verify-heisenberg", "--r", "2", "--qs", "3"])
    assert code == 2
    code, out = run(capsys, ["verify-heisenberg", "--r", "2", "--qs", "3,8"])
    assert code == 2


WEIGHT_VERBS = {
    "depth": ["--weight", "3"],
    "regular": ["--r", "1", "--weight", "3"],
    "psi": ["--r", "1", "--weight", "3"],
    "block": ["--r", "1", "--weight", "3", "--gamma", "1"],
    "reduce": ["--r", "2", "--weight", "8"],
}


# runs one verb at each p of BAD_PRIMES, printing [exit code, JSON output] per call
BAD_PRIME_SCRIPT = """
import contextlib, io, json, sys
from vermalab.cli import main
results = []
for p in sys.argv[1].split(","):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([sys.argv[2], "--type", "A1", "--p", p, *sys.argv[3:], "--json"])
    results.append([code, json.loads(out.getvalue())])
print(json.dumps(results))
"""
BAD_PRIMES = (1, 0, -1, 4)


@pytest.mark.parametrize("verb", sorted(WEIGHT_VERBS))
def test_weight_verbs_reject_a_p_that_is_not_prime(verb):
    # at p = 1 or -1 the p-adic valuation never ends, so the calls run in
    # a subprocess whose timeout turns a hang into a failure
    env = {**os.environ, "PYTHONPATH": str(Path(vermalab.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", BAD_PRIME_SCRIPT, ",".join(map(str, BAD_PRIMES)), verb,
         *WEIGHT_VERBS[verb]],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [[2, {"error": f"p = {p} is not prime"}] for p in BAD_PRIMES]


@pytest.mark.parametrize("r", [0, -1, -2])
def test_block_rejects_a_level_below_one(capsys, r):
    # at r = -1, p^r used to turn into a float inside the Smith form
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(
            capsys,
            ["block", "--type", "A1", "--p", "5", f"--r={r}", "--weight", "0", "--gamma", "1"],
        )
    assert (code, out) == (2, "error: r must be >= 1\n")


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("r", [0, -1])
@pytest.mark.parametrize("verb", ["psi", "regular", "reduce", "block", "classify"])
def test_weight_verbs_reject_a_level_below_one(capsys, verb, r, json_mode):
    extra = ["--gamma", "1"] if verb == "block" else []
    argv = [verb, "--type", "A1", "--p", "5", f"--r={r}", "--weight", "4", *extra]
    code, out = run(capsys, argv + ["--json"] if json_mode else argv)
    assert code == 2
    if json_mode:
        assert json.loads(out) == {"error": "r must be >= 1"}
    else:
        assert out == "error: r must be >= 1\n"


# one valid call of every verb
VERB_CALLS = {
    "depth": ["depth", "--type", "A2", "--p", "5", "--weight", "3,4"],
    "regular": ["regular", "--cartan", "2,-1;-1,2", "--p", "5", "--r", "1", "--weight", "3,4"],
    "psi": ["psi", "--type", "B2", "--p", "3", "--r", "1", "--weight", "2,0"],
    "classify": ["classify", "--type", "A2", "--p", "7", "--r", "1", "--weight", "1,1"],
    "reduce": ["reduce", "--type", "A1", "--p", "5", "--r", "2", "--weight", "9"],
    "block": ["block", "--type", "A1", "--p", "5", "--r", "1", "--weight", "0", "--gamma", "3"],
    "verify-sl2": ["verify-sl2", "--p", "3", "--r", "1"],
    "verify-heisenberg": ["verify-heisenberg", "--r", "1", "--qs", "3,5"],
    "dump-module": ["dump-module", "--p", "3", "--r", "1", "--weight", "1"],
}
# inputs the parser refuses or answers itself
USAGE_CASES = {
    "unknown-verb": ["no-such-verb", "--p", "5"],
    "no-arguments": [],
    "missing-flag": ["depth", "--type", "A1", "--weight", "3"],
    "bad-int": ["psi", "--type", "A1", "--p", "five", "--r", "1", "--weight", "3"],
    "extra-flag": ["block", "--type", "A1", "--p", "5", "--r", "1", "--weight", "0",
                   "--gamma", "3", "--bogus", "x"],
    "text-flag": ["regular", "--type", "A1", "--p", "5", "--r", "1", "--weight", "3", "--text"],
    "help-before-verb": ["-h", "depth"],
    "help-after-verb": ["classify", "-h"],
    "weight-with-equals": ["depth", "--type", "A2", "--p", "5", "--weight=-1,2"],
}
DISPATCH_CASES = {**VERB_CALLS, **USAGE_CASES}


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of main(argv), a usage exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("json_mode", [False, True])
@pytest.mark.parametrize("case", sorted(DISPATCH_CASES))
def test_main_answers_as_the_top_level_parser_does(capsys, monkeypatch, case, json_mode):
    argv = DISPATCH_CASES[case] + (["--json"] if json_mode else [])
    got = _outcome(capsys, argv)
    monkeypatch.setattr(vermalab.cli, "_parse_args", lambda a: build_parser().parse_args(a))
    assert got == _outcome(capsys, argv)
    if isinstance(got[0], int):  # a parse that succeeded: the same namespace too
        monkeypatch.undo()
        assert vermalab.cli._parse_args(argv) == build_parser().parse_args(argv)


def _argparse_calls(capsys, monkeypatch, argv):
    """The progs of the parsers whose parse_known_args ran during main(argv)."""
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    run(capsys, argv)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("verb", sorted(VERB_CALLS))
def test_a_call_parses_its_arguments_once(capsys, monkeypatch, verb):
    # a well-formed call is read from the verb's table, with no argparse
    # pass; dump-module's --kind takes choices, which argparse alone checks
    calls = _argparse_calls(capsys, monkeypatch, VERB_CALLS[verb])
    assert calls == (["vermalab dump-module"] if verb == "dump-module" else [])


# a call of each verb with a table, one flag abbreviated
ABBREVIATED_CALLS = {
    "depth": ["depth", "--type", "A2", "--p", "5", "--wei", "3,4"],
    "regular": ["regular", "--car", "2,-1;-1,2", "--p", "5", "--r", "1", "--weight", "3,4"],
    "psi": ["psi", "--ty", "B2", "--p", "3", "--r", "1", "--weight", "2,0"],
    "classify": ["classify", "--type", "A2", "--p", "7", "--r", "1", "--weight", "1,1", "--js"],
    "reduce": ["reduce", "--type", "A1", "--p", "5", "--r", "2", "--w", "9"],
    "block": ["block", "--type", "A1", "--p", "5", "--r", "1", "--weight", "0", "--gam", "3"],
    "verify-sl2": ["verify-sl2", "--p", "3", "--r", "1", "--se", "1"],
    "verify-heisenberg": ["verify-heisenberg", "--r", "1", "--q", "3,5"],
}


@pytest.mark.parametrize("verb", sorted(ABBREVIATED_CALLS))
def test_an_abbreviated_flag_goes_through_the_verbs_parser_once(capsys, monkeypatch, verb):
    assert set(build_parser().verb_tables) == set(ABBREVIATED_CALLS)
    calls = _argparse_calls(capsys, monkeypatch, ABBREVIATED_CALLS[verb])
    assert calls == [f"vermalab {verb}"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.1"])
def test_verify_heisenberg_rejects_a_tolerance_that_is_not_finite_or_negative(capsys, tol):
    code, out = run(
        capsys, ["verify-heisenberg", "--r", "1", "--qs", "3,5", f"--tol={tol}", "--json"]
    )
    assert code == 2
    assert json.loads(out) == {"error": f"tolerance {float(tol)} must be finite and nonnegative"}


def test_verification_failure_exits_one(capsys):
    code, out = run(
        capsys,
        ["verify-heisenberg", "--r", "2", "--qs", "3,5,7", "--tol", "0.01", "--json"],
    )
    assert code == 1
    assert '"pass": false' in out


def test_dump_module_round_trip(tmp_path, capsys):
    out_path = tmp_path / "z.txt"
    code, out = run(
        capsys,
        ["dump-module", "--p", "3", "--r", "1", "--weight", "1", "--out", str(out_path)],
    )
    assert code == 0
    assert "wrote 3-dimensional module" in out
    mod = parse_text(out_path.read_text())
    assert mod.dim == 3
    Sl2Schema(3, 1).check(mod)


def test_dump_module_stdout_and_kinds(capsys):
    code, out = run(capsys, ["dump-module", "--p", "3", "--r", "2", "--kind", "steinberg"])
    assert code == 0
    assert out.startswith("dim=9 ")
    code, out = run(
        capsys,
        ["dump-module", "--p", "3", "--r", "2", "--kind", "simple", "--weight", "5"],
    )
    assert code == 0
    assert out.startswith("dim=6 ")
    code, out = run(
        capsys,
        ["dump-module", "--p", "3", "--r", "1", "--kind", "projective", "--weight", "0"],
    )
    assert code == 0
    assert out.startswith("dim=6 ")


def test_dump_module_errors(capsys):
    code, out = run(capsys, ["dump-module", "--p", "3", "--r", "1", "--kind", "simple"])
    assert code == 2 and "--weight is required" in out
    code, out = run(
        capsys, ["dump-module", "--p", "3", "--r", "1", "--weight", "1,2"]
    )
    assert code == 2 and "rank one" in out
    code, out = run(
        capsys,
        ["dump-module", "--p", "3", "--r", "2", "--kind", "simple", "--weight", "10"],
    )
    assert code == 2 and "no level-2 simple" in out


def test_dump_module_reports_an_out_path_it_cannot_write(tmp_path, capsys):
    out_path = tmp_path / "no-such-dir" / "z.txt"
    argv = ["dump-module", "--p", "3", "--r", "1", "--weight", "1", "--out", str(out_path)]
    code, out = run(capsys, argv)
    assert (code, out) == (2, f"error: cannot write {out_path}: No such file or directory\n")
    code, out = run(capsys, argv + ["--json"])
    assert code == 2
    assert json.loads(out) == {"error": f"cannot write {out_path}: No such file or directory"}


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**80).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e16, 0.1])
    | st.text()
    | st.text(st.characters(max_codepoint=0x7F, whitelist_categories=("Cc",)))
    # subclasses, which json writes as their base type
    | st.floats().map(np.float64)
    | st.text().map(np.str_)
    | st.booleans().map(int).map(enum.IntEnum("Bit", "ZERO ONE", start=0))
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_canon_writes_what_json_writes(obj):
    assert canon(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "obj",
    [np.int64(3), {1, 2}, object(), [1, {"a": np.bool_(True)}], {"a": (1, frozenset())}],
    ids=["int64", "set", "object", "nested-bool_", "nested-frozenset"],
)
def test_canon_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError) as ours:
        canon(obj)
    with pytest.raises(TypeError) as theirs:
        json.dumps(obj, sort_keys=True, indent=2)
    assert str(ours.value) == str(theirs.value)


def test_canon_takes_only_str_keys():
    with pytest.raises(TypeError):
        canon({1: "one"})


def _recorded_argvs():
    """Every recorded queries argv, each in --json and in text mode, with its
    stratum and its place in that stratum."""
    strata = json.loads(QUERIES.read_text())["strata"]
    for name in sorted(strata):
        for k, (argv, _) in enumerate(strata[name]):
            tokens = argv.split()
            yield name, k, tokens
            yield name, k, [t for t in tokens if t != "--json"]


def _mutations(tokens):
    """Reorderings, respellings and malformed variants of one weight-verb argv."""
    verb, rest = tokens[0], tokens[1:]
    pairs = []  # [flag, value or None, spelled with "="]
    i = 0
    while i < len(rest):
        flag, eq, value = rest[i].partition("=")
        if eq or flag == "--json":
            pairs.append([flag, value if eq else None, bool(eq)])
            i += 1
        else:
            pairs.append([flag, rest[i + 1], False])
            i += 2

    def spell(ps):
        out = [verb]
        for flag, value, eq in ps:
            if value is None:
                out.append(flag)
            elif eq:
                out.append(f"{flag}={value}")
            else:
                out += [flag, value]
        return out

    def with_value(flag, value, eq):
        return spell([[f, value, eq] if f == flag else [f, v, e] for f, v, e in pairs])

    weight = next(v for f, v, _ in pairs if f == "--weight")
    yield spell(pairs[::-1])
    yield spell(pairs[1:] + pairs[:1])
    yield spell([[f, v, not e] for f, v, e in pairs])
    yield spell(pairs + [pairs[0]])
    yield [t.replace("--weight", "--wei") for t in spell(pairs)]
    yield with_value("--weight", weight if weight.startswith("-") else "-" + weight, False)
    yield with_value("--weight", "-1,2", False)
    yield with_value("--p", "-5", False)
    yield with_value("--weight", "", True)
    yield with_value("--weight", "--", True)
    yield spell(pairs) + ["--json=1"]
    yield spell(pairs[:1]) + ["--"] + spell(pairs[1:])[1:]
    yield spell(pairs) + ["--"]


def _parse_outcome(capsys, parse, argv):
    """The namespace, attribute order included, or the exit with its stdout and stderr."""
    try:
        args = parse(list(argv))
    except SystemExit as exc:
        return ("exit", exc.code, *capsys.readouterr())
    return ("namespace", list(vars(args).items()))


def test_recorded_queries_parse_as_the_top_level_parser_parses_them(capsys):
    # every recorded argv; the mutations of the first few of each stratum,
    # and -h at either end of the first
    parser = build_parser()
    checked = 0
    for stratum, k, tokens in _recorded_argvs():
        argvs = [tokens]
        if k < 6:
            argvs += _mutations(tokens)
        if k == 0:
            argvs += [["-h", *tokens], [*tokens, "-h"]]
        for argv in argvs:
            got = _parse_outcome(capsys, vermalab.cli._parse_args, argv)
            assert got == _parse_outcome(capsys, parser.parse_args, argv), argv
            checked += 1
    assert checked > 7_000
