"""Exit codes of the command-line scripts under scripts/."""
import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_heisenberg_growth_exits_one_on_mismatch(monkeypatch, capsys):
    growth = load_script("heisenberg_growth")
    monkeypatch.setattr(sys, "argv", ["heisenberg_growth.py", "--r-max", "2", "--qs", "2,3"])
    assert growth.main() == 0
    assert "MISMATCH" not in capsys.readouterr().out

    true_form = growth.closed_form
    monkeypatch.setattr(
        growth, "closed_form", lambda r, q: true_form(r, q) + (r == 2 and q == 3)
    )
    assert growth.main() == 1
    out = capsys.readouterr().out
    assert out.count("MISMATCH") == 1


def test_depth_survey_sweeps_a_box_of_weights(monkeypatch, capsys):
    survey = load_script("depth_survey")
    monkeypatch.setattr(sys, "argv", ["depth_survey.py", "--type", "A2", "--radius", "1"])
    assert survey.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "type A2  p 5  r 2"
    assert len(lines) == 2 + 9
    # lambda = -rho pairs to zero with every root: depth -inf, projective
    assert lines[2].split() == ["(-1,", "-1)", "-inf", "yes", "0", "0", "Projective"]


def test_depth_survey_exits_two_on_bad_input(monkeypatch, capsys):
    survey = load_script("depth_survey")
    for argv, reason in (
        (["--type", "X"], "unknown type name 'X'"),
        (["--p", "4"], "p must be an odd prime >= 3"),
        (["--type", "G2", "--p", "3"], "p = 3 divides a root coefficient of this system"),
    ):
        monkeypatch.setattr(sys, "argv", ["depth_survey.py", *argv, "--radius", "1"])
        assert survey.main() == 2
        # one line and no header before it
        assert capsys.readouterr().out == f"error: {reason}\n"


def test_run_verification_times_each_suite(monkeypatch, capsys):
    # a fake clock that each suite advances by its own index in seconds,
    # and each level's library build by 10 s
    from vermalab.modules import ModuleLibrary
    from vermalab.sl2 import CheckReport, restricted_simples

    verification = load_script("run_verification")
    clock = [0.0]

    def suites(p, r, seed=0):
        def run(k):
            clock[0] += k
            return CheckReport(f"suite-{k}", p, r, [{"ok": True}], True)

        return [lambda k=k: run(k) for k in (1, 2, 3)]

    def library(p, r):
        clock[0] += 10
        return ModuleLibrary(restricted_simples(3))

    monkeypatch.setattr(verification, "level_suites", suites)
    monkeypatch.setattr(verification, "library", library)
    monkeypatch.setattr(verification.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(sys, "argv", ["run_verification.py", "--json"])
    assert verification.main() == 0
    import json

    rows = json.loads(capsys.readouterr().out)["rows"]
    suite_rows = [row for row in rows if row["p"] is not None]
    assert len(suite_rows) == 20
    assert [row["seconds"] for row in suite_rows] == [10, 1, 2, 3] * 5
    libraries = [row for row in suite_rows if row["suite"] == "library"]
    assert [(row["p"], row["r"]) for row in libraries] == [(3, 1), (3, 2), (5, 1), (5, 2), (7, 2)]
    assert all(row["pass"] and row["cases"] == 3 for row in libraries)


def test_run_verification_passes_under_optimized_python():
    # python -O strips assert; every check of the battery must survive it
    import os
    import subprocess

    import vermalab

    env = {**os.environ, "PYTHONPATH": str(Path(vermalab.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", str(SCRIPTS / "run_verification.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "all suites passed" in out.stdout


def test_bench_pairs_alternate_and_count_wins(monkeypatch, tmp_path):
    import json

    import pytest

    bench = load_script("bench")
    calls = []

    def fake_run(tree, workload, seed, seconds, trace=0):
        label = "change" if tree == bench.ROOT else "baseline"
        calls.append((workload, seed, label, trace))
        if trace:
            calls_metric = 10 if label == "change" else 20
            return {"correct": True, "metrics": {"gf.rref.calls": {"value": calls_metric}}}
        run_s = seed / 10 if label == "change" else seed
        metrics = {m: {"value": 1.0, "unit": "s"} for m in ("setup_s", "peak_rss_mb")}
        metrics["run_s"] = {"value": run_s, "unit": "s"}
        return {"correct": True, "metrics": metrics}

    monkeypatch.setattr(bench, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", [
        "bench.py", "--out", str(out), "--seeds", "1,2,3", "--baseline", str(tmp_path),
    ])
    assert bench.main() == 0
    assert [(label, trace) for w, _, label, trace in calls if w == "queries"] == [
        ("change", 0), ("baseline", 0), ("baseline", 0), ("change", 0), ("change", 0),
        ("baseline", 0), ("change", 1), ("baseline", 1),
    ]
    # one traced run per tree and workload, with the first seed
    assert [seed for _, seed, _, trace in calls if trace] == [1, 1, 1, 1]
    record = json.loads(out.read_text())
    assert record["seeds"] == [1, 2, 3] and record["env"]["nproc"] >= 1
    queries = record["workloads"]["queries"]
    summary = queries["change"]["summary"]["run_s"]
    assert summary == pytest.approx({"median": 0.2, "q1": 0.15, "q3": 0.25, "n": 3})
    assert queries["baseline"]["summary"]["run_s"]["median"] == 2
    assert queries["change_wins"]["run_s"] == 3
    assert queries["change_wins"]["setup_s"] == 0  # ties win nothing
    assert queries["change"]["per_layer"]["metrics"] == {"gf.rref.calls": 10}
    assert queries["baseline"]["per_layer"]["metrics"] == {"gf.rref.calls": 20}

    monkeypatch.setattr(sys, "argv", ["bench.py", "--out", str(out), "--seeds", "1,2"])
    with pytest.raises(SystemExit):
        bench.main()
