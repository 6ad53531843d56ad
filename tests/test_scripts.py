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


def test_run_verification_times_each_suite(monkeypatch, capsys):
    # a fake clock that each suite advances by its own index in seconds
    from vermalab.sl2 import CheckReport

    verification = load_script("run_verification")
    clock = [0.0]

    def suites(p, r, seed=0):
        def run(k):
            clock[0] += k
            return CheckReport(f"suite-{k}", p, r, [{"ok": True}], True)

        return [lambda k=k: run(k) for k in (1, 2, 3)]

    monkeypatch.setattr(verification, "level_suites", suites)
    monkeypatch.setattr(verification.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(sys, "argv", ["run_verification.py", "--json"])
    assert verification.main() == 0
    import json

    rows = json.loads(capsys.readouterr().out)["rows"]
    suite_rows = [row for row in rows if row["p"] is not None]
    assert len(suite_rows) == 12
    assert [row["seconds"] for row in suite_rows] == [1, 2, 3] * 4


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
