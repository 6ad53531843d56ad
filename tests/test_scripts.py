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
