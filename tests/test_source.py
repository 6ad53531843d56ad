"""Properties of the package source itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vermalab"


def test_no_assert_statements_in_the_package():
    # python -O strips assert, so a check written as one would vanish
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
