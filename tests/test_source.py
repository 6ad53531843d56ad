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


def test_every_parameter_is_read():
    # a parameter no body reads (a seed nothing draws from, say) is dead
    # interface; the receiver of a method is exempt
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if x]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({name})"
                for name in params
                if name not in read and name not in ("self", "cls")
            ]
    assert unread == []


def test_float64_products_only_in_gf():
    # exact products on float64 hold only under gf's bound on their
    # partial sums, so every other file multiplies through gf
    found = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "gf.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "float64" in line or "_FLOAT_EXACT" in line
    ]
    assert found == []


def test_one_tensor_path():
    # every tensor operator is one coproduct contraction in sl2.tensor, so
    # no file assembles a second one from Kronecker products
    found = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "kron" in line
    ]
    assert found == []
