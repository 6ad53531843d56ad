"""Properties of the package source itself."""
import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vermalab"


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


def test_no_level_named_in_a_builder():
    # a kernel level is a row of sl2.LEVELS, so no name in the package
    # marks a construction as belonging to one level
    pattern = re.compile(r"_r[12]\b|R[12]_LABELS|restricted_as_r2")
    found = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert found == []


def test_one_elimination_engine():
    # F_{p^2} matrices reach the F_p kernels by the regular representation,
    # so gf has one elimination and one square-and-multiply, gf.power,
    # through which every matrix power in the package is taken
    gf = (SRC / "gf.py").read_text()
    assert re.findall(r"def (_rref_\w+)", gf) == ["_rref_prime"]
    found = {
        path.name: path.read_text().count("e >>= 1")
        for path in sorted(SRC.glob("*.py"))
        if "e >>= 1" in path.read_text()
    }
    assert found == {"gf.py": 1}


def test_failed_checks_raise_certificate_error():
    # CertificateError subclasses RuntimeError, so a caller catching either
    # sees every failed check; a bare RuntimeError would escape the former
    found = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "raise RuntimeError(" in line
    ]
    assert found == []


def bench_constants(name, *names):
    """The named top-level assignments of a bench/ script, evaluated
    without importing it, so nothing is written under bench/."""
    tree = ast.parse((ROOT / "bench" / name).read_text())
    body = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names
    ]
    namespace = {}
    exec(compile(ast.Module(body, []), name, "exec"), namespace)
    return namespace


def test_every_bench_target_resolves():
    # the traced benchmark wraps each target by name and fails on a
    # missing attribute, and a required call must be one it wraps
    targets = bench_constants("layertrace.py", "LIBRARIES", "SUITES", "TARGETS")["TARGETS"]
    missing = []
    for modname, owner, attr, _ in targets:
        holder = importlib.import_module(f"vermalab.{modname}")
        if owner is not None:
            holder = getattr(holder, owner, None)
        if not hasattr(holder, attr):
            missing.append(f"{modname}.{attr}")
    assert missing == []
    names = {f"{modname}.{attr}" for modname, _, attr, _ in targets}
    required = bench_constants("run.py", "REQUIRED_CALLS")["REQUIRED_CALLS"]
    assert [n for calls in required.values() for n in calls if n not in names] == []
