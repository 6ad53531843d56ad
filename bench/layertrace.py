"""Outside-in tracing of the vermalab layers.

The tracer wraps public functions of ``gf``, ``modules``, ``sl2``,
``rootsys``, ``verma``, ``heisenberg`` and ``cli`` after the package is
imported, and rebinds each wrapper in every ``vermalab`` module that
holds the original under any name (``sl2`` imports ``hom_space`` from
``modules``, ``cli`` imports ``classify``, ``verma`` imports
``dot_action``, the package re-exports most of them).  Nothing inside
the package changes.

Every wrapped call adds to an in-place aggregate: calls, inclusive time
and self time (inclusive time minus the inclusive time of the wrapped
calls made inside it).  Functions called hundreds of thousands of times
(the ``gf`` matrix primitives and the Weyl dot action) keep only the
aggregate; every other call also leaves a span (id, parent id, name,
start, end) in memory, written out with the run record.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from dataclasses import dataclass, field

perf_counter = time.perf_counter

LIBRARIES = (
    "restricted_simples",
    "restricted_projectives",
    "lifted_projectives",
    "hyper_simples",
    "hyper_projectives",
)
SUITES = (
    "verify_vv6",
    "verify_dr2",
    "verify_periodicity_and_tube",
    "verify_ar_middle_term",
    "verify_heart",
    "verify_vv4_filtration",
)

# (module, owning class or None, attribute, keeps spans)
TARGETS = (
    [("gf", "GF", name, False) for name in ("matmul", "rref", "nullspace", "solve", "inverse")]
    + [
        ("modules", None, name, True)
        for name in (
            "hom_space",
            "projective_cover",
            "syzygy",
            "is_isomorphic",
            "decompose",
            "is_indecomposable",
            "algebra_radical",
        )
    ]
    + [("sl2", None, name, True) for name in LIBRARIES + SUITES + ("tensor",)]
    + [("rootsys", None, "build_root_system", True), ("rootsys", None, "dot_action", False)]
    + [("verma", None, name, True) for name in ("block_contains", "smith_diagonalize", "classify")]
    + [("heisenberg", None, "count_points", True), ("cli", None, "main", True)]
)


def module_digest(mod) -> bytes:
    """Content digest of a module: field, dimension and action matrices."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((mod.field.p, mod.field.k, mod.dim, tuple(mod.labels))).encode())
    for label in mod.labels:
        h.update(mod.ops[label].tobytes())
    return h.digest()


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)


class Tracer:
    """Aggregates and spans for the wrapped functions of one process."""

    def __init__(self, targets=TARGETS):
        self.targets = list(targets)
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        # one frame per open wrapped call: [time in wrapped children, span id]
        self._stack: list[list] = [[0.0, 0]]
        self._next_id = 1
        self._hom_pairs: set[bytes] = set()
        self.scopes: dict[str, dict[str, int]] = {}  # calls made inside each labelled stretch
        self._hooks = {
            "gf.rref": self._note_rref,
            "modules.hom_space": self._note_hom_space,
            "heisenberg.count_points": self._note_count_points,
        }
        for name in SUITES:
            self._hooks[f"sl2.{name}"] = self._note_suite

    def install(self) -> None:
        """Wrap every target and rebind it wherever vermalab refers to it.

        Calls through a reference the scan cannot see (one kept in a
        closure or a container) go uncounted; a function whose every call
        path is hidden that way reads zero calls, which fails a traced run.
        """
        for modname, _, _, _ in self.targets:
            importlib.import_module(f"vermalab.{modname}")
        pkg = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "vermalab"]
        for modname, owner, attr, keep_spans in self.targets:
            module = sys.modules[f"vermalab.{modname}"]
            name = f"{modname}.{attr}"
            if owner is not None:
                cls = getattr(module, owner)
                setattr(cls, attr, self._wrap(vars(cls)[attr], name, keep_spans))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, name, keep_spans)
            for mod in pkg:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def _wrap(self, fn, name: str, keep_spans: bool):
        stat = self.stats.setdefault(name, Stat())
        hook = self._hooks.get(name)
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep_spans:
                sid = self._next_id
                self._next_id = sid + 1
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                parent[0] += dur
                if keep_spans:
                    spans.append((sid, parent[1], name, t0, t1))
            if hook is not None:
                # bookkeeping is tracer overhead: keep it out of the caller's self time
                h0 = perf_counter()
                hook(stat, args, result, dur)
                parent[0] += perf_counter() - h0
            return result

        return wrapper

    def _note_rref(self, stat, args, result, dur):
        rows, cols = args[1].shape
        stat.extra["cells"] = stat.extra.get("cells", 0) + rows * cols

    def _note_hom_space(self, stat, args, result, dur):
        m, n = args
        stat.extra["unknowns"] = stat.extra.get("unknowns", 0) + m.dim * n.dim
        key = module_digest(m) + module_digest(n)
        if key in self._hom_pairs:
            stat.extra["repeats"] = stat.extra.get("repeats", 0) + 1
        else:
            self._hom_pairs.add(key)

    def _note_count_points(self, stat, args, result, dur):
        r, q = args
        stat.extra["pairs"] = stat.extra.get("pairs", 0) + q ** (2 * r)

    def _note_suite(self, stat, args, result, dur):
        key = f"{result.check}.p{result.p}r{result.r}"
        stat.extra.setdefault("suites", []).append((key, dur))

    def calls(self) -> dict[str, int]:
        return {name: s.calls for name, s in self.stats.items()}

    def suite_seconds(self) -> list[tuple[str, float]]:
        """(check.pXrY, inclusive seconds) for every suite call made."""
        out = []
        for name in SUITES:
            out.extend(self.stats[f"sl2.{name}"].extra.get("suites", []))
        return out

    def library_seconds(self) -> float:
        """Inclusive time of library builds not nested in another library build."""
        names = {f"sl2.{n}" for n in LIBRARIES}
        by_id = {s[0]: s for s in self.spans}
        total = 0.0
        for _, parent, name, t0, t1 in self.spans:
            if name not in names:
                continue
            while parent in by_id and by_id[parent][2] not in names:
                parent = by_id[parent][1]
            if parent not in by_id:
                total += t1 - t0
        return total
