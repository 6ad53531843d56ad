"""End-to-end acceptance checks, one test per numbered criterion.

Every test records a single PASS or FAIL verdict; the conftest
terminal-summary hook prints one line per criterion after the run so
the verdicts appear in the tee'd log regardless of output capture.
Runtime budgets are asserted inside the tests that carry them.
"""
import time
from contextlib import contextmanager

import numpy as np

from oracles import brute_depth
from vermalab.heisenberg import closed_form, count_points, dimension_fit
from vermalab.modules import (
    ext1_coboundaries,
    ext1_dim,
    hom_space,
    is_isomorphic,
    syzygy,
)
from vermalab.rootsys import CartanSpec, build_root_system
from vermalab.sl2 import (
    Sl2Schema,
    build_verma_r1,
    build_verma_r2,
    frobenius_twist,
    library,
    rank_variety_scan,
    restricted_as_r2,
    simple_key,
    steinberg,
    tensor,
    verify_ar_middle_term,
    verify_heart,
    verify_vv4_filtration,
)
from vermalab.verma import (
    NEG_INFINITY,
    block_contains,
    classify,
    depth,
    depth_reduce,
    is_projective_verma,
)

A1 = CartanSpec.from_type("A1")
A2 = CartanSpec.from_type("A2")


RESULTS: list[tuple[int, bool, str]] = []


def _line(num: int, ok: bool, text: str) -> None:
    RESULTS.append((num, ok, text))
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        _line(num, False, text)
        raise
    _line(num, True, text)


def _check_witness(res, left, right) -> None:
    """The isomorphism witness must be invertible and intertwine every op."""
    assert res.isomorphic and res.witness is not None
    t = res.witness
    f = left.field
    assert f.rank(t) == left.dim
    for g in left.labels:
        assert np.array_equal(f.matmul(t, left.ops[g]), f.matmul(right.ops[g], t))


def _ext_dims_to_simples(syz, lib):
    """Extension dimensions against every simple, from one syzygy."""
    f = syz.module.field
    out = {}
    for key, s in lib.simples.items():
        homs = hom_space(syz.module, s)
        if not homs:
            out[key] = 0
            continue
        cob = ext1_coboundaries(syz, s)
        cob_rank = 0
        if cob:
            cob_rank = f.rank(np.stack([c.reshape(-1) for c in cob]))
        out[key] = len(homs) - cob_rank
    return out


def test_criterion_01_depth_matches_oracle():
    with criterion(1, "depth agrees with set-iteration oracle; p^(r-1)a-1 family hits depth r"):
        start = time.perf_counter()
        rs = build_root_system(A1)
        for p in (3, 5, 7):
            for lam in range(-100, 101):
                expected = brute_depth([lam + 1], p)
                got = depth(rs, (lam,), p)
                if expected is None:
                    assert got == NEG_INFINITY
                else:
                    assert got == expected
            for r in range(1, 5):
                for a in range(1, 12):
                    if a % p == 0:
                        continue
                    lam = p ** (r - 1) * a - 1
                    assert depth(rs, (lam,), p) == r
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"depth sweep took {elapsed:.2f}s"


def test_criterion_02_projectivity_three_ways():
    with criterion(2, "arithmetic projectivity == Ext vanishing (== empty scan at r=1)"):
        start = time.perf_counter()
        rs = build_root_system(A1)
        for p in (3, 5):
            schema1 = Sl2Schema(p, 1)
            lib1 = library(p, 1)
            for lam in range(p):
                z = build_verma_r1(schema1, lam)
                arithmetic = is_projective_verma(rs, (lam,), p, 1)
                exts = _ext_dims_to_simples(syzygy(z, lib1), lib1)
                homological = all(v == 0 for v in exts.values())
                scan_empty = len(rank_variety_scan(z, p).points) == 0
                assert arithmetic == homological == scan_empty
            schema2 = Sl2Schema(p, 2)
            lib2 = library(p, 2)
            for lam in range(p * p):
                z = build_verma_r2(schema2, lam)
                arithmetic = is_projective_verma(rs, (lam,), p, 2)
                exts = _ext_dims_to_simples(syzygy(z, lib2), lib2)
                homological = all(v == 0 for v in exts.values())
                assert arithmetic == homological
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"projectivity sweep took {elapsed:.2f}s"


def test_criterion_03_depth_reduction_with_witness():
    with criterion(3, "depth-2 weights reduce to depth 1 and factor as twist tensor Steinberg"):
        rs = build_root_system(A1)
        for p in (3, 5):
            schema1 = Sl2Schema(p, 1)
            schema2 = Sl2Schema(p, 2)
            st2 = restricted_as_r2(steinberg(schema1))
            seen = 0
            for lam in range(p * p):
                if depth(rs, (lam,), p) != 2:
                    continue
                seen += 1
                d, mu_vec = depth_reduce(rs, (lam,), p, 2)
                mu = mu_vec[0]
                assert d == 1
                assert depth(rs, (mu,), p) == 1
                assert lam == p * mu + (p - 1)
                left = build_verma_r2(schema2, lam)
                right = tensor(frobenius_twist(build_verma_r1(schema1, mu)), st2)
                res = is_isomorphic(left, right)
                _check_witness(res, left, right)
            assert seen == p - 1


def test_criterion_04_syzygy_periodicity():
    with criterion(4, "second syzygy of every non-projective level-1 Verma is the module itself"):
        for p in (3, 5):
            schema = Sl2Schema(p, 1)
            lib = library(p, 1)
            for lam in range(p - 1):
                z = build_verma_r1(schema, lam)
                o1 = syzygy(z, lib)
                o2 = syzygy(o1.module, lib)
                res = is_isomorphic(o2.module, z)
                _check_witness(res, o2.module, z)


def test_criterion_05_middle_term_indecomposable():
    with criterion(5, "gluing against the second syzygy yields an indecomposable 2p middle term"):
        for p in (3, 5):
            rep = verify_ar_middle_term(p)
            assert rep.passed
            assert len(rep.cases) == p - 1
            for case in rep.cases:
                assert case["ext_dim"] >= 1
                assert case["middle_dim"] == 2 * p
                assert case["indecomposable"]
                assert case["zero_cocycle_splits"]


def test_criterion_06_heart_structure():
    with criterion(6, "rad P / soc P is a doubled partner simple in the same block"):
        for p in (3, 5):
            rep = verify_heart(p)
            assert rep.passed
            assert len(rep.cases) == p - 1
            for case in rep.cases:
                assert case["mu"] == p - 2 - case["lambda"]
                assert case["mu"] != case["lambda"]
                assert case["socle_simple"]
                assert case["heart_doubled_simple"]
                assert case["same_block"]


def test_criterion_07_restriction_filtration():
    with criterion(7, "level-2 Vermas at p=3 restrict with a length-3 Verma filtration in one block"):
        rep = verify_vv4_filtration(3)
        assert rep.passed
        assert len(rep.cases) == 9
        for case in rep.cases:
            assert case["f_power_rank"] == 3
            assert case["character_match"]
            assert case["weights_in_block"]


def test_criterion_08_variety_dimensions():
    with criterion(8, "variety dims: rank-one exact and scan-checked, rank-two formula at p=7"):
        rs = build_root_system(A1)
        for p in (3, 5):
            schema = Sl2Schema(p, 1)
            for lam in range(p):
                rep = classify(A1, (lam,), p, 1)
                scan = rank_variety_scan(build_verma_r1(schema, lam), p)
                if rep.projective:
                    assert rep.variety_dim == 0
                    assert scan.dim_estimate == 0
                else:
                    dep = depth(rs, (lam,), p)
                    assert rep.variety_dim == 1 + 1 - int(dep) == 1
                    assert scan.dim_estimate == 1
                assert scan.dim_estimate == rep.variety_dim
            for lam in range(p * p):
                rep = classify(A1, (lam,), p, 2)
                dep = depth(rs, (lam,), p)
                if rep.projective:
                    assert rep.variety_dim == 0
                else:
                    assert rep.variety_dim == 2 + 1 - int(dep)
        rho_report = classify(A2, (1, 1), 7, 1)
        assert rho_report.variety_dim == 3
        assert rho_report.cx == 3
        deep = classify(A2, (1, 1), 7, 2)
        assert deep.cx == 2 * (2 - 1) + 3 == 5
        assert any("formula-only" in note for note in deep.notes)


def test_criterion_09_heisenberg_dimension():
    with criterion(9, "commuting-variety counts match the closed form and slopes hit 2r+1"):
        start = time.perf_counter()
        for r in (1, 2, 3):
            for q in (2, 3, 5):
                assert count_points(r, q).count == closed_form(r, q)
        assert count_points(2, 7).count == closed_form(2, 7)
        fit1 = dimension_fit(1, [3, 5, 7], tol=0.15)
        assert fit1.passed and abs(fit1.slope - 3) < 1e-9
        fit2 = dimension_fit(2, [3, 5, 7], tol=0.15)
        assert fit2.passed and abs(fit2.slope - 5) <= 0.15
        fit3 = dimension_fit(3, [3, 5], tol=0.3)
        assert fit3.passed and abs(fit3.slope - 7) <= 0.3
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"point counting took {elapsed:.2f}s"


def test_criterion_10_block_partition_matches_ext_linkage():
    with criterion(10, "block membership partition equals Ext-linkage components at p=5"):
        p = 5
        rs = build_root_system(A1)
        lib = library(p, 1)

        linked = {a: {a} for a in range(p)}
        for a in range(p):
            for b in range(p):
                la = lib.simples[simple_key(a)]
                lb = lib.simples[simple_key(b)]
                if a != b and ext1_dim(la, lb, lib) > 0:
                    linked[a].add(b)
                    linked[b].add(a)
        changed = True
        while changed:
            changed = False
            for a in range(p):
                merged = set(linked[a])
                for b in linked[a]:
                    merged |= linked[b]
                if merged != linked[a]:
                    linked[a] = merged
                    changed = True
        ext_partition = {frozenset(linked[a]) for a in range(p)}

        block_partition = {
            frozenset(
                b for b in range(p) if block_contains(rs, (b,), (a,), p, 1)
            )
            for a in range(p)
        }

        assert ext_partition == block_partition
        assert ext_partition == {
            frozenset({0, 3}),
            frozenset({1, 2}),
            frozenset({4}),
        }
