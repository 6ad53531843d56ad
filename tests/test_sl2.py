import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vermalab.modules
import vermalab.sl2
from oracles import intertwiner_basis, reference_sl2_failure, reference_tensor
from vermalab.gf import GF
from vermalab.modules import (
    CertificateError,
    FpModule,
    ModuleLibrary,
    SchemaMismatch,
    decompose,
    direct_sum,
    ext1_dim,
    hom_space,
    is_indecomposable,
    is_isomorphic,
    is_projective_module,
    projective_cover,
    radical_submodule,
    socle_multiplicities,
    submodule_from_columns,
    syzygy,
    top_multiplicities,
)
from vermalab.rootsys import CartanSpec, build_root_system
from vermalab.sl2 import (
    DimensionNotDivisible,
    Sl2Schema,
    _finish,
    binom_mod,
    build_simple,
    build_verma_r1,
    build_verma_r2,
    frobenius_twist,
    hyper_projectives,
    hyper_simples,
    library,
    lifted_projectives,
    rank_variety_scan,
    restrict_to_r1,
    restricted_as_r2,
    restricted_projectives,
    restricted_simples,
    run_sl2_suites,
    schema_of,
    simple_key,
    steinberg,
    tensor,
    verify_dr2,
    verify_heart,
    verify_vv6,
)
from vermalab.verma import depth


def exact_binom(n: int, k: int) -> int:
    """C(n, k) as an exact integer, valid for negative n."""
    val = Fraction(1)
    for j in range(k):
        val *= Fraction(n - j, j + 1)
    assert val.denominator == 1
    return int(val)


def as_lists(mod):
    return {l: m.tolist() for l, m in mod.ops.items()}


# -- binomials -----------------------------------------------------------

def test_binom_matches_exact_integers():
    for p in (3, 5):
        for n in range(-60, 121, 7):
            for k in (0, 1, 2, 3, p, p + 1, 2 * p, p * p):
                assert binom_mod(n, k, p) == exact_binom(n, k) % p


def test_binom_rejects_negative_lower():
    with pytest.raises(ValueError):
        binom_mod(4, -1, 5)


# -- schema and builders -------------------------------------------------

def test_schema_validation():
    with pytest.raises(ValueError):
        Sl2Schema(4, 1)
    with pytest.raises(ValueError):
        Sl2Schema(2, 1)
    with pytest.raises(ValueError):
        Sl2Schema(5, 3)
    assert Sl2Schema(5, 2).labels == ("e", "f", "h", "e_p", "f_p")


def run_optimized(code):
    # python -O strips asserts; the checks under test must still refuse
    env = {**os.environ, "PYTHONPATH": str(Path(vermalab.sl2.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split("\n")[:-1]


def test_schema_check_survives_optimized_python():
    code = (
        "from vermalab.modules import CertificateError, FpModule, SchemaMismatch\n"
        "from vermalab.sl2 import Sl2Schema, build_simple\n"
        "schema = Sl2Schema(5, 1)\n"
        "s = build_simple(schema, 2)\n"
        "bad = FpModule(s.field, s.dim, {**s.ops, 'e': s.field.mul(s.ops['e'], 2)})\n"
        "h = s.ops['h'].copy()\n"
        "h[0, 1] = 1\n"
        "skew = FpModule(s.field, s.dim, {**s.ops, 'h': h})\n"
        "cases = ((schema, bad), (Sl2Schema(3, 1), s), (Sl2Schema(5, 2), s), (schema, skew))\n"
        "for check, mod in cases:\n"
        "    try:\n"
        "        check.check(mod)\n"
        "    except (CertificateError, SchemaMismatch) as exc:\n"
        "        print(type(exc).__name__, exc)\n"
    )
    got = run_optimized(code)
    assert got[0] == "CertificateError relation [e, f] = h fails at p = 5, r = 1"
    assert [line.split()[0] for line in got[1:]] == ["SchemaMismatch"] * 3
    assert got[3].startswith("SchemaMismatch h is not diagonal")


def conjugated(mod):
    """The same module in the basis of an upper unitriangular matrix."""
    f = mod.field
    g = np.triu(np.ones((mod.dim, mod.dim), dtype=np.int64))
    ginv = f.inverse(g)
    return FpModule(f, mod.dim, {l: f.matmul(g, f.matmul(x, ginv)) for l, x in mod.ops.items()})


def schema_cases():
    # a level-1 simple, a level-2 Verma and a level-2 tensor L(2) (x) L(1)^twist
    s1, s2 = Sl2Schema(5, 1), Sl2Schema(3, 2)
    return [(s1, build_simple(s1, 3)), (s2, build_verma_r2(s2, 4)), (s2, hyper_simples(3)["L5"])]


def test_schema_check_refuses_a_non_diagonal_h():
    # the same modules in a basis that is not a weight basis
    for schema, mod in schema_cases():
        conj = conjugated(mod)
        assert "h" in mod._diagonals and "h" not in conj._diagonals
        schema.check(mod)
        with pytest.raises(SchemaMismatch, match="h is not diagonal"):
            schema.check(conj)


def check_failure(schema, mod):
    with pytest.raises(CertificateError) as info:
        schema.check(mod)
    return str(info.value)


def test_schema_check_names_the_relation_a_broken_operator_fails():
    # a scaled e breaks [e, f] = h, the first relation of the table
    for schema, mod in schema_cases():
        broken = FpModule(mod.field, mod.dim, {**mod.ops, "e": mod.field.mul(mod.ops["e"], 2)})
        assert "[e, f] = h" in check_failure(schema, broken)
    # an e_p entry between basis vectors of different weights breaks only
    # [h, e_p] = 0, which a diagonal h checks entrywise
    schema, mod = schema_cases()[1]
    ep = mod.ops["e_p"].copy()
    ep[0, 1] = 1
    broken = FpModule(mod.field, mod.dim, {**mod.ops, "e_p": ep})
    assert "[h, e_p] = 0" in check_failure(schema, broken)


def cross_level_relations(mod):
    """Whether [e, f_p] = f^(p-1)(h + 1) and [e_p, f] = (h + 1)e^(p-1) hold,
    multiplied out densely, with g^(p-1) the divided power g^(p-1) / (p-1)!;
    both are Kostant's formula for e^(c) f^(a) reduced mod p."""
    f = mod.field
    p = f.p
    e, fm, h, ep, fp = (mod.ops[x] for x in ("e", "f", "h", "e_p", "f_p"))
    shifted = f.add(h, f.identity(mod.dim))

    def divided(x):
        return f.mul(f.matpow(x, p - 1), f.inv(math.factorial(p - 1) % p))

    def bracket(a, b):
        return f.sub(f.matmul(a, b), f.matmul(b, a))

    return (
        np.array_equal(bracket(e, fp), f.matmul(divided(fm), shifted)),
        np.array_equal(bracket(ep, fm), f.matmul(shifted, divided(e))),
    )


# (label, lam) with X^2 != 0 on Z_2(lam) at p = 3; e_p^2 = 0 on Z_2(4),
# where the deformation changes nothing
DEFORMED = [("f_p", 0), ("f_p", 1), ("f_p", 4), ("e_p", 0), ("e_p", 1)]


def deformed_verma(label, lam):
    # Z_2(lam) at p = 3 with X replaced by X + X^2
    mod = build_verma_r2(Sl2Schema(3, 2), lam)
    f, x = mod.field, mod.ops[label]
    return mod, FpModule(f, mod.dim, {**mod.ops, label: f.add(x, f.matmul(x, x))})


@pytest.mark.parametrize("label, lam", DEFORMED)
def test_deformed_divided_powers_break_a_cross_level_relation(label, lam):
    mod, deformed = deformed_verma(label, lam)
    assert cross_level_relations(mod) == (True, True)
    assert cross_level_relations(deformed) == (label == "e_p", label == "f_p")


@pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="no level-2 relation pairs a raising and a lowering operator across levels",
)
@pytest.mark.parametrize("label, lam", DEFORMED)
def test_schema_check_refuses_a_deformed_divided_power(label, lam):
    _, deformed = deformed_verma(label, lam)
    check_failure(Sl2Schema(3, 2), deformed)


def test_schema_check_takes_weights_to_the_p_th_power_mod_p():
    # h^p = h for a diagonal h at primes where d**p would overflow int64
    for p in (19, 23):
        schema = Sl2Schema(p, 1)
        mod = build_verma_r1(schema, 3)
        assert "h" in mod._diagonals
        schema.check(mod)


def off_weight(mod, label, weight):
    """mod with one more entry in operator `label`, off its weight shift."""
    f = mod.field
    d = np.diagonal(mod.ops["h"])
    i, j = np.argwhere((d[:, None] - d[None, :] - weight) % f.p != 0)[0]
    x = mod.ops[label].copy()
    x[i, j] = f.add(x[i, j], 1)
    return FpModule(f, mod.dim, {**mod.ops, label: x})


@pytest.mark.parametrize("p, r", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_schema_check_names_the_failure_of_the_dense_table(p, r):
    # each operator of a Verma and of a cover, scaled by 2 or given an
    # entry off its weight shift: the weight blocks and the dense
    # reference table name the same first failing relation, except that
    # an entry off the diagonal of h leaves the weight basis
    schema = Sl2Schema(p, r)
    verma = build_verma_r1(schema, 1) if r == 1 else build_verma_r2(schema, p + 1)
    cover = max(library(p, r).projectives.values(), key=lambda m: m.dim)
    weights = {"e": 2, "f": -2, "h": 0, "e_p": 0, "f_p": 0}
    for mod in (verma, cover):
        for label in schema.labels:
            f = mod.field
            scaled = FpModule(f, mod.dim, {**mod.ops, label: f.mul(mod.ops[label], 2)})
            off = off_weight(mod, label, weights[label])
            if label == "h":
                with pytest.raises(SchemaMismatch, match="h is not diagonal"):
                    schema.check(off)
            for broken in (scaled,) if label == "h" else (scaled, off):
                name = reference_sl2_failure(broken, p, r)
                if name is None:
                    schema.check(broken)
                else:
                    want = f"relation {name} fails at p = {p}, r = {r}"
                    assert check_failure(schema, broken) == want


@pytest.mark.parametrize("p", [3, 5, 7])
def test_weight_blocks_decide_products_as_dense_matrices_do(p):
    # random operators homogeneous for a grading, some sparse enough that
    # their p-th powers vanish: every verdict matches the dense one
    rng = np.random.default_rng(p)
    f = GF(p)
    weights = {"e": 2, "f": p - 2, "e_p": 0, "f_p": 0}
    pairs = [("e", "f"), ("e", "e_p"), ("f", "f_p")]
    seen = set()

    def agree(d, density):
        dim = len(d)
        ops = {}
        for x, c in weights.items():
            fits = (d[:, None] - d[None, :] - c) % p == 0
            kept = fits & (rng.random((dim, dim)) < density)
            ops[x] = rng.integers(1, p, size=(dim, dim)) * kept
        h = np.diag(d)
        holds = vermalab.sl2._graded_relations(f, d, ops, weights, pairs, h)
        for x, y in pairs:
            bracket = vermalab.sl2._bracket(f, ops[x], ops[y])
            want = h if (x, y) == ("e", "f") else 0 * h
            assert holds[x, y] == np.array_equal(bracket, want)
        for x in weights:
            assert holds[x] == (not np.any(f.matpow(ops[x], p)))
            seen.add(holds[x])

    for trial in range(24):
        dim = int(rng.integers(2 * p, 5 * p))
        agree(rng.permutation(np.arange(dim) % p), (0.02, 0.1, 0.6)[trial % 3])
    # crowded gradings: every weight in one class, and dimension 1
    for density in (0.1, 0.6):
        for dim, k in ((1, 0), (1, 1), (6, 0), (2 * p, 1), (3 * p, p - 1)):
            agree(np.full(dim, k), density)
    assert seen == {False, True}


def test_schema_check_of_a_100_dim_cover_takes_three_products(monkeypatch):
    # all brackets and p-th powers at p = 5 on weight blocks: the brackets
    # with the first squaring, then X^4 and X * X^4
    schema = Sl2Schema(5, 2)
    cover = max(library(5, 2).projectives.values(), key=lambda m: m.dim)
    assert cover.dim == 100
    calls = []
    true_matmul = GF.matmul

    def counted(self, a, b):
        calls.append(np.shape(a))
        return true_matmul(self, a, b)

    monkeypatch.setattr(GF, "matmul", counted)
    schema.check(cover)
    assert len(calls) == 3


def test_schema_of_rejects_foreign_labels():
    m = FpModule(GF(3), 1, {"x": np.zeros((1, 1), dtype=np.int64)})
    with pytest.raises(SchemaMismatch):
        schema_of(m)


def test_trivial_simple_is_zero_action():
    s = Sl2Schema(5, 1)
    triv = build_simple(s, 0)
    assert triv.dim == 1
    assert all(not mat.any() for mat in triv.ops.values())


def test_natural_module_matrices():
    s = Sl2Schema(5, 1)
    nat = build_simple(s, 1)
    assert np.array_equal(nat.ops["e"], [[0, 1], [0, 0]])
    assert np.array_equal(nat.ops["f"], [[0, 0], [1, 0]])
    assert np.array_equal(nat.ops["h"], [[1, 0], [0, 4]])


def test_top_weight_simple_is_steinberg():
    for p in (3, 5):
        s = Sl2Schema(p, 1)
        top = build_simple(s, p - 1)
        st = steinberg(s)
        assert top.dim == p
        for label in top.labels:
            assert np.array_equal(top.ops[label], st.ops[label])


def test_simples_have_zero_radical():
    for p in (3, 5):
        s = Sl2Schema(p, 1)
        lib = ModuleLibrary(restricted_simples(p))
        for m in range(p):
            assert radical_submodule(build_simple(s, m), lib).shape[1] == 0


def test_builder_range_errors():
    s1 = Sl2Schema(5, 1)
    s2 = Sl2Schema(5, 2)
    with pytest.raises(ValueError):
        build_simple(s1, 5)
    with pytest.raises(ValueError):
        build_simple(s1, -1)
    with pytest.raises(ValueError):
        build_verma_r1(s1, 5)
    with pytest.raises(ValueError):
        build_verma_r2(s2, 25)
    with pytest.raises(ValueError):
        build_simple(s2, 1)
    with pytest.raises(ValueError):
        build_verma_r1(s2, 1)
    with pytest.raises(ValueError):
        build_verma_r2(s1, 1)


# -- level-1 Verma structure ---------------------------------------------

def test_verma_r1_composition_series_frozen():
    # p=5, weight 2: top L(2), radical is a copy of L(1)
    p = 5
    s = Sl2Schema(p, 1)
    lib = ModuleLibrary(restricted_simples(p))
    z = build_verma_r1(s, 2)
    assert z.dim == p
    assert top_multiplicities(z, lib) == {"L2": 1}
    rad, _ = submodule_from_columns(z, radical_submodule(z, lib))
    assert rad.dim == 2
    assert top_multiplicities(rad, lib) == {"L1": 1}
    assert radical_submodule(rad, lib).shape[1] == 0


def test_verma_socle_is_reflected_weight():
    for p in (3, 5):
        s = Sl2Schema(p, 1)
        lib = ModuleLibrary(restricted_simples(p))
        for lam in range(p - 1):
            z = build_verma_r1(s, lam)
            assert socle_multiplicities(z, lib) == {simple_key(p - 2 - lam): 1}


def test_verma_endomorphisms_are_scalars():
    for p in (3, 5):
        s = Sl2Schema(p, 1)
        for lam in range(p):
            z = build_verma_r1(s, lam)
            assert len(hom_space(z, z)) == 1


def test_verma_hom_dims_match_block_partner_rule():
    for p in (3, 5):
        s = Sl2Schema(p, 1)
        for a in range(p):
            za = build_verma_r1(s, a)
            for b in range(p):
                want = 1 if b == a or b == (p - 2 - a) % p else 0
                assert len(hom_space(za, build_verma_r1(s, b))) == want


def test_verma_homs_match_brute_oracle():
    p = 3
    s = Sl2Schema(p, 1)
    mods = [build_verma_r1(s, lam) for lam in range(p)]
    for a in mods:
        for b in mods:
            want = intertwiner_basis(as_lists(a), as_lists(b), p)
            assert len(hom_space(a, b)) == len(want)


def test_cover_and_syzygy_of_verma_frozen():
    # p=5, weight 2: cover has dim 10 over the single top, kernel dim 5,
    # and the second syzygy returns to the module itself
    p = 5
    lib = library(p, 1)
    z = build_verma_r1(Sl2Schema(p, 1), 2)
    cover = projective_cover(z, lib)
    assert cover.module.dim == 10
    assert cover.summand_labels == ["L2"]
    o1 = syzygy(z, lib)
    assert o1.module.dim == 5
    o2 = syzygy(o1.module, lib)
    assert bool(is_isomorphic(o2.module, z))


def test_ext_dims_frozen():
    p = 5
    s = Sl2Schema(p, 1)
    lib = library(p, 1)
    # doubled simple in the heart forces a two-dimensional ext group
    assert ext1_dim(build_simple(s, 2), build_simple(s, 1), lib) == 2
    assert ext1_dim(build_simple(s, 2), build_simple(s, 3), lib) == 0
    z = build_verma_r1(s, 2)
    o2 = syzygy(syzygy(z, lib).module, lib)
    assert ext1_dim(z, o2.module, lib) == 1
    st = steinberg(s)
    assert ext1_dim(st, build_simple(s, 2), lib) == 0


def fresh_memo(monkeypatch):
    """Give the process-wide module memo a fresh, empty dict for one test."""
    monkeypatch.setattr(vermalab.modules, "_MEMO", {})


def test_cover_computes_each_hom_to_a_simple_once(monkeypatch):
    # the cover reuses the Hom(z, S) that gave the top, and solves one
    # hom space per top summand for the maps from its cover
    fresh_memo(monkeypatch)
    p = 3
    lib = library(p, 1)
    z = build_verma_r1(Sl2Schema(p, 1), 0)
    tops = top_multiplicities(z, lib)
    calls = []

    def counting(m, n):
        calls.append((m.dim, n.dim))
        return hom_space(m, n)

    monkeypatch.setattr(vermalab.modules, "hom_space", counting)
    cover = projective_cover(z, lib)
    assert cover.summand_labels == sorted(tops)
    # len(lib.simples) + len(tops) = 4 when the cover solved Hom(z, S) again
    assert len(calls) == len(tops) == 1
    radical_submodule(z, lib)
    syzygy(z, lib)
    assert len(calls) == 1


def test_heart_computes_each_hom_from_a_simple_once(monkeypatch):
    # per cover: Hom(S, P) once for socle and its multiplicities together,
    # and one hom space for the isomorphism; Hom(P, S), which gives the
    # radical, was solved while the lifted covers were built
    calls = []

    def counting(m, n):
        calls.append((m.dim, n.dim))
        return hom_space(m, n)

    for p, want in ((3, 8), (5, 24)):  # 14 and 44 when Hom(P, S) was solved again
        library(p, 1)
        fresh_memo(monkeypatch)
        lifted_projectives.__wrapped__(p)
        calls.clear()
        monkeypatch.setattr(vermalab.modules, "hom_space", counting)
        assert verify_heart(p).passed
        monkeypatch.undo()
        assert len(calls) == want == (p - 1) * (p + 1)


def count_cold_hom_calls(monkeypatch, p, build):
    """The hom_space calls of build(), run twice in one fresh module memo,
    each time with the level-1 tables built afresh; returns the calls of
    each run with the simples of the first."""
    calls = []

    def counting(m, n):
        calls[-1].append((m, n))
        return hom_space(m, n)

    fresh_memo(monkeypatch)
    monkeypatch.setattr(vermalab.modules, "hom_space", counting)
    for run in range(2):
        for name in ("restricted_simples", "restricted_projectives", "lifted_projectives"):
            fresh = lru_cache(getattr(vermalab.sl2, name).__wrapped__)
            monkeypatch.setattr(vermalab.sl2, name, fresh)
        calls.append([])
        build()
        if not run:
            simples = list(vermalab.sl2.restricted_simples(p).values())
    monkeypatch.undo()
    return calls, simples


def test_cover_builders_validate_the_simples_once(monkeypatch):
    # the level-1 covers are the restrictions of their level-2 lifts, so
    # building both tables decomposes each tensor once and checks End(S)
    # once per simple
    p = 3

    def build():
        vermalab.sl2.restricted_projectives(p)
        vermalab.sl2.lifted_projectives(p)

    (calls, again), simples = count_cold_hom_calls(monkeypatch, p, build)
    validations = [m for m, n in calls if m is n and any(m is s for s in simples)]
    assert len(validations) == p
    # 27 when each level decomposed its own tensor, 15 when decompose
    # solved End(m) again for each summand it could not split
    assert len(calls) == 13
    # tables built again are equal in content, so the memo solves nothing
    # (13 again when the results were cached per module object)
    assert len(again) == 0


def test_level1_library_reuses_the_validated_simples(monkeypatch):
    # End(S) is checked once per simple, while the covers are lifted;
    # library(p, 1) then finds it in the memo instead of solving it again
    (calls, again), simples = count_cold_hom_calls(
        monkeypatch, 3, lambda: library.__wrapped__(3, 1)
    )
    validations = [m for m, n in calls if m is n and any(m is s for s in simples)]
    assert len(validations) == 3  # 6 when library(3, 1) solved End(S) again
    assert len(calls) == 13
    assert len(again) == 0  # 13 when the results were cached per module object


def test_decompose_reuses_its_endomorphism_basis(monkeypatch):
    # decompose certifies an unsplit summand with the End(m) basis it
    # already holds; a fallback to is_indecomposable solved End(m) again
    fresh_memo(monkeypatch)
    real_hom, real_decompose = vermalab.modules.hom_space, vermalab.modules.decompose
    inside = [0]
    calls = []

    def counting(m, n):
        if inside[0]:
            calls.append((m, n))
        return real_hom(m, n)

    def nested(m, seed=0):
        inside[0] += 1
        try:
            return real_decompose(m, seed=seed)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(vermalab.modules, "hom_space", counting)
    for owner in (vermalab.modules, vermalab.sl2):
        monkeypatch.setattr(owner, "decompose", nested)
    for p in (3, 5):
        vermalab.sl2.lifted_projectives.__wrapped__(p)
    assert len(calls) == 16  # 24 when the fallback recomputed End(m)
    # lifting again decomposes tensors equal in content: End(m) comes
    # from the memo (16 again when the results were cached per module object)
    for p in (3, 5):
        vermalab.sl2.lifted_projectives.__wrapped__(p)
    assert len(calls) == 16


def test_level2_simples_build_each_padded_simple_once(monkeypatch):
    # from cold caches: p weight chains, each padded to level 2 once, p
    # twists and p^2 tensors; 24 when the padded simple was built again
    # for every high digit
    p = 3
    for name in ("_weight_chain", "_padded_simple"):
        monkeypatch.setattr(vermalab.sl2, name, lru_cache(getattr(vermalab.sl2, name).__wrapped__))
    checks = []
    check = Sl2Schema.check

    def counting(self, mod):
        checks.append(self.r)
        return check(self, mod)

    monkeypatch.setattr(Sl2Schema, "check", counting)
    simples = hyper_simples.__wrapped__(p)
    assert len(checks) == 3 * p + p * p == 18
    # the lifted covers pad the same simples: the top-weight one and the
    # complements, none of them built or checked again
    before = vermalab.sl2._padded_simple.cache_info()
    lifted_projectives.__wrapped__(p)
    after = vermalab.sl2._padded_simple.cache_info()
    assert after.misses == before.misses and after.hits - before.hits == p
    assert set(simples) == {simple_key(lam) for lam in range(p * p)}


def test_battery_solves_each_hom_pair_once(monkeypatch):
    # with every table and the memo cold, the battery's suites solve 327
    # hom spaces, all distinct in content; 917 when every Hom(m, S) to a
    # simple was solved, with no first-layer screen, and 1,064 with 147
    # repeats when results were cached per module object
    fresh_memo(monkeypatch)
    for name in (
        "restricted_simples",
        "restricted_projectives",
        "lifted_projectives",
        "hyper_simples",
        "hyper_projectives",
        "library",
    ):
        monkeypatch.setattr(vermalab.sl2, name, lru_cache(getattr(vermalab.sl2, name).__wrapped__))
    pairs = []

    def counting(m, n):
        pairs.append(m._digest + n._digest)
        return hom_space(m, n)

    monkeypatch.setattr(vermalab.modules, "hom_space", counting)
    for p, r in ((3, 1), (3, 2), (5, 1), (5, 2)):
        assert all(rep.passed for rep in run_sl2_suites(p, r))
    assert len(pairs) == len(set(pairs)) == 327


def test_decompose_tries_the_end_basis_before_random_candidates(monkeypatch):
    # End(P(L0)) is local, which the basis certifies before any random
    # candidate is drawn; 82 Fitting rank tests when all 80 were built
    # and tested first
    m = library(5, 1).projectives["L0"]
    basis = vermalab.modules._hom(m, m)
    real_rank = GF.rank
    fitting_ranks = []

    def counting(self, a):
        if a.shape == (m.dim, m.dim):
            fitting_ranks.append(a)
        return real_rank(self, a)

    monkeypatch.setattr(GF, "rank", counting)
    parts = decompose(m)
    assert len(parts) == 1 and parts[0] is m
    assert len(fitting_ranks) <= len(basis) == 2


def test_lazy_candidates_keep_the_splits():
    # the summands of every lifted tensor, and the lifts chosen from them,
    # as recorded when all random candidates were built up front
    h = hashlib.sha256()
    for p in (3, 5):
        s1 = Sl2Schema(p, 1)
        st2 = restricted_as_r2(steinberg(s1))
        for lam in range(p - 1):
            for part in decompose(tensor(st2, restricted_as_r2(build_simple(s1, p - 1 - lam)))):
                h.update(repr((p, lam, part.dim)).encode())
                for label in part.labels:
                    h.update(part.ops[label].tobytes())
        for lam, q in sorted(lifted_projectives(p).items()):
            h.update(repr((p, lam, q.dim)).encode())
            for label in q.labels:
                h.update(q.ops[label].tobytes())
    assert h.hexdigest()[:16] == "d0a31fc0b3b4fbfd"


# sha256 over every level-2 simple and cover at p = 3 and 5 and the
# right-hand tensors of verify_dr2, recorded when tensor summed p - 1
# kron products of divided powers, each from its own matrix power
LEVEL2_TENSOR_DIGEST = "197bf32bb93d7e103c62374560d3135b0aae7eb180cc6809c34b45bfa670b0a4"


def test_level2_tensors_match_recorded_digest():
    h = hashlib.sha256()

    def add(tag, mod):
        h.update(repr((tag, mod.field.p, mod.field.k, mod.dim)).encode())
        for label in mod.labels:
            h.update(label.encode())
            h.update(mod.ops[label].astype("<i8").tobytes())

    rs = build_root_system(CartanSpec.from_type("A1"))
    dr2 = 0
    for p in (3, 5):
        for kind, mods in (("simple", hyper_simples(p)), ("projective", hyper_projectives(p))):
            for key, mod in mods.items():
                add((p, kind, key), mod)
        s1 = Sl2Schema(p, 1)
        st2 = restricted_as_r2(steinberg(s1))
        for mu in range(p):
            if depth(rs, (mu,), p) == 1:
                add((p, "dr2", mu), tensor(frobenius_twist(build_verma_r1(s1, mu)), st2))
                dr2 += 1
    assert dr2 == 6
    assert h.hexdigest() == LEVEL2_TENSOR_DIGEST


def test_level2_verma_tops_from_a_cold_memo(monkeypatch):
    fresh_memo(monkeypatch)
    schema = Sl2Schema(5, 2)
    lib = library(5, 2)
    for lam in range(25):
        assert top_multiplicities(build_verma_r2(schema, lam), lib) == {simple_key(lam): 1}


def test_first_layer_screen_skips_only_zero_hom_spaces(monkeypatch):
    fresh_memo(monkeypatch)
    ruled_out = 0
    for p, r in ((3, 1), (5, 1), (3, 2)):
        schema, lib = Sl2Schema(p, r), library(p, r)
        build = build_verma_r1 if r == 1 else build_verma_r2
        sources = [build(schema, lam) for lam in range(p**r)]
        sources += [*lib.simples.values(), *lib.projectives.values()]
        for m in sources:
            if len(m._spin_plan.generators) != 1:
                continue
            for s in lib.simples.values():
                if vermalab.modules._first_layer_forces_zero(m, s):
                    assert hom_space(m, s) == []
                    ruled_out += 1
    assert ruled_out > 100


def test_two_generator_source_gets_the_tops_of_a_full_solve(monkeypatch):
    fresh_memo(monkeypatch)
    schema, lib = Sl2Schema(5, 2), library(5, 2)
    m = direct_sum([build_verma_r2(schema, 3), build_verma_r2(schema, 12)])
    assert len(m._spin_plan.generators) == 2
    solved = {key: len(hom_space(m, s)) for key, s in lib.simples.items()}
    assert top_multiplicities(m, lib) == {k: n for k, n in solved.items() if n}
    assert top_multiplicities(m, lib) == {"L3": 1, "L12": 1}


def test_library_checks_that_the_covers_exhaust_the_algebra(monkeypatch):
    covers = {**restricted_projectives(3), "L0": restricted_simples(3)["L0"]}
    monkeypatch.setattr(vermalab.sl2, "restricted_projectives", lambda p: covers)
    with pytest.raises(CertificateError, match="p\\^3 = 27"):
        library.__wrapped__(3, 1)


def test_library_completeness_survives_optimized_python():
    code = (
        "import vermalab.sl2 as sl2\n"
        "from vermalab.modules import CertificateError\n"
        "covers = {**sl2.restricted_projectives(3), 'L0': sl2.restricted_simples(3)['L0']}\n"
        "sl2.restricted_projectives = lambda p: covers\n"
        "try:\n"
        "    sl2.library.__wrapped__(3, 1)\n"
        "except CertificateError:\n"
        "    print('refused')\n"
    )
    assert run_optimized(code) == ["refused"]


def test_vermas_of_distinct_weights_not_isomorphic():
    s = Sl2Schema(5, 1)
    assert not is_isomorphic(build_verma_r1(s, 2), build_verma_r1(s, 1))


def test_cover_indecomposable_steinberg_projective_simple():
    p = 5
    lib = library(p, 1)
    assert is_indecomposable(lib.projectives["L2"])
    st = steinberg(Sl2Schema(p, 1))
    assert is_projective_module(st, lib)
    assert radical_submodule(st, lib).shape[1] == 0


# -- level-2 structure ---------------------------------------------------

def test_verma_r2_dimension_and_top_weight_case():
    for p in (3, 5):
        s2 = Sl2Schema(p, 2)
        z = build_verma_r2(s2, p * p - 1)
        assert z.dim == p * p
        st1 = steinberg(Sl2Schema(p, 1))
        assert bool(is_isomorphic(restrict_to_r1(z), direct_sum([st1] * p)))


@settings(max_examples=30, deadline=None)
@given(lam=st.integers(0, 24))
def test_verma_r2_character(lam):
    p = 5
    from vermalab.modules import eigenvalue_multiplicities

    z = build_verma_r2(Sl2Schema(p, 2), lam)
    got = eigenvalue_multiplicities(z.field, z.ops["h"])
    want: dict[int, int] = {}
    for i in range(p * p):
        w = (lam - 2 * i) % p
        want[w] = want.get(w, 0) + 1
    assert got == want


def test_hyper_simple_dims():
    p = 3
    simples = hyper_simples(p)
    for lam1 in range(p):
        for lam0 in range(p):
            mod = simples[simple_key(lam0 + p * lam1)]
            assert mod.dim == (lam0 + 1) * (lam1 + 1)
    assert radical_submodule(simples["L5"], ModuleLibrary(simples)).shape[1] == 0


def test_lifted_covers_restrict_to_level1_covers():
    p = 3
    covers = restricted_projectives(p)
    for lam, lifted in lifted_projectives(p).items():
        res = restrict_to_r1(lifted)
        assert bool(is_isomorphic(res, covers[simple_key(lam)]))


# -- tensor and twist ----------------------------------------------------

def test_tensor_dimension_and_unit():
    p = 5
    s = Sl2Schema(p, 1)
    triv = build_simple(s, 0)
    z = build_verma_r1(s, 3)
    t = tensor(z, triv)
    assert t.dim == z.dim
    assert bool(is_isomorphic(t, z))
    big = tensor(z, build_simple(s, 2))
    assert big.dim == z.dim * 3


def tensor_oracle_cases(p):
    s1, s2 = Sl2Schema(p, 1), Sl2Schema(p, 2)
    f = s1.field
    lifted = [restricted_as_r2(build_simple(s1, lam)) for lam in (p - 3, 3)]
    return [
        (build_simple(s1, 2), build_verma_r1(s1, 3)),
        (steinberg(s1), build_simple(s1, 1)),
        # e^(i) and e^(p-i) both act for some 0 < i < p, so the middle
        # terms of the coproduct of e_p and f_p are nonzero
        (lifted[0], lifted[1]),
        (build_verma_r2(s2, p + 2), lifted[1]),
        (frobenius_twist(build_simple(s1, 2)), build_verma_r2(s2, 1)),
        (FpModule(f, 0, {x: f.zeros(0, 0) for x in s2.labels}), lifted[1]),
    ]


@pytest.mark.parametrize("p", [7, 11])
def test_tensor_matches_the_kron_sum_oracle(p):
    cases = tensor_oracle_cases(p)
    for m, n in cases:
        assert m.dim != n.dim
        for left, right in ((m, n), (n, m)):
            t = tensor(left, right)
            want = reference_tensor(left, right)
            assert t.labels == tuple(want) and t.dim == left.dim * right.dim
            for label in t.labels:
                assert np.array_equal(t.ops[label], want[label]), (p, left.dim, right.dim, label)
    m, n = cases[2]
    f = m.field
    ends = f.add(np.kron(m.ops["e_p"], f.identity(n.dim)), np.kron(f.identity(m.dim), n.ops["e_p"]))
    assert not np.array_equal(tensor(m, n).ops["e_p"], ends)


def test_tensor_schema_mismatch():
    s1 = Sl2Schema(5, 1)
    with pytest.raises(SchemaMismatch):
        tensor(build_simple(s1, 1), restricted_as_r2(build_simple(s1, 1)))
    with pytest.raises(SchemaMismatch):
        tensor(build_simple(s1, 1), build_simple(Sl2Schema(3, 1), 1))


def test_steinberg_tensor_simple_is_projective():
    p = 5
    s = Sl2Schema(p, 1)
    lib = library(p, 1)
    st = steinberg(s)
    for m in range(p):
        assert is_projective_module(tensor(st, build_simple(s, m)), lib)


def test_twist_kills_level1_generators():
    s = Sl2Schema(3, 1)
    tw = frobenius_twist(build_verma_r1(s, 1))
    for label in ("e", "f", "h"):
        assert not tw.ops[label].any()
    assert np.array_equal(tw.ops["e_p"], build_verma_r1(s, 1).ops["e"])


def test_twist_of_trivial_is_trivial():
    s = Sl2Schema(3, 1)
    tw = frobenius_twist(build_simple(s, 0))
    assert tw.dim == 1
    assert all(not m.any() for m in tw.ops.values())


def test_depth_reduced_verma_factors_frozen():
    # p=3: twist of the weight-1 module tensored with the top simple
    # gives the level-2 module of weight 3*1 + 2 = 5
    p = 3
    s1 = Sl2Schema(p, 1)
    s2 = Sl2Schema(p, 2)
    left = build_verma_r2(s2, 5)
    right = tensor(frobenius_twist(build_verma_r1(s1, 1)), restricted_as_r2(steinberg(s1)))
    assert bool(is_isomorphic(left, right))


# -- rank varieties ------------------------------------------------------

def test_scan_of_steinberg_is_empty():
    p = 5
    st = steinberg(Sl2Schema(p, 1))
    for q in (p, p * p):
        scan = rank_variety_scan(st, q)
        assert scan.points == []
        assert scan.dim_estimate == 0


def test_scan_of_verma_frozen():
    # p=5, weight 2: non-free exactly at the raising direction
    p = 5
    z = build_verma_r1(Sl2Schema(p, 1), 2)
    for q in (p, p * p):
        scan = rank_variety_scan(z, q)
        assert scan.points == [(1, 0, 0)]
        assert scan.dim_estimate == 1


def test_scan_e_and_f_point_rule():
    for p in (3, 5):
        s = Sl2Schema(p, 1)
        for lam in range(p):
            pts = rank_variety_scan(build_verma_r1(s, lam), p).points
            assert (0, 0, 1) not in pts
            assert ((1, 0, 0) in pts) == (lam != p - 1)


def test_scan_of_zero_action_module_sees_everything():
    p = 3
    f = GF(p)
    zero = f.zeros(p, p)
    mod = FpModule(f, p, {"e": zero, "f": zero.copy(), "h": zero.copy()})
    scan = rank_variety_scan(mod, p)
    assert len(scan.points) == p + 1
    assert scan.dim_estimate == 2


def test_scan_errors():
    s = Sl2Schema(3, 1)
    with pytest.raises(DimensionNotDivisible):
        rank_variety_scan(build_simple(s, 1), 3)
    with pytest.raises(ValueError):
        rank_variety_scan(build_verma_r1(s, 1), 27)
    with pytest.raises(SchemaMismatch):
        rank_variety_scan(restricted_as_r2(build_verma_r1(s, 1)), 3)


def test_scan_empty_iff_projective_on_corpus():
    p = 3
    s = Sl2Schema(p, 1)
    lib = library(p, 1)
    corpus = [build_verma_r1(s, lam) for lam in range(p)]
    corpus += list(lib.projectives.values())
    corpus.append(tensor(steinberg(s), build_simple(s, 1)))
    for mod in corpus:
        empty = rank_variety_scan(mod, p).points == []
        assert empty == is_projective_module(mod, lib)


# -- verification suites -------------------------------------------------

def test_suites_pass_p3():
    for r in (1, 2):
        for rep in run_sl2_suites(3, r):
            assert rep.passed, rep.check
            assert rep.p == 3 and rep.r == r


def test_suites_pass_p5_level1():
    for rep in run_sl2_suites(5, 1):
        assert rep.passed, rep.check


def test_depth_reduction_suite_p5():
    rep = verify_dr2(5)
    assert rep.passed
    assert [c["mu"] for c in rep.cases] == [0, 1, 2, 3]
    assert all(c["witness"] for c in rep.cases)


def test_projectivity_suite_identifies_exact_sets():
    rep = verify_vv6(5, 1)
    winners = [c["lambda"] for c in rep.cases if c["kind"] == "projectivity" and c["got"]]
    assert winners == [4]
    rep2 = verify_vv6(3, 2)
    winners2 = [c["lambda"] for c in rep2.cases if c["kind"] == "projectivity" and c["got"]]
    assert winners2 == [8]


def test_heart_partners_frozen():
    rep = verify_heart(5)
    partners = {c["lambda"]: c["mu"] for c in rep.cases}
    assert partners == {0: 3, 1: 2, 2: 1, 3: 0}


def test_suite_without_cases_fails():
    assert _finish("projectivity-criterion", 3, 1, []).passed is False


def test_suite_reports_serialize():
    rep = verify_dr2(3)
    d = rep.to_json_dict()
    assert d["check"] == "depth-reduction-tensor"
    assert d["pass"] is True
    assert isinstance(d["cases"], list)

