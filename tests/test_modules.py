import dataclasses
import hashlib
import os
import subprocess
import sys
from itertools import combinations_with_replacement, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vermalab
from oracles import (
    brute_radical,
    has_nontrivial_idempotent,
    integer_power_trace,
    intertwiner_basis,
    power_trace_mod,
    random_matrix,
    reference_radical_chain,
    reference_spin_up,
)
from vermalab.gf import GF
from vermalab.modules import (
    CertificateError,
    _power_traces,
    _SpanBasis,
    _spin_up,
    FpModule,
    MissingProjective,
    ModuleLibrary,
    SchemaMismatch,
    Undecided,
    algebra_radical,
    build_extension,
    decompose,
    direct_sum,
    dump_text,
    eigenvalue_multiplicities,
    ext1_coboundaries,
    ext1_cocycles,
    ext1_dim,
    fitting_split,
    hom_space,
    is_indecomposable,
    is_isomorphic,
    is_projective_module,
    parse_text,
    projective_cover,
    quotient_by_columns,
    radical_submodule,
    restrict_labels,
    socle_multiplicities,
    socle_submodule,
    submodule_from_columns,
    syzygy,
    top_multiplicities,
    zero_module_like,
)
from vermalab.sl2 import (
    Sl2Schema,
    build_verma_r1,
    build_verma_r2,
    build_simple,
    hyper_projectives,
    library,
    restricted_projectives,
    restricted_simples,
)


def nilpotent_block(n):
    mat = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        mat[i + 1, i] = 1
    return mat


def jordan(p, *sizes):
    """Module over k[t]/(t^p) that is a direct sum of nilpotent blocks."""
    assert all(1 <= s <= p for s in sizes)
    dim = sum(sizes)
    mat = np.zeros((dim, dim), dtype=np.int64)
    at = 0
    for s in sizes:
        mat[at : at + s, at : at + s] = nilpotent_block(s)
        at += s
    return FpModule(GF(p), dim, {"t": mat})


def jordan_world(p):
    return ModuleLibrary({"k": jordan(p, 1)}, {"k": jordan(p, p)})


def conjugate(mod, seed):
    f = mod.field
    rng = np.random.default_rng(seed)
    while True:
        g = random_matrix(f, rng, mod.dim, mod.dim)
        if f.is_invertible(g):
            break
    ginv = f.inverse(g)
    ops = {l: f.matmul(g, f.matmul(m, ginv)) for l, m in mod.ops.items()}
    return FpModule(f, mod.dim, ops)


def as_lists(mod):
    return {l: m.tolist() for l, m in mod.ops.items()}


# -- hom spaces ----------------------------------------------------------

def test_hom_dims_between_jordan_blocks():
    for p in (3, 5):
        for a in range(1, p + 1):
            for b in range(1, p + 1):
                homs = hom_space(jordan(p, a), jordan(p, b))
                assert len(homs) == min(a, b)


def test_hom_matches_brute_oracle_one_generator():
    p = 3
    pairs = [
        (jordan(p, 2), jordan(p, 3)),
        (jordan(p, 1, 2), jordan(p, 3)),
        (conjugate(jordan(p, 2, 2), 5), jordan(p, 2, 1)),
        (conjugate(jordan(p, 3), 9), conjugate(jordan(p, 3), 11)),
    ]
    for m, n in pairs:
        want = intertwiner_basis(as_lists(m), as_lists(n), p)
        assert len(hom_space(m, n)) == len(want)


def test_hom_matches_brute_oracle_two_generators():
    p = 3
    f = GF(p)
    na = np.kron(nilpotent_block(2), np.eye(2, dtype=np.int64))
    nb = np.kron(np.eye(2, dtype=np.int64), nilpotent_block(2))
    regular = FpModule(f, 4, {"a": na, "b": nb})
    small = FpModule(f, 2, {"a": nilpotent_block(2), "b": np.zeros((2, 2), dtype=np.int64)})
    for m, n in [(regular, regular), (small, regular), (regular, small)]:
        want = intertwiner_basis(as_lists(m), as_lists(n), p)
        got = hom_space(m, n)
        assert len(got) == len(want)
        for h in got:
            for label in m.labels:
                assert np.array_equal(
                    f.matmul(h, m.ops[label]), f.matmul(n.ops[label], h)
                )


def test_hom_survives_forced_zero_on_first_generator():
    # the image of the first generator is forced to zero by a weight
    # relation; the hom supported on the second generator must survive
    p = 3
    f = GF(p)
    m = FpModule(f, 2, {"d": np.diag([1, 0]).astype(np.int64)})
    n = FpModule(f, 1, {"d": np.zeros((1, 1), dtype=np.int64)})
    got = hom_space(m, n)
    want = intertwiner_basis(as_lists(m), as_lists(n), p)
    assert len(got) == len(want) == 1


def assert_hom_matches_oracle(m, n):
    # same span as the entry-by-entry oracle, flattened row-major
    p = m.field.p
    got = [h.reshape(-1) for h in hom_space(m, n)]
    want = intertwiner_basis(as_lists(m), as_lists(n), p)
    assert len(got) == len(want)
    if got:
        stacked = np.vstack(got + [np.array(want, dtype=np.int64)])
        assert m.field.rank(stacked) == len(got)


def test_hom_restricts_generators_to_matching_eigenspaces():
    # h is diagonal on a Verma module and on a sum of them; conjugating
    # a module by a random change of basis makes its h non-diagonal
    schema = Sl2Schema(5, 1)
    verma = build_verma_r1(schema, 3)
    summed = direct_sum([verma, restricted_simples(5)["L3"]])
    twisted = conjugate(verma, 4)
    assert "h" in verma._diagonals and "h" in summed._diagonals
    assert "h" not in twisted._diagonals
    cases = [
        (verma, summed),  # diagonal in both
        (summed, verma),
        (verma, twisted),  # in the source only
        (twisted, summed),  # in the target only
        (twisted, conjugate(summed, 6)),  # in neither
    ]
    for m, n in cases:
        assert_hom_matches_oracle(m, n)


def test_hom_between_disjoint_weights_is_zero():
    # L(2) has weights 2, 0, 3 and L(1) has weights 1, 4 at p = 5
    simples = restricted_simples(5)
    assert hom_space(simples["L2"], simples["L1"]) == []
    assert hom_space(simples["L1"], simples["L2"]) == []
    assert_hom_matches_oracle(simples["L2"], simples["L1"])


def jordan_f9(*sizes):
    """Jordan blocks over k[t]/(t^3) with the field extended to F_9."""
    return FpModule(GF(3, 2), sum(sizes), {"t": jordan(3, *sizes).ops["t"]})


def spin_corpus():
    """Modules whose spin plans are pinned to the reference spin-up."""
    mods = []
    for p in (3, 5, 7):
        for r, build in ((1, build_verma_r1), (2, build_verma_r2)):
            schema = Sl2Schema(p, r)
            mods += [build(schema, lam) for lam in range(p**r)]
    for p in (3, 5):
        for r in (1, 2):
            lib = library(p, r)
            mods += [*lib.simples.values(), *lib.projectives.values()]
    mods += [jordan_f9(3), jordan_f9(1, 2)]
    mods += [conjugate(jordan_f9(2, 2), 5), conjugate(jordan_f9(1, 1, 2), 9)]
    schema = Sl2Schema(3, 1)
    mods += [
        conjugate(build_verma_r1(schema, 1), 4),
        conjugate(restricted_projectives(3)["L0"], 3),
        conjugate(direct_sum([build_verma_r1(schema, 0), restricted_simples(3)["L1"]]), 8),
    ]
    return mods


def test_spin_plans_match_the_reference_spin_up():
    # one reduction pass per layer finds the same generators, layers,
    # relations and inverse as two echelon forms per layer and an inverse
    mods = spin_corpus()
    assert any(m.field.k == 2 for m in mods)
    assert any("h" in m.ops and "h" not in m._diagonals for m in mods)
    for m in mods:
        plan = _spin_up(m)
        generators, binv = reference_spin_up(m)
        assert np.array_equal(plan.binv, binv)
        assert [start for start, _ in plan.generators] == [start for start, _ in generators]
        for (_, layers), (_, want) in zip(plan.generators, generators):
            got = [(l.start, l.stop, l.new, l.dep, l.coeffs) for l in layers]
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a[:2] == b[:2]
                for x, y in zip(a[2:], b[2:]):
                    assert x.shape == y.shape and np.array_equal(x, y)


def test_spin_up_refuses_a_corrupted_relation(monkeypatch):
    # the first layer's candidates are hidden from the reduction once, so
    # f v_0 is recorded as dependent on v_0 alone; the later generators
    # still complete the basis, and only the relation check can refuse
    true_extend = _SpanBasis.extend
    hidden = []

    def hide_first_layer(self, cands):
        if len(cands) > 1 and not hidden:
            hidden.append(cands)
            cands = np.zeros_like(cands)
        return true_extend(self, cands)

    monkeypatch.setattr(_SpanBasis, "extend", hide_first_layer)
    with pytest.raises(CertificateError, match="spin-up relation does not hold"):
        _spin_up(build_verma_r1(Sl2Schema(3, 1), 0))
    assert hidden


def hom_digest_corpus():
    """Module pairs whose hom-space bases are pinned bit for bit."""
    pairs = []
    for p in (3, 5):
        schema = Sl2Schema(p, 1)
        level1 = [
            *restricted_simples(p).values(),
            *(build_verma_r1(schema, lam) for lam in range(p)),
            *restricted_projectives(p).values(),
        ]
        pairs += [(m, n) for m in level1 for n in level1]
    vermas2 = [build_verma_r2(Sl2Schema(3, 2), lam) for lam in range(9)]
    covers2 = list(hyper_projectives(3).values())
    pairs += [(m, n) for m in vermas2 + covers2 for n in vermas2]
    pairs += [(c, c) for c in covers2]
    schema = Sl2Schema(3, 1)
    summed = direct_sum(
        [build_verma_r1(schema, 0), restricted_simples(3)["L1"], restricted_projectives(3)["L2"]]
    )
    others = [build_verma_r1(schema, lam) for lam in range(3)]
    pairs += [(summed, summed)] + [(summed, n) for n in others] + [(m, summed) for m in others]
    f9 = [
        jordan_f9(3),
        jordan_f9(1, 2),
        conjugate(jordan_f9(2, 2), 5),
        conjugate(jordan_f9(3, 1), 7),
        conjugate(jordan_f9(1, 1, 2), 9),
    ]
    pairs += [(m, n) for m in f9 for n in f9]
    return pairs


def hom_basis_digest(pairs):
    h = hashlib.sha256()
    for m, n in pairs:
        homs = hom_space(m, n)
        h.update(f"{len(homs)}:{n.dim}x{m.dim};".encode())
        for mat in homs:
            h.update(np.ascontiguousarray(mat, dtype="<i8").tobytes())
    return h.hexdigest()


# sha256 of the bases over hom_digest_corpus(), recorded with the
# one-vector-at-a-time spin-up that the layered one replaced
RECORDED_HOM_DIGEST = "5b1e49860999bbfee999b3fc4ad07cedf72ee3c0481ba1f7a8dafa5a218fa2a1"


def test_hom_bases_match_recorded_digest():
    pairs = hom_digest_corpus()
    assert any(m.field.k == 2 and hom_space(m, n) for m, n in pairs)
    assert hom_basis_digest(pairs) == RECORDED_HOM_DIGEST


# -- the process-wide memo ------------------------------------------------

def test_memo_keys_by_content(monkeypatch):
    # level-2 Vermas whose weights agree mod p restrict to level 1 as
    # modules equal in content but built separately; they share one entry
    monkeypatch.setattr(vermalab.modules, "_MEMO", {})
    s2 = Sl2Schema(5, 2)
    a, b, c = (restrict_labels(build_verma_r2(s2, lam), ["e", "f", "h"]) for lam in (4, 9, 3))
    assert a is not b and a._digest == b._digest != c._digest
    assert restrict_labels(a, ["f", "e", "h"])._digest != a._digest
    steinbergs = direct_sum([build_verma_r1(Sl2Schema(5, 1), 4)] * 5)
    calls = []

    def counting(m, n):
        calls.append((m, n))
        return hom_space(m, n)

    monkeypatch.setattr(vermalab.modules, "hom_space", counting)
    assert is_isomorphic(a, steinbergs) and is_isomorphic(b, steinbergs)
    assert len(calls) == 1


def test_memo_hands_out_read_only_arrays_in_fresh_lists(monkeypatch):
    monkeypatch.setattr(vermalab.modules, "_MEMO", {})
    lib = library(3, 1)
    z = build_verma_r1(Sl2Schema(3, 1), 0)
    homs = vermalab.modules._hom(z, build_simple(Sl2Schema(3, 1), 0))
    assert [h.tolist() for h in homs] == [
        h.tolist() for h in hom_space(z, build_simple(Sl2Schema(3, 1), 0))
    ]
    with pytest.raises(ValueError, match="read-only"):
        homs[0][0, 0] = 1
    homs.clear()
    assert len(vermalab.modules._hom(z, build_simple(Sl2Schema(3, 1), 0))) == 1
    syz = syzygy(z, lib)
    for arr in (syz.inclusion, syz.cover.map, projective_cover(z, lib).map):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1
    syz.cover.summand_labels.append("L1")
    assert syzygy(z, lib).cover.summand_labels == projective_cover(z, lib).summand_labels == ["L0"]
    # nor can the content the digest covers
    with pytest.raises(TypeError):
        z.ops["e"] = z.ops["f"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        z.dim = 2


CORRUPTED_INVERSE = """
from vermalab.modules import CertificateError, _SpanBasis, hom_space
from vermalab.sl2 import Sl2Schema, build_verma_r1

assert not __debug__
true_inverse = _SpanBasis.inverse


def corrupted(self):
    x = true_inverse(self)
    x[0, 0] = self.f.add(x[0, 0], 1)
    return x


_SpanBasis.inverse = corrupted
z = build_verma_r1(Sl2Schema(3, 1), 0)
try:
    hom_space(z, z)
except CertificateError as err:
    print(err)
"""


def test_hom_certificates_survive_optimized_python():
    # python -O strips asserts; a corrupted spin-up inverse, assembled from
    # the reduced basis, must still be refused by the basis * binv = I check
    env = {**os.environ, "PYTHONPATH": str(Path(vermalab.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_INVERSE],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "spin-up basis times its assembled inverse is not the identity"


def test_module_operators_are_read_only():
    m = jordan(3, 2)
    with pytest.raises(ValueError):
        m.ops["t"][0, 0] = 1


def test_hom_schema_mismatch():
    m = jordan(3, 2)
    other = FpModule(GF(3), 2, {"s": nilpotent_block(2)})
    with pytest.raises(SchemaMismatch):
        hom_space(m, other)
    with pytest.raises(SchemaMismatch):
        hom_space(m, jordan(5, 2))


def test_hom_with_zero_module():
    m = jordan(3, 2)
    assert hom_space(m, zero_module_like(m)) == []
    assert hom_space(zero_module_like(m), m) == []


# -- radical, top, socle -------------------------------------------------

def test_library_rejects_invalid_contents():
    # t^2 = -1 over F_3: simple, but End is F_9, so not absolutely simple
    rotation = FpModule(GF(3), 2, {"t": np.array([[0, 2], [1, 0]], dtype=np.int64)})
    with pytest.raises(ValueError, match="absolutely simple"):
        ModuleLibrary({"k": rotation})
    with pytest.raises(ValueError):
        ModuleLibrary({"k": jordan(3, 1), "j": jordan(5, 1)})
    with pytest.raises(ValueError):
        ModuleLibrary({"k": jordan(3, 1), "s": FpModule(GF(3), 1, {"s": np.zeros((1, 1))})})
    with pytest.raises(ValueError):
        ModuleLibrary({"k": jordan(3, 1)}, {"k": jordan(3, 3), "x": jordan(3, 3)})
    with pytest.raises(ValueError):
        ModuleLibrary({"k": jordan(3, 1)}, {"k": jordan(5, 5)})



def test_radical_and_top_of_blocks():
    p = 5
    lib = jordan_world(p)
    for n in range(1, p + 1):
        m = jordan(p, n)
        rad = radical_submodule(m, lib)
        assert rad.shape[1] == n - 1
        assert top_multiplicities(m, lib) == {"k": 1}
    m = jordan(p, 2, 3)
    assert radical_submodule(m, lib).shape[1] == 3
    assert top_multiplicities(m, lib) == {"k": 2}


def test_socle_of_blocks():
    p = 5
    lib = jordan_world(p)
    assert socle_submodule(jordan(p, 4), lib).shape[1] == 1
    assert socle_multiplicities(jordan(p, 2, 3), lib) == {"k": 2}


# -- submodules and quotients -------------------------------------------

def test_submodule_of_jordan_block():
    p, n, k = 5, 4, 2
    m = jordan(p, n)
    cols = np.zeros((n, k), dtype=np.int64)
    for i in range(k):
        cols[n - k + i, i] = 1
    sub, incl = submodule_from_columns(m, cols)
    assert sub.dim == k
    assert bool(is_isomorphic(sub, jordan(p, k)))
    quot, proj, sect = quotient_by_columns(m, cols)
    assert quot.dim == n - k
    assert bool(is_isomorphic(quot, jordan(p, n - k)))
    f = m.field
    assert np.array_equal(f.matmul(proj, sect), f.identity(n - k))


def test_unstable_columns_rejected():
    m = jordan(5, 3)
    cols = np.zeros((3, 1), dtype=np.int64)
    cols[0, 0] = 1  # generator: not t-stable as a 1-dim span
    with pytest.raises(ValueError):
        submodule_from_columns(m, cols)
    with pytest.raises(ValueError):
        quotient_by_columns(m, cols)


# -- covers and syzygies -------------------------------------------------

def test_projective_cover_of_blocks():
    p = 5
    lib = jordan_world(p)
    for n in (1, 2, 4, 5):
        cover = projective_cover(jordan(p, n), lib)
        assert cover.module.dim == p
        assert cover.summand_labels == ["k"]
    cover = projective_cover(jordan(p, 2, 3), lib)
    assert cover.module.dim == 2 * p
    assert cover.summand_labels == ["k", "k"]


def test_syzygy_dims_and_heller_periodicity():
    p = 5
    lib = jordan_world(p)
    for n in range(1, p):
        omega = syzygy(jordan(p, n), lib)
        assert omega.module.dim == p - n
        omega2 = syzygy(omega.module, lib)
        assert bool(is_isomorphic(omega2.module, jordan(p, n)))


def test_syzygy_additive_over_direct_sums():
    p = 5
    lib = jordan_world(p)
    m = jordan(p, 2, 4)
    omega = syzygy(m, lib)
    assert omega.module.dim == (p - 2) + (p - 4)


def test_ext1_and_projectivity():
    p = 5
    lib = jordan_world(p)
    triv = lib.simples["k"]
    for n in range(1, p):
        assert ext1_dim(jordan(p, n), triv, lib) == 1
        assert not is_projective_module(jordan(p, n), lib)
    assert ext1_dim(jordan(p, p), triv, lib) == 0
    assert is_projective_module(jordan(p, p), lib)
    assert is_projective_module(jordan(p, p, p), lib)
    assert not is_projective_module(jordan(p, p, 2), lib)


def ext1_cases():
    """(m, n, lib, ar): the AR family Ext^1(Z, Omega^2 Z) of the
    non-projective level-1 baby Vermas at p = 3, 5, 7 (ar true), and every
    pair of level-1 simples at p = 3, 5."""
    cases = []
    for p in (3, 5, 7):
        lib = library(p, 1)
        for lam in range(p - 1):
            z = build_verma_r1(Sl2Schema(p, 1), lam)
            cases.append((z, syzygy(syzygy(z, lib).module, lib).module, lib, True))
    for p in (3, 5):
        lib = library(p, 1)
        cases += [(a, b, lib, False) for a in lib.simples.values() for b in lib.simples.values()]
    return cases


def test_ext1_cocycles_are_the_basis_elements_off_the_coboundaries():
    for m, n, lib, ar in ext1_cases():
        f = m.field
        syz, cocycles = ext1_cocycles(m, n, lib)
        homs = hom_space(syz.module, n)
        cob = [c.reshape(-1) for c in ext1_coboundaries(syz, n)]
        rank = lambda vecs: f.rank(np.stack(vecs)) if vecs else 0
        # dim Ext^1 = dim Hom(syzygy, n) - rank of the coboundaries
        assert len(cocycles) == ext1_dim(m, n, lib) == len(homs) - rank(cob)
        # a basis element is a cocycle exactly when it lies outside the span
        # of the coboundaries and of the basis elements before it
        outside = [
            h for i, h in enumerate(homs)
            if rank(cob + [g.reshape(-1) for g in homs[: i + 1]])
            > rank(cob + [g.reshape(-1) for g in homs[:i]])
        ]
        assert len(outside) == len(cocycles)
        assert all(np.array_equal(a, b) for a, b in zip(outside, cocycles))
        # the almost split sequence needs a nonzero class
        assert len(cocycles) >= 1 or not ar


def test_ext1_general_target_subtracts_coboundaries():
    # over k[t]/(t^p): dim Ext^1(J_a, J_b) = min(a, b, p-a, p-b)
    p = 5
    lib = jordan_world(p)
    for a in range(1, p + 1):
        for b in range(1, p + 1):
            got = ext1_dim(jordan(p, a), jordan(p, b), lib)
            assert got == min(a, b, p - a, p - b)


def test_missing_projective():
    p = 3
    lib = jordan_world(p)
    with pytest.raises(MissingProjective):
        projective_cover(jordan(p, 2), ModuleLibrary(lib.simples))
    with pytest.raises(MissingProjective):
        is_projective_module(jordan(p, 2), ModuleLibrary(lib.simples))


def test_projectivity_by_dimension_matches_syzygy():
    cases = []
    for p in (3, 5):
        lib = library(p, 1)
        schema = Sl2Schema(p, 1)
        level1 = [
            *lib.simples.values(),
            *lib.projectives.values(),
            *(build_verma_r1(schema, lam) for lam in range(p)),
        ]
        cases += [(m, lib) for m in level1]
        world = jordan_world(p)
        sums = [(1,), (p,), (p, p), (2, p), (1, 2, p), (p - 1, p - 1)]
        cases += [(jordan(p, *sizes), world) for sizes in sums]
    verdicts = [is_projective_module(m, lib) for m, lib in cases]
    assert verdicts == [syzygy(m, lib).module.dim == 0 for m, lib in cases]
    assert any(verdicts) and not all(verdicts)
    # t acts invertibly, so nothing maps onto the trivial simple
    unit = FpModule(GF(3), 1, {"t": np.ones((1, 1), dtype=np.int64)})
    for decide in (is_projective_module, syzygy):
        with pytest.raises(ValueError, match="zero top"):
            decide(unit, jordan_world(3))


# -- extensions ----------------------------------------------------------

def test_extension_nonzero_cocycle_glues():
    p = 5
    lib = jordan_world(p)
    triv = jordan(p, 1)
    syz = syzygy(triv, lib)
    cocycles = hom_space(syz.module, triv)
    assert len(cocycles) == 1
    ext = build_extension(triv, syz, cocycles[0])
    assert ext.module.dim == 2
    assert bool(is_isomorphic(ext.module, jordan(p, 2)))


def test_extension_zero_cocycle_splits():
    p = 5
    lib = jordan_world(p)
    triv = jordan(p, 1)
    syz = syzygy(triv, lib)
    zero = np.zeros((1, syz.module.dim), dtype=np.int64)
    ext = build_extension(triv, syz, zero)
    assert bool(is_isomorphic(ext.module, jordan(p, 1, 1)))


# -- isomorphism ---------------------------------------------------------

def test_iso_reflexive_with_witness():
    p = 5
    m = conjugate(jordan(p, 3), 2)
    res = is_isomorphic(m, m)
    assert res and res.witness is not None
    assert m.field.is_invertible(res.witness)


def test_iso_distinguishes_block_sizes():
    p = 5
    assert not is_isomorphic(jordan(p, 2), jordan(p, 3))
    assert not is_isomorphic(jordan(p, 2), jordan(p, 1, 1))


def test_iso_sum_permutation():
    p = 3
    assert bool(is_isomorphic(jordan(p, 1, 3), jordan(p, 3, 1)))


def test_iso_conjugated_pair():
    p = 3
    m = jordan(p, 2, 3)
    res = is_isomorphic(m, conjugate(m, 7))
    assert res
    f = m.field
    h = res.witness
    assert f.is_invertible(h)


# -- Fitting splits and decomposition -----------------------------------

def test_fitting_split_block_projection():
    p = 5
    m = jordan(p, 2, 3)
    endo = np.zeros((5, 5), dtype=np.int64)
    for i in range(2, 5):
        endo[i, i] = 1
    (a, _), (b, _) = fitting_split(m, endo)
    assert sorted([a.dim, b.dim]) == [2, 3]


def test_fitting_split_rejects_invertible():
    # an invertible power keeps everything and a zero one nothing: no split
    m = jordan(5, 3)
    assert fitting_split(m, np.eye(3, dtype=np.int64)) is None
    assert fitting_split(m, m.ops["t"]) is None


def test_decompose_recovers_blocks():
    p = 5
    parts = decompose(jordan(p, 2, 4))
    assert sorted(x.dim for x in parts) == [2, 4]
    only = decompose(jordan(p, 3))
    assert len(only) == 1 and only[0].dim == 3
    assert decompose(zero_module_like(jordan(p, 1))) == []


def test_decompose_three_blocks():
    p = 3
    parts = decompose(jordan(p, 1, 2, 3))
    assert sorted(x.dim for x in parts) == [1, 2, 3]


# -- indecomposability ---------------------------------------------------

def test_indecomposable_jordan_blocks():
    for p in (3, 5):
        for n in range(1, p + 1):
            assert is_indecomposable(jordan(p, n))


def test_decomposable_double_block():
    # End quotient is a 2x2 matrix algebra: noncommutative path
    assert not is_indecomposable(jordan(3, 2, 2))
    assert not is_indecomposable(jordan(5, 1, 1))


def test_indecomposable_quadratic_field_endos():
    # companion matrix of an irreducible quadratic: End is the field F_9
    p = 3
    c = 2  # nonresidue mod 3
    mat = np.array([[0, c], [1, 0]], dtype=np.int64)
    m = FpModule(GF(p), 2, {"s": mat})
    assert is_indecomposable(m)


def test_decomposable_split_etale_endos():
    # distinct eigenvalues: End is F_3 x F_3, commutative but not a field
    m = FpModule(GF(3), 2, {"s": np.diag([1, 2]).astype(np.int64)})
    assert not is_indecomposable(m)


def test_mixed_blocks_decomposable():
    assert not is_indecomposable(jordan(5, 2, 3))


def companion(p, degree):
    """Companion matrix of the first monic polynomial of the degree
    (2 or 3) with no root mod p, so irreducible: End is F_{p^degree}."""
    for low in product(range(p), repeat=degree):
        if all((x**degree + sum(c * x**i for i, c in enumerate(low))) % p for x in range(p)):
            mat = np.zeros((degree, degree), dtype=np.int64)
            mat[1:, :-1] = np.eye(degree - 1, dtype=np.int64)
            mat[:, -1] = [-c % p for c in low]
            return mat
    raise ValueError(f"no irreducible polynomial of degree {degree} mod {p}")


def locality_family():
    """(module, its End(m)/rad or kind) for the oracle comparison."""
    mods = []
    for p in (2, 3, 5):
        f = GF(p)
        for n in range(1, 4):
            for sizes in combinations_with_replacement(range(1, p + 1), n):
                mods.append((jordan(p, *sizes), f"Jordan {sizes} at p={p}"))
        fields = []
        for degree in (2, 3):
            c = companion(p, degree)
            name = f"F_p^{degree}"
            one = FpModule(f, degree, {"s": c})
            fields.append(one)
            glued = np.block([[c, np.eye(degree, dtype=np.int64)], [np.zeros_like(c), c]])
            mods.append((one, name))
            mods.append((direct_sum([one, one]), f"M_2({name})"))
            mods.append((FpModule(f, 2 * degree, {"s": glued}), f"{name}[t]/t^2"))
        mods.append((direct_sum(fields), "F_p^2 x F_p^3"))
    for p in (3, 5):
        lib = library(p, 1)
        vermas = [build_verma_r1(Sl2Schema(p, 1), lam) for lam in range(p)]
        mods += [(s, f"simple at p={p}") for s in lib.simples.values()]
        mods += [(c, f"cover at p={p}") for c in lib.projectives.values()]
        mods += [(z, f"Verma at p={p}") for z in vermas]
        mods += [(direct_sum([z, z]), f"doubled Verma at p={p}") for z in vermas]
    return mods


def test_indecomposable_agrees_with_idempotent_oracle():
    # End(m) is local exactly when it has no idempotent but 0 and 1;
    # the oracle enumerates End(m) wherever q^dim End(m) <= 5^6
    checked = {}
    for m, name in locality_family():
        homs = hom_space(m, m)
        if m.field.q ** len(homs) > 5**6:
            continue
        local = is_indecomposable(m)
        assert local == (not has_nontrivial_idempotent(homs, m.field.p)), name
        checked.setdefault(name, set()).add(local)
    # a field of degree 3 is local; a product of two fields is
    # commutative and not local
    assert checked["F_p^3"] == {True}
    assert checked["F_p^2 x F_p^3"] == {False}
    assert checked["M_2(F_p^2)"] == {False}
    assert checked["F_p^3[t]/t^2"] == {True}
    assert len(checked) >= 20


# -- algebra radical -----------------------------------------------------

def upper_triangular_basis():
    I = [[1, 0], [0, 1]]
    e11 = [[1, 0], [0, 0]]
    e12 = [[0, 1], [0, 0]]
    return [I, e11, e12]


def radical_dim_from_brute(basis, p):
    elements = brute_radical(basis, p)
    count = len(elements)
    dim = 0
    while p**dim < count:
        dim += 1
    assert p**dim == count
    return dim


def test_radical_matches_brute_oracle():
    for p in (3, 5):
        basis = upper_triangular_basis()
        mats = [np.array(b, dtype=np.int64) for b in basis]
        rad = algebra_radical(mats, GF(p))
        assert len(rad) == radical_dim_from_brute(basis, p)


def test_radical_of_truncated_polynomials():
    for p in (3, 5):
        basis = [np.eye(2, dtype=np.int64), nilpotent_block(2)]
        rad = algebra_radical(basis, GF(p))
        assert len(rad) == 1
        assert len(rad) == radical_dim_from_brute([b.tolist() for b in basis], p)


def test_radical_of_full_matrix_algebra_is_zero():
    p = 3
    basis = []
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=np.int64)
            e[i, j] = 1
            basis.append(e)
    assert algebra_radical(basis, GF(p)) == []


def test_radical_rejects_extension_fields():
    with pytest.raises(Undecided):
        algebra_radical([np.eye(2, dtype=np.int64)], GF(3, 2))


def test_radical_where_trace_form_alone_fails():
    # scalar matrices inside p x p matrices: plain trace vanishes
    # everywhere, but the corrected chain still reports a zero radical
    p = 3
    basis = [np.eye(p, dtype=np.int64)]
    assert algebra_radical(basis, GF(p)) == []


def end_algebras(p):
    """Bases of End(m) for the level-1 simples, Vermas and covers at p, and
    for sums of covers, whose radicals are larger."""
    schema = Sl2Schema(p, 1)
    covers = list(restricted_projectives(p).values())
    mods = [*restricted_simples(p).values(), *(build_verma_r1(schema, lam) for lam in range(p))]
    mods += covers
    mods += [direct_sum([covers[0], covers[0]])]
    mods += [direct_sum([covers[0], covers[1], build_verma_r1(schema, 0)])]
    return [hom_space(m, m) for m in mods]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_radical_matches_the_exact_trace_reference(p):
    # traces taken mod p^(k+1) give the radicals of exact integer traces
    bases = end_algebras(p)
    sizes = []
    for basis in bases:
        rad = algebra_radical(basis, GF(p))
        want = reference_radical_chain(basis, GF(p))
        assert len(rad) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(rad, want))
        sizes.append(len(rad))
    # the k = 1 step runs (a matrix size reaches p), and some radicals are large
    assert max(sizes) >= 3 and max(b[0].shape[0] for b in bases) >= p


def test_radical_in_stacks_of_one_row(monkeypatch):
    # a large algebra forms its products a few rows of the Gram matrix at
    # a time; the radicals are those of one stacked product
    bases = end_algebras(5)
    want = [algebra_radical(basis, GF(5)) for basis in bases]
    monkeypatch.setattr(vermalab.modules, "_RADICAL_STACK", 1)
    for basis, rad in zip(bases, want):
        got = algebra_radical(basis, GF(5))
        assert len(got) == len(rad) and all(np.array_equal(a, b) for a, b in zip(got, rad))


def test_power_traces_match_exact_traces_on_every_path():
    # float64 BLAS, int64 and Python ints, by the size of the modulus
    rng = np.random.default_rng(5)
    paths = set()
    for p, k in ((3, 1), (5, 2), (11, 1), (7919, 1), (1_000_003, 1), (2**31 - 1, 1)):
        modulus = p ** (k + 1)
        bound = 6 * (modulus - 1) ** 2
        paths.add("float64" if bound < 2**53 else "int64" if bound < 2**63 else "object")
        mats = rng.integers(0, p, size=(4, 6, 6))
        got = _power_traces(mats, p**k, modulus)
        for mat, t in zip(mats, got):
            want = power_trace_mod(mat.tolist(), p**k, modulus)
            if p**k < 100:
                assert want == integer_power_trace(mat, p**k) % modulus
            assert t == want
    assert paths == {"float64", "int64", "object"}


def test_radical_above_the_int64_bound():
    # upper triangular 3 x 3 matrices at p = 2^31 - 1: a product of two
    # reduced lifts can reach 3 (p-1)^2 >= 2^63, so the traces are taken
    # over Python ints
    p = 2**31 - 1
    assert 3 * (p - 1) ** 2 >= 2**63
    basis = []
    for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        b = np.zeros((3, 3), dtype=np.int64)
        b[i, j] = p - 1
        basis.append(b)
    rad = algebra_radical(basis, GF(p))
    want = reference_radical_chain(basis, GF(p))
    assert len(rad) == len(want) == 3
    assert all(np.array_equal(a, b) for a, b in zip(rad, want))


# -- eigenvalues, serialization, misc -----------------------------------

def test_eigenvalue_multiplicities():
    f = GF(5)
    mat = np.diag([1, 1, 3, 0]).astype(np.int64)
    assert eigenvalue_multiplicities(f, mat) == {0: 1, 1: 2, 3: 1}
    with pytest.raises(CertificateError):
        eigenvalue_multiplicities(f, nilpotent_block(2))


def test_eigenvalue_multiplicities_count_a_diagonal_as_its_conjugate_ranks():
    f = GF(5)
    d = np.diag([1, 1, 3, 0, 4, 4, 4]).astype(np.int64)
    conj = conjugate(FpModule(f, 7, {"h": d}), 2)
    assert not np.array_equal(conj.ops["h"], np.diag(np.diagonal(conj.ops["h"])))
    assert eigenvalue_multiplicities(f, d) == {0: 1, 1: 2, 3: 1, 4: 3}
    assert eigenvalue_multiplicities(f, conj.ops["h"]) == {0: 1, 1: 2, 3: 1, 4: 3}
    # an F_9 entry outside F_3 is an eigenvalue outside the prime field
    f9 = GF(3, 2)
    d9 = np.diag([1, 4]).astype(np.int64)
    for mat in (d9, conjugate(FpModule(f9, 2, {"h": d9}), 1).ops["h"]):
        with pytest.raises(CertificateError, match="not diagonalizable"):
            eigenvalue_multiplicities(f9, mat)


def test_dump_parse_round_trip():
    m = conjugate(jordan(5, 2, 3), 3)
    text = dump_text(m)
    back = parse_text(text)
    assert back.field == m.field
    assert back.dim == m.dim
    assert back.labels == m.labels
    for label in m.labels:
        assert np.array_equal(back.ops[label], m.ops[label])
    assert dump_text(back) == text


def test_dump_parse_quadratic_field():
    f = GF(3, 2)
    mat = np.array([[4, 7], [0, 2]], dtype=np.int64)
    m = FpModule(f, 2, {"x": mat})
    back = parse_text(dump_text(m))
    assert back.field == f
    assert np.array_equal(back.ops["x"], m.ops["x"])


def test_parse_rejects_entries_outside_the_quadratic_field():
    # over F_9 the integers -1 and 9 encode no element; reducing them mod
    # 9 would silently read them as 8 = 2 + 2t and 0
    for bad in (-1, 9):
        with pytest.raises(ValueError, match="encode no element"):
            parse_text(f"dim=2 q=9 labels=x\n0,{bad}\n0,0\n")
    with pytest.raises(ValueError, match="encode no element"):
        GF(3, 2).normalize(np.array([[0, 9]]))
    assert parse_text("dim=2 q=3 labels=x\n0,-1\n0,3\n").ops["x"].tolist() == [[0, 2], [0, 0]]


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_text("dim=2 q=8 labels=t\n0,0\n0,0\n")
    with pytest.raises(ValueError):
        parse_text("dim=2 q=3 labels=t\n0,0\n")
    with pytest.raises(ValueError):
        parse_text("")


def test_negative_dimension_and_repeated_labels_rejected():
    with pytest.raises(ValueError, match="negative"):
        parse_text("dim=-2 q=5 labels=\n")
    with pytest.raises(ValueError, match="negative"):
        FpModule(GF(5), -3, {})
    # a second block under the same label would replace the first
    with pytest.raises(ValueError, match="repeat"):
        parse_text("dim=1 q=5 labels=e,e\n1\n2\n")
    assert parse_text("dim=0 q=5 labels=e\n").dim == 0


def test_restrict_labels():
    f = GF(3)
    m = FpModule(f, 2, {"a": nilpotent_block(2), "b": np.zeros((2, 2), dtype=np.int64)})
    r = restrict_labels(m, ["a"])
    assert r.labels == ("a",)
    with pytest.raises(SchemaMismatch):
        restrict_labels(m, ["c"])


def test_direct_sum_blocks():
    m = direct_sum([jordan(3, 2), jordan(3, 1)])
    assert m.dim == 3
    assert m.ops["t"][1, 0] == 1
    assert not np.any(m.ops["t"][2:, :2])


@settings(max_examples=25, deadline=None)
@given(
    sizes_m=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    sizes_n=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    seed=st.integers(0, 50),
)
def test_hom_dim_symmetric_for_symmetric_algebra(sizes_m, sizes_n, seed):
    p = 3
    m = conjugate(jordan(p, *sizes_m), seed)
    n = jordan(p, *sizes_n)
    assert len(hom_space(m, n)) == len(hom_space(n, m))


@settings(max_examples=20, deadline=None)
@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=2), seed=st.integers(0, 30))
def test_syzygy_dim_is_cover_minus_module(sizes, seed):
    p = 5
    lib = jordan_world(p)
    m = conjugate(jordan(p, *sizes), seed)
    syz = syzygy(m, lib)
    assert syz.module.dim == syz.cover.module.dim - m.dim
