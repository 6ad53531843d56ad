"""Finite-dimensional modules over algebras given by labeled generators.

A module is a dictionary of generator action matrices over F_q.  On top
of that this file builds the homological toolkit: intertwiner spaces,
radicals and socles, projective covers and syzygies, extensions,
isomorphism and indecomposability certificates, and a text format.

The hom-space computation spins up a generating set of the source
module and solves only for the images of the generators, which keeps
the linear systems small for the cyclic modules that dominate here
(Lux and Szőke, Experiment. Math. 12, 2003).  The spin-up depends on
the source alone, so it is grown once, one breadth-first layer at a
time.  Each target then costs one batched product and one nullspace per
layer.  Projectivity is decided by a dimension count against the
library's covers, without building a syzygy.

Spin-ups, hom spaces, covers and syzygies depend only on the content of
their modules (and on the library), so each is computed once per
process: one memo, keyed by a content digest of every module involved,
serves every caller, including modules equal in content but built
separately.  Modules are frozen and their operators read-only, so a
digest never goes stale.  ``hom_space`` itself stays the uncached
solver; the functions here reach it through the memo.

Indecomposability is decided deterministically over a prime field,
from the Frobenius fixed points of End(M) modulo its radical.  The
randomized procedures, isomorphism and decomposition, take explicit
seeds and either return a certificate that is re-verified on the spot
or raise Undecided.  A failed check raises CertificateError, which,
unlike assert, python -O does not strip.
"""
from __future__ import annotations

import itertools
import random
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .gf import GF, dot_mod


class SchemaMismatch(ValueError):
    """Operands have different generator labels or fields."""


class MissingProjective(KeyError):
    """The projective library lacks a cover summand that is needed."""


class Undecided(RuntimeError):
    """A randomized search exhausted its budget without a certificate."""


class CertificateError(RuntimeError):
    """A computed answer failed the check that certifies it."""


# budgets of the randomized deciders: random tries before giving up or
# falling back to exhaustive search, and the largest search space exhausted
_ISO_TRIES = 200
_DECOMPOSE_TRIES = 80
_EXHAUST_BOUND = 4096
# entries of the largest stack of products algebra_radical forms at once
_RADICAL_STACK = 2**22


@dataclass(frozen=True)
class FpModule:
    """dim-dimensional module; ops maps each generator label to a matrix.

    Frozen, with read-only operators, so its content digest never goes stale.
    """

    field: GF
    dim: int
    ops: Mapping[str, np.ndarray]

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError(f"dimension {self.dim} is negative")
        fixed = {}
        for label, mat in self.ops.items():
            mat = self.field.normalize(np.asarray(mat, dtype=np.int64))
            if mat.shape != (self.dim, self.dim):
                raise ValueError(
                    f"operator {label} has shape {mat.shape}, expected square of size {self.dim}"
                )
            mat.setflags(write=False)
            fixed[label] = mat
        object.__setattr__(self, "ops", MappingProxyType(fixed))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.ops)

    @cached_property
    def _digest(self) -> bytes:
        """Content digest over the field, dim and every (label, matrix) pair."""
        # imported on first use: importing hashlib loads OpenSSL, about 4 ms,
        # which a process that never computes with modules need not pay
        import hashlib

        h = hashlib.blake2b(repr((self.field, self.dim)).encode())
        for label, mat in self.ops.items():
            h.update(repr(label).encode())
            h.update(mat.tobytes())
        return h.digest()

    @property
    def _spin_plan(self) -> _SpinPlan:
        return _memo(("spin", self._digest), lambda: _spin_up(self))

    @cached_property
    def _diagonals(self) -> dict[str, np.ndarray]:
        """The diagonal of every operator that is diagonal in the standard basis."""
        diagonals = {}
        for label, mat in self.ops.items():
            d = np.diagonal(mat)
            if np.array_equal(mat, np.diag(d)):
                diagonals[label] = d
        return diagonals


# one process-wide memo of derived module data, keyed by content digests;
# like library(p, r), it lives as long as the process
_MEMO: dict[tuple, object] = {}


def _memo(key: tuple, compute):
    memo = _MEMO
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def _check_same_schema(m: FpModule, n: FpModule):
    if m.field != n.field:
        raise SchemaMismatch(f"fields differ: {m.field} vs {n.field}")
    if set(m.labels) != set(n.labels):
        raise SchemaMismatch(f"labels differ: {m.labels} vs {n.labels}")


def zero_module_like(m: FpModule) -> FpModule:
    return FpModule(m.field, 0, {l: m.field.zeros(0, 0) for l in m.labels})


def restrict_labels(m: FpModule, labels) -> FpModule:
    """Forget all generator actions except the given labels."""
    missing = [l for l in labels if l not in m.ops]
    if missing:
        raise SchemaMismatch(f"module has no operators {missing}")
    return FpModule(m.field, m.dim, {l: m.ops[l] for l in labels})


def direct_sum(mods: list[FpModule]) -> FpModule:
    if not mods:
        raise ValueError("direct_sum of an empty list is ambiguous")
    first = mods[0]
    for m in mods[1:]:
        _check_same_schema(first, m)
    dim = sum(m.dim for m in mods)
    ops = {}
    for label in first.labels:
        big = first.field.zeros(dim, dim)
        at = 0
        for m in mods:
            big[at : at + m.dim, at : at + m.dim] = m.ops[label]
            at += m.dim
        ops[label] = big
    return FpModule(first.field, dim, ops)


# -- hom spaces by spinning ---------------------------------------------

@dataclass(frozen=True, eq=False)
class _SpinLayer:
    """One breadth-first layer of a spin-up.

    Every label acts on the basis vectors start..stop-1, the frontier;
    candidate l * k + t is label l applied to frontier vector t, for a
    frontier of k vectors.  The candidates listed in ``new`` extend the
    basis in that order.  Candidate ``dep[i]`` equals the combination
    ``coeffs[i]`` of the basis vectors found up to this layer.
    """

    start: int
    stop: int
    new: np.ndarray
    dep: np.ndarray
    coeffs: np.ndarray  # len(dep) x (basis size after this layer)


@dataclass(frozen=True, eq=False)
class _SpinPlan:
    """A basis of a module grown from generators, and its relations.

    The generators are standard basis vectors, each taken when it lies
    outside the submodule spun up so far; ``generators`` pairs each one
    with its layers.  ``binv`` inverts the matrix whose columns are the
    basis vectors in the order they were found.
    """

    labels: tuple[str, ...]
    generators: tuple[tuple[int, tuple[_SpinLayer, ...]], ...]
    binv: np.ndarray


class _SpanBasis:
    """A reduced basis of the span found so far, carrying coordinates.

    Each row is [v | t]: v is a vector of the span, and t holds the
    coordinates of v in the spin-up basis vectors found so far.  The v
    parts are the identity on the pivot columns ``piv``, one per row.
    """

    def __init__(self, f: GF, d: int):
        self.f = f
        self.d = d
        self.rows = f.zeros(0, 2 * d)
        self.piv: list[int] = []

    def extend(self, cands) -> list[int]:
        """Indices of the candidates (rows) outside the span of the basis
        and of the candidates before them.  Each joins the basis, in order,
        as the next spin-up basis vector."""
        f, d = self.f, self.d
        res = np.zeros((len(cands), 2 * d), dtype=np.int64)
        res[:, :d] = cands
        if self.piv:
            # one product reduces every candidate against the basis so far
            res = f.sub(res, f.matmul(cands[:, self.piv], self.rows))
        live = np.flatnonzero(res[:, :d].any(axis=1))
        if not len(live):
            return []
        # the basis rows, then the residues still in play; each accepted
        # residue clears its pivot column from every other row, so the
        # residues after it arrive reduced against it
        size = len(self.piv)
        work = np.concatenate([self.rows, res[live]])
        new = []
        for at in range(size, len(work)):
            nonzero = np.flatnonzero(work[at, :d])
            if not len(nonzero):
                continue
            c = int(nonzero[0])
            # the candidate becomes basis vector size + len(new), and its
            # residue is the candidate minus combinations of earlier rows
            work[at, d + size + len(new)] = 1
            row = f.mul(work[at], f.inv(work[at, c]))
            work[at] = row
            rows = np.flatnonzero(work[:, c])
            rows = rows[rows != at]
            if len(rows):
                # the rows with an entry in column c subtract that multiple of row
                work[rows] = f.add(work[rows], f.mul(f.neg(work[rows, c])[:, None], row))
            new.append(at - size)
            self.piv.append(c)
        if len(new) < len(live):
            work = np.concatenate([work[:size], work[size + np.array(new, dtype=np.intp)]])
        self.rows = work
        return [int(live[i]) for i in new]

    def inverse(self) -> np.ndarray:
        """The inverse of the spin-up basis, once the span is everything.

        Each v part is then the unit row at its pivot, so t is the
        pivot's column of the inverse.
        """
        binv = self.f.zeros(self.d, self.d)
        binv[:, self.piv] = self.rows[:, self.d :].T
        return binv


def _spin_up(m: FpModule) -> _SpinPlan:
    f = m.field
    d = m.dim
    labels = m.labels
    stacked = np.vstack([m.ops[label] for label in labels])
    basis = f.zeros(d, d)
    span = _SpanBasis(f, d)
    grown = []  # per generator: (start, [(lo, hi, new, dep)])
    dependent = []  # per layer: (its dependent candidates, basis size after it)
    for start in range(d):
        if len(span.piv) == d:
            break
        unit = f.zeros(1, d)
        unit[0, start] = 1
        if not span.extend(unit):
            continue
        hi = len(span.piv)
        lo = hi - 1
        basis[start, lo] = 1
        layers = []
        while lo < hi:
            k = hi - lo
            cands = f.matmul(stacked, basis[:, lo:hi]).reshape(len(labels), d, k)
            cands = cands.transpose(0, 2, 1).reshape(-1, d)
            new = np.array(span.extend(cands), dtype=np.intp)
            dep = np.delete(np.arange(len(cands)), new)
            basis[:, hi : hi + len(new)] = cands[new].T
            layers.append((lo, hi, new, dep))
            dependent.append((cands[dep], hi + len(new)))
            lo, hi = hi, hi + len(new)
        grown.append((start, layers))
    if len(span.piv) != d:
        raise CertificateError(f"spin-up found {len(span.piv)} basis vectors in dimension {d}")

    binv = span.inverse()
    if not np.array_equal(f.matmul(basis, binv), f.identity(d)):
        raise CertificateError("spin-up basis times its assembled inverse is not the identity")
    # the relations of every layer are certified here, in two products, so
    # that a hom space can trust them without seeing the source module again
    dep_vecs = np.concatenate([f.zeros(0, d), *(vecs for vecs, _ in dependent)])
    tops = np.repeat(
        np.array([top for _, top in dependent], dtype=np.intp),
        [len(vecs) for vecs, _ in dependent],
    )
    coeffs = f.matmul(dep_vecs, binv.T)
    coeffs[np.arange(d) >= tops[:, None]] = 0
    if not np.array_equal(f.matmul(coeffs, basis.T), dep_vecs):
        raise CertificateError("spin-up relation does not hold in the source module")
    generators = []
    at = 0
    for start, layers in grown:
        done = []
        for lo, hi, new, dep in layers:
            top = hi + len(new)
            done.append(_SpinLayer(lo, hi, new, dep, coeffs[at : at + len(dep), :top]))
            at += len(dep)
        generators.append((start, tuple(done)))
    return _SpinPlan(labels, tuple(generators), binv)


def hom_space(m: FpModule, n: FpModule) -> list[np.ndarray]:
    """Basis of the space of maps H with H g_M = g_N H for every generator.

    The unknowns are the images of the generators of the source's
    spin-up (cached on the source).  A generator is a standard basis
    vector, so for every operator diagonal in both modules (the torus
    weights of a G_rT-module) its image has unknowns only on the rows of
    n with the same diagonal entry.  Images are pushed through one layer
    at a time, and each layer's relations narrow the unknowns by one
    nullspace.  The basis returned is the reduced nullspace basis of the
    solution space in the coordinates of the generator images, so it
    depends neither on the narrowing schedule nor on the coordinates
    known to vanish beforehand.  Each returned matrix
    (n.dim x m.dim) is re-verified against every generator before being
    emitted; a failure raises CertificateError.
    """
    _check_same_schema(m, n)
    f = m.field
    if m.dim == 0 or n.dim == 0:
        return []
    plan = m._spin_plan
    nd = n.dim
    targets = np.stack([n.ops[label] for label in plan.labels])
    images = np.zeros((0, nd, 0), dtype=np.int64)  # per basis vector, nd x unknowns
    # a map sends an eigenvector of an operator diagonal in both modules
    # to the eigenspace of the same eigenvalue
    shared = [label for label in plan.labels if label in m._diagonals and label in n._diagonals]
    source_diag = np.array([m._diagonals[label] for label in shared]).reshape(len(shared), m.dim)
    target_diag = np.array([n._diagonals[label] for label in shared]).reshape(len(shared), nd)

    for start, layers in plan.generators:
        # a fresh generator: its image is a new free block of unknowns, one
        # per row of n it can reach; width 0 before it only said the map
        # vanished on what came before
        rows = np.flatnonzero((target_diag == source_diag[:, start, None]).all(axis=0))
        count, _, width = images.shape
        widened = np.zeros((count + 1, nd, width + len(rows)), dtype=np.int64)
        widened[:count, :, :width] = images
        widened[count, rows, width + np.arange(len(rows))] = 1
        images = widened
        width += len(rows)
        for layer in layers:
            if width == 0:
                # the map vanishes on this generator: the rest of its
                # layers can only push zero-width images around
                images = np.zeros((layers[-1].stop, nd, 0), dtype=np.int64)
                break
            front = images[layer.start : layer.stop]
            cands = f.matmul(targets[:, None], front[None])
            cands = cands.reshape(len(targets) * len(front), nd, width)
            images = np.concatenate([images, cands[layer.new]])
            if not len(layer.dep):
                continue
            related = f.matmul(layer.coeffs, images.reshape(len(images), -1))
            rows = f.sub(cands[layer.dep].reshape(len(layer.dep), -1), related)
            if np.any(rows):
                keep = f.nullspace(rows.reshape(len(layer.dep) * nd, width))
                images = f.matmul(images, keep)
                width = keep.shape[1]

    if images.shape[2] == 0:
        return []
    homs = f.matmul(images.transpose(2, 1, 0), plan.binv)
    sources = np.stack([m.ops[label] for label in plan.labels])
    fails = f.matmul(homs[:, None], sources) != f.matmul(targets, homs[:, None])
    if np.any(fails):
        label = plan.labels[int(np.argmax(fails.any(axis=(0, 2, 3))))]
        raise CertificateError(f"emitted map fails to intertwine {label}")
    return list(homs)


def _hom(m: FpModule, n: FpModule) -> list[np.ndarray]:
    """hom_space(m, n) through the memo: read-only matrices in a fresh list."""

    def solve():
        homs = hom_space(m, n)
        for h in homs:
            h.setflags(write=False)
        return tuple(homs)

    return list(_memo(("hom", m._digest, n._digest), solve))


# -- submodules, quotients, radical, socle ------------------------------

def _adapted_basis(m: FpModule, cols):
    """A basis of m adapted to the span of the columns.

    Returns (full, inverse, k, ops): the first k columns of full span the
    columns and unit vectors complete them, and ops holds every operator
    conjugated by full.  Raises ValueError unless each is block upper
    triangular, that is, unless the span is a submodule; the submodule is
    then the top-left block and the quotient the bottom-right one.
    """
    f = m.field
    cols = f.normalize(np.asarray(cols, dtype=np.int64))
    if cols.size == 0:
        cols = cols.reshape(m.dim, 0)
    basis = f.column_space_basis(cols)
    k = basis.shape[1]
    full = f.column_space_basis(np.hstack([basis, f.identity(m.dim)]))
    if full.shape[1] != m.dim:
        raise CertificateError("extended basis does not span the module")
    inverse = f.inverse(full)
    ops = {}
    for label, mat in m.ops.items():
        moved = f.matmul(inverse, f.matmul(mat, full))
        if np.any(moved[k:, :k]):
            raise ValueError(f"columns are not stable under operator {label}")
        ops[label] = moved
    return full, inverse, k, ops


def submodule_from_columns(m: FpModule, cols) -> tuple[FpModule, np.ndarray]:
    """Module structure on the span of the columns; returns it with the
    inclusion matrix.  Raises ValueError if the span is not stable."""
    f = m.field
    full, _, k, ops = _adapted_basis(m, cols)
    sub = FpModule(f, k, {label: moved[:k, :k] for label, moved in ops.items()})
    basis = full[:, :k]
    for label in m.labels:
        if not np.array_equal(f.matmul(m.ops[label], basis), f.matmul(basis, sub.ops[label])):
            raise CertificateError(f"inclusion of the submodule fails to intertwine {label}")
    return sub, basis


def quotient_by_columns(m: FpModule, cols) -> tuple[FpModule, np.ndarray, np.ndarray]:
    """Quotient of m by the span of the columns.

    Returns (quotient, projection, section) with projection @ section
    the identity of the quotient.  The span must be a submodule.
    """
    full, inverse, k, ops = _adapted_basis(m, cols)
    quot = FpModule(m.field, m.dim - k, {label: moved[k:, k:] for label, moved in ops.items()})
    return quot, inverse[k:, :], full[:, k:]


@dataclass(frozen=True, eq=False)
class ModuleLibrary:
    """Simple modules and their projective covers, keyed by name.

    Validated once, on construction: every module shares one field and
    one label set, every simple is absolutely simple (its endomorphisms
    are the scalars), and every projective is keyed by a simple.  The
    homological functions below rely on this and check nothing again.
    A library without projectives serves for tops, radicals and socles.
    """

    simples: Mapping[str, FpModule]
    projectives: Mapping[str, FpModule] = field(default_factory=dict)

    def __post_init__(self):
        # private copies, so the validated contents cannot change later
        object.__setattr__(self, "simples", MappingProxyType(dict(self.simples)))
        object.__setattr__(self, "projectives", MappingProxyType(dict(self.projectives)))
        if not self.simples:
            raise ValueError("a module library needs at least one simple")
        first = next(iter(self.simples.values()))
        for mod in [*self.simples.values(), *self.projectives.values()]:
            _check_same_schema(first, mod)
        stray = sorted(set(self.projectives) - set(self.simples))
        if stray:
            raise ValueError(f"projectives {stray} are keyed by no simple")
        for key, s in self.simples.items():
            if len(_hom(s, s)) != 1:
                raise ValueError(f"simple {key} is not absolutely simple: End is not the field")


def _homs_to_simples(m: FpModule, lib: ModuleLibrary) -> dict[str, list[np.ndarray]]:
    """Basis of Hom(m, S) for every simple S: the one pass that tops and radicals share.

    A source spun up from one generator skips the solve for every S that
    its first layer already rules out (see _first_layer_forces_zero); the
    empty answer goes into the memo as if solved.
    """
    screened = m.dim > 0 and len(m._spin_plan.generators) == 1
    out = {}
    for key, s in lib.simples.items():
        if screened and _first_layer_forces_zero(m, s):
            out[key] = list(_memo(("hom", m._digest, s._digest), lambda: ()))
        else:
            out[key] = _hom(m, s)
    return out


def _first_layer_forces_zero(m: FpModule, n: FpModule) -> bool:
    """Whether every map from m, spun up from one generator v, to n is zero.

    Such a map is fixed by the image w of v.  w lies on the rows of n
    whose entries on every operator diagonal in both modules match those
    of v, and it satisfies the relations of v's first spin-up layer (for
    a baby Verma: e w = 0, e_p w = 0, h w = lam w).  If only w = 0 does,
    the hom space is zero.  The answer depends on n, the labels, v's
    diagonal entries and the first layer only, which many sources share
    (the 25 level-2 baby Vermas at p = 5 have 5 distinct ones), so it is
    memoized on those.
    """
    plan = m._spin_plan
    [(start, layers)] = plan.generators
    layer = layers[0]
    weights = tuple(
        (label, int(m._diagonals[label][start])) for label in plan.labels if label in m._diagonals
    )
    key = (
        "screen", n._digest, plan.labels, weights,
        layer.new.tobytes(), layer.dep.tobytes(), layer.coeffs.shape, layer.coeffs.tobytes(),
    )
    return _memo(key, lambda: _relations_force_zero(n, plan.labels, weights, layer))


def _relations_force_zero(n: FpModule, labels, weights, layer: _SpinLayer) -> bool:
    # the first layer acts on v alone, so candidate l is label l applied
    # to v, and the basis it relates to is v followed by the new candidates
    f = n.field
    rows = np.ones(n.dim, dtype=bool)
    for label, weight in weights:
        if label in n._diagonals:
            rows &= n._diagonals[label] == weight
    rows = np.flatnonzero(rows)
    if not len(rows):
        return True
    if not len(layer.dep):
        return False
    targets = np.stack([n.ops[label] for label in labels])
    basis_images = np.concatenate([f.identity(n.dim)[None], targets[layer.new]])
    related = f.matmul(layer.coeffs, basis_images.reshape(len(basis_images), -1))
    relations = f.sub(targets[layer.dep], related.reshape(-1, n.dim, n.dim))
    return f.rank(relations[:, :, rows].reshape(-1, len(rows))) == len(rows)


def _multiplicities(homs: dict[str, list[np.ndarray]]) -> dict[str, int]:
    # the simples are absolutely simple, so dim Hom(m, S) is the multiplicity
    # of S in the top of m, and dim Hom(S, m) its multiplicity in the socle
    return {key: len(hs) for key, hs in homs.items() if hs}


def _common_kernel(m: FpModule, homs: dict[str, list[np.ndarray]]) -> np.ndarray:
    f = m.field
    return f.nullspace(np.vstack([f.zeros(0, m.dim)] + [h for hs in homs.values() for h in hs]))


def radical_submodule(m: FpModule, lib: ModuleLibrary) -> np.ndarray:
    """Columns spanning the intersection of kernels of all maps to simples.

    Correct only when the library's simples are complete for the
    algebra at hand.
    """
    return _common_kernel(m, _homs_to_simples(m, lib))


def top_multiplicities(m: FpModule, lib: ModuleLibrary) -> dict[str, int]:
    return _multiplicities(_homs_to_simples(m, lib))


def _homs_from_simples(m: FpModule, lib: ModuleLibrary) -> dict[str, list[np.ndarray]]:
    """Basis of Hom(S, m) for every simple S: the one pass that socles share."""
    return {key: _hom(s, m) for key, s in lib.simples.items()}


def _joint_image(m: FpModule, homs: dict[str, list[np.ndarray]]) -> np.ndarray:
    return m.field.column_space_basis(
        np.hstack([m.field.zeros(m.dim, 0)] + [h for hs in homs.values() for h in hs])
    )


def socle_submodule(m: FpModule, lib: ModuleLibrary) -> np.ndarray:
    """Columns spanning the sum of the images of all maps from simples."""
    return _joint_image(m, _homs_from_simples(m, lib))


def socle_multiplicities(m: FpModule, lib: ModuleLibrary) -> dict[str, int]:
    return _multiplicities(_homs_from_simples(m, lib))


# -- projective covers and syzygies -------------------------------------

def _covered_tops(m: FpModule, lib: ModuleLibrary):
    """Homs to the simples and top multiplicities of a nonzero module,
    checked to have a nonzero top whose covers are all in the library."""
    homs = _homs_to_simples(m, lib)
    tops = _multiplicities(homs)
    if not tops:
        raise ValueError("nonzero module with zero top; simples list incomplete?")
    for label in tops:
        if label not in lib.projectives:
            raise MissingProjective(label)
    return homs, tops


@dataclass
class ProjectiveCover:
    module: FpModule
    map: np.ndarray  # m.dim x cover.dim, surjective, read-only
    summand_labels: list[str]


def projective_cover(m: FpModule, lib: ModuleLibrary) -> ProjectiveCover:
    """Minimal projective cover, built once per module content and library.

    The cover is assembled summand by summand.  The chosen maps induce
    an isomorphism on tops, which is what makes the cover minimal;
    surjectivity is checked on the result.
    """
    cover = _memo(("cover", m._digest, lib), lambda: _build_cover(m, lib))
    return replace(cover, summand_labels=list(cover.summand_labels))


def _build_cover(m: FpModule, lib: ModuleLibrary) -> ProjectiveCover:
    f = m.field
    if m.dim == 0:
        return ProjectiveCover(zero_module_like(m), f.zeros(0, 0), [])
    homs, tops = _covered_tops(m, lib)
    # the stacked maps to the simples kill exactly the radical, so they
    # embed the top: an image there has the rank of its image in the top
    top = np.vstack([h for hs in homs.values() for h in hs])
    chosen: list[tuple[str, np.ndarray]] = []
    covered = f.zeros(top.shape[0], 0)
    for label in sorted(tops):
        want = tops[label]
        sdim = lib.simples[label].dim
        got = 0
        for phi in _hom(lib.projectives[label], m):
            if got == want:
                break
            trial = f.column_space_basis(np.hstack([covered, f.matmul(top, phi)]))
            if trial.shape[1] == covered.shape[1] + sdim:
                covered = trial
                chosen.append((label, phi))
                got += 1
        if got != want:
            raise CertificateError(f"could not reach top multiplicity for {label}")
    cover = direct_sum([lib.projectives[label] for label, _ in chosen])
    theta = np.hstack([phi for _, phi in chosen])
    if f.rank(theta) != m.dim:
        raise CertificateError("cover map is not surjective")
    for label in m.labels:
        if not np.array_equal(f.matmul(theta, cover.ops[label]), f.matmul(m.ops[label], theta)):
            raise CertificateError(f"cover map fails to intertwine {label}")
    theta.setflags(write=False)
    return ProjectiveCover(cover, theta, [label for label, _ in chosen])


@dataclass
class SyzygyData:
    module: FpModule
    inclusion: np.ndarray  # cover.dim x module.dim, read-only
    cover: ProjectiveCover


def syzygy(m: FpModule, lib: ModuleLibrary) -> SyzygyData:
    """Kernel of a minimal projective cover, built once per module content and library."""
    syz = _memo(("syzygy", m._digest, lib), lambda: _build_syzygy(m, lib))
    return replace(syz, cover=replace(syz.cover, summand_labels=list(syz.cover.summand_labels)))


def _build_syzygy(m: FpModule, lib: ModuleLibrary) -> SyzygyData:
    cover = projective_cover(m, lib)
    f = m.field
    kernel = f.nullspace(cover.map) if cover.module.dim else f.zeros(0, 0)
    omega, incl = submodule_from_columns(cover.module, kernel)
    if omega.dim != cover.module.dim - m.dim:
        raise CertificateError("syzygy dimension is not dim(cover) - dim(module)")
    incl.setflags(write=False)
    return SyzygyData(omega, incl, cover)


def ext1_cocycles(m: FpModule, n: FpModule, lib: ModuleLibrary) -> tuple[SyzygyData, list]:
    """The syzygy of m, and cocycles whose classes form a basis of Ext^1(m, n).

    Classes live in Hom(syzygy, n), modulo the coboundaries, the maps
    that extend to the cover.  The cocycles are the elements of the
    Hom(syzygy, n) basis outside the span of the coboundaries and of the
    elements before them: pivots of one reduction of both, stacked.
    """
    syz = syzygy(m, lib)
    homs = _hom(syz.module, n)
    if not homs:
        return syz, []
    coboundaries = ext1_coboundaries(syz, n)
    stacked = np.stack([h.reshape(-1) for h in coboundaries + homs], axis=1)
    _, pivots = m.field.rref(stacked)
    if len(pivots) != len(homs):
        raise CertificateError("coboundary escaped Hom(syzygy, n)")
    skip = len(coboundaries)
    return syz, [homs[c - skip] for c in pivots if c >= skip]


def ext1_dim(m: FpModule, n: FpModule, lib: ModuleLibrary) -> int:
    """Dimension of the first extension group of m by n."""
    return len(ext1_cocycles(m, n, lib)[1])


def ext1_coboundaries(syz: SyzygyData, n: FpModule) -> list:
    """Restrictions to the syzygy of maps cover -> n (the trivial classes)."""
    f = n.field
    return [f.matmul(h, syz.inclusion) for h in _hom(syz.cover.module, n)]


def is_projective_module(m: FpModule, lib: ModuleLibrary) -> bool:
    """True iff every first extension group against a simple vanishes.

    Equivalently the syzygy of a minimal cover is zero.  The cover
    P(top m) = sum of [top m : S] copies of P(S) maps onto m with the
    syzygy as its kernel, so m is projective exactly when
    dim m = sum of [top m : S] * dim P(S); no cover is built.
    """
    if m.dim == 0:
        return True
    _, tops = _covered_tops(m, lib)
    return m.dim == sum(k * lib.projectives[label].dim for label, k in tops.items())


# -- extensions ----------------------------------------------------------

@dataclass
class ExtensionData:
    module: FpModule
    inclusion: np.ndarray  # total.dim x n.dim
    projection: np.ndarray  # m.dim x total.dim


def build_extension(n: FpModule, syz: SyzygyData, cocycle) -> ExtensionData:
    """Extension of the covered module by n along a cocycle.

    The cocycle is a map from the syzygy to n (n.dim x syzygy.dim
    matrix, must intertwine).  The total space is the pushout
    (n + cover) / graph, which comes with the inclusion of n and the
    projection back onto the covered module.  A zero cocycle produces
    the split extension.
    """
    f = n.field
    omega = syz.module
    cover = syz.cover.module
    _check_same_schema(n, cover)
    cocycle = f.normalize(np.asarray(cocycle, dtype=np.int64))
    if cocycle.size == 0:
        cocycle = cocycle.reshape(n.dim, omega.dim)
    if cocycle.shape != (n.dim, omega.dim):
        raise CertificateError(f"cocycle has shape {cocycle.shape}, not {(n.dim, omega.dim)}")
    for label in omega.labels:
        lhs = f.matmul(cocycle, omega.ops[label])
        rhs = f.matmul(n.ops[label], cocycle)
        if not np.array_equal(lhs, rhs):
            raise CertificateError("cocycle is not a module map")

    ambient = direct_sum([n, cover])
    graph = np.vstack([cocycle, f.neg(syz.inclusion)])
    total, projection_to_total, section = quotient_by_columns(ambient, graph)

    incl = projection_to_total[:, : n.dim]
    mdim = syz.cover.map.shape[0]
    onto_m = np.hstack([f.zeros(mdim, n.dim), syz.cover.map])
    if np.any(f.matmul(onto_m, graph)):
        raise CertificateError("cover map must kill the graph")
    proj = f.matmul(onto_m, section)

    if total.dim != mdim + n.dim:
        raise CertificateError("extension dimension is not dim(m) + dim(n)")
    if f.rank(incl) != n.dim:
        raise CertificateError("extension inclusion is not injective")
    if f.rank(proj) != mdim:
        raise CertificateError("extension projection is not surjective")
    if np.any(f.matmul(proj, incl)):
        raise CertificateError("extension projection does not kill the inclusion")
    for label in n.labels:
        if not np.array_equal(f.matmul(total.ops[label], incl), f.matmul(incl, n.ops[label])):
            raise CertificateError(f"extension inclusion fails to intertwine {label}")
    return ExtensionData(total, incl, proj)


# -- isomorphism testing -------------------------------------------------

def _combine(f: GF, mats: list[np.ndarray], coeffs) -> np.ndarray:
    """sum_i c[i] mats[i] for each row c of coeffs, in one product."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    flat = np.stack(mats).reshape(len(mats), -1)
    return f.matmul(coeffs, flat).reshape(coeffs.shape[:-1] + mats[0].shape)


def _candidates(f: GF, homs: list[np.ndarray], seed: int, tries: int):
    """The basis, then `tries` combinations of it with seeded random coefficients."""
    yield from homs
    rng = random.Random(seed)
    for _ in range(tries):
        yield _combine(f, homs, [rng.randrange(f.q) for _ in homs])


@dataclass
class IsoResult:
    isomorphic: bool
    witness: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.isomorphic


def is_isomorphic(m: FpModule, n: FpModule, seed: int = 0) -> IsoResult:
    """Search the intertwiner space for an invertible element.

    Returns a verified witness on success.  A negative answer is only
    returned when it is certain: zero hom space, dimension mismatch,
    or exhaustive enumeration of the hom space.  Otherwise Undecided.
    """
    _check_same_schema(m, n)
    f = m.field
    if m.dim != n.dim:
        return IsoResult(False)
    if m.dim == 0:
        return IsoResult(True, f.zeros(0, 0))
    homs = _hom(m, n)
    if not homs:
        return IsoResult(False)

    def check(h):
        # a zero row or column rules out an inverse without a rank
        if not (h.any(axis=0).all() and h.any(axis=1).all()) or not f.is_invertible(h):
            return None
        for label in m.labels:
            if not np.array_equal(f.matmul(h, m.ops[label]), f.matmul(n.ops[label], h)):
                raise CertificateError(f"isomorphism witness fails to intertwine {label}")
        return IsoResult(True, h)

    for h in _candidates(f, homs, seed, _ISO_TRIES):
        hit = check(h)
        if hit:
            return hit
    if f.q ** len(homs) <= _EXHAUST_BOUND:
        for coeffs in itertools.product(range(f.q), repeat=len(homs)):
            hit = any(coeffs) and check(_combine(f, homs, coeffs))
            if hit:
                return hit
        return IsoResult(False)
    raise Undecided(
        f"no invertible intertwiner found in {_ISO_TRIES} tries; hom space of dim "
        f"{len(homs)} too large to exhaust"
    )


# -- Fitting decomposition ----------------------------------------------

def fitting_split(m: FpModule, endo):
    """Split along the stable image/kernel of a high power of an endo.

    Returns ((image part, inclusion), (kernel part, inclusion)), or None
    when the power is invertible or zero and so splits nothing.  Both
    spans are submodules because the endomorphism commutes with every
    generator.
    """
    f = m.field
    y = f.matpow(f.normalize(np.asarray(endo, dtype=np.int64)), max(m.dim, 1))
    image = f.column_space_basis(y)
    r = image.shape[1]
    if r == 0 or r == m.dim:
        return None
    kernel = f.nullspace(y)
    if r + kernel.shape[1] != m.dim or f.rank(np.hstack([image, kernel])) != m.dim:
        raise CertificateError("stable image and kernel do not split the module")
    return submodule_from_columns(m, image), submodule_from_columns(m, kernel)


def decompose(m: FpModule, seed: int = 0) -> list[FpModule]:
    """Indecomposable summands, found by repeated Fitting splitting.

    The basis of End(m) is tried first.  If none of it splits m and
    End(m) is local (decided over a prime field), m is returned as
    certified indecomposable; otherwise random combinations of the basis
    are drawn one at a time.  Every returned factor is certified
    indecomposable; if neither a splitting nor a certificate can be
    found, raises Undecided.
    """
    if m.dim == 0:
        return []
    f = m.field
    homs = _hom(m, m)
    if len(homs) == 1:
        return [m]
    for tried, h in enumerate(_candidates(f, homs, seed, _DECOMPOSE_TRIES)):
        # in a local End(m) every element is nilpotent or invertible, so
        # once the basis has failed no random combination could split m
        if tried == len(homs) and f.k == 1 and _end_is_local(m, homs):
            return [m]
        parts = fitting_split(m, h)
        if parts:
            (a, _), (b, _) = parts
            return decompose(a, seed=seed + 1) + decompose(b, seed=seed + 2)
    raise Undecided(f"no splitting endomorphism found in {_DECOMPOSE_TRIES} tries")


# -- radical of a matrix algebra ----------------------------------------

def _power_traces(mats: np.ndarray, e: int, modulus: int) -> np.ndarray:
    """tr(A^e) mod modulus for each matrix A of a stack of nonnegative
    integer matrices, by squaring mod modulus in gf.dot_mod, which is
    exact for any modulus below 2^63."""
    base = mats % modulus
    power = None
    while True:
        if e & 1:
            power = base if power is None else dot_mod(power, base, modulus)
        e >>= 1
        if not e:
            break
        base = dot_mod(base, base, modulus)
    # a diagonal's sum is its product with a ones column, reduced exactly
    diagonals = np.diagonal(power, axis1=-2, axis2=-1)
    return dot_mod(diagonals, np.ones((mats.shape[-1], 1), dtype=np.int64), modulus)[..., 0]


def algebra_radical(mats: list[np.ndarray], field: GF) -> list[np.ndarray]:
    """Jacobson radical of a unital matrix algebra over a prime field.

    Input is a basis of the algebra (closed under products, containing
    the identity).  Uses the characteristic-p chain of trace conditions
    tr(lift(z)^(p^k)) / p^k mod p for p^k up to the matrix size
    (Cohen, Ivanyos and Wales, J. Pure Appl. Algebra, 1997).  A trace t
    enters only through t mod p^k and (t // p^k) mod p, so it is taken
    mod p^(k+1).  The result is verified to be a nil ideal before
    returning.
    """
    if field.k != 1:
        raise Undecided("radical computation implemented over prime fields only")
    if not mats:
        return []
    p = field.p
    n = mats[0].shape[0]
    current = [field.normalize(np.asarray(z, dtype=np.int64)) for z in mats]
    k = 0
    while p**k <= n:
        if not current:
            break
        # traces[j, i] from x_i x_j, in stacked products of at most about
        # _RADICAL_STACK entries
        stack = np.stack(current)
        step = max(1, _RADICAL_STACK // stack.size)
        traces = np.concatenate([
            _power_traces(field.matmul(stack[None], stack[j : j + step, None]), p**k, p ** (k + 1))
            for j in range(0, len(stack), step)
        ])
        if np.any(traces % p**k != 0):
            raise CertificateError("trace lift divisibility failed")
        gram = (traces // p**k % p).astype(np.int64)
        current = list(_combine(field, current, field.nullspace(gram).T))
        k += 1

    flat_alg = np.column_stack([z.reshape(-1) for z in mats])
    if current:
        rad, alg = np.stack(current), np.stack(mats)
        flat_rad = rad.reshape(len(rad), -1).T
        # z b and b z for every radical element z and algebra element b
        products = [field.matmul(rad[:, None], alg[None]), field.matmul(alg[None], rad[:, None])]
        products = np.concatenate(products).reshape(-1, n * n).T
        if field.rank(np.hstack([flat_rad, products])) != field.rank(flat_rad):
            raise CertificateError("radical candidate is not an ideal")
        if np.any(field.matpow(rad, n)):
            raise CertificateError("radical element is not nilpotent")
    if field.rank(flat_alg) != len(mats):
        raise CertificateError("algebra basis is dependent")
    return current


# -- indecomposability ---------------------------------------------------

def is_indecomposable(m: FpModule) -> bool:
    """Decide whether the endomorphism ring is local.

    Local means the quotient by the radical is a field; see _end_is_local.
    Over a prime field the answer is exact; over F_{p^2} the radical is
    not computed and Undecided is raised unless End(m) is one-dimensional.
    """
    if m.dim == 0:
        raise ValueError("the zero module has no meaningful answer here")
    homs = _hom(m, m)
    return len(homs) == 1 or _end_is_local(m, homs)


def _end_is_local(m: FpModule, homs: list[np.ndarray]) -> bool:
    """Whether End(m), given by a basis, is local, over a prime field.

    A finite division ring is a field (Wedderburn), so a noncommutative
    quotient A = End(m)/rad is never one.  A commutative A is a product
    of finite fields, on which x -> x^p is F_p-linear and fixes exactly
    one copy of F_p per factor, so A is a field exactly when only the
    scalars are fixed (Berlekamp, Math. Comp. 24, 1970; Ronyai,
    J. Symbolic Comput. 9, 1990).
    """
    f = m.field
    rad = algebra_radical(homs, f)
    d = len(homs)
    if d - len(rad) == 1:
        return True
    basis = np.stack(homs)
    flat = basis.reshape(d, -1).T
    rad_flat = np.array(rad, dtype=np.int64).reshape(len(rad), m.dim**2)
    rows, pivots = f.rref(f.solve(flat, rad_flat.T).T)
    rows = rows[: len(pivots)]
    # the images of the basis elements off the radical's pivots form a
    # basis of A; an element's coordinates there are its coordinates over
    # the End basis less the radical rows at their pivots
    free = [i for i in range(d) if i not in pivots]
    k = len(free)
    x = basis[free]
    products = f.matmul(x[:, None], x[None])
    commutators = f.sub(products, products.transpose(1, 0, 2, 3)).reshape(k * k, -1)
    powers = np.stack([f.matpow(y, f.p) for y in x]).reshape(k, -1)
    coords = f.solve(flat, np.concatenate([commutators, powers]).T)
    images = f.sub(coords[free], f.matmul(rows[:, free].T, coords[pivots]))
    if np.any(images[:, : k * k]):
        return False
    return f.nullspace(f.sub(images[:, k * k :], f.identity(k))).shape[1] == 1


# -- eigenvalue bookkeeping ---------------------------------------------

def eigenvalue_multiplicities(field: GF, mat) -> dict[int, int]:
    """Multiplicity of each prime-field eigenvalue c as dim ker(mat - c).

    Faithful for matrices satisfying x^p = x, which are diagonalizable
    with prime-field eigenvalues.  A diagonal matrix (the torus weights
    of a graded module) has its entries counted; any other takes one
    rank per c.
    """
    mat = field.normalize(np.asarray(mat, dtype=np.int64))
    n = mat.shape[0]
    d = np.diagonal(mat)
    if np.array_equal(mat, np.diag(d)):
        # a diagonal matrix: count its entries
        if np.any(d >= field.p):
            raise CertificateError("matrix is not diagonalizable over the prime field")
        values, counts = np.unique(d, return_counts=True)
        return {int(c): int(k) for c, k in zip(values, counts)}
    out = {}
    total = 0
    for c in range(field.p):
        shifted = field.sub(mat, field.mul(field.identity(n), c))
        k = n - field.rank(shifted)
        if k:
            out[c] = k
            total += k
    if total != n:
        raise CertificateError("matrix is not diagonalizable over the prime field")
    return out


# -- text serialization --------------------------------------------------

def dump_text(m: FpModule) -> str:
    lines = [f"dim={m.dim} q={m.field.q} labels={','.join(m.labels)}"]
    for label in m.labels:
        for row in m.ops[label]:
            lines.append(",".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> FpModule:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty module text")
    header = lines[0].split()
    fields = dict(part.split("=", 1) for part in header)
    dim = int(fields["dim"])
    q = int(fields["q"])
    labels = [l for l in fields["labels"].split(",") if l]
    if len(set(labels)) != len(labels):
        raise ValueError(f"labels {labels} repeat a label")
    gf = GF.from_q(q)
    expected = 1 + dim * len(labels)
    if len(lines) != expected:
        raise ValueError(f"expected {expected} lines, found {len(lines)}")
    ops = {}
    at = 1
    for label in labels:
        rows = []
        for _ in range(dim):
            rows.append([int(x) for x in lines[at].split(",")])
            at += 1
        ops[label] = np.array(rows, dtype=np.int64).reshape(dim, dim)
    return FpModule(gf, dim, ops)
