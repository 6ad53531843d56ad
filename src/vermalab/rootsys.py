"""Root systems from Cartan matrices, and the weight combinatorics on top.

Everything is exact integer arithmetic.  Weights live in the weight
lattice of the simply connected group and are written in the basis of
fundamental weights, so a weight is just a tuple of ints of length
`rank`.  Column j of the Cartan matrix gives the fundamental-weight
coordinates of the j-th simple root.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .gf import _INT64_SAFE, is_prime
from .modules import CertificateError

Weight = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

POSITIVE_ROOT_CAP = 240
WEYL_CAP = 10**6

NAMED_TYPES = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "G2": ((2, -1), (-3, 2)),
    "A1xA1": ((2, 0), (0, 2)),
}


class NotFiniteType(ValueError):
    """The Cartan matrix is not of finite type (or closure blew the cap)."""


@dataclass(frozen=True)
class CartanSpec:
    """A validated finite-type Cartan matrix."""

    matrix: Matrix

    def __post_init__(self):
        m = self.matrix
        n = len(m)
        if n == 0 or any(len(row) != n for row in m):
            raise NotFiniteType("Cartan matrix must be square and nonempty")
        for i in range(n):
            if m[i][i] != 2:
                raise NotFiniteType("diagonal entries must equal 2")
            for j in range(n):
                if i != j:
                    if m[i][j] > 0:
                        raise NotFiniteType("off-diagonal entries must be <= 0")
                    if (m[i][j] == 0) != (m[j][i] == 0):
                        raise NotFiniteType("zero pattern must be symmetric")
        if not _symmetrizes_to_positive_definite(tuple(map(tuple, m))):
            raise NotFiniteType("symmetrized matrix is not positive definite")

    @property
    def rank(self) -> int:
        return len(self.matrix)

    @property
    def rho(self) -> Weight:
        return (1,) * self.rank

    @classmethod
    def from_type(cls, name: str) -> "CartanSpec":
        try:
            return cls(NAMED_TYPES[name])
        except KeyError:
            raise NotFiniteType(f"unknown type name {name!r}") from None

    @classmethod
    def parse(cls, text: str) -> "CartanSpec":
        """Parse either 'type=A2' or explicit rows like '2,-1;-1,2'."""
        text = text.strip()
        if text.startswith("type="):
            return cls.from_type(text[len("type="):])
        try:
            rows = tuple(
                tuple(int(x) for x in row.split(","))
                for row in text.split(";")
            )
        except ValueError:
            raise NotFiniteType(f"cannot parse Cartan matrix from {text!r}") from None
        return cls(rows)


@lru_cache(maxsize=None)
def _symmetrizes_to_positive_definite(m: Matrix) -> bool:
    """The finite-type check, once per matrix.

    _symmetrize finds a positive diagonal D with D*A symmetric, and
    det((D*A)_t) = det(D_t) det(A_t) for every leading t x t block, so
    by Sylvester's criterion D*A is positive definite exactly when the
    leading principal minors of A are positive.  A spec is rebuilt for
    every query that names its matrix; lru_cache keeps no exception, so
    a matrix that is not symmetrizable raises every time.
    """
    _symmetrize(m)
    return _leading_minors_positive(m)


def _symmetrize(m: Matrix) -> list[Fraction]:
    """The diagonal of a positive D with D*A symmetric, or raise NotFiniteType."""
    n = len(m)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i == j or m[i][j] == 0:
                    continue
                want = d[i] * Fraction(m[i][j], m[j][i])
                if d[j] is None:
                    d[j] = want
                    stack.append(j)
                elif d[j] != want:
                    raise NotFiniteType("Cartan matrix is not symmetrizable")
    return d


def _leading_minors_positive(m: Matrix) -> bool:
    return all(integer_det([row[:t] for row in m[:t]]) > 0 for t in range(1, len(m) + 1))


def integer_det(m) -> int:
    """The determinant of a square integer matrix, by fraction-free
    (Bareiss) elimination: every division is exact."""
    m = [list(row) for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


@dataclass(frozen=True)
class PositiveRoot:
    """A positive root with its coroot, both over the simple basis."""

    coeffs: tuple[int, ...]
    coroot_coeffs: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coeffs)


class CosetFactorization(NamedTuple):
    """W = W_J * R: every Weyl element is u * r for exactly one u in W_J, r in R.

    W_J (`stabilizer`) is generated by the simple reflections s_i with
    i != j (`node`); it is the stabilizer of the integer row `coweight`, a
    positive multiple of the coweight omega_j^v on weight coordinates.
    `representatives` holds one element r per point c * r of the orbit of
    c, so one per right coset W_J * r.  Each part is a read-only int64
    stack, the identity first and then in the order of generation;
    `entry_bound` is the largest absolute entry of either.
    """

    node: int
    coweight: np.ndarray
    stabilizer: np.ndarray
    representatives: np.ndarray
    entry_bound: int


@dataclass(frozen=True)
class RootSystem:
    cartan: CartanSpec
    positive_roots: tuple[PositiveRoot, ...]
    coxeter_number: int

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def rho(self) -> Weight:
        return self.cartan.rho

    @cached_property
    def simple_reflections(self) -> np.ndarray:
        """s_1, ..., s_n as one read-only (n, n, n) int64 stack.

        s_j fixes every fundamental weight but the j-th and sends it to
        itself minus alpha_j, whose coordinates are column j of the matrix.
        """
        n = self.rank
        gens = np.repeat(np.eye(n, dtype=np.int64)[None], n, axis=0)
        for j, column in enumerate(np.array(self.cartan.matrix, dtype=np.int64).T):
            gens[j, :, j] -= column
        gens.setflags(write=False)
        return gens

    @cached_property
    def coset_factorization(self) -> CosetFactorization:
        """W = W_J * R through the smallest pair of parts, certified; see `_factor_weyl`."""
        return _factor_weyl(self)

    @cached_property
    def coroot_matrix(self) -> np.ndarray:
        """The coroot coordinates of the positive roots, one read-only int64 row each."""
        coroots = np.array([root.coroot_coeffs for root in self.positive_roots], dtype=np.int64)
        coroots.setflags(write=False)
        return coroots

    @cached_property
    def coroot_entry_bound(self) -> int:
        """The largest absolute entry of `coroot_matrix`."""
        return int(np.abs(self.coroot_matrix).max())


# Elements of one level whose products with the generators are formed at
# once; bounds the candidate array when a level is large.
_WEYL_BLOCK = 4096


def _keys(stack: np.ndarray) -> list[bytes]:
    """One bytes key per element of a stacked array."""
    raw, width = stack.tobytes(), stack.itemsize * math.prod(stack.shape[1:])
    return [raw[i:i + width] for i in range(0, len(raw), width)]


def _close_weyl(gens: np.ndarray, coweight: np.ndarray | None = None) -> np.ndarray:
    """The elements reached from 1 by products w·s, s in `gens`, breadth-first.

    Each level is the new products w·s, w over the previous level and s
    over the generators, w-major, in the order they are first reached.
    A product is new when the matrix is, so the result is the group that
    `gens` generate; given a `coweight` row c, when the row c·w is, so the
    result holds one element per point of the orbit of c.  Raises
    NotFiniteType once a new element would exceed WEYL_CAP.
    """
    n = gens.shape[-1]
    key = (lambda ws: ws) if coweight is None else (lambda ws: coweight @ ws)
    frontier = np.eye(n, dtype=np.int64)[None]
    seen = set(_keys(key(frontier)))
    levels = [frontier]
    while len(frontier):
        fresh = []
        for start in range(0, len(frontier), _WEYL_BLOCK):
            block = (frontier[start:start + _WEYL_BLOCK, None] @ gens[None]).reshape(-1, n, n)
            keep = []
            for i, k in enumerate(_keys(key(block))):
                if k not in seen:
                    if len(seen) >= WEYL_CAP:
                        raise NotFiniteType("Weyl closure exceeded cap")
                    seen.add(k)
                    keep.append(i)
            fresh.append(block[keep])
        frontier = np.concatenate(fresh)
        levels.append(frontier)
    closure = np.concatenate(levels)
    closure.setflags(write=False)
    return closure


def _factor_weyl(rs: RootSystem) -> CosetFactorization:
    """Split W through the stabilizer W_J of a coweight, from the simple reflections alone.

    The positive coroots of the roots that involve alpha_j sum to
    2 rho^v - 2 rho_J^v, which pairs to 0 with alpha_i for i != j and
    positively with alpha_j: a positive multiple c of omega_j^v.  Its
    stabilizer is generated by the s_i with i != j (Humphreys, *Reflection
    Groups and Coxeter Groups*, 1.10-1.12), and R takes one element per
    point of the orbit of c.  j minimizes |W_J| + |R|; W is never formed.
    """
    gens = rs.simple_reflections

    def at(j):
        involves = [root.coeffs[j] != 0 for root in rs.positive_roots]
        coweight = rs.coroot_matrix[involves].sum(axis=0)
        parts = _close_weyl(np.delete(gens, j, axis=0)), _close_weyl(gens, coweight)
        return CosetFactorization(j, coweight, *parts, max(int(np.abs(w).max()) for w in parts))

    size = lambda f: len(f.stabilizer) + len(f.representatives)
    factorization = min(map(at, range(rs.rank)), key=size)
    certify_factorization(gens, factorization)
    factorization.coweight.setflags(write=False)
    return factorization


def certify_factorization(gens: np.ndarray, factorization: CosetFactorization) -> None:
    """Raise CertificateError unless every w in W is u * r for exactly one u in W_J, r in R.

    W is never formed.  Each part starts at the identity, and every later
    element is an earlier one times a generator (an s_i with i != j for
    W_J, any s_i for R), so both parts lie in W.  W_J is distinct, fixes
    c and is closed under its generators, so it is the whole group they
    generate.  c pairs to 0 with every alpha_i, i != j, and positively
    with alpha_j, so c is dominant and that group is its whole stabilizer
    (Humphreys 1.12).  The rows c * r are distinct and closed under every
    s_i, so they are the orbit of c, each point once.  Then for each w,
    c * w = c * r for exactly one r, and w r^-1 fixes c, so it is the one
    u in W_J with w = u r.
    """
    node, coweight, stabilizer, reps = factorization[:4]
    # column j of 1 - s_j is alpha_j, so these columns form the Cartan matrix
    cartan = np.eye(len(gens), dtype=np.int64) - np.diagonal(gens, 0, 0, 2)
    pairings = (coweight @ cartan).tolist()
    if pairings[node] <= 0 or any(pairings[:node] + pairings[node + 1:]):
        raise CertificateError(f"the coweight is not a positive multiple of omega_{node}^v")
    if not (coweight @ stabilizer == coweight).all():
        raise CertificateError(f"W_J moves the coweight of node {node}")
    steps = _certify_words("W_J", stabilizer, np.delete(gens, node, axis=0))
    elements = _keys(stabilizer)
    if len(set(elements)) != len(elements):
        raise CertificateError("W_J repeats an element")
    if not set(_keys(steps)) <= set(elements):
        raise CertificateError(f"W_J is not closed under the s_i with i != {node}")
    orbit = _keys(coweight @ reps)
    if len(set(orbit)) != len(orbit):
        raise CertificateError("two representatives lie in the same coset of W_J")
    if not set(_keys(coweight @ _certify_words("R", reps, gens))) <= set(orbit):
        raise CertificateError("the rows c * r are not the whole orbit of the coweight")


def _certify_words(name: str, part: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Every product of an element of `part` with a generator, element-major;
    raises CertificateError unless part[0] is the identity and each later
    element is one of these products with an earlier element."""
    n = gens.shape[-1]
    if not len(part) or not np.array_equal(part[0], np.eye(n, dtype=np.int64)):
        raise CertificateError(f"{name} does not start at the identity")
    steps = (part[:, None] @ gens[None]).reshape(-1, n, n)
    first = {}
    for i, k in enumerate(_keys(steps)):
        first.setdefault(k, i // len(gens))
    if any(first.get(k, i) >= i for i, k in enumerate(_keys(part)) if i):
        raise CertificateError(f"{name} holds an element that is not a product of generators")
    return steps


@lru_cache(maxsize=None)
def build_root_system(spec: CartanSpec) -> RootSystem:
    """Positive roots and coroots by reflection closure; the Weyl group is never formed."""
    a = spec.matrix
    n = spec.rank
    at = tuple(tuple(a[j][i] for j in range(n)) for i in range(n))

    def reflect(pair, j):
        c, cv = pair
        fw_j = sum(a[j][i] * c[i] for i in range(n))
        cofw_j = sum(at[j][i] * cv[i] for i in range(n))
        new_c = tuple(c[i] - (fw_j if i == j else 0) for i in range(n))
        new_cv = tuple(cv[i] - (cofw_j if i == j else 0) for i in range(n))
        return new_c, new_cv

    unit = lambda i: tuple(1 if t == i else 0 for t in range(n))
    roots = {}
    work = [(unit(i), unit(i)) for i in range(n)]
    for pair in work:
        roots[pair[0]] = pair[1]
    while work:
        pair = work.pop()
        for j in range(n):
            c, cv = reflect(pair, j)
            if all(x >= 0 for x in c) and c not in roots:
                if len(roots) >= POSITIVE_ROOT_CAP:
                    raise NotFiniteType("positive root closure exceeded cap")
                roots[c] = cv
                work.append((c, cv))

    ordered = sorted(roots.items(), key=lambda item: (sum(item[0]), item[0]))
    positive = tuple(PositiveRoot(c, cv) for c, cv in ordered)
    return RootSystem(spec, positive, 1 + max(r.height for r in positive))


# -- weight operations --------------------------------------------------

def check_rank(rs: RootSystem, lam) -> None:
    """Raise ValueError unless `lam` has one coordinate per simple root."""
    if len(lam) != rs.rank:
        raise ValueError(
            f"weight has {len(lam)} coordinates but the root system has rank {rs.rank}"
        )


def add_weights(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def sub_weights(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def pairing(rs: RootSystem, lam: Weight, root: PositiveRoot | int) -> int:
    """<lam, alpha_v> for a positive root (by value or index)."""
    if isinstance(root, int):
        root = rs.positive_roots[root]
    return sum(cv * l for cv, l in zip(root.coroot_coeffs, lam))


def shifted_pairings(rs: RootSystem, lam: Weight) -> list[int]:
    """<lam + rho, alpha_v> for every positive root, in the order of `positive_roots`.

    One product with `coroot_matrix`, in int64 when every partial sum is
    below 2^63 (each is at most rank * max|coroot entry| * max|lam + rho|),
    and on exact Python ints otherwise.  Raises ValueError unless `lam`
    has `rank` coordinates.
    """
    check_rank(rs, lam)
    shifted = add_weights(lam, rs.rho)
    if rs.rank * rs.coroot_entry_bound * max(map(abs, shifted)) < _INT64_SAFE:
        return (rs.coroot_matrix @ np.array(shifted, dtype=np.int64)).tolist()
    return [pairing(rs, shifted, root) for root in rs.positive_roots]


def apply_weyl(w: Matrix, lam: Weight) -> Weight:
    return tuple(sum(x * y for x, y in zip(row, lam)) for row in w)


def dot_action(rs: RootSystem, w, lam: Weight):
    """w . lam = w(lam + rho) - rho.

    `w` is one Weyl matrix, giving a Weight, or a (k, rank, rank) stack
    of them, giving every w . lam at once as a (k, rank) array of the
    stack's dtype (int64, or object for exact Python ints).
    """
    shifted = add_weights(lam, rs.rho)
    if isinstance(w, np.ndarray) and w.ndim == 3:
        rho = np.array(rs.rho, dtype=w.dtype)
        return w @ np.array(shifted, dtype=w.dtype) - rho
    return sub_weights(apply_weyl(w, shifted), rs.rho)


def psi_set(rs: RootSystem, lam: Weight, p: int, r: int) -> tuple[int, ...]:
    """Indices of positive roots alpha with p^r | <lam + rho, alpha_v>, p prime."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if r < 0:
        raise ValueError("r must be >= 0")
    mod = p**r
    return tuple(i for i, a in enumerate(shifted_pairings(rs, lam)) if a % mod == 0)


def is_pr_regular(rs: RootSystem, lam: Weight, p: int, r: int) -> bool:
    return len(psi_set(rs, lam, p, r)) == 0


def is_good_prime(rs: RootSystem, p: int) -> bool:
    """p divides no coefficient of a positive root over the simple roots."""
    return all(
        c % p != 0
        for root in rs.positive_roots
        for c in root.coeffs
        if c != 0
    )
