"""Root systems from Cartan matrices, and the weight combinatorics on top.

Everything is exact integer arithmetic.  Weights live in the weight
lattice of the simply connected group and are written in the basis of
fundamental weights, so a weight is just a tuple of ints of length
`rank`.  Column j of the Cartan matrix gives the fundamental-weight
coordinates of the j-th simple root.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


def _symmetrize(m: Matrix):
    """Diagonal scaling making D*A symmetric, or raise NotFiniteType."""
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
    return [[d[i] * m[i][j] for j in range(n)] for i in range(n)]


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

    W_J (`stabilizer`) is the stabilizer of the fundamental weight
    omega_j of node j (`node`); it also fixes the coweight omega_j^v,
    a positive multiple of which is the integer row `coweight` on weight
    coordinates.  `representatives` holds one element r of each right
    coset W_J * r, the first reached in the order of `weyl_array`.  The
    `*_index` arrays give each element's position in `weyl_array`.
    """

    node: int
    coweight: np.ndarray
    stabilizer: np.ndarray
    representatives: np.ndarray
    stabilizer_index: np.ndarray
    representative_index: np.ndarray


@dataclass(frozen=True)
class RootSystem:
    cartan: CartanSpec
    positive_roots: tuple[PositiveRoot, ...]
    # The Weyl group as one read-only (|W|, rank, rank) int64 array, in
    # breadth-first order by length.  It is determined by `cartan`, and an
    # array has no usable == or hash, so it stays out of both.
    weyl_array: np.ndarray = field(compare=False, repr=False)
    coxeter_number: int

    @property
    def rank(self) -> int:
        return self.cartan.rank

    @property
    def rho(self) -> Weight:
        return self.cartan.rho

    @cached_property
    def weyl(self) -> tuple[Matrix, ...]:
        """The Weyl group as integer matrices, in the order of `weyl_array`."""
        return tuple(tuple(map(tuple, w)) for w in self.weyl_array.tolist())

    @cached_property
    def weyl_entry_bound(self) -> int:
        """The largest absolute entry of any Weyl group matrix."""
        return max(int(self.weyl_array.max()), -int(self.weyl_array.min()))

    @cached_property
    def coset_factorization(self) -> CosetFactorization:
        """W = W_J * R through the smallest pair of orbits, certified; see `_factor_weyl`."""
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


def _mat_vec(m: Matrix, v) -> tuple[int, ...]:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


# Elements of one level whose products with the generators are formed at
# once; bounds the candidate array when a level is large (E7, E8).
_WEYL_BLOCK = 4096


def _close_weyl(gens: np.ndarray) -> np.ndarray:
    """The group generated by `gens`, breadth-first by length.

    Each level is the new products w·s, w over the previous level and s
    over the generators, w-major, in the order they are first reached.
    Raises NotFiniteType once a new element would exceed WEYL_CAP.
    """
    n = gens.shape[-1]
    width = n * n * gens.itemsize
    frontier = np.eye(n, dtype=np.int64)[None]
    seen = {frontier.tobytes()}
    levels = [frontier]
    while len(frontier):
        fresh = []
        for start in range(0, len(frontier), _WEYL_BLOCK):
            block = frontier[start:start + _WEYL_BLOCK, None] @ gens[None]
            block = block.reshape(-1, n, n)
            raw = block.tobytes()
            keep = []
            for i in range(len(block)):
                key = raw[i * width:(i + 1) * width]
                if key not in seen:
                    if len(seen) >= WEYL_CAP:
                        raise NotFiniteType("Weyl closure exceeded cap")
                    seen.add(key)
                    keep.append(i)
            fresh.append(block[keep])
        frontier = np.concatenate(fresh)
        levels.append(frontier)
    weyl = np.concatenate(levels)
    weyl.setflags(write=False)
    return weyl


def _factor_weyl(rs: RootSystem) -> CosetFactorization:
    """Split W through the stabilizer W_J of one fundamental weight omega_j.

    w fixes omega_j exactly when its column j is e_j.  The positive
    coroots of the roots that involve alpha_j sum to 2 rho^v - 2 rho_J^v,
    which pairs to 0 with alpha_i for i != j and positively with alpha_j:
    a positive multiple c of omega_j^v, fixed by W_J and by nothing else,
    so c * w names the right coset W_J * w (Humphreys, *Reflection Groups
    and Coxeter Groups*, 1.10-1.12).  j minimizes |W_J| + |W| / |W_J|.
    """
    weyl = rs.weyl_array
    # one column at a time: the queries that build W first are near the
    # process's peak memory, so no (|W|, n, n) temporary is made here
    sizes = [int(_fixes(weyl, j).sum()) for j in range(rs.rank)]
    node = min(range(rs.rank), key=lambda j: sizes[j] + len(weyl) // sizes[j])
    involves = [root.coeffs[node] != 0 for root in rs.positive_roots]
    coweight = rs.coroot_matrix[involves].sum(axis=0)
    stabilizer_index = np.flatnonzero(_fixes(weyl, node))
    keys = (coweight @ weyl).tobytes()
    width = len(keys) // len(weyl)
    first = {}
    for i in range(len(weyl)):
        first.setdefault(keys[i * width:(i + 1) * width], i)
    representative_index = np.array(list(first.values()))
    factorization = CosetFactorization(
        node, coweight, weyl[stabilizer_index], weyl[representative_index],
        stabilizer_index, representative_index,
    )
    certify_factorization(weyl, factorization)
    for part in factorization[1:]:
        part.setflags(write=False)
    return factorization


def certify_factorization(weyl: np.ndarray, factorization: CosetFactorization) -> None:
    """Raise CertificateError unless W_J is a group and the products u * r are W, each once.

    The elements of W_J and of R are the rows of `weyl` at their indices,
    distinct indices, so they are distinct elements of W.  W_J is the
    stabilizer of omega_j, a group, when its elements fix omega_j and are
    as many as the elements of W that do.  Its elements must also fix the
    coweight row c, and the rows c * r must be distinct: then u r = u' r'
    gives c r = c u r = c u' r' = c r', so r = r' and u = u'.  With
    |W_J| * |R| = |W|, the products are |W| distinct elements of the
    group W, which is all of it.  No product u * r is formed, so the
    check costs a few small arrays.
    """
    node, coweight, stabilizer, reps, stabilizer_index, rep_index = factorization
    for name, part, index in (("W_J", stabilizer, stabilizer_index), ("R", reps, rep_index)):
        at = index.tolist()
        if (
            not all(0 <= i < len(weyl) for i in at)
            or len(set(at)) != len(at)
            or not np.array_equal(weyl[index], part)
        ):
            raise CertificateError(f"{name} is not a set of distinct elements of W")
    if not _fixes(stabilizer, node).all() or len(stabilizer) != _fixes(weyl, node).sum():
        raise CertificateError(f"W_J is not the stabilizer of omega_{node}")
    if not (coweight @ stabilizer == coweight).all():
        raise CertificateError(f"W_J moves the coweight of node {node}")
    if len(set(map(tuple, (coweight @ reps).tolist()))) != len(reps):
        raise CertificateError("two representatives lie in the same coset of W_J")
    if len(stabilizer) * len(reps) != len(weyl):
        raise CertificateError(
            f"|W_J| * |R| = {len(stabilizer)} * {len(reps)} is not |W| = {len(weyl)}"
        )


def _fixes(ws: np.ndarray, j: int) -> np.ndarray:
    """Which of the stacked matrices fix omega_j: those whose column j is e_j."""
    return (ws[:, :, j] == np.eye(ws.shape[-1], dtype=ws.dtype)[j]).all(axis=1)


@lru_cache(maxsize=None)
def build_root_system(spec: CartanSpec) -> RootSystem:
    """Positive roots and Weyl group by reflection closure."""
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

    # s_j fixes every fundamental weight but the j-th and sends it to
    # itself minus alpha_j, whose coordinates are column j of the matrix.
    cartan = np.array(a, dtype=np.int64)
    gens = np.repeat(np.eye(n, dtype=np.int64)[None], n, axis=0)
    for j in range(n):
        gens[j, :, j] -= cartan[:, j]

    h = 1 + max(r.height for r in positive)
    return RootSystem(spec, positive, _close_weyl(gens), h)


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
    return _mat_vec(w, lam)


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
