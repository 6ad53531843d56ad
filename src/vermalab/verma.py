"""Decision procedures for baby Verma modules over Frobenius kernels.

All procedures are arithmetic on the weight side: depth of a weight,
the projectivity criterion, depth reduction to a depth-one weight, and
block membership.  `classify` bundles them into a report whose every
populated field carries a justification note; fields whose hypotheses
fail are simply absent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .gf import _INT64_SAFE, is_prime
from .modules import CertificateError
from .rootsys import (
    CartanSpec,
    RootSystem,
    Weight,
    add_weights,
    build_root_system,
    check_rank,
    dot_action,
    integer_det,
    is_good_prime,
    is_pr_regular,
    psi_set,
    shifted_pairings,
)

NEG_INFINITY = float("-inf")

AR_PROJECTIVE = "Projective"
AR_QUASI_SIMPLE = "QuasiSimpleAInfty"
AR_TUBE = "HomogeneousTube"
AR_TILDE_A12 = "TildeA12Possible"


class BadPrime(ValueError):
    """The prime is not good for the root system."""


class DepthOutOfRange(ValueError):
    """depth_reduce needs 2 <= depth(lam) <= r."""


def _p_adic_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def depth(rs: RootSystem, lam: Weight, p: int) -> int | float:
    """Least s >= 1 such that not every pairing of lam+rho is divisible by p^s.

    Equals 1 + min p-adic valuation over the nonzero pairings, which is
    the valuation of their gcd, and NEG_INFINITY when every pairing
    vanishes (then divisibility holds for all s).  Raises ValueError
    unless p is prime.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    g = math.gcd(*shifted_pairings(rs, lam))
    if g == 0:
        return NEG_INFINITY
    return 1 + _p_adic_valuation(g, p)


def is_projective_verma(rs: RootSystem, lam: Weight, p: int, r: int) -> bool:
    """Every pairing of lam+rho divisible by p^r; needs a good prime."""
    if not is_good_prime(rs, p):
        raise BadPrime(f"p = {p} divides a root coefficient of this system")
    return len(psi_set(rs, lam, p, r)) == len(rs.positive_roots)


def depth_reduce(rs: RootSystem, lam: Weight, p: int, r: int) -> tuple[int, Weight]:
    """Write lam = p^d * mu + (p^d - 1) * rho with depth(mu) = 1.

    Defined when 2 <= depth(lam) <= r; then d = depth(lam) - 1.
    """
    dep = depth(rs, lam, p)
    if dep == NEG_INFINITY or not 2 <= dep <= r:
        raise DepthOutOfRange(
            f"depth {dep} outside [2, {r}]; nothing to reduce"
        )
    d = int(dep) - 1
    q = p**d
    mu = []
    for x in lam:
        num = x - (q - 1)
        if num % q != 0:
            raise CertificateError(f"depth {dep} leaves a remainder reducing {lam}")
        mu.append(num // q)
    mu = tuple(mu)
    mu_depth = depth(rs, mu, p)
    if mu_depth != 1:
        raise CertificateError(f"reduced weight {mu} has depth {mu_depth}, not 1")
    if lam != add_weights(tuple(q * m for m in mu), tuple(q - 1 for _ in lam)):
        raise CertificateError(f"p^d * mu + (p^d - 1) * rho does not give back {lam}")
    return d, mu


# -- block membership ---------------------------------------------------

def smith_diagonalize(m):
    """Unimodular U with U*m*V diagonal; returns (diagonal entries, U).

    The right transform V is not tracked: column operations do not
    affect solvability of m*x = v, which is all the callers need.
    """
    m = [list(row) for row in m]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    t = 0
    while t < min(rows, cols):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (
                    pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        if i0 != t:
            m[t], m[i0] = m[i0], m[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for row in m:
                row[t], row[j0] = row[j0], row[t]
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = _nearest_quotient(m[i][t], m[t][t])
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[t])]
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        u[t], u[i] = u[i], u[t]
                        dirty = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = _nearest_quotient(m[t][j], m[t][t])
                    for row in m:
                        row[j] -= q * row[t]
                    if m[t][j] != 0:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
            if not dirty:
                break
        t += 1
    diag = [m[i][i] for i in range(t)]
    return diag, u


def _nearest_quotient(a: int, b: int) -> int:
    q, rem = divmod(a, b)
    if 2 * abs(rem) > abs(b):
        q += 1
    return q


@dataclass(frozen=True)
class _Lattice:
    """The v with U v divisible by `diag` entry by entry; U is unimodular,
    read-only int64 and shared per Cartan matrix, with max|U| = `u_bound`."""

    diag: tuple[int, ...]
    u: np.ndarray
    u_bound: int

    def classes(self, vs: np.ndarray) -> np.ndarray:
        """The class of each row of vs modulo the lattice, in vs's dtype.

        A class is U v reduced entry by entry; the lattice's class is 0.
        """
        images = vs @ self.u.T.astype(vs.dtype, copy=False)
        images %= np.array(self.diag, dtype=vs.dtype)
        return images

    def contains(self, v) -> bool:
        return not self.classes(np.array([v], dtype=object)).any()


def certify_smith(matrix, diag, u) -> None:
    """Raise CertificateError unless U * matrix = diag(diag) * M with M unimodular.

    Checked on exact integers: |det U| = 1, row i of U * matrix is
    divisible by diag_i, and the product of the |diag_i| is |det matrix|.
    Together these make M integral with |det M| = 1.
    """
    n = len(matrix)
    if abs(integer_det(u)) != 1:
        raise CertificateError("the Smith transform U is not unimodular")
    if len(diag) != n or math.prod(map(abs, diag)) != abs(integer_det(matrix)):
        raise CertificateError("the Smith diagonal does not multiply to |det|")
    for row, s in zip(u, diag):
        image = [sum(a * matrix[t][j] for t, a in enumerate(row)) for j in range(n)]
        if any(x % s for x in image):
            raise CertificateError(f"a row of U * matrix is not divisible by {s}")


@lru_cache(maxsize=None)
def _cartan_smith(spec: CartanSpec) -> tuple[tuple[int, ...], np.ndarray, int, np.ndarray]:
    """The certified Smith diagonal s and transform U of the Cartan matrix,
    max|U|, and the identity; both matrices read-only int64."""
    diag, u = smith_diagonalize(spec.matrix)
    certify_smith(spec.matrix, diag, u)
    u, ident = np.array(u, dtype=np.int64), np.eye(spec.rank, dtype=np.int64)
    u.flags.writeable = ident.flags.writeable = False
    return tuple(diag), u, int(np.abs(u).max()), ident


def translation_lattice(rs: RootSystem, dep: int | float, p: int, r: int) -> _Lattice:
    """The lattice L = p^depth * (root lattice) + p^r * (weight lattice).

    The root lattice is C Z^n, C the Cartan matrix, so with U C V = diag(s)
    U L is the sum of the gcd(p^d s_i, p^r) Z at depth d < r.  At depth
    minus infinity, or d >= r, L = p^r Z^n and U = I.
    """
    s, u, u_bound, ident = _cartan_smith(rs.cartan)
    if dep == NEG_INFINITY or dep >= r:
        return _Lattice((p**r,) * rs.rank, ident, 1)
    d = int(dep)
    return _Lattice(tuple(p**d * math.gcd(x, p ** (r - d)) for x in s), u, u_bound)


def block_contains(rs: RootSystem, gamma: Weight, lam: Weight, p: int, r: int) -> bool:
    """Is gamma in the block of lam at level r?

    The block is the union over Weyl elements w of (w . lam) + L, with
    L = p^depth(lam) * (root lattice) + p^r * (weight lattice) and the
    convention that p^depth vanishes at depth minus infinity.  L is
    W-stable, so with W = W_J * R (`RootSystem.coset_factorization`),
    gamma + rho - u r (lam + rho) lies in L exactly when
    u^-1 (gamma + rho) - r (lam + rho) does.  W_J is a group, so gamma is
    in the block when the classes mod L of the u (gamma + rho), u in W_J,
    meet those of the r (lam + rho), r in R.  Each side is one stacked
    product, in int64 when a bound on every partial sum and the moduli of
    L are below 2^63, and on exact Python ints otherwise.  Raises
    ValueError unless both weights have `rank` coordinates.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    check_rank(rs, gamma)
    lattice = translation_lattice(rs, depth(rs, lam, p), p, r)
    factorization = rs.coset_factorization
    lifted = add_weights(gamma, rs.rho)
    n = rs.rank
    # every partial sum of U w v, for w in W_J or R and v = gamma + rho or
    # lam + rho, is at most n * max|u_ij| * n * max|w_ij| * max|v_i|; the
    # classes are then reduced by the moduli of L, which must fit as well
    size = max(map(abs, lifted + add_weights(lam, rs.rho)))
    bound = max(n * n * lattice.u_bound * factorization.entry_bound * size, max(lattice.diag))
    dtype = np.int64 if bound < _INT64_SAFE else object
    ours = factorization.stabilizer.astype(dtype, copy=False) @ np.array(lifted, dtype=dtype)
    reps = factorization.representatives.astype(dtype, copy=False)
    theirs = dot_action(rs, reps, lam) + np.array(rs.rho, dtype=dtype)
    keys = list(map(tuple, lattice.classes(np.concatenate((ours, theirs))).tolist()))
    return not set(keys[:len(ours)]).isdisjoint(keys[len(ours):])


# -- classification report ---------------------------------------------

@dataclass
class VermaReport:
    lam: Weight
    p: int
    r: int
    depth: int | float
    projective: bool
    reduction: tuple[int, Weight] | None
    cx_lower_bound: int
    variety_dim: int | None
    cx: int | None
    variety_irreducible: bool | None
    ar_position: str
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lam),
            "p": self.p,
            "r": self.r,
            "depth": "-inf" if self.depth == NEG_INFINITY else int(self.depth),
            "projective": self.projective,
            "reduction": (
                None
                if self.reduction is None
                else {"d": self.reduction[0], "mu": list(self.reduction[1])}
            ),
            "cx_lower_bound": self.cx_lower_bound,
            "variety_dim": self.variety_dim,
            "cx": self.cx,
            "variety_irreducible": self.variety_irreducible,
            "ar_position": self.ar_position,
            "notes": list(self.notes),
        }


def _is_rank_one(spec: CartanSpec) -> bool:
    return spec.matrix == ((2,),)


def _is_rank_two_a(spec: CartanSpec) -> bool:
    return spec.matrix == ((2, -1), (-1, 2))


def classify(spec: CartanSpec, lam: Weight, p: int, r: int) -> VermaReport:
    """Full report for the level-r baby Verma module of highest weight lam."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime >= 3")
    rs = build_root_system(spec)
    dep = depth(rs, lam, p)
    projective = is_projective_verma(rs, lam, p, r)
    notes = []
    if dep == NEG_INFINITY:
        notes.append("depth: -inf, every pairing of lambda+rho vanishes")
    else:
        notes.append("depth: 1 + min p-adic valuation of the nonzero pairings of lambda+rho")
    if projective:
        notes.append("projective: every pairing of lambda+rho is divisible by p^r")
    else:
        notes.append("not projective: some pairing of lambda+rho is not divisible by p^r")

    reduction = None
    if dep != NEG_INFINITY and 2 <= dep <= r:
        reduction = depth_reduce(rs, lam, p, r)
        notes.append(
            "reduction: lambda = p^d*mu + (p^d-1)*rho with depth(mu) = 1, d = depth-1"
        )

    if projective:
        cx_lower = 0
        variety_dim: int | None = 0
        cx: int | None = 0
        irreducible: bool | None = True
        notes.append("support variety of a projective module is the origin")
    else:
        # not projective forces a finite depth in [1, r]
        d = int(dep) - 1
        cx_lower = r - d
        notes.append(
            "complexity lower bound r-d: reduction by d depth steps keeps complexity"
        )
        variety_dim = cx = None
        irreducible = None
        if _is_rank_one(spec):
            variety_dim = cx = r + 1 - int(dep)
            irreducible = True
            notes.append(
                "rank-one exact value: variety is an affine space of dim r+1-depth"
            )
        elif _is_rank_two_a(spec) and p >= rs.coxeter_number and is_pr_regular(
            rs, lam, p, int(dep)
        ):
            variety_dim = cx = 2 * (r - int(dep)) + 3
            irreducible = True
            notes.append(
                "rank-two exact value for p^depth-regular weights: 2(r-depth)+3"
            )
            if r >= 2:
                notes.append(
                    "formula-only value: not verifiable by the desk-scale module computations here"
                )
        elif _is_rank_two_a(spec):
            notes.append(
                "no exact variety value: weight is not p^depth-regular"
            )
        else:
            notes.append("no exact variety formula registered for this type")

    if projective:
        position = AR_PROJECTIVE
    elif cx == 1:
        position = AR_TUBE
        notes.append("complexity one: stable component is a homogeneous tube")
    else:
        position = AR_QUASI_SIMPLE
        notes.append("non-projective induced module: quasi-simple in an A-infinity component")

    if variety_dim is not None and variety_dim < cx_lower:
        raise CertificateError(
            f"exact variety dimension {variety_dim} undercuts the bound {cx_lower}"
        )

    return VermaReport(
        lam=tuple(lam),
        p=p,
        r=r,
        depth=dep,
        projective=projective,
        reduction=reduction,
        cx_lower_bound=cx_lower,
        variety_dim=variety_dim,
        cx=cx,
        variety_irreducible=irreducible,
        ar_position=position,
        notes=notes,
    )


def ar_position_for_simple(variety_dim: int) -> tuple[str, str]:
    """Stable-component label for a simple module with known variety dim.

    Returns (label, explanation).  Simple modules are projective, or
    quasi-simple in an A-infinity component, except that when the
    variety has dimension 2 a component of tree class tilde-A12 cannot
    be ruled out at this level of the theory.
    """
    if variety_dim == 0:
        return AR_PROJECTIVE, "zero-dimensional variety: the module is projective"
    if variety_dim == 2:
        return (
            AR_TILDE_A12,
            "two-dimensional variety: quasi-simple, or possibly in a tilde-A12 component",
        )
    return AR_QUASI_SIMPLE, "quasi-simple at the end of an A-infinity component"
