"""Exact SL(2) Frobenius-kernel modules over small prime fields.

Modules with r = 1 live over the restricted enveloping algebra and
carry generator labels e, f, h.  Modules with r = 2 additionally carry
the divided powers e_p and f_p of the hyperalgebra.  All matrices act
on column vectors, so ``ops[label][j, i]`` is the coefficient of basis
vector j in the image of basis vector i.

The `build_*` builders, `tensor`, `frobenius_twist` and
`restricted_as_r2` run Sl2Schema.check on what they return, at both
levels; the covers are summands of checked tensors.  What level two
does not check yet are the relations that pair a raising operator
with a lowering one across levels ([e, f_p], [e_p, f], [e_p, f_p]); the
verification suites at the bottom of this file (character bookkeeping,
the projectivity criterion over all weights, the filtration check, and
the tensor factorization of depth-reduced modules) over-determine them.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import GF, is_prime
from .modules import (
    CertificateError,
    FpModule,
    ModuleLibrary,
    SchemaMismatch,
    _homs_from_simples,
    _joint_image,
    _multiplicities,
    build_extension,
    decompose,
    direct_sum,
    eigenvalue_multiplicities,
    ext1_cocycles,
    is_indecomposable,
    is_isomorphic,
    is_projective_module,
    quotient_by_columns,
    radical_submodule,
    restrict_labels,
    submodule_from_columns,
    syzygy,
    top_multiplicities,
)
from .rootsys import CartanSpec, build_root_system
from .verma import block_contains, depth

R1_LABELS = ("e", "f", "h")
R2_LABELS = ("e", "f", "h", "e_p", "f_p")


class DimensionNotDivisible(ValueError):
    """Raised when a rank-variety scan needs p | dim but does not have it."""


@dataclass(frozen=True)
class Sl2Schema:
    """Generator conventions for one Frobenius-kernel level.

    r = 1 uses labels {e, f, h} subject to the restricted relations
    [e,f] = h, [h,e] = 2e, [h,f] = -2f, e^p = f^p = 0, h^p = h.
    r = 2 adds the divided-power labels {e_p, f_p}; the commutators
    that close over this label set ([h, e_p] = [h, f_p] = 0 and
    [e, e_p] = [f, f_p] = 0, plus p-th powers vanishing) are checked
    on every constructed module.  Modules come in a weight basis, with
    h diagonal; `check` refuses any other.
    """

    p: int
    r: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p < 3:
            raise ValueError(f"p = {self.p} must be an odd prime")
        if self.r not in (1, 2):
            raise ValueError(f"unsupported kernel level r = {self.r}")

    @property
    def labels(self) -> tuple[str, ...]:
        return R1_LABELS if self.r == 1 else R2_LABELS

    @property
    def field(self) -> GF:
        return GF(self.p)

    def check(self, mod: FpModule) -> None:
        """Check the relation set that closes over this label set, on weight blocks.

        h must be diagonal, as on the weight basis of a G_rT-module: the
        weight relations [h, X] = cX are read off its diagonal, h^p = h
        holds there by Fermat's little theorem, and the brackets and p-th
        powers of the operators that pass their weight relation are taken
        on weight blocks (see _graded_relations).  A field or label mismatch
        or an h that is not diagonal raises SchemaMismatch, and a failed
        relation raises CertificateError naming the first one in the table;
        unlike assert, python -O strips neither.
        """
        f = mod.field
        if f.p != self.p or f.k != 1:
            raise SchemaMismatch(f"a module over F_{f.q} is not over F_{self.p}")
        if set(mod.labels) != set(self.labels):
            raise SchemaMismatch(f"labels {sorted(mod.labels)} are not {sorted(self.labels)}")
        d = mod._diagonals.get("h")
        if d is None:
            raise SchemaMismatch("h is not diagonal, so the basis is not a weight basis")
        p = self.p
        ops = mod.ops
        # the h-weight c of every operator X besides h: [h, X] = cX
        weights = {"e": 2, "f": p - 2}
        pairs = [("e", "f")]
        if self.r == 2:
            weights.update(e_p=0, f_p=0)
            pairs += [("e", "e_p"), ("f", "f_p")]
        # with h = diag(d), [h, X] has entries (d_i - d_j) X_ij, so [h, X] = cX
        # says that X vanishes wherever d_i - d_j != c
        gaps = (d[:, None] - d[None, :]) % p
        weighted = {x: not np.any(ops[x][gaps != c]) for x, c in weights.items()}
        graded = {x: ops[x] for x in weights if weighted[x]}
        holds = _graded_relations(f, d, graded, weights, pairs, ops["h"]) if graded else {}
        # [e, f] = h comes first in the table, so it is multiplied out when e
        # or f is off its weight; any other relation missing from holds comes
        # after the failed weight relation of one of its operators
        if ("e", "f") not in holds:
            holds["e", "f"] = not np.any(f.sub(_bracket(f, ops["e"], ops["f"]), ops["h"]))
        relations = [
            ("[e, f] = h", holds["e", "f"]),
            ("[h, e] = 2e", weighted["e"]),
            ("[h, f] = -2f", weighted["f"]),
            ("e^p = 0", holds.get("e")),
            ("f^p = 0", holds.get("f")),
        ]
        if self.r == 2:
            relations += [
                ("[h, e_p] = 0", weighted["e_p"]),
                ("[h, f_p] = 0", weighted["f_p"]),
                ("[e, e_p] = 0", holds.get(("e", "e_p"))),
                ("[f, f_p] = 0", holds.get(("f", "f_p"))),
                ("e_p^p = 0", holds.get("e_p")),
                ("f_p^p = 0", holds.get("f_p")),
            ]
        for name, ok in relations:
            if not ok:
                raise CertificateError(f"relation {name} fails at p = {p}, r = {self.r}")


def _bracket(f: GF, a, b):
    return f.sub(f.matmul(a, b), f.matmul(b, a))


def _graded_relations(f: GF, d, ops, weights, pairs, h) -> dict:
    """Whether the brackets of `pairs` and the p-th powers of `ops` hold, on weight blocks.

    Every operator X in ops passed its weight relation for h = diag(d),
    so X maps weight class a to class a + c for its weight c, and block
    a of X is X on the rows of class a + c and the columns of class a.
    Then (XY)[a] = X[a + c_Y] Y[a], so each bracket and each squaring is
    a product of blocks.  With each class padded to the size s of the
    largest, the blocks of all operators form one stack of shape
    (len(ops), p, s, s), and the whole table takes one stacked product
    per squaring.  Returns {(x, y): [X, Y] = h or 0, x: X^p = 0} for the
    pairs with both operators in ops and every x in ops.
    """
    p = f.p
    dim = len(d)
    counts = np.bincount(d, minlength=p)
    s = int(counts.max())
    labels = list(ops)
    at = {x: i for i, x in enumerate(labels)}
    # basis index of the j-th vector of class a; the slots past the end
    # of a class repeat an index, and the mask `real` zeroes them
    order = np.argsort(d, kind="stable")
    slot = np.arange(s)
    starts = np.cumsum(counts) - counts
    idx = order[np.minimum(starts[:, None] + slot, dim - 1)]
    real = slot < counts[:, None]
    classes = np.arange(p)

    def gather(x, c):
        # the p blocks of X, of weight c: rows of class a + c, columns of class a
        rows = (classes + c) % p
        mask = real[rows][:, :, None] & real[:, None, :]
        return x[idx[rows][:, :, None], idx[:, None, :]] * mask

    blocks = np.stack([gather(ops[x], weights[x]) for x in labels])
    hblocks = gather(h, 0)
    c = np.array([weights[x] for x in labels])

    def product(left, right, shift):
        # blocks of XY from those of X and of Y, for Y of weight shift
        return f.matmul(left[np.arange(len(left))[:, None], (classes + shift[:, None]) % p], right)

    # the brackets go with the first squaring, in one product; p is odd,
    # so the power X^p starts from X itself
    pairs = [(x, y) for x, y in pairs if x in at and y in at]
    xs = [at[x] for x, _ in pairs]
    ys = [at[y] for _, y in pairs]
    n = len(pairs)
    first = product(
        np.concatenate([blocks[xs], blocks[ys], blocks]),
        np.concatenate([blocks[ys], blocks[xs], blocks]),
        np.concatenate([c[ys], c[xs], c]),
    )
    holds = {}
    for k, (x, y) in enumerate(pairs):
        bracket = f.sub(first[k], first[n + k])
        if (x, y) == ("e", "f"):
            bracket = f.sub(bracket, hblocks)
        holds[x, y] = not np.any(bracket)
    power, square, weight, e = blocks, first[2 * n :], 2 * c % p, p >> 1
    while True:
        if e & 1:
            power = product(power, square, weight)
        e >>= 1
        if not e:
            break
        square, weight = product(square, square, weight), 2 * weight % p
    for x in labels:
        holds[x] = not np.any(power[at[x]])
    return holds


def schema_of(mod: FpModule) -> Sl2Schema:
    """Recover the schema of a constructed module from its label set."""
    labels = set(mod.labels)
    if labels == set(R1_LABELS):
        return Sl2Schema(mod.field.p, 1)
    if labels == set(R2_LABELS):
        return Sl2Schema(mod.field.p, 2)
    raise SchemaMismatch(f"labels {sorted(labels)} fit neither kernel level")


def binom_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod p for any integer n and k >= 0.

    Nonnegative n goes through Lucas' digit product.  Negative n uses
    the reflection C(n, k) = (-1)^k C(k - n - 1, k).
    """
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    if n < 0:
        val = binom_mod(k - n - 1, k, p)
        return (-val) % p if k % 2 else val
    out = 1
    while k:
        out = out * math.comb(n % p, k % p) % p
        n //= p
        k //= p
    return out


# -- builders ------------------------------------------------------------
#
# Built modules are immutable, so each builder is cached by (schema,
# weight) and every module it returns has passed Sl2Schema.check once.

@lru_cache(maxsize=None)
def _weight_chain(schema: Sl2Schema, lam: int, dim: int) -> FpModule:
    p = schema.p
    if schema.r != 1:
        raise ValueError("weight-chain builders work at kernel level 1; lift afterwards")
    if not 0 <= lam <= p - 1:
        raise ValueError(f"highest weight {lam} outside 0..{p - 1}")
    f = schema.field
    e = f.zeros(dim, dim)
    fm = f.zeros(dim, dim)
    h = f.zeros(dim, dim)
    for i in range(dim):
        h[i, i] = (lam - 2 * i) % p
        if i + 1 < dim:
            fm[i + 1, i] = 1
        if i >= 1:
            e[i - 1, i] = (i * (lam - i + 1)) % p
    mod = FpModule(f, dim, {"e": e, "f": fm, "h": h})
    schema.check(mod)
    return mod


def build_simple(schema: Sl2Schema, m: int) -> FpModule:
    """Simple module of highest weight m, 0 <= m <= p-1, at r = 1.

    Weight basis v_0 .. v_m with h v_i = (m-2i) v_i, f v_i = v_{i+1}
    and e v_i = i(m-i+1) v_{i-1}.
    """
    return _weight_chain(schema, m, m + 1)


def build_verma_r1(schema: Sl2Schema, lam: int) -> FpModule:
    """Baby Verma module of highest weight lam at r = 1, dimension p.

    Basis m_0 .. m_{p-1} with f m_i = m_{i+1} (and f m_{p-1} = 0),
    e m_i = i(lam-i+1) m_{i-1}, h m_i = (lam-2i) m_i.
    """
    return _weight_chain(schema, lam, schema.p)


@lru_cache(maxsize=None)
def build_verma_r2(schema: Sl2Schema, lam: int) -> FpModule:
    """Baby Verma module of highest weight lam at r = 2, dimension p^2.

    The basis vector with index i is the divided power f^(i) applied to
    the highest weight vector.  Coefficients come from the hyperalgebra
    commutation rules, with all binomials reduced mod p:

        f    f^(i) -> (i+1)      f^(i+1)
        f_p  f^(i) -> C(i+p, p)  f^(i+p)
        e    f^(i) -> (lam-i+1)  f^(i-1)
        e_p  f^(i) -> C(lam-i+p, p) f^(i-p)   (absent for i < p)
        h    f^(i) -> (lam-2i)   f^(i)
    """
    if schema.r != 2:
        raise ValueError("r = 2 builder called with a level-1 schema")
    p = schema.p
    n = p * p
    if not 0 <= lam < n:
        raise ValueError(f"weight {lam} outside 0..{n - 1}")
    f = schema.field
    ops = {name: f.zeros(n, n) for name in R2_LABELS}
    for i in range(n):
        ops["h"][i, i] = (lam - 2 * i) % p
        if i + 1 < n:
            ops["f"][i + 1, i] = (i + 1) % p
        if i + p < n:
            ops["f_p"][i + p, i] = binom_mod(i + p, p, p)
        if i >= 1:
            ops["e"][i - 1, i] = (lam - i + 1) % p
        if i >= p:
            ops["e_p"][i - p, i] = binom_mod(lam - i + p, p, p)
    mod = FpModule(f, n, ops)
    schema.check(mod)
    return mod


def steinberg(schema: Sl2Schema) -> FpModule:
    """The simple projective module of highest weight p^r - 1."""
    if schema.r == 1:
        return build_verma_r1(schema, schema.p - 1)
    return build_verma_r2(schema, schema.p * schema.p - 1)


def restricted_as_r2(mod: FpModule) -> FpModule:
    """View an r = 1 module as an r = 2 module with zero divided powers.

    Sound exactly when the divided powers genuinely act as zero, which
    holds for the simple modules of restricted highest weight (raising
    any weight by 2p leaves their weight range).  The relation check
    runs regardless.
    """
    if set(mod.labels) != set(R1_LABELS):
        raise SchemaMismatch("expected an r = 1 module")
    f = mod.field
    zero = f.zeros(mod.dim, mod.dim)
    out = FpModule(f, mod.dim, {**mod.ops, "e_p": zero, "f_p": zero})
    Sl2Schema(f.p, 2).check(out)
    return out


def frobenius_twist(mod: FpModule) -> FpModule:
    """Precompose an r = 1 module with the Frobenius endomorphism.

    The result is an r = 2 module: e, f, h act as zero while the
    divided powers e_p, f_p act through the original e and f.
    """
    if set(mod.labels) != set(R1_LABELS):
        raise SchemaMismatch("twist starts from an r = 1 module")
    f = mod.field
    zero = f.zeros(mod.dim, mod.dim)
    ops = {"e": zero, "f": zero, "h": zero, "e_p": mod.ops["e"], "f_p": mod.ops["f"]}
    out = FpModule(f, mod.dim, ops)
    Sl2Schema(f.p, 2).check(out)
    return out


def restrict_to_r1(mod: FpModule) -> FpModule:
    """Forget the divided-power action of an r = 2 module."""
    if set(mod.labels) != set(R2_LABELS):
        raise SchemaMismatch("expected an r = 2 module")
    return restrict_labels(mod, list(R1_LABELS))


def _coproduct_stack(mod: FpModule, label: str):
    # X^(0), ..., X^(k) of the label's generator X, stacked: [1, X] for a
    # primitive one, and 1, g^(1), ..., g^(p-1), g_p for g_p, where
    # g^(i) = g^(i-1) g / i
    f = mod.field
    base = label.removesuffix("_p")
    if base == label:
        return np.stack([f.identity(mod.dim), mod.ops[label]])
    g = mod.ops[base]
    out = [f.identity(mod.dim), g]
    for i in range(2, f.p):
        out.append(f.mul(f.matmul(out[-1], g), f.inv(i)))
    out.append(mod.ops[label])
    return np.stack(out)


def tensor(m: FpModule, n: FpModule) -> FpModule:
    """Tensor product with the Hopf-algebra action.

    Every label X of divided-power degree k acts through its coproduct
    Delta(X^(k)) = sum_{0<=i<=k} X^(i) (x) X^(k-i) (Kostant's Z-form):
    1 (x) g + g (x) 1 for a primitive g, and for e_p

        e_p -> sum_{0<=i<=p} e^(i) (x) e^(p-i),  e^(i) = e^i / i!, e^(p) = e_p

    and f_p alike.

    Each sum is one product contracting over i: the (a^2, k+1) stack of
    left factors by the reversed (k+1, b^2) stack of right ones, then
    entry (r, s, t, u) moved to row r b + t and column s b + u.
    """
    if m.field != n.field or set(m.labels) != set(n.labels):
        raise SchemaMismatch("tensor factors disagree on field or labels")
    schema = schema_of(m)
    f = m.field
    a, b = m.dim, n.dim
    ops = {}
    for label in schema.labels:
        left = _coproduct_stack(m, label)
        right = _coproduct_stack(n, label)[::-1]
        terms = f.matmul(left.reshape(len(left), a * a).T, right.reshape(len(right), b * b))
        ops[label] = terms.reshape(a, a, b, b).transpose(0, 2, 1, 3).reshape(a * b, a * b)
    out = FpModule(f, a * b, ops)
    schema.check(out)
    return out


# -- simple and projective libraries -------------------------------------

def simple_key(lam: int) -> str:
    return f"L{lam}"


@lru_cache(maxsize=None)
def restricted_simples(p: int) -> dict[str, FpModule]:
    schema = Sl2Schema(p, 1)
    return {simple_key(m): build_simple(schema, m) for m in range(p)}


@lru_cache(maxsize=None)
def restricted_projectives(p: int) -> dict[str, FpModule]:
    """Projective covers of the r = 1 simples, restricted from their level-2 lifts.

    The restriction of each lift is a summand of the projective module
    St (x) L, has simple top L(lam) and dimension 2p, so it is P(lam).
    """
    return {simple_key(lam): restrict_to_r1(q) for lam, q in lifted_projectives(p).items()}


@lru_cache(maxsize=None)
def _padded_simple(p: int, lam: int) -> FpModule:
    """The level-1 simple of highest weight lam as a level-2 module, built and checked
    once per process for the level-2 simples and the lifted covers alike."""
    return restricted_as_r2(build_simple(Sl2Schema(p, 1), lam))


@lru_cache(maxsize=None)
def lifted_projectives(p: int) -> dict[int, FpModule]:
    """Level-2 module structures on the r = 1 projective covers.

    The cover of the top-weight simple is that simple itself.  Every
    other cover is split off the level-2 tensor of the top-weight simple
    with a complementary simple, whose divided powers act through the
    coproduct middle terms; the summand is identified by its dimension
    2p and the simple top of its restriction, which pins it down because
    tensoring with a projective module yields projectives.  Keyed by the
    weight of that top.
    """
    lib = ModuleLibrary(restricted_simples(p))
    st2 = _padded_simple(p, p - 1)  # the level-1 Steinberg module
    out = {p - 1: st2}
    for lam in range(p - 1):
        parts = decompose(tensor(st2, _padded_simple(p, p - 1 - lam)))
        key = simple_key(lam)
        found = [
            q
            for q in parts
            if q.dim == 2 * p and top_multiplicities(restrict_to_r1(q), lib) == {key: 1}
        ]
        if len(found) != 1:
            raise RuntimeError(
                f"level-2 lift of cover {lam}: expected exactly one summand of dim {2 * p} "
                f"with top {key}, found {len(found)}"
            )
        out[lam] = found[0]
    return out


@lru_cache(maxsize=None)
def hyper_simples(p: int) -> dict[str, FpModule]:
    """Simple r = 2 modules via the tensor factorization L(a) (x) L(b)^twist."""
    schema1 = Sl2Schema(p, 1)
    out = {}
    for lam1 in range(p):
        twisted = frobenius_twist(build_simple(schema1, lam1))
        for lam0 in range(p):
            out[simple_key(lam0 + p * lam1)] = tensor(_padded_simple(p, lam0), twisted)
    return out


@lru_cache(maxsize=None)
def hyper_projectives(p: int) -> dict[str, FpModule]:
    """Projective covers of the r = 2 simples.

    Constructed as (lifted cover of the low digit) tensor (twist of the
    r = 1 cover of the high digit).
    """
    lifted = lifted_projectives(p)
    covers1 = restricted_projectives(p)
    out = {}
    for lam1 in range(p):
        twisted = frobenius_twist(covers1[simple_key(lam1)])
        for lam0 in range(p):
            out[simple_key(lam0 + p * lam1)] = tensor(lifted[lam0], twisted)
    return out


@lru_cache(maxsize=None)
def library(p: int, r: int) -> ModuleLibrary:
    """The simples and projective covers at kernel level r, validated once.

    Besides the checks of ModuleLibrary, the covers must exhaust the
    algebra: the regular module of the level-r kernel, of dimension
    p^(3r), is the sum of the covers P(S), each dim S times.
    """
    if r == 1:
        lib = ModuleLibrary(restricted_simples(p), restricted_projectives(p))
    elif r == 2:
        lib = ModuleLibrary(hyper_simples(p), hyper_projectives(p))
    else:
        raise ValueError(f"kernel level r = {r} not supported")
    total = sum(q.dim * lib.simples[k].dim for k, q in lib.projectives.items())
    if total != p ** (3 * r):
        raise CertificateError(
            f"sum of dim P(S) * dim S is {total}, not p^{3 * r} = {p ** (3 * r)}"
        )
    return lib


# -- rank varieties -------------------------------------------------------

@dataclass
class RankVarietyScan:
    """Non-free points of a module on the projective nilpotent cone.

    Points are triples (a, b, c) of field elements (encoded as ints)
    with b^2 + ac = 0, representing a e + b h + c f up to scalar.  The
    dimension estimate counts 0 for an empty scan, 1 for finitely many
    points, 2 when the point count grows with the field.
    """

    q: int
    points: list[tuple[int, int, int]]
    dim_estimate: int

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "points": [list(pt) for pt in self.points],
            "dim_estimate": self.dim_estimate,
        }


def _nullcone_points(fld: GF):
    pts = [(1, b, fld.neg(fld.mul(b, b))) for b in range(fld.q)]
    pts.append((0, 0, 1))
    return [(int(a), int(b), int(c)) for a, b, c in pts]


def _nonfree_points(mod: FpModule, fld: GF):
    # entries of mod lie in the prime field, whose elements keep the
    # same integer encoding inside the quadratic extension
    p = mod.field.p
    target = mod.dim // p
    bad = []
    for a, b, c in _nullcone_points(fld):
        x = fld.add(
            fld.add(fld.mul(mod.ops["e"], a), fld.mul(mod.ops["h"], b)),
            fld.mul(mod.ops["f"], c),
        )
        if fld.rank(fld.matpow(x, p - 1)) != target:
            bad.append((a, b, c))
    return bad


def rank_variety_scan(mod: FpModule, q: int) -> RankVarietyScan:
    """Scan the projective nilpotent cone over F_q for non-free points.

    A point represents the nilpotent element a e + b h + c f; the module
    is free over the subalgebra it generates exactly when the (p-1)-st
    power of its action matrix has rank dim/p.
    """
    if set(mod.labels) != set(R1_LABELS):
        raise SchemaMismatch("rank-variety scans work on r = 1 modules")
    p = mod.field.p
    if mod.dim % p:
        raise DimensionNotDivisible(
            f"dim {mod.dim} is not divisible by p = {p}; freeness rank test undefined"
        )
    if q == p:
        fld = mod.field
    elif q == p * p:
        fld = GF(p, 2)
    else:
        raise ValueError(f"q must be p or p^2, got {q}")
    points = _nonfree_points(mod, fld)
    if not points:
        est = 0
    else:
        count_small = len(points) if q == p else len(_nonfree_points(mod, mod.field))
        count_big = len(points) if q == p * p else len(_nonfree_points(mod, GF(p, 2)))
        est = 2 if count_big > count_small else 1
    return RankVarietyScan(q, points, est)


# -- verification suites --------------------------------------------------

@dataclass
class CheckReport:
    """Outcome of one verification suite, JSON-friendly."""

    check: str
    p: int
    r: int
    cases: list[dict]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "p": self.p,
            "r": self.r,
            "cases": self.cases,
            "pass": self.passed,
        }


def _finish(check: str, p: int, r: int, cases: list[dict]) -> CheckReport:
    # a suite that checked nothing has not passed
    return CheckReport(check, p, r, cases, bool(cases) and all(c["ok"] for c in cases))


def verify_vv6(p: int, r: int, seed: int = 0) -> CheckReport:
    """Projectivity of baby Vermas matches the arithmetic criterion.

    The induced module of weight lam is projective exactly when p^r
    divides lam + 1.  At r = 2 the weights divisible once by p get an
    extra case: the restriction to level 1 splits into p copies of the
    top-weight simple.
    """
    schema = Sl2Schema(p, r)
    build = build_verma_r1 if r == 1 else build_verma_r2
    lib = library(p, r)
    cases = []
    for lam in range(p**r):
        z = build(schema, lam)
        expected = (lam + 1) % p**r == 0
        got = is_projective_module(z, lib)
        cases.append(
            {
                "lambda": lam,
                "kind": "projectivity",
                "expected": expected,
                "got": got,
                "ok": expected == got,
            }
        )
        if r == 2 and (lam + 1) % p == 0:
            st1 = steinberg(Sl2Schema(p, 1))
            res = is_isomorphic(restrict_to_r1(z), direct_sum([st1] * p), seed=seed)
            cases.append(
                {
                    "lambda": lam,
                    "kind": "level1_restriction_splits",
                    "expected": True,
                    "got": bool(res),
                    "ok": bool(res),
                }
            )
    return _finish("projectivity-criterion", p, r, cases)


def verify_dr2(p: int, seed: int = 0) -> CheckReport:
    """Depth-one weights factor the level-2 Verma as twist tensor Steinberg.

    For mu of depth 1 and lam = p mu + p - 1, the level-2 module of
    weight lam is isomorphic to the Frobenius twist of the level-1
    module of weight mu tensored with the top-weight simple.
    """
    schema1 = Sl2Schema(p, 1)
    schema2 = Sl2Schema(p, 2)
    st2 = _padded_simple(p, p - 1)  # the level-1 Steinberg module
    rs = build_root_system(CartanSpec.from_type("A1"))
    cases = []
    for mu in range(p):
        if depth(rs, (mu,), p) != 1:
            continue
        lam = p * mu + p - 1
        left = build_verma_r2(schema2, lam)
        right = tensor(frobenius_twist(build_verma_r1(schema1, mu)), st2)
        res = is_isomorphic(left, right, seed=seed)
        cases.append(
            {
                "lambda": lam,
                "mu": mu,
                "expected": True,
                "got": bool(res),
                "witness": bool(res) and res.witness is not None,
                "ok": bool(res),
            }
        )
    return _finish("depth-reduction-tensor", p, 2, cases)


def verify_periodicity_and_tube(p: int, seed: int = 0) -> CheckReport:
    """Second syzygies of non-projective level-1 Vermas are isomorphic to them."""
    schema = Sl2Schema(p, 1)
    lib = library(p, 1)
    cases = []
    for lam in range(p - 1):
        z = build_verma_r1(schema, lam)
        o1 = syzygy(z, lib)
        o2 = syzygy(o1.module, lib)
        res = is_isomorphic(o2.module, z, seed=seed)
        cases.append(
            {
                "lambda": lam,
                "syzygy_dims": [o1.module.dim, o2.module.dim],
                "expected": True,
                "got": bool(res),
                "ok": bool(res),
            }
        )
    return _finish("syzygy-periodicity", p, 1, cases)


def verify_ar_middle_term(p: int) -> CheckReport:
    """Gluing a non-projective Verma against its second syzygy.

    The extension group is at least one dimensional, any representative
    outside the coboundaries yields an indecomposable middle term of
    dimension 2p, and the zero cocycle control splits.
    """
    schema = Sl2Schema(p, 1)
    lib = library(p, 1)
    cases = []
    for lam in range(p - 1):
        z = build_verma_r1(schema, lam)
        target = syzygy(syzygy(z, lib).module, lib).module
        o1, cocycles = ext1_cocycles(z, target, lib)
        ok = bool(cocycles)
        middle_dim = None
        indec = False
        splits = False
        if ok:
            glued = build_extension(target, o1, cocycles[0])
            middle_dim = glued.module.dim
            indec = is_indecomposable(glued.module)
            control = build_extension(
                target, o1, z.field.zeros(target.dim, o1.module.dim)
            )
            splits = not is_indecomposable(control.module)
            ok = middle_dim == 2 * p and indec and splits
        cases.append(
            {
                "lambda": lam,
                "ext_dim": len(cocycles),
                "middle_dim": middle_dim,
                "indecomposable": indec,
                "zero_cocycle_splits": splits,
                "ok": ok,
            }
        )
    return _finish("middle-term-indecomposable", p, 1, cases)


def verify_heart(p: int, seed: int = 0) -> CheckReport:
    """Hearts of the non-simple level-1 covers split as a doubled simple.

    For lam in 0..p-2 the cover P of the weight-lam simple has simple
    socle of the same weight, and rad P / soc P is two copies of the
    simple of weight p - 2 - lam, which lies in the same block.
    """
    schema = Sl2Schema(p, 1)
    lib = library(p, 1)
    rs = build_root_system(CartanSpec.from_type("A1"))
    f = schema.field
    cases = []
    for lam in range(p - 1):
        cover = lib.projectives[simple_key(lam)]
        from_simples = _homs_from_simples(cover, lib)
        soc_ok = _multiplicities(from_simples) == {simple_key(lam): 1}
        rad_cols = radical_submodule(cover, lib)
        sub, incl = submodule_from_columns(cover, rad_cols)
        soc_cols = _joint_image(cover, from_simples)
        inner = f.solve(incl, soc_cols)
        heart, _, _ = quotient_by_columns(sub, inner)
        mu = p - 2 - lam
        doubled = direct_sum([build_simple(schema, mu)] * 2)
        res = is_isomorphic(heart, doubled, seed=seed)
        same_block = block_contains(rs, (mu,), (lam,), p, 1)
        ok = soc_ok and bool(res) and same_block and mu != lam
        cases.append(
            {
                "lambda": lam,
                "mu": mu,
                "socle_simple": soc_ok,
                "heart_doubled_simple": bool(res),
                "same_block": same_block,
                "ok": ok,
            }
        )
    return _finish("heart-decomposition", p, 1, cases)


def verify_vv4_filtration(p: int) -> CheckReport:
    """Level-2 Vermas restrict to level 1 with a full Verma filtration.

    Freeness over the f-line (rank of f^{p-1} equals p) certifies a
    filtration of length p, and the multiset of h-eigenvalues matches
    the sum of p level-1 Verma characters whose highest weights all lie
    in the block of lam mod p.
    """
    schema = Sl2Schema(p, 2)
    rs = build_root_system(CartanSpec.from_type("A1"))
    f = schema.field
    cases = []
    for lam in range(p * p):
        res = restrict_to_r1(build_verma_r2(schema, lam))
        fr = f.rank(f.matpow(res.ops["f"], p - 1))
        free_ok = fr == p
        got_char = eigenvalue_multiplicities(f, res.ops["h"])
        want_char: dict[int, int] = {}
        gammas = [lam - 2 * j * p for j in range(p)]
        for g in gammas:
            for i in range(p):
                w = (g - 2 * i) % p
                want_char[w] = want_char.get(w, 0) + 1
        char_ok = got_char == want_char
        lam0 = lam % p
        block_ok = all(block_contains(rs, (g,), (lam0,), p, 1) for g in gammas)
        cases.append(
            {
                "lambda": lam,
                "f_power_rank": int(fr),
                "filtration_length": p,
                "character_match": char_ok,
                "weights_in_block": block_ok,
                "ok": free_ok and char_ok and block_ok,
            }
        )
    return _finish("restriction-filtration", p, 2, cases)


def level_suites(p: int, r: int, seed: int = 0) -> list[Callable[[], CheckReport]]:
    """The verification suites of one kernel level, each a call yet to run.

    Each entry looks its suite up by name when called, so it runs
    whatever the module holds under that name at the time.  The seed
    reaches every isomorphism test the suites make.
    """
    if r == 1:
        return [
            lambda: verify_vv6(p, 1, seed),
            lambda: verify_periodicity_and_tube(p, seed),
            lambda: verify_ar_middle_term(p),
            lambda: verify_heart(p, seed),
        ]
    if r == 2:
        return [
            lambda: verify_vv6(p, 2, seed),
            lambda: verify_dr2(p, seed),
            lambda: verify_vv4_filtration(p),
        ]
    raise ValueError(f"kernel level r = {r} not supported")


def run_sl2_suites(p: int, r: int, seed: int = 0) -> list[CheckReport]:
    """All verification suites for one kernel level."""
    return [suite() for suite in level_suites(p, r, seed)]
