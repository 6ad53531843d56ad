"""Slow, independent reference implementations used as test oracles.

Everything here is deliberately written without the package's linear
algebra so that agreement between the two paths means something: plain
python ints, list-of-list matrices, and direct definitions.  The last
two sections are the exceptions: random test data, and earlier, plainer
forms of package routines that faster code replaced.
"""
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from vermalab.gf import GF
from vermalab.verma import smith_diagonalize


# -- prime field arithmetic on list-of-list matrices ---------------------

def mat_mul(A, B, p):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    return [[sum(A[i][t] * B[t][j] for t in range(k)) % p for j in range(m)]
            for i in range(n)]


def ext_mat_mul(A, B, p):
    """A @ B over F_{p^2} = F_p[t]/(t^2 - c), c the least non-residue,
    with a + b t encoded as the integer a + p b."""
    c = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
    out = []
    for row in A:
        out.append([])
        for j in range(len(B[0])):
            real = twist = 0
            for x, col in zip(row, B):
                x0, x1, y0, y1 = x % p, x // p, col[j] % p, col[j] // p
                real += x0 * y0 + c * x1 * y1
                twist += x0 * y1 + x1 * y0
            out[-1].append(real % p + p * (twist % p))
    return out


def ext_mat_rref(M, p):
    """Row reduce a copy of M over F_{p^2}, encoded as in ext_mat_mul, by
    Gauss-Jordan with the first nonzero entry of a column as its pivot;
    returns (rref, pivot_cols)."""
    c = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)

    def mul(x, y):
        x0, x1, y0, y1 = x % p, x // p, y % p, y // p
        return (x0 * y0 + c * x1 * y1) % p + p * ((x0 * y1 + x1 * y0) % p)

    def sub(x, y):
        return (x - y) % p + p * ((x // p - y // p) % p)

    def inv(x):
        # (x0 + x1 t)(x0 - x1 t) = x0^2 - c x1^2, a nonzero element of F_p
        x0, x1 = x % p, x // p
        norm_inv = pow((x0 * x0 - c * x1 * x1) % p, p - 2, p)
        return x0 * norm_inv % p + p * (-x1 * norm_inv % p)

    M = [row[:] for row in M]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if M[i][col]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        scale = inv(M[r][col])
        M[r] = [mul(x, scale) for x in M[r]]
        for i in range(rows):
            if i != r and M[i][col]:
                f = M[i][col]
                M[i] = [sub(a, mul(f, b)) for a, b in zip(M[i], M[r])]
        pivots.append(col)
        r += 1
    return M, pivots


def mat_rref(M, p):
    """Row reduce a copy of M over F_p; returns (rref, pivot_cols)."""
    M = [row[:] for row in M]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if M[i][c] % p != 0), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = pow(M[r][c], p - 2, p)
        M[r] = [(x * inv) % p for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c] % p != 0:
                f = M[i][c] % p
                M[i] = [(a - f * b) % p for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return M, pivots


def mat_rank(M, p):
    if not M or not M[0]:
        return 0
    return len(mat_rref(M, p)[1])


def mat_nullspace(M, p):
    """Basis vectors (as lists) of the kernel of M over F_p."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if rows == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    R, pivots = mat_rref(M, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for prow, pc in enumerate(pivots):
            v[pc] = (-R[prow][fc]) % p
        basis.append(v)
    return basis


def intertwiner_basis(acts_m, acts_n, p):
    """Basis of {H : H a_g = b_g H for all g}, solved entry by entry.

    acts_m, acts_n: dicts label -> list-of-list matrix.  H has shape
    (dim_n, dim_m) and is flattened row-major into the unknown vector.
    """
    dim_m = len(next(iter(acts_m.values()))) if acts_m else 0
    dim_n = len(next(iter(acts_n.values()))) if acts_n else 0
    unknowns = dim_n * dim_m
    rows = []
    for g in acts_m:
        A, B = acts_m[g], acts_n[g]
        for i in range(dim_n):
            for k in range(dim_m):
                row = [0] * unknowns
                for j in range(dim_m):
                    row[i * dim_m + j] = (row[i * dim_m + j] + A[j][k]) % p
                for j in range(dim_n):
                    row[j * dim_m + k] = (row[j * dim_m + k] - B[i][j]) % p
                rows.append(row)
    if not rows:
        return [[1 if i == j else 0 for i in range(unknowns)] for j in range(unknowns)]
    return mat_nullspace(rows, p)


# -- depth, regularity, blocks ------------------------------------------

def brute_depth(pairings, p, s_max=64):
    """Least s >= 1 with {a : p^s | a} != everything, by direct iteration.

    pairings: the integers <lambda+rho, alpha_v> over positive roots.
    Returns None when every pairing is zero (depth minus infinity).
    """
    if all(a == 0 for a in pairings):
        return None
    for s in range(s_max):
        if any(a % p**s != 0 for a in pairings):
            return s
    raise AssertionError("depth exceeded iteration bound")


def brute_lattice_member(columns, v, bound):
    """Is v an integer combination of the columns, searching |c_i| <= bound.

    Every coefficient vector in the window is tried at once, as one
    broadcast product, in int64 when no entry can reach 2^63 and on
    Python ints otherwise.
    """
    k = len(columns)
    size = k * bound * max((abs(x) for col in columns for x in col), default=0)
    dtype = np.int64 if size + max(map(abs, v), default=0) < 2**63 else object
    window = np.arange(-bound, bound + 1).astype(dtype)
    coeffs = np.stack(np.meshgrid(*[window] * k, indexing="ij"), axis=-1).reshape(-1, k)
    cand = coeffs @ np.array(columns, dtype=dtype)
    return bool((cand == np.array(v, dtype=dtype)).all(axis=1).any())


def _ext_gcd(a, b):
    """(g, s, t) with g = gcd(a, b) >= 0 and g = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def lattice_echelon(columns):
    """Echelon basis of the integer span of the columns, by extended gcd.

    Returns {i: vector} where the vector's first nonzero coordinate is i.
    Each new column is merged into the basis by unimodular 2x2 steps.
    """
    echelon = {}
    for col in columns:
        v = list(col)
        for i in range(len(v)):
            if v[i] == 0:
                continue
            b = echelon.get(i)
            if b is None:
                echelon[i] = v
                break
            g, s, t = _ext_gcd(b[i], v[i])
            bi, vi = b[i] // g, v[i] // g
            echelon[i] = [s * x + t * y for x, y in zip(b, v)]
            v = [bi * y - vi * x for x, y in zip(b, v)]
    return echelon


def echelon_contains(echelon, v):
    """Is v in the span of an echelon basis?  Back substitution."""
    v = list(v)
    for i in range(len(v)):
        if v[i] == 0:
            continue
        b = echelon.get(i)
        if b is None or v[i] % b[i] != 0:
            return False
        c = v[i] // b[i]
        v = [y - c * x for x, y in zip(b, v)]
    return True


@lru_cache(maxsize=None)
def brute_weyl_group(spec):
    """The Weyl group of a Cartan spec as tuple matrices, breadth-first.

    Starts from the identity and multiplies each element of the newest
    level on the right by every simple reflection s_j, which sends the
    j-th fundamental weight to itself minus the j-th simple root (column
    j of the Cartan matrix) and fixes the others; new products are kept
    in the order they are reached.
    """
    a = spec.matrix
    n = len(a)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    gens = [
        tuple(
            tuple(int(i == k) - (a[i][j] if k == j else 0) for k in range(n))
            for i in range(n)
        )
        for j in range(n)
    ]
    order, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = tuple(
                    tuple(sum(w[i][t] * s[t][j] for t in range(n)) for j in range(n))
                    for i in range(n)
                )
                if ws not in seen:
                    seen.add(ws)
                    order.append(ws)
                    nxt.append(ws)
        frontier = nxt
    return tuple(order)


def cartan_e(n):
    """The Cartan matrix of type E_n, n = 6, 7, 8, in Bourbaki's numbering
    shifted to start at 0: the chain 0-2-3-4-...-(n-1), with 1 joined to 3."""
    edges = {(0, 2), (1, 3)} | {(i, i + 1) for i in range(2, n - 1)}
    return tuple(
        tuple(2 if i == j else -1 if (i, j) in edges or (j, i) in edges else 0 for j in range(n))
        for i in range(n)
    )


def simply_laced_positive_roots(matrix):
    """The positive roots of a symmetric Cartan matrix, over the simple roots.

    In a simply laced system the positive roots are the nonnegative
    integer vectors c with c^T A c = 2, and each one that is not simple is
    a positive root plus a simple root; so grow them by height, adding
    simple roots, instead of reflecting.  A root equals its coroot.
    """
    n = len(matrix)
    norm = lambda c: sum(c[i] * matrix[i][j] * c[j] for i in range(n) for j in range(n))
    level = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = []
    while level:
        roots += level
        level = sorted({
            c for root in level for i in range(n)
            if norm(c := tuple(x + (t == i) for t, x in enumerate(root))) == 2
        })
    return roots


def oracle_pairings(rs, lam):
    """<lam + rho, alpha_v> over the positive roots of `rs`, one root at a time."""
    shifted = [x + h for x, h in zip(lam, rs.rho)]
    return [
        sum(c * x for c, x in zip(root.coroot_coeffs, shifted))
        for root in rs.positive_roots
    ]


def translation_columns(spec, dep, p, r):
    """The generators of p^dep * (root lattice) + p^r * (weight lattice) in
    weight coordinates: p^dep times each column of the Cartan matrix (none
    at dep = None, depth minus infinity), then p^r times each unit vector."""
    a = spec.matrix
    n = len(a)
    cols = [] if dep is None else [[p**dep * a[i][j] for i in range(n)] for j in range(n)]
    return cols + [[p**r * int(t == i) for t in range(n)] for i in range(n)]


def walk_block_contains(rs, gamma, lam, p, r):
    """Block membership by walking the Weyl group one element at a time.

    gamma is in the block of lam at level r when gamma - w.lam lies in
    p^depth(lam) * (root lattice) + p^r * (weight lattice) for some Weyl
    element w.  Depth comes from brute_depth, the lattice test from an
    echelon form and W from brute_weyl_group; of the package only the
    Cartan matrix and the positive roots are used.
    """
    n = rs.rank
    shifted = [x + h for x, h in zip(lam, rs.rho)]
    dep = brute_depth(oracle_pairings(rs, lam), p, s_max=256)
    echelon = lattice_echelon(translation_columns(rs.cartan, dep, p, r))
    for w in brute_weyl_group(rs.cartan):
        moved = [sum(w[i][j] * shifted[j] for j in range(n)) - rs.rho[i] for i in range(n)]
        if echelon_contains(echelon, [g - m for g, m in zip(gamma, moved)]):
            return True
    return False


def rational_inverse(M):
    """The inverse of a square integer matrix, by Gauss-Jordan over the rationals."""
    n = len(M)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(M)]
    for c in range(n):
        pr = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[pr] = aug[pr], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def positive_definite(M):
    """Sylvester's criterion with exact rational arithmetic."""
    n = len(M)
    for t in range(1, n + 1):
        sub = [[Fraction(M[i][j]) for j in range(t)] for i in range(t)]
        det = _det(sub)
        if det <= 0:
            return False
    return True


def _det(M):
    """Exact determinant by rational elimination; integer entries become Fractions."""
    n = len(M)
    if n == 0:
        return Fraction(1)
    M = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if M[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            det = -det
        det *= M[c][c]
        inv = M[c][c]
        for i in range(c + 1, n):
            f = M[i][c] / inv
            M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return det


# -- matrix algebra radical (tiny cases only) ---------------------------

def is_nilpotent(M, p):
    n = len(M)
    P = M
    for _ in range(n):
        P = mat_mul(P, P, p)
    return all(all(x % p == 0 for x in row) for row in P)


def brute_radical(basis, p):
    """Jacobson radical of the span of `basis` (unital algebra) over F_p.

    Uses: x in J iff x*a is nilpotent for every a in the algebra.  Only
    feasible for q^dim tiny; used to pin down the fast algorithm.
    """
    dim = len(basis)
    elements = []
    for coeffs in product(range(p), repeat=dim):
        M = [[sum(c * B[i][j] for c, B in zip(coeffs, basis)) % p
              for j in range(len(basis[0][0]))] for i in range(len(basis[0]))]
        elements.append((coeffs, M))
    rad = []
    for coeffs, x in elements:
        if all(is_nilpotent(mat_mul(x, a, p), p) for _, a in elements):
            rad.append(coeffs)
    return rad


def has_nontrivial_idempotent(homs, p):
    """Whether the span of `homs` over F_p (a unital algebra of square
    matrices) holds an idempotent other than 0 and 1.

    Enumerates all p^len(homs) elements, squared in one stacked int64
    product; the entries stay far below 2^63 at the sizes used here.
    """
    basis = np.array([np.asarray(h, dtype=np.int64) % p for h in homs])
    coeffs = np.array(list(product(range(p), repeat=len(basis))), dtype=np.int64)
    elements = np.einsum("ed,dij->eij", coeffs, basis) % p
    idempotent = (np.matmul(elements, elements) % p == elements).all(axis=(1, 2))
    zero = ~elements.any(axis=(1, 2))
    one = (elements == np.eye(basis.shape[1], dtype=np.int64)).all(axis=(1, 2))
    return bool((idempotent & ~zero & ~one).any())


def power_trace_mod(M, e, modulus):
    """tr(M^e) mod modulus on list-of-list matrices, by repeated squaring."""
    n = len(M)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [[x % modulus for x in row] for row in M]
    while e > 0:
        if e & 1:
            result = mat_mul(result, base, modulus)
        base = mat_mul(base, base, modulus)
        e >>= 1
    return sum(result[i][i] for i in range(n)) % modulus


# -- random test data ----------------------------------------------------

def random_matrix(field, rng, rows, cols):
    """A uniformly random rows x cols matrix over the field."""
    return rng.integers(0, field.q, size=(rows, cols), dtype=np.int64)


# -- previous implementations, kept as references -------------------------
#
# Unlike the oracles above, these run on the package's own field
# arithmetic: they are the straightforward forms that faster code in the
# package replaced, and pin that code to the same answers.

def reference_nullspace(f, A):
    """The nullspace basis of A filled one entry at a time (the fill
    that one indexed assignment replaced)."""
    R, pivots = f.rref(A)
    free = [c for c in range(A.shape[1]) if c not in pivots]
    basis = f.zeros(A.shape[1], len(free))
    for idx, fc in enumerate(free):
        basis[fc, idx] = 1
        for prow, pc in enumerate(pivots):
            basis[pc, idx] = f.neg(R[prow, fc])
    return basis


def reference_spin_up(m):
    """The spin plan of m, computed with two echelon forms per layer and
    one full matrix inverse (the spin-up that the one-pass reduction
    replaced).  Returns (generators, binv) with generators a list of
    (start, [(start, stop, new, dep, coeffs) per layer])."""
    f = m.field
    d = m.dim
    labels = m.labels
    stacked = np.vstack([m.ops[label] for label in labels])
    basis = f.zeros(d, d)
    size = 0
    ech = f.zeros(0, d)
    piv = []

    def extend(cands):
        nonlocal ech, piv
        residues = f.sub(cands, f.matmul(cands[:, piv], ech))
        _, new = f.rref(residues.T)
        if new:
            rows, new_piv = f.rref(residues[new])
            ech = np.vstack([f.sub(ech, f.matmul(ech[:, new_piv], rows)), rows])
            piv = piv + new_piv
        return new

    grown = []
    for start in range(d):
        if size == d:
            break
        unit = f.zeros(1, d)
        unit[0, start] = 1
        if not extend(unit):
            continue
        basis[start, size] = 1
        lo, hi = size, size + 1
        size = hi
        layers = []
        while lo < hi:
            k = hi - lo
            cands = f.matmul(stacked, basis[:, lo:hi]).reshape(len(labels), d, k)
            cands = cands.transpose(0, 2, 1).reshape(-1, d)
            new = extend(cands)
            dep = np.delete(np.arange(len(cands)), new)
            basis[:, size : size + len(new)] = cands[new].T
            layers.append((lo, hi, np.array(new, dtype=np.intp), dep, cands[dep]))
            lo, hi = hi, size + len(new)
            size = hi
        grown.append((start, layers))
    if size != d:
        raise ValueError(f"spin-up found {size} basis vectors in dimension {d}")
    binv = f.inverse(basis)
    generators = []
    for start, layers in grown:
        done = []
        for lo, hi, new, dep, dep_vecs in layers:
            top = hi + len(new)
            coeffs = f.matmul(dep_vecs, binv.T)[:, :top]
            if not np.array_equal(f.matmul(coeffs, basis[:, :top].T), dep_vecs):
                raise ValueError("spin-up relation does not hold")
            done.append((lo, hi, new, dep, coeffs))
        generators.append((start, done))
    return generators, binv


def reference_sl2_failure(mod, p, r):
    """The name of the first relation of the SL(2) Frobenius-kernel table
    that mod fails, every product multiplied out densely, or None."""
    f = mod.field
    e, fm, h = mod.ops["e"], mod.ops["f"], mod.ops["h"]

    def bracket(a, b):
        return f.sub(f.matmul(a, b), f.matmul(b, a))

    zero = f.zeros(mod.dim, mod.dim)
    relations = [
        ("[e, f] = h", bracket(e, fm), h),
        ("[h, e] = 2e", bracket(h, e), f.mul(e, 2)),
        ("[h, f] = -2f", bracket(h, fm), f.mul(fm, p - 2)),
        ("e^p = 0", f.matpow(e, p), zero),
        ("f^p = 0", f.matpow(fm, p), zero),
        ("h^p = h", f.matpow(h, p), h),
    ]
    if r == 2:
        ep, fp = mod.ops["e_p"], mod.ops["f_p"]
        relations += [
            ("[h, e_p] = 0", bracket(h, ep), zero),
            ("[h, f_p] = 0", bracket(h, fp), zero),
            ("[e, e_p] = 0", bracket(e, ep), zero),
            ("[f, f_p] = 0", bracket(fm, fp), zero),
            ("e_p^p = 0", f.matpow(ep, p), zero),
            ("f_p^p = 0", f.matpow(fp, p), zero),
        ]
    for name, got, want in relations:
        if not np.array_equal(got, want):
            return name
    return None


def reference_verma(p, r, lam):
    """The operators of the baby Verma module Z_r(lam) as the two level
    builders that one table-driven builder replaced wrote them: at r = 1
    the weight chain m_i = f^i m_0, and at r = 2 one loop over the
    divided powers f^(i) m_0 with each binomial taken exactly (negative
    tops by C(n, k) = (-1)^k C(k - n - 1, k)) and then reduced mod p."""

    def binom(n, k):
        return math.comb(n, k) if n >= 0 else (-1) ** k * math.comb(k - n - 1, k)

    n = p**r
    labels = ("e", "f", "h") if r == 1 else ("e", "f", "h", "e_p", "f_p")
    ops = {x: np.zeros((n, n), dtype=np.int64) for x in labels}
    for i in range(n):
        ops["h"][i, i] = (lam - 2 * i) % p
        if r == 1:
            if i + 1 < n:
                ops["f"][i + 1, i] = 1
            if i >= 1:
                ops["e"][i - 1, i] = i * (lam - i + 1) % p
            continue
        if i + 1 < n:
            ops["f"][i + 1, i] = (i + 1) % p
        if i + p < n:
            ops["f_p"][i + p, i] = binom(i + p, p) % p
        if i >= 1:
            ops["e"][i - 1, i] = (lam - i + 1) % p
        if i >= p:
            ops["e_p"][i - p, i] = binom(lam - i + p, p) % p
    return ops


def reference_tensor(m, n):
    """The operators of the tensor product m (x) n, each summed term by
    term from np.kron (the two assembly paths that one coproduct
    contraction replaced): g (x) 1 + 1 (x) g for e, f and h, and at
    level 2 also e_p (x) 1 + 1 (x) e_p + sum_{0<i<p} e^(i) (x) e^(p-i),
    each divided power e^(i) taken from its own matrix power, e^i (i!)^-1
    (likewise for f_p)."""
    f = m.field
    p = f.p
    im, inn = f.identity(m.dim), f.identity(n.dim)

    def divided(x, i):
        return f.mul(f.matpow(x, i), f.inv(math.factorial(i) % p))

    ops = {g: (np.kron(m.ops[g], inn) + np.kron(im, n.ops[g])) % p for g in ("e", "f", "h")}
    if "e_p" in m.ops:
        for g, gp in (("e", "e_p"), ("f", "f_p")):
            total = np.kron(m.ops[gp], inn) + np.kron(im, n.ops[gp])
            for i in range(1, p):
                total += np.kron(divided(m.ops[g], i), divided(n.ops[g], p - i))
            ops[gp] = total % p
    return ops


def integer_power_trace(mat, e):
    """Trace of the e-th power of the integer lift of mat, computed exactly."""
    lifted = np.array(mat, dtype=object)
    result = np.array(np.eye(lifted.shape[0], dtype=np.int64), dtype=object)
    while e > 0:
        if e & 1:
            result = result @ lifted
        lifted = lifted @ lifted
        e >>= 1
    return int(np.trace(result))


def reference_radical_chain(mats, field):
    """The trace-lift chain of algebra_radical with exact traces: the
    elements z of the span whose lifts have tr(lift(z y)^(p^k)) / p^k = 0
    mod p for every y in it, for each p^k up to the matrix size in turn."""
    p = field.p
    n = mats[0].shape[0]
    current = [field.normalize(z) for z in mats]
    k = 0
    while p**k <= n and current:
        gram = field.zeros(len(current), len(current))
        for j, y in enumerate(current):
            for i, x in enumerate(current):
                t = integer_power_trace(field.matmul(x, y), p**k)
                if t % p**k:
                    raise ValueError("trace lift divisibility failed")
                gram[j, i] = (t // p**k) % p
        combos = field.nullspace(gram)
        current = [
            field.normalize(sum(int(combos[i, c]) * x for i, x in enumerate(current)))
            for c in range(combos.shape[1])
        ]
        k += 1
    return current


def reference_translation_lattice(spec, dep, p, r):
    """(diag, U) from one Smith reduction of the n x 2n matrix of
    translation_columns, the construction that reading every lattice off
    one Smith form of the Cartan matrix replaced: v lies in the lattice
    exactly when (U v)_i is divisible by diag_i for every i."""
    cols = translation_columns(spec, dep, p, r)
    n = len(spec.matrix)
    return smith_diagonalize([[col[i] for col in cols] for i in range(n)])


def reference_rank_variety_scan(mod, q):
    """(points, dim_estimate) of the rank-variety scan one point at a time,
    over F_q and again over the other of F_p, F_{p^2} when the points are
    not empty (the two passes that one stacked F_{p^2} pass replaced)."""
    p = mod.field.p

    def nonfree(fld):
        pts = [(1, b, int(fld.neg(fld.mul(b, b)))) for b in range(fld.q)] + [(0, 0, 1)]
        bad = []
        for a, b, c in pts:
            x = fld.add(
                fld.add(fld.mul(mod.ops["e"], a), fld.mul(mod.ops["h"], b)),
                fld.mul(mod.ops["f"], c),
            )
            if fld.rank(fld.matpow(x, p - 1)) != mod.dim // p:
                bad.append((a, b, c))
        return bad

    points = nonfree(GF.from_q(q))
    if not points:
        return points, 0
    small = len(nonfree(GF(p)))
    big = len(nonfree(GF(p, 2)))
    return points, 2 if big > small else 1
