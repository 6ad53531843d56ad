"""Exact dense linear algebra over F_p and F_{p^2}.

Matrices are numpy int64 arrays whose entries encode field elements.
For the prime field the encoding is the residue itself.  For the
quadratic extension F_{p^2} = F_p[t]/(t^2 - c), with c the smallest
quadratic non-residue mod p, the element a + b*t is stored as the
integer a + p*b in [0, p^2).

Matrix products are exact for any int64 entries.  Every partial sum of
A @ B is bounded by inner * max|A| * max|B|, where inner is the shared
dimension.  When that bound is below 2^53, every intermediate is an
integer that float64 holds exactly, so a large product runs through
float64 BLAS and is converted back (the delayed reduction of FFLAS:
Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  A small product stays
on numpy's int64 loop.  When the bound would overflow the chosen kernel,
the operands are reduced mod p first, and if even inner * (p-1)^2
reaches 2^63 the product is taken over Python ints.  This kernel,
``dot_mod``, takes the modulus as an argument, so integer products mod
a prime power run through it too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_FLOAT_EXACT = 2**53  # float64 holds every integer of smaller absolute value
_INT64_SAFE = 2**63
# multiply-adds from which float64 BLAS beats the int64 loop, counting
# the conversions and the reduction (see dot_mod)
_BLAS_MIN_MACS = 8192


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def smallest_nonresidue(p: int) -> int:
    """Smallest quadratic non-residue mod an odd prime p."""
    for c in range(2, p):
        if pow(c, (p - 1) // 2, p) == p - 1:
            return c
    raise ValueError(f"no quadratic non-residue mod {p}")


def dot_mod(A, B, modulus: int):
    """A @ B reduced mod modulus, exact for any int64 entries and any modulus below 2^63."""
    inner = A.shape[-1]
    if not A.size or not B.size:
        return np.matmul(A, B) % modulus
    # the product's multiply-adds when A and B share no stacking axes,
    # and an overestimate when they do
    big = A.size * B.size // inner >= _BLAS_MIN_MACS
    # the largest entry of each operand in one reduction: read as
    # uint64, a nonnegative entry keeps its value and a negative one
    # (the int64 minimum too) reads as at least 2^63, which sends the
    # operands through the reduction below
    bound = (
        inner
        * int(np.maximum.reduce(A.view(np.uint64), axis=None))
        * int(np.maximum.reduce(B.view(np.uint64), axis=None))
    )
    if bound >= (_FLOAT_EXACT if big else _INT64_SAFE):
        A, B = A % modulus, B % modulus
        bound = inner * (modulus - 1) ** 2
    if big and bound < _FLOAT_EXACT:
        C = np.matmul(A.astype(np.float64), B.astype(np.float64)).astype(np.int64)
    elif bound < _INT64_SAFE:
        C = np.matmul(A, B)
    else:
        C = np.matmul(A.astype(object), B.astype(object)) % modulus
        return C.astype(np.int64)
    C %= modulus
    return C


@dataclass(frozen=True)
class GF:
    """The field F_q with q = p^k, k in {1, 2}."""

    p: int
    k: int = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.k not in (1, 2):
            raise ValueError(f"unsupported extension degree k = {self.k}")
        if self.k == 2 and self.p == 2:
            raise ValueError("quadratic extension of F_2 not supported")
        # mul and rref multiply reduced entries in int64; over F_{p^2},
        # mul forms a0 b0 + c a1 b1
        bound = (self.p - 1) ** 2 * (1 if self.k == 1 else 1 + self.nonresidue)
        if bound >= _INT64_SAFE:
            raise ValueError(
                f"p = {self.p} is too large for F_{self.q}: products of reduced entries"
                f" reach {bound}, and int64 holds them only below 2^63"
            )

    @classmethod
    def from_q(cls, q: int) -> GF:
        """The field with q elements; q must be a prime or the square of an odd prime."""
        if is_prime(q):
            return cls(q)
        root = math.isqrt(q)
        if root * root == q and root > 2 and is_prime(root):
            return cls(root, 2)
        raise ValueError(f"q = {q} must be a prime or the square of an odd prime")

    @property
    def q(self) -> int:
        return self.p**self.k

    @property
    def nonresidue(self) -> int:
        return smallest_nonresidue(self.p)

    # -- element helpers ------------------------------------------------

    def normalize(self, a):
        """Reduce plain integers into the field.

        Over F_p every integer is reduced mod p.  Over F_{p^2} an integer
        outside [0, q) encodes no element (reducing it mod q would
        reinterpret it through the positional encoding), so it raises
        ValueError.
        """
        arr = np.asarray(a, dtype=np.int64)
        if self.k == 1:
            return arr % self.p
        if arr.size and (arr.min() < 0 or arr.max() >= self.q):
            raise ValueError(f"entries outside [0, {self.q}) encode no element of F_{self.q}")
        return arr.copy()

    def _split(self, a):
        return a % self.p, a // self.p

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        a0, a1 = self._split(np.asarray(a, dtype=np.int64))
        b0, b1 = self._split(np.asarray(b, dtype=np.int64))
        return (a0 + b0) % self.p + self.p * ((a1 + b1) % self.p)

    def neg(self, a):
        if self.k == 1:
            return (-np.asarray(a, dtype=np.int64)) % self.p
        a0, a1 = self._split(np.asarray(a, dtype=np.int64))
        return (-a0) % self.p + self.p * ((-a1) % self.p)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.k == 1:
            return (np.asarray(a, dtype=np.int64) * b) % self.p
        a0, a1 = self._split(np.asarray(a, dtype=np.int64))
        b0, b1 = self._split(np.asarray(b, dtype=np.int64))
        c = self.nonresidue
        return (a0 * b0 + c * a1 * b1) % self.p + self.p * ((a0 * b1 + a1 * b0) % self.p)

    def inv(self, a) -> int:
        a = int(a)
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        a0, a1 = a % self.p, a // self.p
        c = self.nonresidue
        norm = (a0 * a0 - c * a1 * a1) % self.p
        ninv = pow(norm, self.p - 2, self.p)
        return (a0 * ninv) % self.p + self.p * ((-a1 * ninv) % self.p)

    # -- matrix helpers -------------------------------------------------

    def zeros(self, rows: int, cols: int):
        return np.zeros((rows, cols), dtype=np.int64)

    def identity(self, n: int):
        return np.eye(n, dtype=np.int64)

    def matmul(self, A, B):
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if self.k == 1:
            return dot_mod(A, B, self.p)
        a0, a1 = self._split(A)
        b0, b1 = self._split(B)
        c = self.nonresidue
        c0 = (dot_mod(a0, b0, self.p) + c * dot_mod(a1, b1, self.p)) % self.p
        c1 = (dot_mod(a0, b1, self.p) + dot_mod(a1, b0, self.p)) % self.p
        return c0 + self.p * c1

    def matpow(self, A, e: int):
        """A^e as a fresh reduced array; e = 0 gives the identity."""
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        base = self.normalize(A)
        if e == 0:
            return self.identity(base.shape[0])
        result = None
        while True:
            if e & 1:
                result = base if result is None else self.matmul(result, base)
            e >>= 1
            if not e:
                return result
            base = self.matmul(base, base)

    def rref(self, A):
        """Reduced row echelon form.  Returns (R, pivot_columns)."""
        R = np.array(A, dtype=np.int64, copy=True)
        if self.k == 1:
            return self._rref_prime(R)
        return self._rref_generic(R)

    def _rref_prime(self, R):
        # Deferred reduction: R is reduced on entry and at the end.  Each
        # pivot adds at most (p-1)^2 to the absolute value of the entries
        # it updates; bound tracks the largest, and the trailing block is
        # reduced again before it could reach 2^63.
        p = self.p
        rows, cols = R.shape
        R %= p
        bound = p - 1
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            col = R[r:, c] % p
            # the reduced echelon form is unique, so any nonzero row serves
            i = int(col.argmax())
            if not col[i]:
                continue
            i += r
            if i != r:
                R[[r, i]] = R[[i, r]]
            # row r is zero mod p left of column c, so only R[:, c:] changes
            if bound + (p - 1) ** 2 >= _INT64_SAFE:
                R[:, c:] %= p
                bound = p - 1
            pivot_row = R[r, c:] % p
            R[r, c:] = pivot_row * pow(int(pivot_row[0]), p - 2, p) % p
            factors = R[:, c] % p
            factors[r] = 0
            R[:, c:] -= factors[:, None] * R[r, c:]
            bound += (p - 1) ** 2
            pivots.append(c)
            r += 1
        R %= p
        return R, pivots

    def _rref_generic(self, R):
        rows, cols = R.shape
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            nz = np.nonzero(R[r:, c])[0]
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                R[[r, i]] = R[[i, r]]
            R[r] = self.mul(R[r], self.inv(R[r, c]))
            for j in range(rows):
                if j != r and R[j, c] != 0:
                    R[j] = self.sub(R[j], self.mul(R[r], int(R[j, c])))
            pivots.append(c)
            r += 1
        return R, pivots

    def rank(self, A) -> int:
        if min(A.shape) == 0:
            return 0
        return len(self.rref(A)[1])

    def nullspace(self, A):
        """Columns form a basis of {x : A x = 0}."""
        A = np.asarray(A, dtype=np.int64)
        rows, cols = A.shape
        if cols == 0:
            return self.zeros(0, 0)
        if rows == 0:
            return self.identity(cols)
        R, pivots = self.rref(A)
        free = [c for c in range(cols) if c not in pivots]
        basis = self.zeros(cols, len(free))
        basis[free, range(len(free))] = 1
        basis[pivots] = self.neg(R[: len(pivots), free])
        return basis

    def solve(self, A, B):
        """Solve A X = B exactly; raises ValueError if inconsistent.

        When the system is underdetermined the free coordinates are set
        to zero, which is fine for the full-column-rank uses here.
        """
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        single = B.ndim == 1
        if single:
            B = B[:, None]
        aug = np.hstack([A, B])
        R, pivots = self.rref(aug)
        ncols = A.shape[1]
        for prow, pc in enumerate(pivots):
            if pc >= ncols:
                raise ValueError("inconsistent linear system")
        X = self.zeros(ncols, B.shape[1])
        for prow, pc in enumerate(pivots):
            X[pc] = R[prow, ncols:]
        return X[:, 0] if single else X

    def inverse(self, A):
        A = np.asarray(A, dtype=np.int64)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("inverse of non-square matrix")
        X = self.solve(A, self.identity(n))
        if not np.array_equal(self.matmul(A, X), self.identity(n)):
            raise ValueError("matrix is singular")
        return X

    def is_invertible(self, A) -> bool:
        A = np.asarray(A, dtype=np.int64)
        return A.shape[0] == A.shape[1] and self.rank(A) == A.shape[0]

    def column_space_basis(self, A):
        """A maximal independent subset of the columns of A (as a matrix)."""
        A = np.asarray(A, dtype=np.int64)
        if A.shape[1] == 0:
            return A
        _, pivots = self.rref(A)
        return A[:, pivots]
