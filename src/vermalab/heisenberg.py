"""Point counting for the commuting variety of a Heisenberg algebra.

Tuples (v_0, .., v_{r-1}) in the 2r+1 dimensional Heisenberg Lie
algebra commute exactly when the 2 x r matrix collecting their two
non-central coordinate rows has all 2 x 2 minors zero, so the count
over F_q is q^r (free central coordinates) times the number of rank
at most one coordinate matrices.  The enumeration here checks the
minors directly, a block of vectors at a time; the closed form is kept
separate so the two can be played against each other in tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gf import GF
from .modules import CertificateError

ENUMERATION_BUDGET = 10**9
# cells of one (x rows) x (all y) comparison block in count_points
_BLOCK_CELLS = 1 << 15


class BudgetExceeded(ValueError):
    """Raised when the (x, y)-enumeration would be too large."""


@dataclass(frozen=True)
class PointCount:
    q: int
    r: int
    count: int

    def __post_init__(self):
        if not self.q**self.r <= self.count <= self.q ** (3 * self.r):
            raise CertificateError(
                f"count {self.count} lies outside [q^r, q^(3r)] for q = {self.q}, r = {self.r}"
            )

    def to_json_dict(self) -> dict:
        return {"q": self.q, "count": self.count}


def count_points(r: int, q: int) -> PointCount:
    """Exact point count of the commuting variety over F_q.

    Enumerates the q^{2r} pairs (x, y) of coordinate vectors, keeps
    those with every minor x_i y_j - x_j y_i equal to zero, and scales
    by q^r for the central coordinates.

    For each coordinate j a table times[j][a, y] = a * y_j holds the
    product of every field element a with every vector y, so the minor
    vanishes exactly when times[j][x_i, y] == times[i][x_j, y].  The
    field multiplies through ``GF.mul``, so F_{p^2} works unchanged.  The
    pairs are compared a block of about 2^15 at a time: a block of x
    rows against all y.  The r tables hold r * q^{r+1} entries of the
    smallest unsigned type that holds q - 1; under the enumeration
    budget that is at most about 10 MB (r = 2, q = 173).  For r = 1
    there is no minor, every pair counts, and no table is built.
    """
    if r < 1:
        raise ValueError(f"r = {r} must be at least 1")
    f = GF.from_q(q)
    if q ** (2 * r) > ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"enumerating q^(2r) = {q**(2*r)} pairs exceeds the {ENUMERATION_BUDGET} budget"
        )
    n = q**r
    if r == 1:
        return PointCount(q=q, r=r, count=q * n * n)
    # all of F_q^r in lexicographic order, one row per vector
    vectors = np.indices((q,) * r).reshape(r, n).T
    dtype = np.min_scalar_type(q - 1)
    times = []
    for j in range(r):
        table = np.empty((q, n), dtype=dtype)
        for a in range(q):
            table[a] = f.mul(a, vectors[:, j])
        times.append(table)
    rows = max(1, _BLOCK_CELLS // n)
    good = 0
    for start in range(0, n, rows):
        xs = vectors[start : start + rows]
        commuting = np.ones((len(xs), n), dtype=bool)
        for i, j in combinations(range(r), 2):
            commuting &= times[j][xs[:, i]] == times[i][xs[:, j]]
        good += int(np.count_nonzero(commuting))
    return PointCount(q=q, r=r, count=n * good)


def closed_form(r: int, q: int) -> int:
    """q^r (1 + (q+1)(q^r - 1)): central factor times rank-at-most-one count."""
    return q**r * (1 + (q + 1) * (q**r - 1))


@dataclass
class DimensionFit:
    """Least-squares slope of log(count) against log(q) with its residual.

    Counting over a few small fields cannot prove a dimension; the
    report states the evidence and whether the slope lands within the
    stated tolerance of the target 2r + 1.
    """

    r: int
    counts: list[PointCount]
    slope: float
    residual: float
    target: int
    tol: float
    passed: bool

    def to_json_dict(self) -> dict:
        """The report with its floats rounded to 6 places, so it renders stably."""
        return {
            "r": self.r,
            "counts": [c.to_json_dict() for c in self.counts],
            "slope": round(self.slope, 6),
            "residual": round(self.residual, 6),
            "target": self.target,
            "tol": round(self.tol, 6),
            "pass": self.passed,
        }


def dimension_fit(r: int, q_list, tol: float | None = None) -> DimensionFit:
    """Fit the slope over the field sizes in q_list.

    The slope passes within tol of 2r + 1; by default tol is 0.15, and
    0.3 from r = 3, where only the smallest fields fit the enumeration
    budget.  A tolerance that is negative or not finite raises ValueError.
    """
    if tol is None:
        tol = 0.3 if r >= 3 else 0.15
    if not math.isfinite(tol) or tol < 0:
        raise ValueError(f"tolerance {tol} must be finite and nonnegative")
    qs = sorted(set(q_list))
    if len(qs) < 2:
        raise ValueError("dimension fit needs at least two distinct field sizes")
    counts = [count_points(r, q) for q in qs]
    xs = [math.log(q) for q in qs]
    ys = [math.log(c.count) for c in counts]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    residual = math.sqrt(
        sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys)) / len(xs)
    )
    target = 2 * r + 1
    return DimensionFit(
        r=r,
        counts=counts,
        slope=slope,
        residual=residual,
        target=target,
        tol=tol,
        passed=abs(slope - target) <= tol,
    )
