"""Point counting for the commuting variety of a Heisenberg algebra.

Tuples (v_0, .., v_{r-1}) in the 2r+1 dimensional Heisenberg Lie
algebra commute exactly when the 2 x r matrix collecting their two
non-central coordinate rows has all 2 x 2 minors zero, so the count
over F_q is q^r (free central coordinates) times the number of rank
at most one coordinate matrices.  The enumeration here decides every
minor of every pair through bit-packed tables, one bit per vector y, so
a block of x rows meets 64 values of y in one word; the closed form is
kept separate so the two can be played against each other in tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gf import GF
from .modules import CertificateError

ENUMERATION_BUDGET = 10**9
# uint64 words of one (x rows) x (all y, 64 to a word) block in count_points
_BLOCK_WORDS = 1 << 12


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

    For each pair of coordinates i < j a packed table T_ij holds, for
    every (a, b) in F_q^2, one bit per vector y: bit y is set when
    a y_j = b y_i.  A block of x rows ANDs T_ij[x_i, x_j] over the
    pairs and counts the set bits, so every minor of every pair is
    decided, 64 values of y to a word.  The products come from the
    q x q table of ``GF.mul``, so F_{p^2} works unchanged.  The bits of
    T_ij[a, b] depend only on the line of (a, b) through 0 (see
    ``_lines``), so T_ij keeps one row of ceil(q^r / 64) words per line
    and one for (0, 0): q + 2 rows.  Under the enumeration budget the
    largest tables take about 0.37 MB (r = 3, q = 31) and 0.32 MB
    (r = 4, q = 13); building them passes through one bool array of
    about (q + 2) q^r bytes, largest at r = 2, q = 173 (5.2 MB).  For
    r = 1 there is no minor, every pair counts, and no table is built.
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
    elements = np.arange(q)
    # left in int64: in uint8 the comparisons below would touch about 64 KB
    # of numpy code that a process answering weight queries leaves unloaded
    times = f.mul(elements[:, None], elements)
    line, a, b = _lines(times)
    on_a, on_b, k = times[a], times[b], len(a)
    # all of F_q^r in lexicographic order, one column per vector
    vectors = np.indices((q,) * r, dtype=np.min_scalar_type(q - 1)).reshape(r, n)
    words = -(-n // 64)
    bits = np.zeros((k, 64 * words), dtype=bool)
    grid = bits[:, :n].reshape((k,) + (q,) * r)
    pairs = list(combinations(range(r), 2))
    tables = []
    for i, j in pairs:
        # bit y of row k is a_k y_j = b_k y_i
        y_i, y_j = [k] + [1] * r, [k] + [1] * r
        y_i[1 + i] = y_j[1 + j] = q
        np.equal(on_a.reshape(y_j), on_b.reshape(y_i), out=grid)
        tables.append(np.packbits(bits, axis=1).view(np.uint64))
    rows = max(1, _BLOCK_WORDS // words)
    good = 0
    for start in range(0, n, rows):
        xs = vectors[:, start : start + rows]
        commuting = tables[0][line[xs[0], xs[1]]]
        for (i, j), table in zip(pairs[1:], tables[1:]):
            commuting &= table[line[xs[i], xs[j]]]
        good += int(np.bitwise_count(commuting).sum())
    return PointCount(q=q, r=r, count=n * good)


def _lines(times):
    """Group the (a, b) in F_q^2 by the (u, v) that make a v - b u vanish.

    Returns line[a, b] and arrays a, b with (a[k], b[k]) in group k, so
    that a v = b u holds exactly when a[line[a, b]] v = b[line[a, b]] u.
    Group 0 is (0, 0) alone, where every (u, v) works; groups 1 to q + 1
    are the lines through 0.  On line 1, through (0, 1), b u vanishes
    when u = 0; for a != 0, a v = b u is v = c u with c = b / a, as for
    (1, c) on line 2 + c.
    """
    q = len(times)
    line = np.empty((q, q), dtype=np.intp)
    line[0] = 1
    line[0, 0] = 0
    # (a, a c) lies on line 2 + c
    line[np.arange(1, q)[:, None], times[1:]] = 2 + np.arange(q)
    a = np.array([0, 0] + [1] * q)
    b = np.array([0, 1] + list(range(q)))
    return line, a, b


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
