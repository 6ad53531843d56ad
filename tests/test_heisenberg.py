"""Tests for the Heisenberg commuting variety point counts."""
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vermalab
import vermalab.heisenberg
from vermalab.gf import GF
from vermalab.heisenberg import (
    BudgetExceeded,
    DimensionFit,
    PointCount,
    closed_form,
    count_points,
    dimension_fit,
)
from vermalab.modules import CertificateError


def rank_oracle(r, q):
    """Count pairs whose 2 x r coordinate matrix has rank at most 1.

    Uses row reduction over the field, a different route than the
    minor conditions checked by count_points.
    """
    f = GF(q) if q in (2, 3, 5, 7, 11, 13) else GF(math.isqrt(q), 2)
    good = 0
    for x in product(range(q), repeat=r):
        for y in product(range(q), repeat=r):
            mat = np.array([x, y], dtype=np.int64)
            if f.rank(mat) <= 1:
                good += 1
    return q**r * good


def minor_loop_count(r, q):
    """The per-x minor loop count_points ran before it compared blocks of rows."""
    f = GF.from_q(q)
    vectors = np.array(list(product(range(q), repeat=r)), dtype=np.int64)
    good = 0
    for x in vectors:
        commuting = np.ones(len(vectors), dtype=bool)
        for i in range(r):
            for j in range(i + 1, r):
                minor = f.sub(
                    f.mul(int(x[i]), vectors[:, j]), f.mul(int(x[j]), vectors[:, i])
                )
                commuting &= minor == 0
        good += int(commuting.sum())
    return q**r * good


# every (r, q) with r <= 4, q in {2, 3, 5, 7, 9, 25} and at most 7^4 vectors,
# where the per-x reference loop stays fast
LOOP_SIZES = [
    (r, q) for r in (1, 2, 3, 4) for q in (2, 3, 5, 7, 9, 25) if q**r <= 7**4
]


def test_count_matches_minor_loop():
    for r, q in LOOP_SIZES:
        assert count_points(r, q).count == minor_loop_count(r, q), (r, q)
    # among them, sizes whose x rows split into several blocks, the last one short
    for r, q in [(2, 25), (3, 9), (4, 7)]:
        n = q**r
        rows = vermalab.heisenberg._BLOCK_WORDS // -(-n // 64)
        assert (r, q) in LOOP_SIZES and n > rows and n % rows != 0


def test_lines_group_every_minor():
    # every (a, b) has the vanishing pattern of the chosen point on its line,
    # and the q + 2 lines have q + 2 different patterns
    for q in (2, 3, 5, 7, 9, 25):
        f = GF.from_q(q)
        e = np.arange(q)
        times = f.mul(e[:, None], e)
        line, a, b = vermalab.heisenberg._lines(times)
        assert len(a) == len(b) == q + 2
        assert sorted(set(line.ravel().tolist())) == list(range(q + 2))
        u, v = e[:, None], e[None, :]
        patterns = [f.sub(f.mul(int(a[k]), v), f.mul(int(b[k]), u)) == 0 for k in range(q + 2)]
        assert len({p.tobytes() for p in patterns}) == q + 2
        for x, y in product(range(q), repeat=2):
            zero = f.sub(f.mul(x, v), f.mul(y, u)) == 0
            assert np.array_equal(zero, patterns[line[x, y]]), (q, x, y)


def test_count_matches_closed_form_at_query_sizes():
    for r, q in [(2, 49), (3, 13), (4, 7)]:
        assert count_points(r, q).count == closed_form(r, q)


def test_count_peak_memory_at_query_sizes():
    # bounds: the peaks of the per-coordinate product tables counted before
    for r, q, kb in [(2, 49, 390), (3, 13, 256), (4, 7, 264)]:
        count_points(r, q)
        tracemalloc.start()
        try:
            count_points(r, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= kb * 1024, (r, q, peak)


def test_r1_builds_no_table():
    # a q x q table at q = 10007 would take hundreds of megabytes
    tracemalloc.start()
    try:
        count = count_points(1, 10007).count
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 10007**3
    assert peak < 256 * 1024


def test_r1_is_full_space():
    # a single generator always commutes with itself: all q^3 points
    for q in (2, 3, 5, 7):
        assert count_points(1, q).count == q**3


def test_frozen_small_counts():
    assert count_points(2, 2).count == 40
    assert count_points(2, 3).count == 297
    assert count_points(3, 3).count == 2835


def test_count_matches_rank_oracle():
    for r, q in [(1, 3), (2, 2), (2, 3), (3, 2)]:
        assert count_points(r, q).count == rank_oracle(r, q)


def test_count_matches_closed_form():
    for r, q in [(1, 2), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]:
        assert count_points(r, q).count == closed_form(r, q)


def test_prime_square_field_size():
    # q = 9 and q = 25 run through the quadratic extension field
    assert count_points(1, 9).count == 9**3
    assert count_points(1, 25).count == 25**3
    assert count_points(2, 9).count == closed_form(2, 9)


def test_count_divisible_by_central_factor():
    for r, q in [(2, 3), (3, 3)]:
        assert count_points(r, q).count % q**r == 0


def test_monotone_in_q():
    for r in (1, 2, 3):
        counts = [count_points(r, q).count for q in (2, 3, 5)]
        assert counts == sorted(counts)
        assert counts[0] < counts[1] < counts[2]


@settings(deadline=None, max_examples=20)
@given(
    r=st.integers(min_value=1, max_value=3),
    q=st.sampled_from([2, 3, 5]),
)
def test_closed_form_agrees_everywhere(r, q):
    assert count_points(r, q).count == closed_form(r, q)


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        count_points(6, 7)
    with pytest.raises(BudgetExceeded):
        count_points(10, 3)
    with pytest.raises(BudgetExceeded):
        count_points(3, 49)


def test_bad_field_size():
    with pytest.raises(ValueError):
        count_points(2, 8)
    with pytest.raises(ValueError):
        count_points(2, 6)
    with pytest.raises(ValueError):
        count_points(2, 4)
    with pytest.raises(ValueError):
        count_points(0, 3)


def test_point_count_bounds_checked():
    with pytest.raises(CertificateError):
        PointCount(q=3, r=2, count=1)
    with pytest.raises(CertificateError):
        PointCount(q=3, r=2, count=3**7)


def test_point_count_bounds_survive_optimized_python():
    # python -O strips asserts; the bound check must still refuse
    code = (
        "from vermalab.heisenberg import PointCount\n"
        "from vermalab.modules import CertificateError\n"
        "try:\n"
        "    PointCount(q=3, r=2, count=1)\n"
        "except CertificateError:\n"
        "    print('refused')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(vermalab.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "refused"


def test_fit_r1_slope_exact():
    fit = dimension_fit(1, [3, 5, 7])
    assert fit.target == 3
    assert abs(fit.slope - 3.0) < 1e-9
    assert fit.residual < 1e-9
    assert fit.passed


def test_fit_r2_slope():
    fit = dimension_fit(2, [3, 5, 7], tol=0.15)
    assert fit.target == 5
    assert abs(fit.slope - 5) <= 0.15
    assert fit.passed


def test_fit_r3_slope():
    fit = dimension_fit(3, [3, 5], tol=0.3)
    assert fit.target == 7
    assert abs(fit.slope - 7) <= 0.3
    assert fit.passed


def test_fit_default_tolerance_widens_from_r3():
    assert dimension_fit(2, [2, 3]).tol == 0.15
    assert dimension_fit(3, [2, 3]).tol == 0.3
    for bad in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            dimension_fit(2, [2, 3], tol=bad)


def test_fit_fails_outside_tolerance():
    fit = dimension_fit(2, [3, 5, 7], tol=0.05)
    assert not fit.passed


def test_fit_needs_two_sizes():
    with pytest.raises(ValueError):
        dimension_fit(2, [3])
    with pytest.raises(ValueError):
        dimension_fit(2, [3, 3])


def test_fit_json_shape():
    fit = dimension_fit(2, [2, 3], tol=0.5)
    d = fit.to_json_dict()
    assert set(d) == {"r", "counts", "slope", "residual", "target", "tol", "pass"}
    assert d["r"] == 2
    assert d["counts"] == [{"q": 2, "count": 40}, {"q": 3, "count": 297}]
    assert d["target"] == 5
    assert isinstance(d["pass"], bool)
