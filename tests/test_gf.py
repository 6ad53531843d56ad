import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from vermalab import gf
from vermalab.gf import GF, is_prime, smallest_nonresidue


fields = st.sampled_from([GF(3), GF(5), GF(7), GF(3, 2), GF(5, 2)])


def np_to_lists(A):
    return [[int(x) for x in row] for row in A]


def test_prime_checks():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3


def test_field_validation():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(5, 3)
    with pytest.raises(ValueError):
        GF(2, 2)


LARGEST_PRIME = 3_037_000_493  # the largest prime with (p-1)^2 < 2^63


def test_field_rejects_primes_whose_products_overflow_int64():
    # at p = 3,037,000,507 the int64 product (p-1)(p-1) wrapped around,
    # and mul returned 290,948,287 instead of 1
    assert (LARGEST_PRIME - 1) ** 2 < 2**63 <= (3_037_000_507 - 1) ** 2
    with pytest.raises(ValueError, match="2\\^63"):
        GF(3_037_000_507)
    GF(LARGEST_PRIME)
    # over F_{p^2}, mul forms a0 b0 + c a1 b1 with c the non-residue
    with pytest.raises(ValueError, match="2\\^63"):
        GF(LARGEST_PRIME, 2)
    GF(1_000_003, 2)


def test_largest_prime_matches_the_oracles():
    F = GF(LARGEST_PRIME)
    p = F.p
    top = np.array([[p - 1, p - 2], [1, p - 1]], dtype=np.int64)
    assert np_to_lists(F.mul(top, top)) == [[x * x % p for x in row] for row in np_to_lists(top)]
    rng = np.random.default_rng(7)
    A = rng.integers(0, p, size=(12, 24))
    A[:, 5] = 2 * A[:, 2] % p  # a non-pivot column
    R, pivots = F.rref(A)
    want, want_pivots = oracles.mat_rref(np_to_lists(A), p)
    assert pivots == want_pivots
    assert np_to_lists(R) == want


@given(fields, st.integers(0, 1000), st.integers(0, 1000))
def test_scalar_field_axioms(F, a, b):
    a, b = a % F.q, b % F.q
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(a, F.neg(a)) == 0
    assert F.mul(a, 1) == a
    if a != 0:
        assert F.mul(a, F.inv(a)) == 1


@given(fields, st.integers(0, 1000), st.integers(0, 1000), st.integers(0, 1000))
def test_scalar_distributivity(F, a, b, c):
    a, b, c = a % F.q, b % F.q, c % F.q
    left = F.mul(a, F.add(b, c))
    right = F.add(F.mul(a, b), F.mul(a, c))
    assert left == right


def test_f25_is_a_field_of_order_25():
    F = GF(5, 2)
    for a in range(1, 25):
        assert int(F.mul(a, F.inv(a))) == 1
        x = 1
        for _ in range(24):
            x = int(F.mul(x, a))
        assert x == 1, f"element {a} does not satisfy a^24 = 1"


@settings(max_examples=40)
@given(fields, st.integers(1, 6), st.integers(1, 6), st.data())
def test_matmul_matches_oracle(F, n, m, data):
    if F.k == 2:
        # oracle only covers the prime field
        F = GF(F.p)
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    A = oracles.random_matrix(F, rng, n, m)
    B = oracles.random_matrix(F, rng, m, n)
    got = F.matmul(A, B)
    want = oracles.mat_mul(np_to_lists(A), np_to_lists(B), F.p)
    assert np_to_lists(got) == want


@settings(max_examples=60)
@given(fields, st.integers(1, 7), st.integers(1, 7), st.integers(0, 10**6))
def test_rref_idempotent_and_rank(F, n, m, seed):
    rng = np.random.default_rng(seed)
    A = oracles.random_matrix(F, rng, n, m)
    R, pivots = F.rref(A)
    R2, pivots2 = F.rref(R)
    assert np.array_equal(R, R2)
    assert pivots == pivots2
    if F.k == 1:
        assert len(pivots) == oracles.mat_rank(np_to_lists(A), F.p)


def test_rref_dense_large_matches_oracle():
    # dense inputs big enough that unreduced elimination factors used to
    # overflow int64; the hypothesis tests above stop at 7x7
    rng = np.random.default_rng(0)
    for p in (5, 7, 11):
        F = GF(p)
        for n in (80, 120):
            for _ in range(4):
                A = rng.integers(0, p, size=(n, n))
                R, pivots = F.rref(A)
                want, want_pivots = oracles.mat_rref(np_to_lists(A), p)
                assert pivots == want_pivots
                assert np_to_lists(R) == want


@settings(max_examples=60)
@given(fields, st.integers(1, 7), st.integers(1, 7), st.integers(0, 10**6))
def test_nullspace_annihilates(F, n, m, seed):
    rng = np.random.default_rng(seed)
    A = oracles.random_matrix(F, rng, n, m)
    N = F.nullspace(A)
    assert N.shape[0] == m
    assert N.shape[1] == m - F.rank(A)
    if N.shape[1]:
        assert not F.matmul(A, N).any()
        assert F.rank(N) == N.shape[1]


def test_nullspace_matches_the_entrywise_fill():
    rng = np.random.default_rng(19)
    for F in (GF(3), GF(7), GF(3, 2), GF(5, 2)):
        for _ in range(40):
            n, m = rng.integers(1, 8, size=2)
            A = oracles.random_matrix(F, rng, n, m)
            if rng.random() < 0.3:
                A[:, : m // 2] = 0
            if rng.random() < 0.1:
                A[:] = 0
            N = F.nullspace(A)
            want = oracles.reference_nullspace(F, A)
            assert N.dtype == want.dtype and np.array_equal(N, want), (F, A)


@settings(max_examples=40)
@given(fields, st.integers(1, 6), st.integers(0, 10**6))
def test_inverse_roundtrip(F, n, seed):
    rng = np.random.default_rng(seed)
    A = oracles.random_matrix(F, rng, n, n)
    if not F.is_invertible(A):
        return
    X = F.inverse(A)
    assert np.array_equal(F.matmul(A, X), F.identity(n))
    assert np.array_equal(F.matmul(X, A), F.identity(n))


@settings(max_examples=40)
@given(fields, st.integers(1, 5), st.integers(1, 5), st.integers(1, 3), st.integers(0, 10**6))
def test_solve_recovers_known_solution(F, n, m, t, seed):
    rng = np.random.default_rng(seed)
    A = oracles.random_matrix(F, rng, n, m)
    X = oracles.random_matrix(F, rng, m, t)
    B = F.matmul(A, X)
    Y = F.solve(A, B)
    assert np.array_equal(F.matmul(A, Y), B)


def test_solve_inconsistent_raises():
    F = GF(5)
    A = np.array([[1, 0], [1, 0]], dtype=np.int64)
    B = np.array([1, 2], dtype=np.int64)
    with pytest.raises(ValueError):
        F.solve(A, B)


def test_matpow():
    F = GF(7)
    A = np.array([[1, 1], [0, 1]], dtype=np.int64)
    assert np.array_equal(F.matpow(A, 13), np.array([[1, 13 % 7], [0, 1]]))
    assert np.array_equal(F.matpow(A, 0), F.identity(2))


def test_column_space_basis():
    F = GF(5)
    A = np.array([[1, 2, 3], [0, 0, 1]], dtype=np.int64)
    C = F.column_space_basis(A)
    assert C.shape == (2, 2)
    assert F.rank(C) == 2


# -- the float64 BLAS path of matmul and its bound ------------------------

def oracle_product(F, A, B):
    mul = oracles.mat_mul if F.k == 1 else oracles.ext_mat_mul
    return mul(np_to_lists(A), np_to_lists(B), F.p)


def test_matmul_reduces_operands_that_would_overflow_int64():
    # 4 (2^31 + 1)^2 wraps around in int64; the answer is 4 (2^31 + 1)^2 mod 5
    A = np.full((1, 4), 2**31 + 1, dtype=np.int64)
    B = np.full((4, 1), 2**31 + 1, dtype=np.int64)
    assert np_to_lists(GF(5).matmul(A, B)) == oracles.mat_mul(np_to_lists(A), np_to_lists(B), 5)


@pytest.mark.parametrize("F", [GF(5), GF(7), GF(3, 2), GF(5, 2)], ids=str)
def test_matmul_above_the_blas_crossover_matches_oracle(F):
    rng = np.random.default_rng(F.q)
    for rows, inner, cols in ((30, 25, 20), (64, 64, 3)):
        assert rows * inner * cols >= gf._BLAS_MIN_MACS
        A = oracles.random_matrix(F, rng, rows, inner)
        B = oracles.random_matrix(F, rng, inner, cols)
        assert np_to_lists(F.matmul(A, B)) == oracle_product(F, A, B)
    # stacked operands, as hom_space multiplies them
    A = rng.integers(0, F.q, size=(3, 1, 12, 12))
    B = rng.integers(0, F.q, size=(1, 4, 12, 16))
    got = F.matmul(A, B)
    assert got.shape == (3, 4, 12, 16)
    for i in range(3):
        for j in range(4):
            assert np_to_lists(got[i, j]) == oracle_product(F, A[i, 0], B[0, j])


BIG_PRIME = 134_217_689  # the largest prime below 2^27, so 16 (p-1)^2 < 2^63


@pytest.mark.parametrize("p", [BIG_PRIME, 1009])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("over", [False, True])
def test_matmul_at_the_float64_bound(p, sign, over):
    # inner * max|A| * max|B| is 2^53 - 2^28 - 48 under the bound and
    # 2^53 + 2^28 - 16 over it.  Every entry of the true product is odd,
    # so above 2^53 float64 cannot hold it and only an exact path passes.
    # At p = 1009 every entry is unreduced.
    F = GF(p)
    inner, a = 16, sign * (2**24 + 1)
    b = 2**25 - 1 if over else 2**25 - 3
    assert (inner * abs(a) * b >= 2**53) == over
    A = np.full((32, inner), a, dtype=np.int64)
    B = np.full((inner, 32), b, dtype=np.int64)
    B[-1] -= 1
    assert 32 * inner * 32 >= gf._BLAS_MIN_MACS
    assert np_to_lists(F.matmul(A, B)) == oracles.mat_mul(np_to_lists(A), np_to_lists(B), p)


@pytest.mark.parametrize("p", [5, BIG_PRIME, 2**31 - 1])
@pytest.mark.parametrize("size", [3, 40])
def test_matmul_with_the_int64_minimum(p, size):
    # np.abs(-2^63) is still negative; at p = 2^31 - 1 even the reduced
    # operands overflow int64, and the product is taken over Python ints
    rng = np.random.default_rng(size)
    A = rng.integers(-(2**62), 2**62, size=(size, size))
    A[0, 0] = np.iinfo(np.int64).min
    B = rng.integers(-(2**40), 2**40, size=(size, size))
    want = oracles.mat_mul(np_to_lists(A), np_to_lists(B), p)
    assert np_to_lists(GF(p).matmul(A, B)) == want
    assert np_to_lists(GF(p).matmul(B, A)) == oracles.mat_mul(np_to_lists(B), np_to_lists(A), p)


@pytest.mark.parametrize("F", [GF(3), GF(5), GF(7), GF(3, 2)], ids=str)
def test_matpow_matches_repeated_products(F):
    A = oracles.random_matrix(F, np.random.default_rng(F.q), 5, 5)
    p = F.p
    want = np_to_lists(F.identity(5))
    powers = {}
    for e in range(2 * p + 2):
        powers[e] = want
        want = oracle_product(F, np.array(want, dtype=np.int64), A)
    for e in (0, 1, 2, 3, p, 2 * p + 1):
        assert np_to_lists(F.matpow(A, e)) == powers[e]
    with pytest.raises(ValueError, match="negative exponent"):
        F.matpow(A, -1)


def test_matpow_returns_a_fresh_reduced_array():
    F = GF(5)
    for A in (np.array([[6, -1], [10, 3]]), np.array([[1, 4], [0, 3]])):
        once = F.matpow(A, 1)
        assert np_to_lists(once) == [[1, 4], [0, 3]]
        assert not np.shares_memory(once, A)


# -- _rref_prime against the oracle on the inputs it handles specially ----

def assert_rref_matches_oracle(F, A):
    R, pivots = F.rref(A)
    want, want_pivots = oracles.mat_rref(np_to_lists(A), F.p)
    # the oracle leaves rows it never touches unreduced
    assert pivots == want_pivots
    assert np_to_lists(R) == [[x % F.p for x in row] for row in want]


def test_rref_reduces_negative_and_huge_entries():
    rng = np.random.default_rng(3)
    for p in (5, 11):
        F = GF(p)
        A = rng.integers(-(2**62), 2**62, size=(12, 15))
        A[0, 0] = np.iinfo(np.int64).min
        assert_rref_matches_oracle(F, A)
        assert_rref_matches_oracle(F, rng.integers(2**40, 2**41, size=(9, 9)))
        assert_rref_matches_oracle(F, -rng.integers(0, p, size=(6, 8)))


def test_rref_pivot_column_with_different_residues():
    # the nonzero rows of each pivot column hold different residues, and
    # which of them becomes the pivot row must not show in the result
    F = GF(7)
    A = np.array(
        [
            [0, 3, 1, 2, 0],
            [3, 1, 4, 0, 6],
            [0, 6, 2, 4, 1],
            [6, 2, 1, 5, 5],
            [1, 0, 3, 3, 2],
            [5, 5, 5, 1, 0],
        ]
    )
    assert_rref_matches_oracle(F, A)
    assert_rref_matches_oracle(F, A.T)


def test_rref_skips_zero_columns():
    F = GF(5)
    rng = np.random.default_rng(4)
    A = rng.integers(0, 5, size=(6, 10))
    A[:, [0, 3, 4, 9]] = 0
    A[:, 6] = 5 * rng.integers(-3, 3, size=6)  # zero mod p, not zero
    assert_rref_matches_oracle(F, A)
    assert F.rref(np.zeros((3, 4), dtype=np.int64))[1] == []


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (75, 5), (5, 25)])
def test_rref_thin_and_wide_shapes(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    for p in (3, 7):
        F = GF(p)
        A = rng.integers(0, p, size=shape)
        assert_rref_matches_oracle(F, A)
        if shape[0] > 1:
            # rank deficient: the last row is a combination of the first two
            A[-1] = (2 * A[0] + A[1]) % p
            assert_rref_matches_oracle(F, A)


def test_rref_dense_200_at_p11():
    F = GF(11)
    A = np.random.default_rng(11).integers(0, 11, size=(200, 200))
    assert_rref_matches_oracle(F, A)


@pytest.mark.parametrize("p, rows", [(2**31 - 1, 20), (1_073_741_789, 60)])
def test_rref_reduces_before_growth_reaches_int64(p, rows):
    # each pivot adds up to (p-1)^2, about 2^62 at p = 2^31 - 1, to the
    # entries right of it; left unreduced, the entries overflowed int64
    # and came out wrong in the non-pivot columns of these wide matrices
    rng = np.random.default_rng(rows)
    assert_rref_matches_oracle(GF(p), rng.integers(0, p, size=(rows, 2 * rows)))
