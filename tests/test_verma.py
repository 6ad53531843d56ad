import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vermalab.verma
from oracles import (
    _det,
    brute_depth,
    brute_lattice_member,
    brute_weyl_group,
    cartan_e,
    rational_inverse,
    reference_translation_lattice,
    translation_columns,
    walk_block_contains,
)
from vermalab.modules import CertificateError
from vermalab.rootsys import (
    CartanSpec,
    add_weights,
    build_root_system,
    certify_factorization,
    dot_action,
    pairing,
    sub_weights,
)
from vermalab.verma import (
    AR_PROJECTIVE,
    AR_QUASI_SIMPLE,
    AR_TILDE_A12,
    AR_TUBE,
    NEG_INFINITY,
    BadPrime,
    DepthOutOfRange,
    VermaReport,
    ar_position_for_simple,
    block_contains,
    certify_smith,
    classify,
    depth,
    depth_reduce,
    integer_det,
    is_projective_verma,
    smith_diagonalize,
    translation_lattice,
)

SL2 = CartanSpec.from_type("A1")
SL3 = CartanSpec.from_type("A2")
RS2 = build_root_system(SL2)
RS3 = build_root_system(SL3)


def pairings_of(rs, lam):
    shifted = add_weights(lam, rs.rho)
    return [pairing(rs, shifted, root) for root in rs.positive_roots]


# -- depth ---------------------------------------------------------------

def test_depth_matches_brute_oracle_sl2():
    for p in (3, 5, 7):
        for a in range(-40, 41):
            got = depth(RS2, (a,), p)
            want = brute_depth(pairings_of(RS2, (a,)), p)
            assert got == (NEG_INFINITY if want is None else want)


def test_depth_matches_brute_oracle_sl3():
    for p in (3, 5):
        for a in range(-8, 9):
            for b in range(-8, 9):
                got = depth(RS3, (a, b), p)
                want = brute_depth(pairings_of(RS3, (a, b)), p)
                assert got == (NEG_INFINITY if want is None else want)


def test_depth_examples():
    # sl2: single pairing lam+1
    assert depth(RS2, (3,), 5) == 1
    assert depth(RS2, (4,), 5) == 2
    assert depth(RS2, (24,), 5) == 3
    assert depth(RS2, (-1,), 5) == NEG_INFINITY
    # sl3 at rho - 0: pairings 1,1,2
    assert depth(RS3, (0, 0), 3) == 1
    # lam + rho = (3,3): pairings 3,3,6 -> depth 2 at p=3
    assert depth(RS3, (2, 2), 3) == 2


def test_depth_one_family():
    # weights of the shape p^(r-1)*a - 1 with a prime to p have depth r
    for p in (3, 5):
        for r in (1, 2, 3):
            for a in (1, 2, p + 1):
                if a % p == 0:
                    continue
                lam = (p ** (r - 1) * a - 1,)
                assert depth(RS2, lam, p) == r


def test_neg_infinity_only_at_minus_rho_for_sl2():
    hits = [a for a in range(-30, 31) if depth(RS2, (a,), 5) == NEG_INFINITY]
    assert hits == [-1]


# -- projectivity --------------------------------------------------------

def test_projectivity_iff_depth_exceeds_r():
    for p in (3, 5):
        for r in (1, 2):
            for a in range(-30, 31):
                d = depth(RS2, (a,), p)
                want = d == NEG_INFINITY or d > r
                assert is_projective_verma(RS2, (a,), p, r) == want


def test_projectivity_examples():
    assert is_projective_verma(RS2, (24,), 5, 2)
    assert not is_projective_verma(RS2, (9,), 5, 2)
    assert is_projective_verma(RS2, (-1,), 5, 2)
    # sl3: lam + rho = (5,5) has pairings 5,5,10 -> projective at r=1
    assert is_projective_verma(RS3, (4, 4), 5, 1)
    assert not is_projective_verma(RS3, (4, 4), 5, 2)


def test_projectivity_rejects_bad_prime():
    g2 = build_root_system(CartanSpec.from_type("G2"))
    with pytest.raises(BadPrime):
        is_projective_verma(g2, (0, 0), 3, 1)


# -- depth reduction -----------------------------------------------------

def test_depth_reduce_examples():
    assert depth_reduce(RS2, (14,), 5, 2) == (1, (2,))
    assert depth_reduce(RS2, (9,), 5, 2) == (1, (1,))
    assert depth_reduce(RS2, (4,), 5, 2) == (1, (0,))
    assert depth_reduce(RS2, (5,), 3, 2) == (1, (1,))
    d, mu = depth_reduce(RS2, (17,), 3, 3)
    assert (d, mu) == (2, (1,))


def test_depth_reduce_round_trip():
    for p in (3, 5):
        r = 3
        for a in range(-60, 61):
            dep = depth(RS2, (a,), p)
            if dep == NEG_INFINITY or not 2 <= dep <= r:
                continue
            d, mu = depth_reduce(RS2, (a,), p, r)
            assert d == dep - 1
            q = p**d
            assert a == q * mu[0] + (q - 1)
            assert depth(RS2, mu, p) == 1


def test_depth_reduce_sl3():
    # lam = p*mu + (p-1)*rho with depth(mu) = 1
    p = 5
    mu = (1, 2)
    lam = tuple(p * m + (p - 1) for m in mu)
    assert depth(RS3, lam, p) == 2
    assert depth_reduce(RS3, lam, p, 2) == (1, mu)


def test_depth_reduce_remainder_is_a_certificate_error(monkeypatch):
    # weight 0 has depth 1 at p = 5; a depth of 2 would need 5 | 0 - 4
    monkeypatch.setattr(vermalab.verma, "depth", lambda rs, lam, p: 2)
    with pytest.raises(CertificateError, match="remainder"):
        depth_reduce(RS2, (0,), 5, 2)


def test_depth_reduce_rejects_out_of_range():
    with pytest.raises(DepthOutOfRange):
        depth_reduce(RS2, (3,), 5, 2)  # depth 1
    with pytest.raises(DepthOutOfRange):
        depth_reduce(RS2, (24,), 5, 2)  # depth 3 > r
    with pytest.raises(DepthOutOfRange):
        depth_reduce(RS2, (-1,), 5, 2)  # depth -inf


# -- smith form and block membership ------------------------------------

def test_smith_diagonalize_known_matrix():
    diag, u = smith_diagonalize([[2, 4], [6, 8]])
    # invariants up to sign: product of diag = +-det, gcd of entries divides diag[0]
    assert sorted(abs(x) for x in diag) == [2, 4]


def smith_member(cols, v):
    n = len(v)
    m = [[col[i] for col in cols] for i in range(n)]
    diag, u = smith_diagonalize(m)
    w = [sum(row[i] * v[i] for i in range(n)) for row in u]
    return all(
        (w[i] % diag[i] == 0) if i < len(diag) else (w[i] == 0) for i in range(n)
    )


def test_smith_membership_vs_brute():
    # two columns in the plane: an integer solution of M x = v, when one
    # exists, has coordinates within Cramer-style bounds well inside the
    # enumeration window used by the brute oracle
    import random

    rng = random.Random(11)
    for _ in range(30):
        cols = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        for _ in range(8):
            v = [rng.randint(-8, 8) for _ in range(2)]
            assert smith_member(cols, v) == brute_lattice_member(cols, v, bound=70)


def test_smith_membership_triangular_columns():
    # upper triangular columns: membership decidable by back substitution
    import random

    rng = random.Random(7)
    for _ in range(25):
        a = rng.randint(1, 6)
        b = rng.randint(-5, 5)
        c = rng.randint(1, 6)
        d = rng.randint(-5, 5)
        e = rng.randint(-5, 5)
        f = rng.randint(1, 6)
        cols = [[a, 0, 0], [b, c, 0], [d, e, f]]
        for _ in range(10):
            v = [rng.randint(-12, 12) for _ in range(3)]
            want = False
            if v[2] % f == 0:
                z = v[2] // f
                if (v[1] - e * z) % c == 0:
                    y = (v[1] - e * z) // c
                    if (v[0] - b * y - d * z) % a == 0:
                        want = True
            assert smith_member(cols, v) == want


def test_sl3_root_lattice_membership_closed_form():
    # the root lattice of the rank-two type A system, in weight
    # coordinates, is exactly the set of (x, y) with x congruent to y mod 3
    cols = [[2, -1], [-1, 2]]
    for x in range(-9, 10):
        for y in range(-9, 10):
            assert smith_member(cols, (x, y)) == ((x - y) % 3 == 0)


def test_block_examples_sl2():
    # p=5, r=1: block of 2 is {2, -4} + 5Z, the residues 1 and 2 mod 5
    assert block_contains(RS2, (2,), (2,), 5, 1)
    assert block_contains(RS2, (-4,), (2,), 5, 1)
    assert block_contains(RS2, (7,), (2,), 5, 1)
    assert block_contains(RS2, (1,), (2,), 5, 1)
    assert not block_contains(RS2, (0,), (2,), 5, 1)
    assert not block_contains(RS2, (3,), (2,), 5, 1)


def test_block_of_projective_weight_sl2():
    # depth -inf: lattice is p^r Z only, orbit of -1 is just -1
    assert block_contains(RS2, (-1,), (-1,), 5, 1)
    assert block_contains(RS2, (4,), (-1,), 5, 1)
    assert not block_contains(RS2, (0,), (-1,), 5, 1)


def test_block_examples_sl3():
    lam = (0, 0)
    assert block_contains(RS3, lam, lam, 5, 1)
    for w in brute_weyl_group(SL3):
        assert block_contains(RS3, dot_action(RS3, w, lam), lam, 5, 1)
    shifted = add_weights(lam, (5 * 2 - 5 * 1, -5 * 1 + 5 * 2))
    assert block_contains(RS3, shifted, lam, 5, 1)


def test_block_is_equivalence_relation_on_window():
    for p, r in ((5, 1), (5, 2)):
        window = range(-50, 51)
        reps = {}
        labels = {}
        for a in window:
            hit = None
            for rep in reps:
                if block_contains(RS2, (a,), (rep,), p, r):
                    hit = rep
                    break
            if hit is None:
                reps[a] = True
                hit = a
            labels[a] = hit
        # symmetric and transitive: membership must agree with the labels
        for a in window:
            for b in window:
                same = labels[a] == labels[b]
                assert block_contains(RS2, (a,), (b,), p, r) == same


def test_translation_lattice_depth_neg_infinity():
    lat = translation_lattice(RS2, NEG_INFINITY, 5, 2)
    assert lat.contains((25,))
    assert not lat.contains((5,))


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(-40, 40),
    b=st.integers(-40, 40),
    p=st.sampled_from([3, 5]),
    r=st.sampled_from([1, 2]),
)
def test_block_symmetry_sl2(a, b, p, r):
    assert block_contains(RS2, (a,), (b,), p, r) == block_contains(
        RS2, (b,), (a,), p, r
    )


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(-6, 6),
    b=st.integers(-6, 6),
    c=st.integers(-6, 6),
    d=st.integers(-6, 6),
)
def test_block_symmetry_sl3(a, b, c, d):
    p, r = 3, 1
    assert block_contains(RS3, (a, b), (c, d), p, r) == block_contains(
        RS3, (c, d), (a, b), p, r
    )


def test_block_contains_weyl_translates():
    for lam in [(-3, 4), (2, 2), (0, 1)]:
        for w in brute_weyl_group(SL3):
            moved = dot_action(RS3, w, lam)
            assert block_contains(RS3, moved, lam, 3, 2)
            assert block_contains(RS3, add_weights(moved, (9, 0)), lam, 3, 2)


BLOCK_TYPES = {
    "A1": CartanSpec.from_type("A1"),
    "A2": CartanSpec.from_type("A2"),
    "B2": CartanSpec.from_type("B2"),
    "G2": CartanSpec.from_type("G2"),
    "A1xA1": CartanSpec.from_type("A1xA1"),
    "F4": CartanSpec(((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))),
    "A5": CartanSpec(
        tuple(
            tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(5))
            for i in range(5)
        )
    ),
}


@pytest.mark.parametrize("name", list(BLOCK_TYPES))
def test_coset_factorization_certifies(name):
    rs = build_root_system(BLOCK_TYPES[name])
    j, _, stabilizer, reps, bound = rs.coset_factorization
    weyl = brute_weyl_group(rs.cartan)
    n = rs.rank
    assert not (stabilizer.flags.writeable or reps.flags.writeable)
    # W_J fixes omega_j: column j of each of its elements is e_j
    assert (stabilizer[:, :, j] == np.eye(n, dtype=np.int64)[j]).all()
    assert len(stabilizer) * len(reps) == len(weyl)
    products = {
        tuple(map(tuple, np.array(u) @ np.array(r)))
        for u in stabilizer.tolist()
        for r in reps.tolist()
    }
    assert products == set(weyl)
    assert bound == max(abs(x) for part in (stabilizer, reps) for x in part.flat)
    # j minimizes |W_J| + |R| over the nodes
    for i in range(n):
        size = sum(all(w[k][i] == int(k == i) for k in range(n)) for w in weyl)
        assert len(stabilizer) + len(reps) <= size + len(weyl) // size


@pytest.mark.parametrize(
    "name, sizes",
    [("F4", (48, 24)), ("A5", (36, 20)), ("A1", (1, 2)), ("G2", (2, 6)), ("E6", (240, 216))],
)
def test_coset_factorization_sizes(name, sizes):
    spec = BLOCK_TYPES[name] if name in BLOCK_TYPES else CartanSpec(cartan_e(6))
    factorization = build_root_system(spec).coset_factorization
    assert (len(factorization.stabilizer), len(factorization.representatives)) == sizes


def refused(rs, match, **parts):
    """certify_factorization must refuse the factorization of `rs` with `parts` replaced."""
    tampered = rs.coset_factorization._replace(**parts)
    with pytest.raises(CertificateError, match=match):
        certify_factorization(rs.simple_reflections, tampered)


def not_a_word(rs, element):
    """An integer matrix with the row c * element of `element`, and no product of
    simple reflections: a multiple of an outer product v e_0^T with c * v = 0 added."""
    c = rs.coset_factorization.coweight
    v = np.zeros(rs.rank, dtype=np.int64)
    v[0], v[1] = c[1], -c[0]
    other = element + 7 * np.outer(v, np.eye(rs.rank, dtype=np.int64)[0])
    assert np.array_equal(c @ other, c @ element) and np.abs(other).max() > 7
    return other


@pytest.mark.parametrize("name", ["A2", "F4"])
def test_coset_factorization_refuses_a_duplicated_representative(name):
    rs = build_root_system(BLOCK_TYPES[name])
    factorization = rs.coset_factorization
    certify_factorization(rs.simple_reflections, factorization)
    stabilizer, reps = factorization.stabilizer, factorization.representatives
    duplicated = reps.copy()
    duplicated[-1] = reps[0]
    refused(rs, "the same coset", representatives=duplicated)
    # another element u * r of the first representative's coset, u != 1
    coset_mate = reps.copy()
    coset_mate[-1] = stabilizer[-1] @ reps[0]
    assert not np.array_equal(coset_mate[-1], reps[0])
    refused(rs, "the same coset", representatives=coset_mate)
    # R without its last orbit point: still distinct words, but not closed
    refused(rs, "not the whole orbit", representatives=reps[:-1])


@pytest.mark.parametrize("name", ["A2", "F4"])
def test_coset_factorization_refuses_a_wrong_stabilizer(name):
    rs = build_root_system(BLOCK_TYPES[name])
    factorization = rs.coset_factorization
    stabilizer, reps = factorization.stabilizer, factorization.representatives
    # a W_J element that moves c: a representative other than the identity
    moved = stabilizer.copy()
    moved[-1] = reps[-1]
    refused(rs, "W_J moves the coweight", stabilizer=moved)
    # W_J without one element: still words, but not closed under its generators
    refused(rs, "not closed under the s_i", stabilizer=stabilizer[:-1])
    # c must pair positively with alpha_j and to 0 with the other simple roots
    refused(rs, "not a positive multiple", coweight=-factorization.coweight)
    refused(rs, "not a positive multiple", coweight=factorization.coweight + 1)


@pytest.mark.parametrize("name", ["A2", "F4"])
def test_coset_factorization_refuses_elements_outside_w_or_repeated(name):
    rs = build_root_system(BLOCK_TYPES[name])
    factorization = rs.coset_factorization
    stabilizer, reps = factorization.stabilizer, factorization.representatives
    # a matrix that agrees with a representative on c but is not in W
    outside = reps.copy()
    outside[-1] = not_a_word(rs, reps[-1])
    refused(rs, "R holds an element that is not a product", representatives=outside)
    outside = stabilizer.copy()
    outside[-1] = not_a_word(rs, stabilizer[-1])
    refused(rs, "W_J holds an element that is not a product", stabilizer=outside)
    # an element of W_J listed twice
    refused(rs, "W_J repeats an element", stabilizer=np.concatenate([stabilizer, stabilizer[-1:]]))
    # parts that do not start at the identity
    refused(rs, "R does not start at the identity", representatives=reps[::-1])
    refused(rs, "W_J does not start at the identity", stabilizer=stabilizer[1:])


def test_weights_of_the_wrong_length_are_refused():
    for call in (
        lambda: depth(RS3, (1, 1, 9), 5),
        lambda: depth(RS3, (1,), 5),
        lambda: block_contains(RS3, (5,), (1, 1), 5, 1),
        lambda: block_contains(RS3, (5, 1, 0), (1, 1), 5, 1),
        lambda: block_contains(RS3, (1, 1), (5,), 5, 1),
        lambda: classify(SL3, (1, 1, 9), 5, 1),
    ):
        with pytest.raises(ValueError, match="rank 2"):
            call()


def block_cases(rs, p, r, rng, base=0):
    """(gamma, lam) pairs around `base`: a constructed member, the member
    moved by a unit vector, and a random weight."""
    n = rs.rank
    span = 3 * p**r
    lam = tuple(base + rng.randint(-span, span) for _ in range(n))
    dep = depth(rs, lam, p)
    moved = dot_action(rs, rng.choice(brute_weyl_group(rs.cartan)), lam)
    shift = [p**r * rng.randint(-3, 3) for _ in range(n)]
    if dep != NEG_INFINITY:
        x = [rng.randint(-3, 3) for _ in range(n)]
        a = rs.cartan.matrix
        shift = [s + p ** int(dep) * sum(a[i][j] * x[j] for j in range(n))
                 for i, s in enumerate(shift)]
    member = add_weights(moved, tuple(shift))
    nudged = add_weights(member, (1,) + (0,) * (n - 1))
    other = tuple(base + rng.randint(-span, span) for _ in range(n))
    return [(member, lam), (nudged, lam), (other, lam)]


def record_dtypes(monkeypatch):
    seen = []
    real = vermalab.verma.dot_action

    def spy(rs, w, lam):
        seen.append(w.dtype)
        got = real(rs, w, lam)
        # the int64 product must equal the exact one
        assert np.array_equal(got.astype(object), real(rs, w.astype(object), lam))
        return got

    monkeypatch.setattr(vermalab.verma, "dot_action", spy)
    return seen


@pytest.mark.parametrize("name", list(BLOCK_TYPES))
def test_block_contains_matches_weyl_walk(name, monkeypatch):
    import random

    rs = build_root_system(BLOCK_TYPES[name])
    rng = random.Random(sum(map(ord, name)))
    seen = record_dtypes(monkeypatch)
    answers = []
    for p in (3, 5, 7, 11):
        for r in (1, 2, 3):
            for gamma, lam in block_cases(rs, p, r, rng):
                want = walk_block_contains(rs, gamma, lam, p, r)
                assert block_contains(rs, gamma, lam, p, r) == want, (gamma, lam, p, r)
                answers.append(want)
    assert set(seen) == {np.dtype(np.int64)}
    assert answers.count(True) >= 12 and answers.count(False) >= 4


@pytest.mark.parametrize("name, rounds", [("A2", 20), ("A5", 6)])
def test_block_contains_matches_weyl_walk_at_uneven_smith_diagonal(name, rounds):
    # 3 divides det of the type A2 and A5 Cartan matrices, so at p = 3 the
    # Smith diagonal is uneven and the answer depends on every entry of U
    import random

    rs = build_root_system(BLOCK_TYPES[name])
    rng = random.Random(3)
    for _ in range(rounds):
        for r in (1, 2, 3):
            for gamma, lam in block_cases(rs, 3, r, rng):
                want = walk_block_contains(rs, gamma, lam, 3, r)
                assert block_contains(rs, gamma, lam, 3, r) == want, (gamma, lam, r)


def int64_edge(rs, lattice):
    """The largest max|v_i| over gamma + rho and lam + rho that block_contains
    still decides in int64: n * max|u_ij| * n * max|w_ij| * max|v_i| < 2^63,
    w over W_J and R."""
    return (2**63 - 1) // (rs.rank**2 * lattice.u_bound * rs.coset_factorization.entry_bound)


@pytest.mark.parametrize("name", list(BLOCK_TYPES))
def test_block_contains_exact_beyond_int64(name, monkeypatch):
    # lam + rho just past the int64 edge even for max|u_ij| = 1: the
    # classes leave int64, so the decision runs on Python ints and must
    # still agree
    import random

    rs = build_root_system(BLOCK_TYPES[name])
    rng = random.Random(60 + len(name))
    seen = record_dtypes(monkeypatch)
    answers = []
    for p, r in ((3, 1), (5, 2), (7, 3), (11, 2)):
        # block_cases keeps lam[0] within 3 p^r of base
        base = -(-2**63 // (rs.rank**2 * rs.coset_factorization.entry_bound)) + 3 * p**r
        for gamma, lam in block_cases(rs, p, r, rng, base=base):
            want = walk_block_contains(rs, gamma, lam, p, r)
            assert block_contains(rs, gamma, lam, p, r) == want, (gamma, lam, p, r)
            answers.append(want)
    assert set(seen) == {np.dtype(object)}
    assert True in answers and False in answers


def test_block_contains_int64_bound_edge(monkeypatch):
    # A1 at p = 3, r = 1 with depth(lam) = 1: the lattice is 3Z, U = (+-1),
    # every entry of W_J and R is +-1, so the bound is max(|gamma + 1|, |lam + 1|)
    lam = (2**60,)
    assert int64_edge(RS2, translation_lattice(RS2, 1, 3, 1)) == 2**63 - 1
    seen = record_dtypes(monkeypatch)
    for shifted in (2**63 - 1, 2**63, -(2**63 - 1), -(2**63)):
        gamma = (shifted - 1,)
        want = walk_block_contains(RS2, gamma, lam, 3, 1)
        assert block_contains(RS2, gamma, lam, 3, 1) == want
        assert want == (gamma[0] % 3 in {lam[0] % 3, (-lam[0] - 2) % 3})
    assert seen == [np.dtype(np.int64), np.dtype(object)] * 2


@pytest.mark.parametrize("name", ["A1", "A2", "F4"])
def test_block_contains_exact_when_the_smith_diagonal_leaves_int64(name, monkeypatch):
    # lam = -rho has depth minus infinity, so L = 3^40 * X: U = I and the
    # Smith diagonal is 3^40 > 2^63 while every weight stays small
    rs = build_root_system(BLOCK_TYPES[name])
    lam = tuple(-1 for _ in rs.rho)
    lattice = translation_lattice(rs, depth(rs, lam, 3), 3, 40)
    assert max(lattice.diag) == 3**40 > 2**63 and lattice.u_bound == 1
    seen = record_dtypes(monkeypatch)
    answers = []
    for gamma in (lam, tuple(3**40 * (i + 1) - 1 for i in range(rs.rank)), (0,) * rs.rank):
        want = walk_block_contains(rs, gamma, lam, 3, 40)
        assert block_contains(rs, gamma, lam, 3, 40) == want, gamma
        answers.append(want)
    assert answers == [True, True, False]
    assert set(seen) == {np.dtype(object)}


def test_block_contains_int64_bound_edge_g2(monkeypatch):
    # G2 at p = 5, r = 2 with depth(lam) = 1 < r: U is the Smith transform
    # ((1, 0), (2, 1)) of the Cartan matrix and the entries of W_J and R reach 3,
    # so the edge is (2^63 - 1) // (4 * 2 * 3)
    rs = build_root_system(BLOCK_TYPES["G2"])
    lam = (1, 0)
    assert depth(rs, lam, 5) == 1
    lattice = translation_lattice(rs, 1, 5, 2)
    assert lattice.u.tolist() == [[1, 0], [2, 1]]
    assert (lattice.u_bound, rs.coset_factorization.entry_bound) == (2, 3)
    edge = int64_edge(rs, lattice)
    assert edge == (2**63 - 1) // 24
    seen = record_dtypes(monkeypatch)
    answers = []
    for shifted in (edge, edge + 1, -edge, -edge - 1):
        # gamma + rho = (shifted, t + 1) for every residue t of 5
        for t in range(5):
            gamma = (shifted - 1, t)
            want = walk_block_contains(rs, gamma, lam, 5, 2)
            assert block_contains(rs, gamma, lam, 5, 2) == want, gamma
            answers.append(want)
    assert seen == ([np.dtype(np.int64)] * 5 + [np.dtype(object)] * 5) * 2
    assert True in answers and False in answers


def test_block_contains_one_dot_action_and_cached_lattice(monkeypatch):
    # every lattice of one Cartan matrix comes from its one Smith form
    calls = {"dot_action": 0, "smith_diagonalize": 0}
    for name in calls:
        real = getattr(vermalab.verma, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(vermalab.verma, name, counting)
    vermalab.verma._cartan_smith.cache_clear()
    rs = build_root_system(BLOCK_TYPES["F4"])
    lam = (43, 87, 109, 65)
    # (p, r) with depth(lam) = 2 > r, 2 < r, 1 < r and 1 = r
    levels = ((11, 1), (11, 3), (5, 2), (3, 1))
    assert [depth(rs, lam, p) for p, _ in levels] == [2, 2, 1, 1]
    for p, r in levels:
        for gamma in ((54, 87, 109, 76), (55, 87, 109, 76)):
            block_contains(rs, gamma, lam, p, r)
    assert calls == {"dot_action": 2 * len(levels), "smith_diagonalize": 1}


def test_integer_det_matches_rational_elimination():
    import random

    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            m[-1] = list(m[0])
        assert integer_det(m) == _det([[Fraction(x) for x in row] for row in m]), m


def test_rational_det_is_exact_on_integer_entries():
    # dividing ints with / gave -3.999999999999999 here
    m = [[0, 3, 1], [-2, 3, 3], [-2, -4, 0]]
    assert _det(m) == -4 == integer_det(m)
    assert isinstance(_det(m), Fraction)


@pytest.mark.parametrize("name", list(BLOCK_TYPES))
def test_certify_smith_rejects_a_tampered_transform_or_diagonal(name):
    a = BLOCK_TYPES[name].matrix
    diag, u = smith_diagonalize(a)
    certify_smith(a, diag, u)
    for i in range(len(a)):
        doubled = [row[:] for row in u]
        doubled[i] = [2 * x for x in u[i]]
        with pytest.raises(CertificateError, match="not unimodular"):
            certify_smith(a, diag, doubled)
        for p in (3, 5):
            scaled = list(diag)
            scaled[i] *= p
            with pytest.raises(CertificateError, match="multiply to"):
                certify_smith(a, scaled, u)


def test_certify_smith_rejects_a_unimodular_u_that_misses_the_diagonal():
    # A2: U = ((1, 0), (2, 1)) and diag (-1, 3); row 1 replaced by (3, 1)
    # keeps det U = 1, but sends the Cartan matrix to (5, -1), not 3 * Z^2
    a = BLOCK_TYPES["A2"].matrix
    diag, u = smith_diagonalize(a)
    assert (diag, u) == ([-1, 3], [[1, 0], [2, 1]])
    with pytest.raises(CertificateError, match="not divisible by 3"):
        certify_smith(a, diag, [[1, 0], [3, 1]])


@pytest.mark.parametrize("name", list(BLOCK_TYPES))
def test_translation_lattice_matches_a_smith_reduction_of_its_generators(name):
    # each lattice read off the Smith form of the Cartan matrix equals the
    # one a Smith reduction of its n x 2n generator matrix gives: the same
    # index, and the generators of each lie in the other
    spec = BLOCK_TYPES[name]
    rs = build_root_system(spec)
    n = rs.rank
    for p, r in itertools.product((3, 5, 7, 11), (1, 2, 3)):
        for dep in [*range(1, r + 2), NEG_INFINITY]:
            lattice = translation_lattice(rs, dep, p, r)
            finite = None if dep == NEG_INFINITY else dep
            diag, u = reference_translation_lattice(spec, finite, p, r)
            assert len(diag) == n
            assert math.prod(lattice.diag) == math.prod(map(abs, diag)), (dep, p, r)
            theirs = np.array(translation_columns(spec, finite, p, r), dtype=object)
            assert not lattice.classes(theirs).any(), (dep, p, r)
            inverse = rational_inverse(lattice.u.tolist())
            assert all(x.denominator == 1 for row in inverse for x in row)
            for j, g in enumerate(lattice.diag):
                ours = [g * int(inverse[i][j]) for i in range(n)]
                images = [sum(c * x for c, x in zip(row, ours)) for row in u]
                assert all(y % m == 0 for y, m in zip(images, diag)), (dep, p, r, ours)


# -- classify ------------------------------------------------------------

def test_classify_depth_two_sl2():
    rep = classify(SL2, (9,), 5, 2)
    assert rep.depth == 2
    assert not rep.projective
    assert rep.reduction == (1, (1,))
    assert rep.cx_lower_bound == 1
    assert rep.variety_dim == 1
    assert rep.cx == 1
    assert rep.variety_irreducible is True
    assert rep.ar_position == AR_TUBE
    j = rep.to_json_dict()
    assert j["depth"] == 2
    assert j["reduction"] == {"d": 1, "mu": [1]}
    assert j["lambda"] == [9]


def test_classify_projective_sl2():
    rep = classify(SL2, (24,), 5, 2)
    assert rep.projective
    assert rep.depth == 3
    assert rep.reduction is None
    assert rep.cx_lower_bound == 0
    assert rep.variety_dim == 0
    assert rep.ar_position == AR_PROJECTIVE
    assert rep.to_json_dict()["depth"] == 3


def test_classify_neg_infinity_depth():
    rep = classify(SL2, (-1,), 3, 1)
    assert rep.depth == NEG_INFINITY
    assert rep.projective
    assert rep.to_json_dict()["depth"] == "-inf"


def test_classify_depth_one_sl2():
    rep = classify(SL2, (2,), 5, 2)
    assert rep.depth == 1
    assert rep.reduction is None
    assert rep.cx_lower_bound == 2
    assert rep.variety_dim == 2
    assert rep.ar_position == AR_QUASI_SIMPLE


def test_classify_sl3_regular_weight():
    rep = classify(SL3, (0, 0), 7, 1)
    assert rep.depth == 1
    assert not rep.projective
    assert rep.cx_lower_bound == 1
    # regular weight of depth 1 at r=1: exact dimension 2(r-1)+3 = 3
    assert rep.variety_dim == 3
    assert rep.cx == 3
    assert rep.ar_position == AR_QUASI_SIMPLE


def test_classify_sl3_singular_weight_has_no_exact_value():
    # lam + rho = (3, 1): distinct nonzero mod-7 values but the sum is 4;
    # pick one with a genuinely singular pairing instead: lam + rho = (7, 1)
    rep = classify(SL3, (6, 0), 7, 1)
    assert rep.depth == 1
    assert rep.variety_dim is None
    assert rep.cx is None
    assert rep.cx_lower_bound == 1
    assert rep.ar_position == AR_QUASI_SIMPLE


def test_classify_sl3_formula_only_flag_at_higher_level():
    rep = classify(SL3, (0, 0), 7, 2)
    assert rep.variety_dim == 2 * (2 - 1) + 3
    assert any("formula-only" in n for n in rep.notes)


def test_classify_exact_value_never_undercuts_bound():
    for p in (3, 5, 7):
        for r in (1, 2):
            for a in range(-30, 31):
                rep = classify(SL2, (a,), p, r)
                if rep.variety_dim is not None:
                    assert rep.variety_dim >= rep.cx_lower_bound


def test_classify_validates_inputs():
    with pytest.raises(ValueError):
        classify(SL2, (1,), 4, 1)
    with pytest.raises(ValueError):
        classify(SL2, (1,), 2, 1)
    with pytest.raises(ValueError):
        classify(SL2, (1,), 5, 0)
    with pytest.raises(ValueError):
        classify(SL3, (1,), 5, 1)


def test_classify_notes_are_populated():
    rep = classify(SL2, (9,), 5, 2)
    assert any("depth" in n for n in rep.notes)
    assert any("reduction" in n for n in rep.notes)


def test_ar_position_for_simple():
    assert ar_position_for_simple(0)[0] == AR_PROJECTIVE
    assert ar_position_for_simple(2)[0] == AR_TILDE_A12
    assert ar_position_for_simple(1)[0] == AR_QUASI_SIMPLE
    assert ar_position_for_simple(3)[0] == AR_QUASI_SIMPLE


@settings(max_examples=80, deadline=None)
@given(a=st.integers(-60, 60), p=st.sampled_from([3, 5, 7]), r=st.sampled_from([1, 2, 3]))
def test_classify_json_round_trip_fields(a, p, r):
    rep = classify(SL2, (a,), p, r)
    j = rep.to_json_dict()
    for key in (
        "lambda",
        "p",
        "r",
        "depth",
        "projective",
        "reduction",
        "cx_lower_bound",
        "variety_dim",
        "cx",
        "variety_irreducible",
        "ar_position",
        "notes",
    ):
        assert key in j
    assert j["projective"] == (j["depth"] == "-inf" or j["depth"] > r)
