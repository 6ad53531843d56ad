import random

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np
import oracles
import vermalab.rootsys
from vermalab.rootsys import (
    CartanSpec,
    NotFiniteType,
    apply_weyl,
    build_root_system,
    dot_action,
    is_good_prime,
    is_pr_regular,
    pairing,
    psi_set,
    shifted_pairings,
)

TYPES = ["A1", "A2", "B2", "G2", "A1xA1"]

# explicit Cartan matrices beyond the named types
EXPLICIT = {
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "D4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "F4": ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    "A5": tuple(
        tuple(2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(5))
        for i in range(5)
    ),
    "E6": (
        (2, 0, -1, 0, 0, 0),
        (0, 2, 0, -1, 0, 0),
        (-1, 0, 2, -1, 0, 0),
        (0, -1, -1, 2, -1, 0),
        (0, 0, 0, -1, 2, -1),
        (0, 0, 0, 0, -1, 2),
    ),
    "E7": oracles.cartan_e(7),
    "E8": oracles.cartan_e(8),
}

# classified data, frozen: (#positive roots, |W|, Coxeter number)
CLASSIFIED = {
    "A1": (1, 2, 2),
    "A2": (3, 6, 3),
    "B2": (4, 8, 4),
    "G2": (6, 12, 6),
    "A1xA1": (2, 4, 2),
    "A3": (6, 24, 4),
    "B3": (9, 48, 6),
    "C3": (9, 48, 6),
    "D4": (12, 192, 6),
    "F4": (24, 1152, 12),
    "A5": (15, 720, 6),
    "E6": (36, 51840, 12),
    "E7": (63, 2903040, 18),
    "E8": (120, 696729600, 30),
}

IRREDUCIBLE = [name for name in CLASSIFIED if name != "A1xA1"]


def spec_of(name):
    if name in EXPLICIT:
        return CartanSpec(EXPLICIT[name])
    return CartanSpec.from_type(name)


def rs_of(name):
    return build_root_system(spec_of(name))


@pytest.mark.parametrize("name", list(CLASSIFIED))
def test_classified_counts(name):
    rs = rs_of(name)
    n_pos, w_order, cox = CLASSIFIED[name]
    assert len(rs.positive_roots) == n_pos
    assert rs.coxeter_number == cox
    if name != "E8":
        # E8's node choice needs its invariant degrees: W_J of type E7 at
        # one node has 2,903,040 elements, past WEYL_CAP
        factorization = rs.coset_factorization
        assert len(factorization.stabilizer) * len(factorization.representatives) == w_order


def test_root_systems_build_without_the_weyl_group(monkeypatch):
    def refuse(*args):
        raise AssertionError("build_root_system closed a group")

    monkeypatch.setattr(vermalab.rootsys, "_close_weyl", refuse)
    build_root_system.cache_clear()
    try:
        for name in ("E6", "E7", "E8"):
            n_pos, _, cox = CLASSIFIED[name]
            rs = rs_of(name)
            assert (len(rs.positive_roots), rs.coxeter_number) == (n_pos, cox)
            assert sorted(root.coeffs for root in rs.positive_roots) == sorted(
                oracles.simply_laced_positive_roots(spec_of(name).matrix)
            )
    finally:
        build_root_system.cache_clear()


# the tuple closure of E6 (|W| = 51840) takes about ten seconds, and E7's
# and E8's groups are past WEYL_CAP
@pytest.mark.parametrize("name", [name for name in CLASSIFIED if name[0] != "E"])
def test_weyl_group_matches_tuple_closure(name):
    spec = spec_of(name)
    got = vermalab.rootsys._close_weyl(rs_of(name).simple_reflections)
    assert np.array_equal(got, np.array(oracles.brute_weyl_group(spec), dtype=np.int64))


def test_weyl_closure_blocks_keep_the_order(monkeypatch):
    # F4's largest length level has fewer elements than one block, so
    # shrink the block to run every level of W and of both parts in pieces
    gens = rs_of("F4").simple_reflections
    want = vermalab.rootsys._close_weyl(gens), rs_of("F4").coset_factorization
    monkeypatch.setattr(vermalab.rootsys, "_WEYL_BLOCK", 5)
    build_root_system.cache_clear()
    try:
        got = vermalab.rootsys._close_weyl(gens), rs_of("F4").coset_factorization
        assert np.array_equal(got[0], want[0])
        for part, part_want in zip(got[1][1:4], want[1][1:4]):
            assert np.array_equal(part, part_want)
    finally:
        build_root_system.cache_clear()


@pytest.mark.parametrize(
    "cap_name, cap, closes",
    [
        ("WEYL_CAP", 96, True),
        ("WEYL_CAP", 95, False),
        ("POSITIVE_ROOT_CAP", 24, True),
        ("POSITIVE_ROOT_CAP", 23, False),
    ],
)
def test_closure_caps_on_both_sides_of_f4(cap_name, cap, closes, monkeypatch):
    # F4 has 24 positive roots; the largest set its factorization generates
    # is an orbit of 96 points, at the two nodes whose W_J has 12 elements
    monkeypatch.setattr(vermalab.rootsys, cap_name, cap)
    build_root_system.cache_clear()
    try:
        if closes:
            rs = rs_of("F4")
            factorization = rs.coset_factorization
            sizes = len(factorization.stabilizer), len(factorization.representatives)
            assert (len(rs.positive_roots), sizes) == (24, (48, 24))
        elif cap_name == "WEYL_CAP":
            rs = rs_of("F4")
            with pytest.raises(NotFiniteType, match="Weyl closure exceeded cap"):
                rs.coset_factorization
        else:
            with pytest.raises(NotFiniteType, match="positive root closure exceeded cap"):
                rs_of("F4")
    finally:
        build_root_system.cache_clear()


def test_root_system_equality_ignores_its_cached_arrays():
    build_root_system.cache_clear()
    first = rs_of("B2")
    first.coset_factorization
    build_root_system.cache_clear()
    second = rs_of("B2")
    assert first is not second
    assert first.simple_reflections is not second.simple_reflections
    assert "coset_factorization" in vars(first) and "coset_factorization" not in vars(second)
    assert first == second and hash(first) == hash(second)
    assert first != rs_of("G2")
    assert len({first, second}) == 1


@pytest.mark.parametrize("name", IRREDUCIBLE)
def test_coxeter_matches_root_count_formula(name):
    # for an irreducible system, h = 2 * #positive roots / rank
    rs = rs_of(name)
    assert rs.coxeter_number == 2 * len(rs.positive_roots) // rs.rank


def test_a2_positive_roots_explicit():
    rs = rs_of("A2")
    coeffs = {r.coeffs for r in rs.positive_roots}
    assert coeffs == {(1, 0), (0, 1), (1, 1)}
    for r in rs.positive_roots:
        assert r.coroot_coeffs == r.coeffs  # simply laced


def test_g2_has_a_coefficient_divisible_by_three():
    rs = rs_of("G2")
    all_coeffs = {c for r in rs.positive_roots for c in r.coeffs}
    assert 3 in all_coeffs
    assert not is_good_prime(rs, 3)
    assert not is_good_prime(rs, 2)
    assert is_good_prime(rs, 5)
    assert is_good_prime(rs, 7)


def test_b2_bad_prime_two_only():
    rs = rs_of("B2")
    assert not is_good_prime(rs, 2)
    assert is_good_prime(rs, 3)
    assert is_good_prime(rs, 5)


@pytest.mark.parametrize("name", ["A1", "A2", "A1xA1"])
def test_simply_laced_all_odd_primes_good(name):
    rs = rs_of(name)
    for p in (3, 5, 7, 11):
        assert is_good_prime(rs, p)


@pytest.mark.parametrize(
    "matrix",
    [
        ((2, -2), (-2, 2)),      # affine A1~
        ((2, -1), (-4, 2)),      # determinant zero
        ((2, 1), (1, 2)),        # positive off-diagonal
        ((2, -1), (0, 2)),       # asymmetric zero pattern
        ((2, -1, 0), (-1, 2, -2), (0, -2, 2)),
        ((1,),),
    ],
)
def test_rejects_non_finite_type(matrix):
    with pytest.raises(NotFiniteType):
        CartanSpec(matrix)


def test_parse_forms():
    assert CartanSpec.parse("type=G2") == CartanSpec.from_type("G2")
    assert CartanSpec.parse("2,-1;-1,2") == CartanSpec.from_type("A2")
    with pytest.raises(NotFiniteType):
        CartanSpec.parse("type=E8")
    with pytest.raises(NotFiniteType):
        CartanSpec.parse("2,x;-1,2")


def test_rho_pairings_are_one_on_simple_roots():
    # <rho, theta_v> = (dual Coxeter number) - 1 for the highest root theta
    dual_coxeter = {"A1": 2, "A2": 3, "B2": 3, "G2": 4}
    for name in TYPES:
        rs = rs_of(name)
        for root in rs.positive_roots:
            if root.height == 1:
                assert pairing(rs, rs.rho, root) == 1
        if name != "A1xA1":
            top = max(rs.positive_roots, key=lambda r: r.height)
            assert top.height == rs.coxeter_number - 1
            assert pairing(rs, rs.rho, top) == dual_coxeter[name] - 1


@pytest.mark.parametrize("name", TYPES)
def test_shifted_pairings_refuse_a_weight_of_the_wrong_length(name):
    rs = rs_of(name)
    for lam in ((0,) * (rs.rank + 1), (0,) * (rs.rank - 1), (1, 1, 9)[: rs.rank] + (9,)):
        with pytest.raises(ValueError, match=f"rank {rs.rank}$"):
            shifted_pairings(rs, lam)
        with pytest.raises(ValueError, match=f"rank {rs.rank}$"):
            psi_set(rs, lam, 5, 1)


@pytest.mark.parametrize("name", list(CLASSIFIED))
def test_shifted_pairings_match_each_root(name):
    rs = rs_of(name)
    rng = np.random.default_rng(len(name) + rs.rank)
    # `edge` is the largest max|lam + rho| the int64 product takes, so it runs
    # in int64 and `edge + 1` on Python ints; by type, 2^62 falls on either side
    edge = (2**63 - 1) // (rs.rank * rs.coroot_entry_bound)
    tops = [60, edge - 1, edge, edge + 1, 2**62 - 1, 2**62, 2**62 + 1, 2**64]
    for top in tops:
        draws = [[top] * rs.rank, [-top] * rs.rank]
        for _ in range(4):
            shifted = [int(x) for x in rng.integers(-60, 61, rs.rank)]
            shifted[int(rng.integers(rs.rank))] = int(rng.choice([-1, 1])) * top
            draws.append(shifted)
        for shifted in draws:
            lam = tuple(x - 1 for x in shifted)
            want = [pairing(rs, tuple(shifted), root) for root in rs.positive_roots]
            assert shifted_pairings(rs, lam) == want


def test_sl2_dot_action_is_reflection_minus_two():
    rs = rs_of("A1")
    s = oracles.brute_weyl_group(rs.cartan)[1]
    for lam in range(-10, 10):
        assert dot_action(rs, s, (lam,)) == (-lam - 2,)


@pytest.mark.parametrize("name", TYPES)
def test_dot_action_on_the_weyl_stack_matches_each_matrix(name):
    rs = rs_of(name)
    weyl = oracles.brute_weyl_group(rs.cartan)
    stack = np.array(weyl, dtype=np.int64)
    for lam in [(0,) * rs.rank, tuple(range(-2, rs.rank - 2)), (7,) * rs.rank]:
        got = dot_action(rs, stack, lam)
        assert got.shape == (len(weyl), rs.rank)
        exact = dot_action(rs, stack.astype(object), lam)
        for w, row, row_exact in zip(weyl, got, exact):
            want = dot_action(rs, w, lam)
            assert isinstance(want, tuple)
            assert tuple(int(x) for x in row) == want == tuple(row_exact)


def test_finite_type_check_runs_once_per_matrix(monkeypatch):
    calls = []
    real = vermalab.rootsys._leading_minors_positive

    def counting(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(vermalab.rootsys, "_leading_minors_positive", counting)
    vermalab.rootsys._symmetrizes_to_positive_definite.cache_clear()
    for _ in range(3):
        CartanSpec.parse("2,-1,0,0;-1,2,-2,0;0,-1,2,-1;0,0,-1,2")
    assert len(calls) == 1
    # a failed check raises on every call, cached or not
    not_symmetrizable = ((2, -1, -1), (-1, 2, -1), (-2, -1, 2))
    for _ in range(2):
        with pytest.raises(NotFiniteType, match="not positive definite"):
            CartanSpec(((2, -1), (-4, 2)))
        with pytest.raises(NotFiniteType, match="not symmetrizable"):
            CartanSpec(not_symmetrizable)


def test_psi_and_regularity_sl2():
    rs = rs_of("A1")
    assert psi_set(rs, (4,), 5, 1) == (0,)
    assert psi_set(rs, (4,), 5, 2) == ()
    assert is_pr_regular(rs, (4,), 5, 2)
    assert not is_pr_regular(rs, (4,), 5, 1)
    assert psi_set(rs, (2,), 5, 1) == ()
    assert is_pr_regular(rs, (2,), 5, 1)


primes = st.sampled_from([3, 5, 7])


@settings(max_examples=60)
@given(st.sampled_from(TYPES), st.integers(-60, 60), st.integers(-60, 60), primes)
def test_psi_chain_property(name, a, b, p):
    rs = rs_of(name)
    lam = (a,) if rs.rank == 1 else (a, b)
    prev = set(range(len(rs.positive_roots)))
    assert set(psi_set(rs, lam, p, 0)) == prev
    for r in range(1, 5):
        cur = set(psi_set(rs, lam, p, r))
        assert cur <= prev
        prev = cur


@settings(max_examples=60)
@given(st.sampled_from(TYPES), st.integers(-60, 60), st.integers(-60, 60), primes)
def test_weyl_moves_preserve_pairing_multiset(name, a, b, p):
    rs = rs_of(name)
    lam = (a,) if rs.rank == 1 else (a, b)
    base = sorted(abs(pairing(rs, lam, r)) for r in rs.positive_roots)
    for w in oracles.brute_weyl_group(rs.cartan):
        moved = apply_weyl(w, lam)
        got = sorted(abs(pairing(rs, moved, r)) for r in rs.positive_roots)
        assert got == base


@settings(max_examples=60)
@given(st.sampled_from(TYPES), st.integers(-60, 60), st.integers(-60, 60), primes,
       st.integers(1, 3))
def test_psi_size_invariant_under_dot_action(name, a, b, p, r):
    rs = rs_of(name)
    lam = (a,) if rs.rank == 1 else (a, b)
    base = len(psi_set(rs, lam, p, r))
    for w in oracles.brute_weyl_group(rs.cartan):
        assert len(psi_set(rs, dot_action(rs, w, lam), p, r)) == base


@pytest.mark.parametrize("name", TYPES)
def test_reflections_send_positive_roots_to_signed_roots(name):
    rs = rs_of(name)
    a = rs.cartan.matrix
    n = rs.rank
    pos = {r.coeffs for r in rs.positive_roots}
    for root in rs.positive_roots:
        for j in range(n):
            fw_j = sum(a[j][i] * root.coeffs[i] for i in range(n))
            new = tuple(
                c - (fw_j if i == j else 0) for i, c in enumerate(root.coeffs)
            )
            neg = tuple(-x for x in new)
            assert new in pos or neg in pos


def test_symmetrization_agrees_with_oracle():
    def symmetrized(m):
        d = vermalab.rootsys._symmetrize(m)
        sym = [[d[i] * x for x in row] for i, row in enumerate(m)]
        assert all(x > 0 for x in d) and sym == [list(col) for col in zip(*sym)]
        return sym

    for name in TYPES:
        m = CartanSpec.from_type(name).matrix
        assert oracles.positive_definite(symmetrized(m))
        assert vermalab.rootsys._leading_minors_positive(m)
    # random symmetrizable generalized Cartan matrices, finite type or not:
    # the leading minors of A agree with Sylvester's criterion on D*A
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        m = [[2] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                if rng.random() < 0.5:
                    m[i][j], m[j][i] = -rng.randint(1, 3), -rng.randint(1, 3)
                else:
                    m[i][j] = m[j][i] = 0
        try:
            sym = symmetrized(m)
        except NotFiniteType:
            continue
        want = oracles.positive_definite(sym)
        assert vermalab.rootsys._leading_minors_positive(m) == want, m
        seen.add(want)
    assert seen == {False, True}
