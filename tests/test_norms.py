import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebsde import build_tree, norms, scenarios

from conftest import (brute_y_norm, brute_z_norm, canonical_field, jump_count,
                      jump_second_moment, leaf_paths, per_history_model, scalar_hat_z,
                      scalar_moments, scalar_seminorm, slot_view)


def slot_of(K=1, m=1, a=0.5, phi=None):
    model = scenarios.deterministic_grid(K=K, m=m, a=a, phi=phi)
    return slot_view(build_tree(model), 0)


def hat_z(zeta, slot):
    """``hat_z_rows`` of one mark vector on the one-row block of the view ``slot``."""
    return float(norms.hat_z_rows(np.reshape(zeta, (1, -1)), slot.block)[0])


def seminorm(dzeta, slot):
    """``lipschitz_seminorm_rows`` of one increment on the one-row block of the view ``slot``."""
    return float(norms.lipschitz_seminorm_rows(np.reshape(dzeta, (1, -1)), slot.block)[0])


# -- hat_z_rows ----------------------------------------------------------------


def test_hat_z_zero_jump_is_zero():
    assert hat_z([123.0], slot_of(a=0.0)) == 0.0


def test_hat_z_single_mark():
    assert hat_z([1.0], slot_of(a=0.5)) == 0.5


def test_hat_z_weighted_sum():
    # plain-python oracle: da * sum(z * phi)
    slot = slot_of(m=2, a=1.0, phi=(0.3, 0.7))
    expected = 1.0 * (0.3 * 2.0 + 0.7 * (-1.0))
    assert hat_z([2.0, -1.0], slot) == pytest.approx(expected, abs=1e-15)


def test_hat_z_linearity_exact_on_dyadic_data():
    slot = slot_of(m=2, a=0.5, phi=(0.5, 0.5))
    z, w = np.array([1.0, -2.0]), np.array([0.25, 4.0])
    a, b = 0.5, -2.0
    assert hat_z(a * z + b * w, slot) == a * hat_z(z, slot) + b * hat_z(w, slot)


@settings(max_examples=50, deadline=None)
@given(z=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       w=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
       a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_hat_z_linearity(z, w, a, b):
    slot = slot_of(m=2, a=0.7, phi=(0.4, 0.6))
    lhs = hat_z(a * np.array(z) + b * np.array(w), slot)
    rhs = a * hat_z(z, slot) + b * hat_z(w, slot)
    assert lhs == pytest.approx(rhs, abs=1e-12)


# -- y_norm_sq -------------------------------------------------------------------


def test_y_norm_zero_process():
    tree = build_tree(scenarios.deterministic_grid(K=3, m=2, a=0.4))
    assert norms.y_norm_sq(norms.adapted_zeros(tree), tree, 2.0) == 0.0


@pytest.mark.parametrize("p,y", [(0.3, 2.0), (0.5, -1.5), (1.0, 0.7)])
def test_y_norm_single_slot(p, y):
    tree = build_tree(scenarios.deterministic_grid(K=1, m=1, a=p))
    Y = norms.adapted_zeros(tree)
    Y[0] = y
    assert norms.y_norm_sq(Y, tree, 0.0) == pytest.approx(p * y * y, rel=1e-15)


def test_y_norm_constant_one_is_expected_total_mass():
    rng = np.random.default_rng(3)
    tree = build_tree(scenarios.random_model(rng, K=4))
    # telescoping oracle: E[A_T] as a leafwise sum of the raw jump sizes
    expected = sum(float(tree.prob[leaf]) * sum(float(tree.slot_dA[nid]) for nid in path[:-1])
                   for leaf, path in leaf_paths(tree))
    got = norms.y_norm_sq(np.ones(tree.n_nodes), tree, 0.0)
    assert got == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("seed", range(6))
def test_y_norm_matches_brute_leafwise_sum(seed):
    rng = np.random.default_rng(seed)
    tree = build_tree(scenarios.random_model(rng, max_horizon=4))
    Y = rng.normal(0, 1, tree.n_nodes)
    beta = float(rng.uniform(0, 3))
    assert norms.y_norm_sq(Y, tree, beta) == pytest.approx(
        brute_y_norm(Y, tree, beta), rel=1e-12)


# -- z_norm_sq --------------------------------------------------------------------


def test_z_norm_zero_field():
    tree = build_tree(scenarios.deterministic_grid(K=2, m=2, a=0.6))
    assert norms.z_norm_sq(norms.field_zeros(tree), tree, 1.0) == 0.0


@pytest.mark.parametrize("p", [0.25, 0.5, 0.9])
def test_z_norm_single_slot_bernoulli_variance(p):
    tree = build_tree(scenarios.deterministic_grid(K=1, m=1, a=p))
    Z = np.array([[1.0]])
    assert norms.z_norm_sq(Z, tree, 0.0) == pytest.approx(p * (1 - p), rel=1e-15)


def test_z_norm_unit_jump_shift_invariance():
    tree = build_tree(scenarios.deterministic_grid(K=1, m=3, a=1.0))
    rng = np.random.default_rng(0)
    Z = rng.normal(0, 1, (1, 3))
    shifted = Z + 4.2
    assert norms.z_norm_sq(Z, tree, 1.0) == pytest.approx(
        norms.z_norm_sq(shifted, tree, 1.0), rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_z_norm_matches_brute_outcome_enumeration(seed):
    rng = np.random.default_rng(seed)
    tree = build_tree(scenarios.random_model(rng, max_horizon=4))
    Z = rng.normal(0, 1, (tree.n_slots, tree.n_marks))
    beta = float(rng.uniform(0, 3))
    assert norms.z_norm_sq(Z, tree, beta) == pytest.approx(
        brute_z_norm(Z, tree, beta), rel=1e-12, abs=1e-13)


# -- lipschitz_seminorm_rows --------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_row_forms_equal_scalar_forms(seed):
    # a row's value on the whole block is its value on its own one-row block
    rng = np.random.default_rng(seed)
    tree = build_tree(scenarios.random_model(rng, K=4))
    n = tree.n_slots
    Z = rng.normal(0, 3, (n, tree.n_marks))
    block = tree.block(slice(0, n))
    sem = [seminorm(Z[s], slot_view(tree, s)) for s in range(n)]
    hat = [hat_z(Z[s], slot_view(tree, s)) for s in range(n)]
    assert np.array_equal(norms.lipschitz_seminorm_rows(Z, block), sem)
    assert np.array_equal(norms.hat_z_rows(Z, block), hat)


def mixed_regime_tree(rng, m, K=3):
    """Tree whose slots mix delta_A = 0, 1 and inner sizes, with random mark laws."""
    inner = rng.uniform(0.05, 0.95, K)
    laws = rng.dirichlet(np.ones(m), (K, 2))

    def rule(k, hist):
        return (inner[k], 1.0, 0.0)[(k + jump_count(hist)) % 3]

    return build_tree(per_history_model(
        K, m, rule, phi=lambda k, hist: laws[k, int(rule(k, hist) == 1.0)]))


@pytest.mark.parametrize("m", range(1, 10))
def test_row_forms_are_the_scalar_twins_to_the_bit(m):
    rng = np.random.default_rng(100 + m)
    tree = mixed_regime_tree(rng, m)
    assert {0.0, 1.0} < set(tree.slot_dA.tolist())
    Z = rng.normal(0, 3, (tree.n_slots, m))
    block = tree.block(slice(None))
    views = [slot_view(tree, s) for s in range(tree.n_slots)]
    hat = [scalar_hat_z(Z[s], v) for s, v in enumerate(views)]
    sem = [scalar_seminorm(Z[s], v) for s, v in enumerate(views)]
    assert np.array_equal(norms.hat_z_rows(Z, block), hat)
    assert np.array_equal(norms.lipschitz_seminorm_rows(Z, block), sem)
    assert [hat_z(Z[s], v) for s, v in enumerate(views)] == hat
    assert [seminorm(Z[s], v) for s, v in enumerate(views)] == sem


def mixed_rows(rng, m, n=4000):
    """Rows mixing delta_A = 0, inner sizes and 1, with zero rows and signed zeros."""
    delta_A = rng.choice([0.0, 1.0, 0.25, 0.5], n)
    inner = delta_A == 0.5
    delta_A[inner] = rng.uniform(0.0, 1.0, int(inner.sum()))
    phi = rng.dirichlet(np.ones(m), n)
    Z = rng.normal(0.0, 3.0, (n, m))
    Z[rng.random(n) < 0.1] = 0.0
    Z[rng.random(n) < 0.05] = -0.0
    Z[rng.random((n, m)) < 0.05] = -0.0
    return Z, delta_A, phi


# m = 8, 9 and 12: rows as long as a pairwise row reduction would split
@pytest.mark.parametrize("m", [*range(1, 10), 12])
def test_moments_are_the_left_to_right_sum(m):
    # every bit, the sign of an exact zero included, of the one-row Python sum
    rng = np.random.default_rng(80 + m)
    Z, delta_A, phi = mixed_rows(rng, m)
    if m == 1:
        phi[rng.random(phi.shape[0]) < 0.5] = 1.0   # the normalized one-mark law
    assert {0.0, 1.0} < set(delta_A.tolist()) and np.any(np.all(Z == 0.0, axis=1))
    assert np.any(np.signbit(Z) & (Z == 0.0))
    mean, spread = (np.array(v) for v in zip(*map(scalar_moments, Z, delta_A, phi)))
    got = norms._moments(Z, delta_A, phi)
    assert got[0].tobytes() == mean.tobytes()
    assert got[1].tobytes() == spread.tobytes()
    # the squared seminorm adds the atom term to the spread
    want = spread + delta_A * (1.0 - delta_A) * mean * mean
    assert norms._seminorm_sq(Z, delta_A, phi).tobytes() == want.tobytes()


@pytest.mark.parametrize("m", range(1, 8))
def test_moments_are_vecdot(m):
    # np.vecdot sums the same products in another rounding order: each row
    # is within m ulp-sized steps of the sum of the absolute products
    rng = np.random.default_rng(80 + m)
    Z, delta_A, phi = mixed_rows(rng, m)
    mean, spread = norms._moments(Z, delta_A, phi)
    eps = np.finfo(float).eps
    assert np.all(np.abs(mean - np.vecdot(Z, phi)) <= m * eps * np.vecdot(np.abs(Z), phi))
    dev2 = (Z - (delta_A * mean)[:, None]) ** 2
    assert np.all(np.abs(spread - np.vecdot(dev2, phi)) <= m * eps * np.vecdot(dev2, phi))


@pytest.mark.parametrize("offset", [0, 1, 3, 7])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_moments_of_strided_views_are_the_contiguous_bits(m, offset):
    # the child block V[:, :-1] of a sweep, at several alignments of its buffer
    rng = np.random.default_rng(60 + m)
    Z, delta_A, phi = mixed_rows(rng, m, n=1001)
    buf = np.empty(offset + Z.size + Z.shape[0])
    V = buf[offset:].reshape(Z.shape[0], m + 1)
    V[:, :-1], V[:, -1] = Z, rng.normal(0.0, 3.0, Z.shape[0])
    assert not V[:, :-1].flags.c_contiguous
    for got, want in zip(norms._moments(V[:, :-1], delta_A, phi),
                         norms._moments(Z, delta_A, phi)):
        assert got.tobytes() == want.tobytes()


def test_seminorm_zero():
    assert seminorm(np.zeros(2), slot_of(m=2, a=0.5)) == 0.0


def test_seminorm_reduces_to_plain_l2_when_no_jump_mass():
    slot = slot_of(m=2, a=0.0, phi=(0.25, 0.75))
    dz = np.array([2.0, -1.0])
    expected = np.sqrt(0.25 * 4.0 + 0.75 * 1.0)
    assert seminorm(dz, slot) == pytest.approx(expected, rel=1e-15)


def test_seminorm_unit_jump_centered_vector():
    slot = slot_of(m=2, a=1.0, phi=(0.5, 0.5))
    assert seminorm([1.0, -1.0], slot) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_seminorm_squared_times_da_is_slot_contribution(seed):
    rng = np.random.default_rng(seed)
    tree = build_tree(scenarios.random_model(rng, max_horizon=4))
    Z = rng.normal(0, 1, (tree.n_slots, tree.n_marks))
    contrib = norms.slot_z_contribution(Z, tree)
    for s in range(tree.n_slots):
        slot = slot_view(tree, s)
        if slot.delta_A > 0:
            sem = scalar_seminorm(Z[s], slot)
            assert sem ** 2 * slot.delta_A == pytest.approx(contrib[s], rel=1e-12, abs=1e-14)


# -- jump_second_moment ---------------------------------------------------------------


def test_jump_second_moment_zero_jump():
    assert jump_second_moment([3.0], slot_of(a=0.0)) == 0.0


@pytest.mark.parametrize("p", [0.1, 0.5, 0.75])
def test_jump_second_moment_bernoulli(p):
    assert jump_second_moment([1.0], slot_of(a=p)) == pytest.approx(
        p * (1 - p), rel=1e-15)


def test_jump_second_moment_equals_slot_integrand():
    rng = np.random.default_rng(9)
    tree = build_tree(scenarios.random_model(rng, K=3))
    Z = rng.normal(0, 1, (tree.n_slots, tree.n_marks))
    contrib = norms.slot_z_contribution(Z, tree)
    for s in range(tree.n_slots):
        assert jump_second_moment(Z[s], slot_view(tree, s)) == pytest.approx(
            contrib[s], rel=1e-13, abs=1e-15)


# -- mixed_norm_sq ----------------------------------------------------------------------


def test_mixed_norm_b_zero_is_z_norm():
    rng = np.random.default_rng(4)
    tree = build_tree(scenarios.random_model(rng, K=3))
    Y = rng.normal(0, 1, tree.n_nodes)
    Z = rng.normal(0, 1, (tree.n_slots, tree.n_marks))
    assert norms.mixed_norm_sq(Y, Z, tree, 1.0, b=0.0) == pytest.approx(
        norms.z_norm_sq(Z, tree, 1.0), rel=1e-14)


def test_mixed_norm_zero_pair():
    tree = build_tree(scenarios.deterministic_grid(K=2, m=1, a=0.5))
    assert norms.mixed_norm_sq(norms.adapted_zeros(tree),
                               norms.field_zeros(tree), tree, 1.0) == 0.0


def test_mixed_norm_unit_b_splits_into_y_and_z_norms():
    rng = np.random.default_rng(8)
    tree = build_tree(scenarios.random_model(rng, K=4))
    Y = rng.normal(0, 1, tree.n_nodes)
    Z = rng.normal(0, 1, (tree.n_slots, tree.n_marks))
    assert norms.mixed_norm_sq(Y, Z, tree, 0.0, b=1.0) == pytest.approx(
        norms.y_norm_sq(Y, tree, 0.0) + norms.z_norm_sq(Z, tree, 0.0), rel=1e-13)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(-4, 4), seed=st.integers(0, 50))
def test_norms_are_homogeneous_of_degree_two(c, seed):
    rng = np.random.default_rng(seed)
    tree = build_tree(scenarios.random_model(rng, max_horizon=3))
    Y = rng.normal(0, 1, tree.n_nodes)
    Z = rng.normal(0, 1, (tree.n_slots, tree.n_marks))
    base = norms.mixed_norm_sq(Y, Z, tree, 1.0)
    assert norms.mixed_norm_sq(c * Y, c * Z, tree, 1.0) == pytest.approx(
        c * c * base, rel=1e-10, abs=1e-12)


# -- norm equivalence and canonicalization ------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_two_sided_norm_equivalence_per_slot(seed):
    # oracle: expand the contribution to dA*(sum z^2 phi - dA*mean^2) and
    # use mean^2 <= sum z^2 phi
    rng = np.random.default_rng(seed)
    tree = build_tree(scenarios.random_model(rng, K=3, include_unit=False))
    gamma = 1.0 - float(tree.slot_dA.max()) if tree.n_slots else 1.0
    Z = rng.normal(0, 1, (tree.n_slots, tree.n_marks))
    contrib = norms.slot_z_contribution(Z, tree)
    for s in range(tree.n_slots):
        da = tree.slot_dA[s]
        full = da * float(np.dot(Z[s] ** 2, tree.slot_phi[s]))
        assert gamma * full <= contrib[s] + 1e-12
        assert contrib[s] <= full + 1e-12


def test_canonical_field_centers_and_zeroes():
    rng = np.random.default_rng(12)

    def rule(k, hist):
        return [0.0, 1.0, 0.5][k]

    tree = build_tree(per_history_model(3, 2, rule))
    Z = rng.normal(0, 1, (tree.n_slots, tree.n_marks))
    C = canonical_field(Z, tree)
    for s in range(tree.n_slots):
        da = tree.slot_dA[s]
        if da == 0.0:
            assert np.all(C[s] == 0.0)
        elif da == 1.0:
            assert abs(np.dot(C[s], tree.slot_phi[s])) < 1e-14
    assert norms.z_norm_sq(C, tree, 1.3) == pytest.approx(
        norms.z_norm_sq(Z, tree, 1.3), rel=1e-12, abs=1e-14)
