import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebsde import (ScenarioModel, build_tree,
                      doleans_exponential, doleans_sqrt_factorization)
from treebsde import scenarios
from treebsde.measure_core import NO_JUMP

from conftest import brute_doleans, node_children, node_outcomes


def constant_model(K, m, a, phi=None):
    phi_vec = np.full(m, 1.0 / m) if phi is None else np.asarray(phi, float)
    return ScenarioModel(
        m=m,
        horizon=K,
        jump_size=lambda k, H: np.full(H.shape[0], a),
        mark_law=lambda k, H: np.tile(phi_vec, (H.shape[0], 1)),
    )


# -- build_tree ----------------------------------------------------------------


def test_empty_horizon_single_root():
    tree = build_tree(constant_model(0, 1, 0.5))
    assert tree.n_nodes == 1
    assert tree.n_slots == 0
    assert tree.prob[0] == 1.0


def test_binary_two_steps_exact_leaf_masses():
    # hand enumeration: each slot branches jump/no-jump with mass 1/2 each,
    # so 1 + 2 + 4 nodes and four leaves of mass 1/4
    tree = build_tree(constant_model(2, 1, 0.5))
    assert tree.n_nodes == 7
    assert sorted(tree.prob[tree.leaf_slice]) == [0.25, 0.25, 0.25, 0.25]


def test_unit_jump_suppresses_no_jump_branch():
    tree = build_tree(constant_model(1, 2, 1.0, phi=(0.3, 0.7)))
    leaves = tree.prob[tree.leaf_slice]
    assert tree.n_nodes == 3
    assert sorted(leaves) == [0.3, 0.7]
    assert np.all(node_outcomes(tree)[tree.leaf_slice] != NO_JUMP)


def test_zero_jump_creates_single_branch():
    tree = build_tree(constant_model(3, 2, 0.0))
    assert tree.n_nodes == 4
    assert np.all(node_outcomes(tree)[1:] == NO_JUMP)


def _model_of(m=1, horizon=2):
    return ScenarioModel(m=m, horizon=horizon, jump_size=lambda k, H: np.full(H.shape[0], 0.5),
                         mark_law=lambda k, H: np.full((H.shape[0], 2), 0.5))


@pytest.mark.parametrize("m", [2.5, float("nan"), float("inf")])
def test_mark_space_of_size_refuses_a_size_that_is_not_whole(m):
    with pytest.raises(ValueError, match="not a whole number"):
        _model_of(m=m)


def test_a_model_built_directly_refuses_a_fractional_mark_count():
    # of_size used to truncate 2.5 to two marks without a word
    with pytest.raises(ValueError, match="2.5 is not a whole number"):
        _model_of(m=2.5)
    with pytest.raises(ValueError, match="2.5 is not a whole number"):
        scenarios.random_model(np.random.default_rng(0), m=2.5)
    assert _model_of(m=3.0).m == _model_of(m=3).m == 3
    assert type(_model_of(m=3.0).m) is int


@pytest.mark.parametrize("value", [True, False])
def test_a_boolean_is_not_a_whole_number(value):
    # int(True) is 1: a JSON true read as a horizon or a mark count ran as 1
    with pytest.raises(ValueError, match=f"{value} is not a whole number"):
        _model_of(m=value)
    with pytest.raises(ValueError, match=f"{value} is not a whole number"):
        scenarios.deterministic_grid(value, 1, 0.5)


@pytest.mark.parametrize("m", [128, 1e300, 10 ** 6])
def test_mark_space_refuses_more_than_127_marks_before_making_them(m):
    # 1e300 ended in an OverflowError from range; a large finite m built its tuple first
    with pytest.raises(ValueError, match="127 marks"):
        _model_of(m=m)


def test_mark_space_of_any_form_keeps_the_mark_budget():
    for m in (0, 128):
        with pytest.raises(ValueError, match=f"m {m}: a model has 1 to 127 marks"):
            _model_of(m=m)
    assert _model_of(m=127).m == 127


@pytest.mark.parametrize("T", [math.inf, -math.inf, math.nan])
def test_a_uniform_grid_refuses_a_non_finite_horizon_before_spreading_it(T, recwarn):
    # only discretized_intensity reads T: its jump sizes come from the steps of [0, T]
    with pytest.raises(ValueError, match="T must be finite"):
        scenarios.discretized_intensity(0.5, 2, 1, T=T)
    with pytest.raises(TypeError, match="'T'"):
        scenarios.deterministic_grid(2, 1, 0.5, T=T)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("K", [-1, 5_000_000, 1e300])
def test_a_model_refuses_a_horizon_no_tree_can_hold(K):
    # K = -1 ended in numpy's "broadcast shape must be non-negative", 1e300 in
    # "Maximum allowed size exceeded": each constructor checks K before a per-step array
    for build in (lambda: _model_of(horizon=K),
                  lambda: scenarios.deterministic_grid(K, 1, 0.5),
                  lambda: scenarios.two_state_rule(K, 2, 0.3, 0.6),
                  lambda: scenarios.pdmp_like(K, 2),
                  lambda: scenarios.discretized_intensity(0.5, K, 1),
                  lambda: scenarios.counterexample_model(0.5, K=K),
                  lambda: scenarios.random_model(np.random.default_rng(0), K=K)):
        with pytest.raises(ValueError, match="horizon .*: a model has 0 to 4999999 steps"):
            build()
    assert _model_of(horizon=4_999_999).horizon == 4_999_999


def test_build_errors():
    with pytest.raises(ValueError, match="outside"):
        build_tree(constant_model(1, 1, 1.5))
    with pytest.raises(ValueError, match="probability"):
        build_tree(constant_model(1, 2, 0.5, phi=(0.4, 0.7)))


@pytest.mark.parametrize("seed", range(8))
def test_tree_invariants_on_random_models(seed):
    rng = np.random.default_rng(seed)
    tree = build_tree(scenarios.random_model(rng, max_horizon=4))
    # per-depth masses are exact partitions of 1
    for k in range(tree.horizon + 1):
        sl = tree.depth_slice(k)
        assert abs(tree.prob[sl].sum() - 1.0) < 1e-13
    # branch masses at each slot sum to 1
    for s in range(tree.n_slots):
        ch = node_children(tree)[s]
        assert abs((tree.prob[ch[ch >= 0]] / tree.prob[s]).sum() - 1.0) < 1e-14
        da = tree.slot_dA[s]
        if da == 1.0:
            assert ch[-1] == -1
        if da == 0.0:
            assert np.all(ch[:-1] == -1)


@pytest.mark.parametrize("beta", [0.0, 1.0, 3.7])
def test_tree_doleans_parent_measurable_and_matches_brute(beta):
    rng = np.random.default_rng(5)
    tree = build_tree(scenarios.random_model(rng, K=4))
    E = tree.doleans(beta)
    assert E[0] == 1.0
    for s in range(tree.n_slots):
        ch = node_children(tree)[s]
        vals = E[ch[ch >= 0]]
        assert np.all(vals == vals[0])          # siblings share the weight
    for node in range(tree.n_nodes):
        assert E[node] == pytest.approx(brute_doleans(tree, beta, node), rel=1e-13)


def test_tree_doleans_rejects_negative_beta():
    tree = build_tree(constant_model(1, 1, 0.5))
    with pytest.raises(ValueError):
        tree.doleans(-0.5)


# -- doleans_exponential ---------------------------------------------------------


def test_doleans_beta_zero_is_constant_one():
    path = np.column_stack([np.full(5, 0.3), np.full(5, 0.6)])
    assert np.all(doleans_exponential(path, 0.0) == 1.0)


def test_doleans_pure_continuous_is_plain_exponential():
    path = [(0.25, 0.0)] * 4
    out = doleans_exponential(path, 1.0)
    assert out == pytest.approx(np.exp(np.linspace(0, 1, 5)), rel=1e-15)


def test_doleans_single_jump():
    out = doleans_exponential([(0.0, 0.5)], 2.0)
    assert out[0] == 1.0
    assert out[1] == 2.0


def test_doleans_rejects_negative_beta_and_bad_path():
    with pytest.raises(ValueError):
        doleans_exponential([(0.0, 0.5)], -1.0)
    with pytest.raises(ValueError):
        doleans_exponential([(0.0, 1.5)], 1.0)
    with pytest.raises(ValueError):
        doleans_exponential([(-0.1, 0.5)], 1.0)


@settings(max_examples=60, deadline=None)
@given(
    incs=st.lists(st.tuples(st.floats(0, 0.8), st.floats(0, 1)), min_size=1, max_size=8),
    beta=st.floats(0, 5),
)
def test_doleans_composes_stepwise(incs, beta):
    out = doleans_exponential(incs, beta)
    assert np.all(np.diff(out) >= -1e-12)       # nondecreasing for beta >= 0
    for k, (dac, da) in enumerate(incs):
        step = math.exp(beta * dac) * (1.0 + beta * da)
        assert out[k + 1] == pytest.approx(out[k] * step, rel=1e-12)


# -- doleans_sqrt_factorization ----------------------------------------------------


def test_factorization_pure_continuous_closed_form():
    path = [(0.25, 0.0)] * 4
    up, lo = doleans_sqrt_factorization(path, 4.0)
    t = np.linspace(0, 1, 5)
    assert up == pytest.approx(np.exp(2.0 * t), rel=1e-14)
    assert lo == pytest.approx(np.exp(-2.0 * t), rel=1e-14)


def test_factorization_unit_jump_factors():
    up, lo = doleans_sqrt_factorization([(0.0, 1.0)], 3.0)
    assert up[1] / up[0] == pytest.approx(2.0, rel=1e-15)   # sqrt(1 + 3)
    assert lo[1] / lo[0] == pytest.approx(0.5, rel=1e-15)


def test_factorization_product_identity_beta_one():
    rng = np.random.default_rng(11)
    path = np.column_stack([rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)])
    up, lo = doleans_sqrt_factorization(path, 1.0)
    assert np.max(np.abs(up * lo - 1.0)) < 1e-12


def test_factorization_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        doleans_sqrt_factorization([(0.0, 0.5)], 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_factorization_square_recovers_weight(seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, 9))
    path = np.column_stack([rng.uniform(0, 0.7, K), rng.uniform(0, 1, K)])
    beta = float(rng.uniform(0.1, 5.0))
    up, lo = doleans_sqrt_factorization(path, beta)
    E = doleans_exponential(path, beta)
    assert np.max(np.abs(up ** 2 - E) / np.maximum(E, 1.0)) < 1e-12
    assert np.max(np.abs(up * lo - 1.0)) < 1e-12
