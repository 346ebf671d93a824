"""The level-by-level tree build: level rules against their per-history routes."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebsde import (BsdeProblem, Generator, ScenarioModel, TreeTooLarge,
                      backward_oracle, build_tree, measure_core, picard_solve, scenarios,
                      solve_linear)
from treebsde.measure_core import NO_JUMP, ScenarioTree

from conftest import (node_children, node_histories, node_outcomes, node_parents, one_row,
                      per_leaf, random_problem, scalar_path, scalar_random_model, scalar_terminals,
                      scalar_two_state_rule)

TREE_ARRAYS = ("level_start", "prob", "slot_dA", "slot_phi", "slot_step")
NODE_LAYOUTS = (node_parents, node_outcomes, node_children)


def assert_same_tree(a, b):
    for name, x, y in ([(name, getattr(a, name), getattr(b, name)) for name in TREE_ARRAYS]
                       + [(fn.__name__, fn(a), fn(b)) for fn in NODE_LAYOUTS]):
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert len(a.level_histories) == len(b.level_histories)
    for Ha, Hb in zip(a.level_histories, b.level_histories):
        assert Ha.dtype == Hb.dtype == np.int8 and Ha.tobytes() == Hb.tobytes()
    assert node_histories(a) == node_histories(b)


def terminal_values(xi, tree):
    return BsdeProblem(model=tree.model, beta=1.0, xi=xi, f=Generator.zero(),
                       _tree=tree).terminal_values(tree)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(0, 6), m=st.integers(1, 3))
def test_batched_build_equals_scalar_adapter_build(seed, K, m):
    model = scenarios.random_model(np.random.default_rng(seed), K=K, m=m)
    batched, scalar = build_tree(model), build_tree(scalar_path(model))
    assert_same_tree(batched, scalar)
    # the per-history twin of random_model (same draws, per-history rules)
    assert_same_tree(batched, build_tree(scalar_random_model(np.random.default_rng(seed),
                                                             K=K, m=m)))
    for xi, twin in scalar_terminals(m).values():
        ref = terminal_values(per_leaf(lambda hist: xi(one_row(hist))[0]), scalar)
        assert terminal_values(xi, batched).tobytes() == ref.tobytes()
        assert terminal_values(per_leaf(twin), batched).tobytes() == ref.tobytes()


def test_random_models_cover_the_regimes():
    # the seeds of the property test reach unit, zero and parity-dependent slots
    seen = set()
    for seed in range(30):
        model = scenarios.random_model(np.random.default_rng(seed), K=6, m=2)
        tree = build_tree(model)
        seen |= {"unit"} if np.any(tree.slot_dA == 1.0) else set()
        seen |= {"zero"} if np.any(tree.slot_dA == 0.0) else set()
        for k in range(tree.horizon):
            sl = tree.depth_slice(k)
            if np.unique(tree.slot_dA[sl]).size > 1:
                seen.add("size by parity")
            if np.unique(tree.slot_phi[sl], axis=0).shape[0] > 1:
                seen.add("law by parity")
    assert seen == {"unit", "zero", "size by parity", "law by parity"}


@pytest.mark.parametrize("seed", range(4))
def test_presets_match_their_scalar_twins(seed):
    rng = np.random.default_rng(seed)
    aj, an = (float(x) for x in rng.uniform(0.1, 0.9, 2))
    phi = rng.dirichlet(np.ones(3))
    assert_same_tree(
        build_tree(scenarios.two_state_rule(K=5, m=3, a_after_jump=aj,
                                            a_after_no_jump=an, phi=phi)),
        build_tree(scalar_two_state_rule(K=5, m=3, a_after_jump=aj,
                                         a_after_no_jump=an, phi=phi)))
    a = rng.uniform(0.0, 1.0, 4)
    a[1] = 0.0
    a[2] = 1.0
    for model in (scenarios.deterministic_grid(K=4, m=2, a=a, phi=phi[:2] / phi[:2].sum()),
                  scenarios.pdmp_like(K=3, m=3, phi=phi),
                  scenarios.discretized_intensity(float(rng.uniform(0.5, 2.0)), K=5, m=2),
                  scenarios.counterexample_model(0.4, t0_index=1, K=3, m=2)[0]):
        assert_same_tree(build_tree(model), build_tree(scalar_path(model)))


def test_scalar_mark_law_keeps_a_preset_on_the_scalar_path():
    def law(k, hist):
        return np.array([0.2, 0.8]) if scenarios.jump_count(hist) else np.array([0.5, 0.5])

    tree = build_tree(scenarios.deterministic_grid(K=3, m=2, a=0.5, phi=law))
    assert np.array_equal(tree.slot_phi[0], [0.5, 0.5])
    assert np.array_equal(tree.slot_phi[node_children(tree)[0, 0]], [0.2, 0.8])


# -- bad rules raise the same error on both paths ------------------------------------


def bad_model(jump=None, law=None, m=2, K=3):
    """Level model that goes wrong only on the odd-parity nodes of depth 2."""
    def jump_size(k, H):
        dA = np.full(H.shape[0], 0.5)
        if k == 2 and jump is not None:
            odd = scenarios.jump_counts(H) % 2 == 1
            dA[odd] = jump + 0.01 * H[odd, 0]   # differs across the bad nodes
        return dA

    def mark_law(k, H):
        phi = np.full((H.shape[0], m), 1.0 / m)
        if k == 2 and law is not None:
            return law(phi, scenarios.jump_counts(H) % 2 == 1)
        return phi

    return ScenarioModel(m, K, jump_size, mark_law)


def _wide(phi, odd):
    return np.concatenate([phi, phi[:, :1]], axis=1)


def _negative(phi, odd):
    phi[odd] = [1.5, -0.5]
    return phi


def _unnormalised(phi, odd):
    phi[odd] = [0.5, 0.6]
    return phi


def _nan_law(phi, odd):
    phi[odd] = [np.nan, 0.5]
    return phi


@pytest.mark.parametrize("model,match", [
    (bad_model(jump=1.5), r"jump size 1\.5 outside \[0, 1\] at slot 2"),
    (bad_model(jump=-0.2), r"jump size -0\.2 outside \[0, 1\] at slot 2"),
    (bad_model(jump=float("nan")), r"jump size nan outside \[0, 1\] at slot 2"),
    (bad_model(law=_wide), r"mark law must have shape \(2,\) at slot 2"),
    (bad_model(law=_negative), "mark law is not a probability vector at slot 2"),
    (bad_model(law=_unnormalised), "mark law is not a probability vector at slot 2"),
    (bad_model(law=_nan_law), "mark law is not a probability vector at slot 2"),
])
def test_bad_rules_raise_the_same_message_on_both_paths(model, match):
    # the level model and its per-history route (one-row calls through the adapter)
    with pytest.raises(ValueError, match=match) as level:
        build_tree(model)
    with pytest.raises(ValueError, match=match) as scalar:
        build_tree(scalar_path(model))
    assert str(level.value) == str(scalar.value)


def test_a_per_history_law_of_ragged_rows_names_the_slot():
    def law(k, hist):
        return [1.0] if k == 1 and hist[-1] == NO_JUMP else [0.5, 0.5]

    with pytest.raises(ValueError, match="answers of different shapes at slot 1"):
        build_tree(scenarios.deterministic_grid(K=2, m=2, a=0.5, phi=law))


def test_too_many_marks_rejected():
    with pytest.raises(ValueError, match="127 marks"):
        build_tree(scenarios.pdmp_like(K=1, m=128))


# -- histories on demand ------------------------------------------------------------------


def test_histories_are_python_int_tuples_built_on_demand():
    # a_after_jump 1.0 and 0.0 give levels that mix branch kinds
    for a_after_jump in (0.3, 1.0, 0.0):
        tree = build_tree(scenarios.two_state_rule(K=3, m=2, a_after_jump=a_after_jump,
                                                   a_after_no_jump=0.6))
        depth = np.repeat(np.arange(tree.horizon + 1), np.diff(tree.level_start))
        for i in range(tree.n_nodes):
            hist = tree.history(i)
            assert len(hist) == depth[i]
            assert all(type(o) is int for o in hist)
        # against the level build: the rows of level k + 1 repeat each slot's
        # history once per child of the branch rule, in slot order, and append
        # the child's outcome (marks 0..m-1, then no jump)
        m = tree.n_marks
        for k in range(tree.horizon):
            branches = measure_core._branches(tree.slot_dA[tree.depth_slice(k)], m)
            H, H_next = tree.level_histories[k], tree.level_histories[k + 1]
            assert (H_next[:, :k].tolist()
                    == np.repeat(H, branches.sum(axis=1), axis=0).tolist())
            column = np.nonzero(branches)[1]
            assert H_next[:, k].tolist() == np.where(column == m, NO_JUMP, column).tolist()
        assert node_histories(tree) == [tree.history(i) for i in range(tree.n_nodes)]
        assert tree.slot(4).history == tree.history(4)


def test_level_rows_see_only_earlier_outcomes():
    # predictability: at depth k the rules get the (n, k) matrix of the
    # outcomes of slots 0..k-1, in node order
    seen = {}

    def jump_size(k, H):
        seen[k] = H.copy()
        return np.full(H.shape[0], 0.5)

    model = ScenarioModel(2, 3, jump_size,
                          lambda k, H: np.full((H.shape[0], 2), 0.5))
    tree = build_tree(model)
    for k, H in seen.items():
        assert H.shape == (tree.depth_slice(k).stop - tree.depth_slice(k).start, k)
        sl = tree.depth_slice(k)
        assert [tuple(r) for r in H.tolist()] == [tree.history(i)
                                                for i in range(sl.start, sl.stop)]


# -- a replaced rule or terminal is the one that runs -----------------------------------


def test_a_replaced_rule_is_the_rule_that_runs():
    model = scenarios.two_state_rule(K=3, m=2, a_after_jump=0.3, a_after_no_jump=0.6)
    assert build_tree(model).slot_dA[:3].tolist() == [0.6, 0.3, 0.3]
    replaced = dataclasses.replace(model, jump_size=lambda k, H: np.full(H.shape[0], 0.9))
    assert np.all(build_tree(replaced).slot_dA == 0.9)
    tree = build_tree(dataclasses.replace(
        model, mark_law=lambda k, H: np.tile([0.25, 0.75], (H.shape[0], 1))))
    assert np.all(tree.slot_phi == [0.25, 0.75])


def test_a_wrapped_terminal_is_the_terminal_that_runs():
    tree = build_tree(scenarios.two_state_rule(K=3, m=2, a_after_jump=0.3,
                                               a_after_no_jump=0.6))
    xi = functools.wraps(scenarios.xi_jump_count(2.0))(lambda H: np.full(H.shape[0], 100.0))
    assert np.all(terminal_values(xi, tree) == 100.0)


def test_solver_routes_never_build_history_tuples(monkeypatch):
    def refuse(*args):
        raise AssertionError("history tuples built")

    rng = np.random.default_rng(4)
    problem, delta = random_problem(rng, K=4)
    monkeypatch.setattr(ScenarioTree, "history", refuse)
    tree = build_tree(problem.model)
    gen = Generator(lambda block, y, zeta: 0.3 * np.tanh(y) - 0.1, 0.3, 0.0)
    batched = BsdeProblem(model=problem.model, beta=2.0, xi=scenarios.xi_jump_count(),
                          f=gen, _tree=tree)
    picard_solve(batched)
    backward_oracle(batched)
    solve_linear(BsdeProblem(model=problem.model, beta=2.0, f=Generator.zero(),
                             xi=scenarios.xi_last_mark_indicator(0, n_marks=tree.n_marks),
                             _tree=tree))


# -- node budget -------------------------------------------------------------------------


def test_node_budget_refuses_before_allocating(monkeypatch):
    model = scenarios.deterministic_grid(K=40, m=1, a=0.5)   # 2^41 - 1 nodes
    monkeypatch.setattr(measure_core, "MAX_NODES", 10_000)
    tracemalloc.start()
    try:
        with pytest.raises(TreeTooLarge, match="through depth 13") as exc:
            build_tree(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(exc.value, ValueError)
    assert (exc.value.depth, exc.value.nodes, exc.value.budget) == (13, 2 ** 14 - 1, 10_000)
    assert "16383 nodes" in str(exc.value)
    assert peak < 2 ** 20
    # exactly at the budget is allowed
    monkeypatch.setattr(measure_core, "MAX_NODES", 2 ** 13 - 1)
    assert build_tree(scenarios.deterministic_grid(K=12, m=1, a=0.5)).n_nodes == 2 ** 13 - 1


def test_default_budget_applies_to_plain_calls(monkeypatch):
    # K=12 with two marks (797,161 nodes) fits the default budget
    assert sum(3 ** k for k in range(13)) <= measure_core.MAX_NODES
    monkeypatch.setattr(measure_core, "MAX_NODES", 1000)
    with pytest.raises(TreeTooLarge, match="over the budget of 1000"):
        build_tree(scenarios.deterministic_grid(K=40, m=1, a=0.5))
    assert math.isfinite(build_tree(scenarios.deterministic_grid(K=40, m=1, a=0.0)).prob[-1])
