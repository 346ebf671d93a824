import numpy as np
import pytest

from treebsde import (BsdeProblem, Generator, StepSingular, backward_oracle,
                      build_tree, conditions)
from treebsde import scenarios
from treebsde.measure_core import NO_JUMP
from treebsde.scenarios import ModelSpec

from conftest import node_outcomes


# -- deterministic_grid ------------------------------------------------------------


def test_deterministic_constant_half_is_m1():
    tree = build_tree(scenarios.deterministic_grid(K=1, m=1, a=0.5))
    assert tree.n_nodes == 3
    assert np.all(tree.slot_dA == 0.5)


def test_deterministic_zero_size_single_path():
    tree = build_tree(scenarios.deterministic_grid(K=4, m=3, a=0.0))
    assert tree.n_nodes == 5
    assert np.all(tree.prob == 1.0)


def test_deterministic_unit_size_has_no_nojump_branch():
    tree = build_tree(scenarios.deterministic_grid(K=2, m=2, a=1.0))
    assert np.all(node_outcomes(tree)[1:] != NO_JUMP)


def test_deterministic_per_step_sizes_and_validation():
    tree = build_tree(scenarios.deterministic_grid(K=2, m=1, a=[0.25, 0.75]))
    assert tree.slot_dA[0] == 0.25
    with pytest.raises(ValueError):
        scenarios.deterministic_grid(K=1, m=1, a=1.2)


# -- predictable_random_jumps ---------------------------------------------------------


def test_constant_rule_matches_deterministic_node_for_node():
    det = build_tree(scenarios.deterministic_grid(K=3, m=2, a=0.4))
    rul = build_tree(scenarios.predictable_random_jumps(K=3, m=2,
                                                        rule=lambda k, h: 0.4))
    assert det.n_nodes == rul.n_nodes
    assert np.array_equal(det.prob, rul.prob)
    assert np.array_equal(node_outcomes(det), node_outcomes(rul))


def test_two_state_rule_weight_differs_across_depth_three_nodes():
    def rule(k, hist):
        if k == 0 or hist[-1] == NO_JUMP:
            return 0.6
        return 0.3

    tree = build_tree(scenarios.predictable_random_jumps(K=3, m=1, rule=rule))
    E = tree.doleans(1.0)
    sl = tree.depth_slice(3)
    assert len(np.unique(np.round(E[sl], 12))) > 1


def test_rule_hitting_one_after_two_jumps_mixes_unit_slots():
    def rule(k, hist):
        jumps = scenarios.jump_count(hist)
        return 1.0 if jumps >= 2 else 0.5

    tree = build_tree(scenarios.predictable_random_jumps(K=4, m=1, rule=rule))
    assert np.any(tree.slot_dA == 1.0)
    assert np.any(tree.slot_dA == 0.5)


def test_rule_out_of_range_rejected():
    with pytest.raises(ValueError):
        build_tree(scenarios.predictable_random_jumps(K=1, m=1,
                                                      rule=lambda k, h: 1.7))


# -- pdmp_like --------------------------------------------------------------------------


def test_pdmp_uniform_two_marks_three_steps():
    tree = build_tree(scenarios.pdmp_like(K=3, m=2))
    leaves = tree.prob[tree.leaf_slice]
    assert leaves.size == 8
    assert np.allclose(leaves, 0.125)


def test_pdmp_zero_lip_y_hypothesis_automatic():
    tree = build_tree(scenarios.pdmp_like(K=2, m=2))
    assert conditions.check_main_hypothesis(tree, 0.0) == 1.0


def test_pdmp_large_lip_y_flags_every_slot():
    tree = build_tree(scenarios.pdmp_like(K=3, m=2))
    flagged = conditions.detect_counterexample(tree, 0.8)
    assert len(flagged) == tree.n_slots
    assert flagged[0][1] == pytest.approx(1.28)


# -- discretized_intensity ------------------------------------------------------------------


def test_intensity_zero_rate_never_jumps():
    tree = build_tree(scenarios.discretized_intensity(0.0, K=3, m=1))
    assert np.all(tree.slot_dA == 0.0)


def test_intensity_unit_rate_step_size():
    tree = build_tree(scenarios.discretized_intensity(1.0, K=4, m=1))
    assert np.all(tree.slot_dA == pytest.approx(1.0 - np.exp(-0.25)))


def test_intensity_refinement_gaps_shrink():
    f = Generator(lambda block, y, zeta: 0.2 * y, 0.2, 0.0)
    ys = []
    for K in (2, 4, 8):
        model = scenarios.discretized_intensity(1.0, K=K, m=1)
        problem = BsdeProblem(model=model, beta=1.0,
                              xi=scenarios.xi_jump_count(0.5), f=f)
        ys.append(float(backward_oracle(problem).Y[0]))
    gaps = np.abs(np.diff(ys))
    assert np.all(np.diff(gaps) < 0)


# -- counterexample_model --------------------------------------------------------------------


def test_counterexample_flag_value_is_exactly_two():
    model, gen = scenarios.counterexample_model(0.5)
    flagged = conditions.detect_counterexample(build_tree(model), gen.lip_y)
    assert [v for _, v in flagged] == [2.0]


def test_counterexample_oracle_step_singular():
    model, gen = scenarios.counterexample_model(0.5, t0_index=1, K=3)
    problem = BsdeProblem(model=model, beta=0.0,
                          xi=scenarios.xi_constant(1.0), f=gen)
    with pytest.raises(StepSingular):
        backward_oracle(problem)


def test_counterexample_degenerate_when_terminal_mean_vanishes():
    model, gen = scenarios.counterexample_model(0.5)
    tree = build_tree(model)
    # terminal value with zero conditional mean at the jump slot
    xi = scenarios.xi_jump_count(2.0)
    problem = BsdeProblem(model=model, beta=0.0,
                          xi=lambda H: xi(H) - 1.0, f=gen)
    with pytest.raises(StepSingular) as exc:
        backward_oracle(problem)
    assert exc.value.degenerate


def test_counterexample_rejects_bad_p():
    with pytest.raises(ValueError):
        scenarios.counterexample_model(1.0)


# -- random_model and terminal helpers -------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_random_model_always_valid(seed):
    rng = np.random.default_rng(seed)
    tree = build_tree(scenarios.random_model(rng))
    for k in range(tree.horizon + 1):
        assert abs(tree.prob[tree.depth_slice(k)].sum() - 1.0) < 1e-12


def test_jump_count_and_terminal_presets():
    hist = (0, NO_JUMP, 2, NO_JUMP)
    assert scenarios.jump_count(hist) == 2
    H = np.array([hist, (NO_JUMP,) * 4, (2, 0, NO_JUMP, NO_JUMP)], dtype=np.int8)
    assert scenarios.jump_counts(H).tolist() == [2, 0, 2]
    assert scenarios.xi_constant(3.0)(H).tolist() == [3.0, 3.0, 3.0]
    assert scenarios.xi_jump_count(2.0)(H).tolist() == [4.0, 0.0, 4.0]
    assert scenarios.xi_last_mark_indicator(2, n_marks=3)(H).tolist() == [1.0, 0.0, 0.0]
    assert scenarios.xi_last_mark_indicator(0, n_marks=3)(H).tolist() == [0.0, 0.0, 1.0]
    assert scenarios.xi_last_mark_indicator(0, n_marks=1)(
        np.zeros((2, 0), np.int8)).tolist() == [0, 0]


@pytest.mark.parametrize("mark", [-1, -3])
def test_last_mark_refuses_a_negative_index(mark):
    # -1 is the no-jump code: the indicator used to read 0 on every leaf
    with pytest.raises(ValueError, match=rf"terminal mark {mark} outside 0\.\.2"):
        scenarios.xi_last_mark_indicator(mark, n_marks=3)


@pytest.mark.parametrize("mark", [2, 5])
def test_last_mark_refuses_a_mark_the_tree_lacks(mark):
    # mark 5 on two marks used to give a terminal of zeros on every leaf
    tree = build_tree(scenarios.deterministic_grid(K=3, m=2, a=0.5))
    with pytest.raises(ValueError, match=rf"terminal mark {mark} outside 0\.\.1"):
        scenarios.xi_last_mark_indicator(mark, n_marks=tree.n_marks)
    xi = scenarios.xi_last_mark_indicator(1, n_marks=tree.n_marks)
    assert xi(tree.level_histories[3]).any()


# -- ModelSpec ---------------------------------------------------------------------------------


def test_model_spec_dispatch():
    spec = ModelSpec("deterministic_grid", {"K": 2, "m": 1, "a": 0.5})
    assert build_tree(spec.build()).n_nodes == 7
    spec = ModelSpec("counterexample", {"p": 0.5})
    assert build_tree(spec.build()).slot_dA[0] == 0.5
    spec = ModelSpec("two_state_rule",
                     {"K": 2, "m": 1, "a_after_jump": 0.3, "a_after_no_jump": 0.6})
    tree = build_tree(spec.build())
    assert set(np.unique(tree.slot_dA)) == {0.3, 0.6}
    with pytest.raises(ValueError):
        ModelSpec("nope").build()
