import numpy as np
import pytest

from treebsde import build_tree, scenarios
from treebsde.conditions import (beta_threshold, check_main_hypothesis,
                                 contraction_profile, detect_counterexample, hat_Lz)

from conftest import contraction_profile_H, proof_weights, slot_view


def tree_const(K, m, a):
    return build_tree(scenarios.deterministic_grid(K=K, m=m, a=a))


# -- check_main_hypothesis -------------------------------------------------------


def test_hypothesis_trivial_for_zero_lip_y():
    assert check_main_hypothesis(tree_const(3, 2, 0.9), 0.0) == 1.0


def test_hypothesis_unit_jumps_half_lipschitz():
    assert check_main_hypothesis(tree_const(2, 1, 1.0), 0.5) == pytest.approx(0.5)


def test_hypothesis_violated_by_reciprocal_lipschitz():
    p = 0.5
    assert check_main_hypothesis(tree_const(1, 1, p), 1.0 / p) == pytest.approx(-1.0)


# -- hat_Lz ----------------------------------------------------------------------


def test_hat_lz_zero_lip_y_is_first_branch():
    assert hat_Lz(0.3, 0.0, 1.2, 0.8) == pytest.approx(1.2 ** 2 + 0.3)


def test_hat_lz_spot_value_da_zero():
    # both branches by hand: max(1.1, 0.9/sqrt(1.8))
    got = hat_Lz(0.1, 1.0, 1.0, 0.0)
    assert got == pytest.approx(1.1, rel=1e-15)
    assert 0.9 / np.sqrt(1.8) < 1.1


def test_hat_lz_spot_value_da_one():
    second = 0.9 * 0.5 / (np.sqrt(1.8) - 1.0)
    assert hat_Lz(0.1, 0.5, 0.0, 1.0) == pytest.approx(max(0.1, second), rel=1e-14)
    assert hat_Lz(0.1, 0.5, 2.0, 1.0) == pytest.approx(max(4.1, second), rel=1e-14)


def test_hat_lz_rejects_bad_delta():
    with pytest.raises(ValueError):
        hat_Lz(0.0, 0.5, 1.0, 0.5)
    with pytest.raises(ValueError):
        hat_Lz(0.9, 1.0, 1.0, 1.0)   # 2*1*1 > 1 - 0.9


def test_hat_lz_array_form_matches_per_slot():
    da = np.array([0.0, 0.2, 0.55, 1.0])
    for lip_y in (0.0, 0.4):
        got = hat_Lz(0.1, lip_y, 0.7, da)
        assert got.shape == da.shape
        assert np.array_equal(got, [hat_Lz(0.1, lip_y, 0.7, float(x)) for x in da])
    with pytest.raises(ValueError):
        hat_Lz(0.5, 0.6, 0.7, da)   # only the dA = 1 slot violates it


def test_hat_lz_dominates_the_chain():
    # hat^2 >= (1-d)Ly/(sqrt(2(1-d)) - 2 Ly dA) > (1-d)Ly^2 dA/(1-d-2Ly^2 dA^2)
    rng = np.random.default_rng(7)
    for _ in range(200):
        da = float(rng.uniform(0, 1))
        delta = float(rng.uniform(0.01, 0.5))
        cap = np.sqrt((1.0 - delta) / 2.0) / max(da, 1e-9)
        lip_y = float(rng.uniform(0.01, min(cap * 0.999, 3.0)))
        lip_z = float(rng.uniform(0, 2))
        hat = hat_Lz(delta, lip_y, lip_z, da)
        mid = (1 - delta) * lip_y / (np.sqrt(2 * (1 - delta)) - 2 * lip_y * da)
        low = (1 - delta) * lip_y ** 2 * da / (1 - delta - 2 * lip_y ** 2 * da ** 2)
        assert hat >= mid - 1e-12
        assert mid > low - 1e-12


# -- proof_weights ------------------------------------------------------------------


def test_weights_a_equals_one_minus_delta():
    rng = np.random.default_rng(1)
    for _ in range(100):
        da = float(rng.uniform(0, 1))
        delta = float(rng.uniform(0.01, 0.9))
        hat = float(rng.uniform(0.1, 4.0))
        beta = float(rng.uniform(0.1, 10.0))
        c, d, a, b = proof_weights(beta, delta, da, hat)
        assert a == pytest.approx(1.0 - delta, rel=1e-14)
        assert d == pytest.approx(c + da, rel=1e-14)
        assert c > 0 and d > 0


def test_weights_da_zero_simplification():
    beta, delta, hat = 5.0, 0.2, 1.3
    c, d, a, b = proof_weights(beta, delta, 0.0, hat)
    assert d == c
    assert b == pytest.approx(beta - 2 * hat / (1 - delta), rel=1e-14)


def test_weights_accept_slot_view():
    tree = tree_const(1, 1, 0.5)
    c1 = proof_weights(2.0, 0.1, slot_view(tree, 0), 1.0)
    c2 = proof_weights(2.0, 0.1, 0.5, 1.0)
    assert c1 == c2


def test_profile_weights_match_the_slot_oracle():
    rng = np.random.default_rng(23)
    for _ in range(15):
        tree = build_tree(scenarios.random_model(rng, max_horizon=4))
        maxda = float(tree.slot_dA.max())
        lip_y = float(rng.uniform(0.0, 0.95 * np.sqrt(0.5) / max(maxda, 1e-9)))
        lip_z = float(rng.uniform(0, 1.5))
        delta = check_main_hypothesis(tree, lip_y) / 2
        beta = float(rng.uniform(0.1, 10.0))
        prof = contraction_profile(tree, lip_y, lip_z, beta, delta)
        for s in range(tree.n_slots):
            weights = proof_weights(beta, delta, slot_view(tree, s), float(prof.hat_lz_sq[s]))
            assert (prof.c[s], prof.d[s], prof.a[s], prof.b[s]) == weights


def test_b_tight_at_threshold():
    # at beta = beta_min the binding slot satisfies b = lip_y^2 / hat^2
    rng = np.random.default_rng(5)
    for _ in range(20):
        tree = build_tree(scenarios.random_model(rng, max_horizon=4))
        if tree.n_slots == 0:
            continue
        maxda = float(tree.slot_dA.max())
        lip_y = float(rng.uniform(0.05, 0.95 * np.sqrt(0.5) / max(maxda, 1e-9)))
        lip_z = float(rng.uniform(0, 1.5))
        eps = check_main_hypothesis(tree, lip_y)
        delta = eps / 2
        bmin = beta_threshold(tree, lip_y, lip_z, delta)
        prof = contraction_profile(tree, lip_y, lip_z, bmin, delta)
        gaps = prof.b - lip_y ** 2 / prof.hat_lz_sq
        assert np.min(gaps) >= -1e-9          # condition (ii) for beta >= beta_min
        assert np.min(np.abs(gaps)) < 1e-9    # and tight somewhere


def test_b_condition_holds_above_threshold():
    rng = np.random.default_rng(6)
    for _ in range(20):
        tree = build_tree(scenarios.random_model(rng, max_horizon=4))
        if tree.n_slots == 0:
            continue
        maxda = float(tree.slot_dA.max())
        lip_y = float(rng.uniform(0.0, 0.9 * np.sqrt(0.5) / max(maxda, 1e-9)))
        lip_z = float(rng.uniform(0, 1.5))
        delta = check_main_hypothesis(tree, lip_y) / 2
        bmin = beta_threshold(tree, lip_y, lip_z, delta)
        beta = bmin * float(rng.uniform(1.0, 4.0)) + 1e-9
        prof = contraction_profile(tree, lip_y, lip_z, beta, delta)
        assert np.all(prof.b >= lip_y ** 2 / prof.hat_lz_sq - 1e-9)


# -- contraction_profile_H -------------------------------------------------------------


def test_H_zero_lip_y_minimizer_at_origin():
    h, H, ell = contraction_profile_H(0.2, 0.0, 0.5)
    assert ell == 0.0
    assert H(1e-9) < H(1.0)   # decreasing toward 0


def test_H_calculus_spot_value():
    h, H, ell = contraction_profile_H(0.0, 1.0, 0.0)
    assert ell == pytest.approx(1 / np.sqrt(2), rel=1e-15)
    assert h(ell) == pytest.approx(2 * np.sqrt(2), rel=1e-14)
    assert H(ell) == pytest.approx(h(ell), rel=1e-15)


def test_H_minimizer_beats_random_points():
    rng = np.random.default_rng(2)
    for _ in range(25):
        da = float(rng.uniform(0, 1))
        delta = float(rng.uniform(0.0, 0.6))
        cap = np.sqrt((1 - delta) / 2) / max(da, 1e-9)
        lip_y = float(rng.uniform(0.05, min(0.98 * cap, 3.0)))
        h, H, ell = contraction_profile_H(delta, lip_y, da)
        base = H(ell)
        for ell_other in np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 50)):
            assert base <= H(float(ell_other)) + 1e-10 * max(1.0, base)


def test_H_domain_violation_raises():
    with pytest.raises(ValueError):
        contraction_profile_H(0.5, 1.0, 1.0)


def _refined_grid_argmin(H, lo, hi, rounds=8, pts=60):
    # independent minimizer: iterated log-grid refinement
    for _ in range(rounds):
        grid = np.exp(np.linspace(np.log(lo), np.log(hi), pts))
        vals = np.array([H(float(g)) for g in grid])
        i = int(np.argmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, pts - 1)]
    return float(np.sqrt(lo * hi))


def test_H_minimizer_matches_grid_refinement():
    rng = np.random.default_rng(3)
    for _ in range(20):
        da = float(rng.uniform(0, 1))
        delta = float(rng.uniform(0.0, 0.6))
        cap = np.sqrt((1 - delta) / 2) / max(da, 1e-9)
        lip_y = float(rng.uniform(0.1, min(0.95 * cap, 3.0)))
        h, H, ell = contraction_profile_H(delta, lip_y, da)
        found = _refined_grid_argmin(H, ell * 1e-2, ell * 1e2)
        assert abs(found - ell) / ell < 1e-6


# -- beta_threshold ---------------------------------------------------------------------


def test_threshold_unit_jump_spot_value():
    got = beta_threshold(tree_const(2, 1, 1.0), 0.0, 1.0, 0.1)
    assert got == pytest.approx(2.2 / 0.9, rel=1e-13)


def test_threshold_no_jump_simplification():
    lz, delta = 0.8, 0.2
    got = beta_threshold(tree_const(3, 2, 0.0), 0.0, lz, delta)
    assert got == pytest.approx(2 * (lz ** 2 + delta) / (1 - delta), rel=1e-13)


def test_threshold_needs_positive_slack():
    model, gen = scenarios.counterexample_model(0.5)
    with pytest.raises(ValueError):
        beta_threshold(build_tree(model), gen.lip_y, 0.0, 0.1)


def test_threshold_matches_H_at_hat_level():
    # when the max branch selects ell*, the slot value is H(hat^2) = H(ell*)
    delta, lip_y, da = 0.1, 0.5, 1.0
    tree = tree_const(1, 1, da)
    hat = hat_Lz(delta, lip_y, 0.0, da)
    h, H, ell = contraction_profile_H(delta, lip_y, da)
    assert hat == pytest.approx(ell, rel=1e-14)       # second branch selected
    assert beta_threshold(tree, lip_y, 0.0, delta) == pytest.approx(H(hat), rel=1e-13)


def test_threshold_monotone_in_slack():
    # raising lip_y shrinks the slack and never lowers the threshold
    rng = np.random.default_rng(4)
    for seed in range(5):
        tree = build_tree(scenarios.random_model(np.random.default_rng(seed), K=3))
        maxda = max(float(tree.slot_dA.max()), 1e-9)
        grid = np.linspace(0.0, 0.95 * np.sqrt(0.5) / maxda, 10)
        for lz in (0.0, 0.7):
            vals = [beta_threshold(tree, ly, lz, 0.02) for ly in grid]
            assert np.all(np.diff(vals) >= -1e-12)


# -- detect_counterexample -----------------------------------------------------------------


def test_detect_empty_for_zero_lip_y():
    assert detect_counterexample(tree_const(3, 1, 1.0), 0.0) == []


def test_detect_reciprocal_jump_value_two():
    p = 0.5
    model, gen = scenarios.counterexample_model(p)
    flagged = detect_counterexample(build_tree(model), gen.lip_y)
    assert flagged == [(0, 2.0)]
    assert [type(x) for x in flagged[0]] == [int, float]


def test_detect_boundary_is_flagged():
    lip_y = 1.0 / np.sqrt(2.0)
    tree = tree_const(2, 1, 1.0)
    value = 2.0 * lip_y ** 2
    flagged = detect_counterexample(tree, lip_y)
    if value >= 1.0:
        assert len(flagged) == tree.n_slots
    else:   # floating-point landed just below the boundary
        assert flagged == []
    assert value == pytest.approx(1.0, abs=1e-15)


def test_zero_lip_y_values_are_exact():
    # lip_y = 0 leaves only the first branch of hat_Lz and puts the
    # minimizer of H at 0, to the bit
    da = np.array([0.0, 0.3, 1.0])
    got = hat_Lz(0.3, 0.0, 1.2, da)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.full(3, 1.2 ** 2 + 0.3))
    one = hat_Lz(0.3, 0.0, 1.2, 0.8)
    assert type(one) is float and one == 1.2 ** 2 + 0.3
    _, _, ell_star = contraction_profile_H(0.3, 0.0, 0.5)
    assert type(ell_star) is float and repr(ell_star) == "0.0"
