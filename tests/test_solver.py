import numpy as np
import pytest

from treebsde import (BsdeProblem, ConditionViolated, Generator, NoConvergence,
                      StepSingular, backward_oracle, build_tree, implicit_step_solve,
                      norms, picard_map, picard_solve, represent_martingale,
                      solve_linear)
from treebsde import scenarios
from treebsde.solver import bsde_residual, conditional_means, _eval_path

from conftest import random_linear_problem, random_problem, random_terminal


def slot_of(K=1, m=1, a=0.5, phi=None):
    return build_tree(scenarios.deterministic_grid(K=K, m=m, a=a, phi=phi)).slot(0)


# -- represent_martingale ---------------------------------------------------------


def test_represent_constant_values_have_null_field():
    Z, check = represent_martingale([3.0, 3.0, 3.0], slot_of(m=2, a=0.4))
    assert np.all(Z == 0.0)
    assert check == 0.0


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_represent_two_point_solve(p):
    slot = slot_of(m=1, a=p)
    Z, check = represent_martingale([1.0, 0.0], slot)
    assert Z == pytest.approx([1.0])
    assert norms.hat_z(Z, slot) == pytest.approx(p)
    assert check < 1e-15


def test_represent_unit_jump_centering():
    slot = slot_of(m=2, a=1.0, phi=(0.5, 0.5))
    Z, check = represent_martingale([3.0, 1.0, 0.0], slot)   # no-jump entry ignored
    assert Z == pytest.approx([1.0, -1.0])
    assert check < 1e-15


def test_represent_zero_jump_slot_returns_null():
    Z, check = represent_martingale([7.0, 0.0], slot_of(m=1, a=0.0))
    assert np.all(Z == 0.0) and check == 0.0


def test_represent_reconstruction_error_is_rounding_level():
    rng = np.random.default_rng(3)
    tree = build_tree(scenarios.random_model(rng, K=3))
    for s in range(tree.n_slots):
        slot = tree.slot(s)
        vals = rng.normal(0, 2, tree.n_marks + 1)
        _, check = represent_martingale(vals, slot)
        assert check < 1e-13


# -- solve_linear --------------------------------------------------------------------


def test_solve_linear_zero_data_is_zero_solution():
    model = scenarios.deterministic_grid(K=3, m=2, a=0.5)
    sol = solve_linear(BsdeProblem(model=model, beta=1.0,
                                   xi=scenarios.xi_constant(0.0),
                                   f=Generator.zero()))
    assert np.all(sol.Y == 0.0) and np.all(sol.Z == 0.0)


def test_solve_linear_m1_example(m1_problem):
    sol = solve_linear(m1_problem)
    assert sol.Y[0] == pytest.approx(0.5)
    assert sol.Z == pytest.approx(np.array([[1.0]]))


def test_solve_linear_constant_driver():
    c, p = 0.7, 0.3
    model = scenarios.deterministic_grid(K=1, m=1, a=p)
    sol = solve_linear(BsdeProblem(model=model, beta=0.0,
                                   xi=scenarios.xi_constant(0.0),
                                   f=Generator.from_path(lambda slot: c)))
    assert sol.Y[0] == pytest.approx(c * p, rel=1e-15)
    assert np.all(sol.Z == 0.0)


def test_solve_linear_terminal_reproduced_and_residual_zero():
    rng = np.random.default_rng(0)
    problem = random_linear_problem(rng, K=4)
    tree = problem.tree()
    sol = solve_linear(problem)
    assert sol.Y[tree.leaf_slice] == pytest.approx(problem.terminal_values(tree))
    f_path = _eval_path(tree, problem.f, sol.Y, sol.Z)
    assert bsde_residual(tree, sol.Y, f_path) < 1e-12


def test_solve_linear_is_linear_in_data():
    rng = np.random.default_rng(1)
    model = scenarios.random_model(rng, K=3)
    xi1, xi2 = random_terminal(rng, model.marks.size), random_terminal(rng, model.marks.size)
    f1 = Generator.from_path(lambda slot: 0.4 * slot.step + 0.1)
    f2 = Generator.from_path(lambda slot: -0.3 + 0.2 * scenarios.jump_count(slot.history))
    lam = 1.7

    def combo_xi(h):
        return xi1(h) + lam * xi2(h)

    combo_f = Generator.from_path(lambda slot: f1(slot, 0, None) + lam * f2(slot, 0, None))
    s1 = solve_linear(BsdeProblem(model=model, beta=1.0, xi=xi1, f=f1))
    s2 = solve_linear(BsdeProblem(model=model, beta=1.0, xi=xi2, f=f2))
    s = solve_linear(BsdeProblem(model=model, beta=1.0, xi=combo_xi, f=combo_f))
    assert s.Y == pytest.approx(s1.Y + lam * s2.Y, rel=1e-12, abs=1e-12)
    assert s.Z == pytest.approx(s1.Z + lam * s2.Z, rel=1e-12, abs=1e-12)


def test_solve_linear_rejects_continuous_part():
    model = scenarios.deterministic_grid(K=2, m=1, a=0.5)
    model = type(model)(marks=model.marks, grid=model.grid,
                        jump_size=model.jump_size, mark_law=model.mark_law,
                        continuous_increments=np.array([0.1, 0.0]))
    with pytest.raises(ValueError, match="purely discrete"):
        solve_linear(BsdeProblem(model=model, beta=1.0,
                                 xi=scenarios.xi_constant(1.0), f=Generator.zero()))


# -- implicit_step_solve ----------------------------------------------------------------


def test_implicit_zero_jump_returns_conditional_mean():
    f = Generator(lambda slot, y, z: 99.0, 0.0, 0.0)
    assert implicit_step_solve(0.25, 0.0, slot_of(), None, f) == 0.25


def test_implicit_affine_fixed_point():
    f = Generator(lambda slot, y, z: y, 1.0, 0.0)
    got = implicit_step_solve(0.5, 0.5, slot_of(), np.zeros(1), f)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_implicit_blows_up_at_unit_contraction():
    p = 0.5
    f = Generator(lambda slot, y, z: y / p, 1.0 / p, 0.0)
    with pytest.raises(StepSingular) as exc:
        implicit_step_solve(1.0, p, slot_of(a=p), np.zeros(1), f)
    assert not exc.value.degenerate


def test_implicit_degenerate_when_mean_vanishes():
    p = 0.5
    f = Generator(lambda slot, y, z: y / p, 1.0 / p, 0.0)
    with pytest.raises(StepSingular) as exc:
        implicit_step_solve(0.0, p, slot_of(a=p), np.zeros(1), f)
    assert exc.value.degenerate


# -- backward_oracle --------------------------------------------------------------------


def test_oracle_agrees_with_linear_solver():
    rng = np.random.default_rng(2)
    for _ in range(25):
        problem = random_linear_problem(rng, max_horizon=4)
        lin = solve_linear(problem)
        ora = backward_oracle(problem)
        assert np.max(np.abs(lin.Y - ora.Y)) < 1e-12
        assert np.max(np.abs(lin.Z - ora.Z)) < 1e-12


def test_oracle_constant_terminal_is_constant_solution():
    model = scenarios.deterministic_grid(K=3, m=2, a=0.6)
    sol = backward_oracle(BsdeProblem(model=model, beta=1.0,
                                      xi=scenarios.xi_constant(2.5),
                                      f=Generator.zero()))
    assert np.all(np.abs(sol.Y - 2.5) < 1e-14)
    assert np.all(sol.Z == 0.0)


def test_oracle_one_step_implicit_example(m1_problem):
    f = Generator(lambda slot, y, z: y, 1.0, 0.0)
    problem = BsdeProblem(model=m1_problem.model, beta=1.0,
                          xi=m1_problem.xi, f=f)
    sol = backward_oracle(problem)
    assert sol.Y[0] == pytest.approx(1.0, abs=1e-12)   # y = 1/2 + y/2
    assert sol.Z == pytest.approx(np.array([[1.0]]))


def test_oracle_martingale_part_has_zero_conditional_increments():
    rng = np.random.default_rng(4)
    problem, _ = random_problem(rng, max_horizon=4)
    tree = problem.tree()
    sol = backward_oracle(problem)
    cm = conditional_means(tree, sol.martingale)
    assert np.max(np.abs(cm - sol.martingale[: tree.n_slots])) < 1e-10


# -- picard -------------------------------------------------------------------------------


def test_picard_path_generator_converges_in_one_sweep():
    rng = np.random.default_rng(5)
    problem = random_linear_problem(rng, K=3)
    sol, rep = picard_solve(problem)
    assert rep.iterations == 1
    lin = solve_linear(problem)
    assert np.max(np.abs(sol.Y - lin.Y)) < 1e-14


def test_picard_zero_data_one_sweep():
    model = scenarios.deterministic_grid(K=2, m=1, a=0.5)
    sol, rep = picard_solve(BsdeProblem(model=model, beta=1.0,
                                        xi=scenarios.xi_constant(0.0),
                                        f=Generator.zero()))
    assert rep.iterations == 1
    assert np.all(sol.Y == 0.0)


def test_picard_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(15):
        problem, delta = random_problem(rng, max_horizon=4)
        sol, rep = picard_solve(problem, delta=delta)
        ora = backward_oracle(problem)
        tree = problem.tree()
        assert abs(sol.Y[0] - ora.Y[0]) < 1e-8
        dist = np.sqrt(norms.mixed_norm_sq(sol.Y - ora.Y, sol.Z - ora.Z,
                                           tree, problem.beta))
        assert dist < 1e-8
        assert rep.converged and rep.residual <= 1e-10


def test_picard_jump_identity_of_solution():
    rng = np.random.default_rng(7)
    problem, delta = random_problem(rng, max_horizon=4)
    tree = problem.tree()
    sol, _ = picard_solve(problem, delta=delta)
    f_path = _eval_path(tree, problem.f, sol.Y, sol.Z)
    zh = norms.hat_z_all(sol.Z, tree)
    for s in range(tree.n_slots):
        ch = tree.children[s]
        for j, c in enumerate(ch):
            if c < 0:
                continue
            g = (sol.Z[s, j] - zh[s]) if j < tree.n_marks else -zh[s]
            assert sol.Y[c] - sol.Y[s] == pytest.approx(
                g - f_path[s] * tree.slot_dA[s], abs=1e-9)


def test_picard_unique_limit_from_different_starts():
    rng = np.random.default_rng(8)
    problem, delta = random_problem(rng, max_horizon=4)
    tree = problem.tree()
    sol0, _ = picard_solve(problem, delta=delta, tol=1e-12)
    from treebsde.solver import Solution
    init = Solution(Y=rng.normal(0, 5, tree.n_nodes),
                    Z=rng.normal(0, 5, (tree.n_slots, tree.n_marks)))
    sol1, _ = picard_solve(problem, delta=delta, tol=1e-12, initial=init)
    dist = np.sqrt(norms.mixed_norm_sq(sol0.Y - sol1.Y, sol0.Z - sol1.Z,
                                       tree, problem.beta))
    assert dist < 1e-10


def test_picard_map_contraction_at_half_delta():
    # with delta = 1/2 the guaranteed factor 1 - delta equals delta, so the
    # squared ratio is provably below delta on any admissible pair
    rng = np.random.default_rng(9)
    from treebsde import conditions
    for _ in range(10):
        problem, _ = random_problem(rng, max_horizon=4, eps_floor=0.6)
        tree = problem.tree()
        delta = 0.5
        bmin = conditions.beta_threshold(tree, problem.f.lip_y, problem.f.lip_z, delta)
        problem.beta = max(bmin, 1e-6)
        prof = conditions.contraction_profile(tree, problem.f.lip_y,
                                              problem.f.lip_z, problem.beta, delta)
        b = np.maximum(prof.b, 0.0)
        U1, V1 = rng.normal(0, 1, tree.n_nodes), rng.normal(0, 1, (tree.n_slots, tree.n_marks))
        U2, V2 = rng.normal(0, 1, tree.n_nodes), rng.normal(0, 1, (tree.n_slots, tree.n_marks))
        s1, s2 = picard_map(problem, U1, V1), picard_map(problem, U2, V2)
        num = norms.mixed_norm_sq(s1.Y - s2.Y, s1.Z - s2.Z, tree, problem.beta, b)
        den = norms.mixed_norm_sq(U1 - U2, V1 - V2, tree, problem.beta, b)
        assert num <= delta * den + 1e-10


def test_picard_raises_on_violated_hypothesis():
    model, gen = scenarios.counterexample_model(0.5)
    problem = BsdeProblem(model=model, beta=1.0,
                          xi=scenarios.xi_constant(1.0), f=gen)
    with pytest.raises(ConditionViolated) as exc:
        picard_solve(problem)
    assert exc.value.flagged


def test_picard_unchecked_blowup_growth():
    model, gen = scenarios.counterexample_model(0.5)
    problem = BsdeProblem(model=model, beta=0.0,
                          xi=scenarios.xi_constant(5e4), f=gen)
    with pytest.raises(NoConvergence) as exc:
        picard_solve(problem, max_iter=50, check_hypothesis=False)
    rep = exc.value.report
    assert max(rep.y_sup) > 1e6
    assert rep.ratio_sq and min(rep.ratio_sq) >= 1.0 - 1e-12   # no contraction


def test_empty_horizon_end_to_end():
    from treebsde import MarkSpace, ScenarioModel
    import numpy as _np
    model = ScenarioModel(marks=MarkSpace.of_size(2), grid=_np.array([0.0]),
                          jump_size=lambda k, h: 0.5,
                          mark_law=lambda k, h: _np.array([0.5, 0.5]))
    problem = BsdeProblem(model=model, beta=1.0,
                          xi=scenarios.xi_constant(3.0), f=Generator.zero())
    lin = solve_linear(problem)
    ora = backward_oracle(problem)
    sol, rep = picard_solve(problem)
    assert lin.Y[0] == ora.Y[0] == sol.Y[0] == 3.0
    assert rep.iterations == 1
    assert norms.mixed_norm_sq(sol.Y, sol.Z, problem.tree(), 1.0) == 0.0


def test_empty_tree_results_of_every_layer():
    # the K=0 model above: one node, no slots; every layer answers with
    # empty float arrays, exact zeros and passing checks
    from treebsde import MarkSpace, ScenarioModel, conditions, run_suite
    from treebsde.verification import check_norm_equivalence
    model = ScenarioModel(marks=MarkSpace.of_size(2), grid=np.array([0.0]),
                          jump_size=lambda k, h: 0.5,
                          mark_law=lambda k, h: np.array([0.5, 0.5]))
    problem = BsdeProblem(model=model, beta=1.0,
                          xi=scenarios.xi_constant(3.0), f=Generator.zero())
    tree = problem.tree()
    assert (tree.n_nodes, tree.n_slots) == (1, 0)
    for arr, shape, dtype in [(tree.slot_dA, (0,), np.float64),
                              (tree.slot_phi, (0, 2), np.float64),
                              (tree.children, (0, 3), np.int64)]:
        assert arr.shape == shape and arr.dtype == dtype

    Y, Z = np.array([3.0]), norms.field_zeros(tree)
    for arr in (norms.hat_z_all(Z, tree), norms.slot_z_contribution(Z, tree),
                conditional_means(tree, Y)):
        assert arr.shape == (0,) and arr.dtype == np.float64
    canon = norms.canonical_field(Z, tree)
    assert canon.shape == (0, 2) and canon.dtype == np.float64 and canon is not Z
    for value in (norms.y_norm_sq(Y, tree, 1.0), norms.z_norm_sq(Z, tree, 1.0),
                  norms.mixed_norm_sq(Y, Z, tree, 1.0, np.ones(0))):
        assert type(value) is float and repr(value) == "0.0"
    assert conditions.detect_counterexample(tree, 5.0) == []

    r = check_norm_equivalence(Z, tree, 1.0, 0.5)
    assert r.passed and r.kind == "inequality"
    assert [repr(x) for x in (r.lhs, r.rhs, r.abs_gap, r.rel_gap)] == ["0.0"] * 4
    assert r.detail == {"gamma": 0.5, "lower": 0.0, "mid": 0.0, "upper": 0.0}

    sol = backward_oracle(problem)
    results = run_suite(problem, sol, rng=np.random.default_rng(0))
    assert [(c.name, c.kind, c.passed) for c in results] == [
        ("identity_lemma", "identity", True),
        ("integral_inequality", "inequality", True),
        ("apriori_estimate", "inequality", True),
        ("norm_equivalence", "inequality", True),
        ("lipschitz_bound", "skipped", True),
        ("jump_identity", "inequality", True),
    ]
