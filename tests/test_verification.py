import numpy as np
import pytest

from treebsde import (BsdeProblem, Generator, backward_oracle, build_tree,
                      check_apriori_estimate, check_identity_lemma,
                      check_integral_inequality, check_lipschitz,
                      check_norm_equivalence, check_solution_jump_identity,
                      norms, picard_solve, run_suite, solve_linear)
from treebsde import scenarios

from conftest import (brute_doleans, leaf_paths, random_linear_problem,
                      random_problem)


# -- energy identity --------------------------------------------------------------


def test_identity_at_terminal_time_is_trivial(m1_problem):
    sol = solve_linear(m1_problem)
    r = check_identity_lemma(m1_problem, sol, t_index=1)
    assert r.passed and r.rel_gap == 0.0


def test_identity_zero_data_all_terms_vanish():
    model = scenarios.deterministic_grid(K=2, m=1, a=0.5)
    problem = BsdeProblem(model=model, beta=1.0, xi=scenarios.xi_constant(0.0),
                          f=Generator.zero())
    sol = solve_linear(problem)
    r = check_identity_lemma(problem, sol, 0)
    assert r.lhs == 0.0 and r.rhs == 0.0 and r.passed


def test_identity_m1_both_sides_by_brute_force(m1_problem):
    # independent evaluation: rebuild each side from leaf paths
    sol = solve_linear(m1_problem)
    tree = m1_problem.tree()
    beta = m1_problem.beta
    r = check_identity_lemma(m1_problem, sol, 0)
    lhs = sol.Y[0] ** 2
    for leaf, path in leaf_paths(tree):
        p = float(tree.prob[leaf])
        E1 = brute_doleans(tree, beta, leaf)
        da = float(tree.slot_dA[0])
        lhs += p * beta * E1 / (1 + beta * da) * sol.Y[0] ** 2 * da
        zh = da * float(sol.Z[0, 0])
        g = (sol.Z[0, 0] - zh) if tree.outcome[leaf] >= 0 else -zh
        lhs += p * E1 * g * g
    rhs = sum(float(tree.prob[leaf]) * brute_doleans(tree, beta, leaf)
              * float(sol.Y[leaf]) ** 2 for leaf, _ in leaf_paths(tree))
    assert r.lhs == pytest.approx(lhs, rel=1e-13)
    assert r.rhs == pytest.approx(rhs, rel=1e-13)
    assert r.passed


@pytest.mark.parametrize("seed", range(10))
def test_identity_every_grid_time_random_linear(seed):
    rng = np.random.default_rng(seed)
    problem = random_linear_problem(rng, max_horizon=5)
    sol = solve_linear(problem)
    for j in range(problem.tree().horizon + 1):
        r = check_identity_lemma(problem, sol, j)
        assert r.passed, (j, r)


def test_identity_holds_at_beta_zero():
    rng = np.random.default_rng(100)
    problem = random_linear_problem(rng, K=3, beta=0.0)
    sol = solve_linear(problem)
    assert check_identity_lemma(problem, sol, 0).passed


def test_identity_rejects_solution_dependent_generator(m1_problem):
    problem = BsdeProblem(model=m1_problem.model, beta=1.0, xi=m1_problem.xi,
                          f=Generator(lambda slot, y, z: y, 1.0, 0.0))
    sol = backward_oracle(problem)
    with pytest.raises(ValueError, match="zeta.*free|free"):
        check_identity_lemma(problem, sol, 0)


# -- integral inequality ------------------------------------------------------------


def test_inequality_zero_driver():
    r = check_integral_inequality([(0.2, 0.3)], [0.0], beta=1.0)
    assert r.lhs == 0.0 and r.rhs == 0.0 and r.passed


def test_inequality_pure_continuous_closed_form():
    # lhs = 1, rhs = (1/1 + 0) * int_0^1 e^s ds = e - 1
    steps = 8
    path = [(1.0 / steps, 0.0)] * steps
    r = check_integral_inequality(path, np.ones(steps), beta=1.0)
    assert r.lhs == pytest.approx(1.0, rel=1e-14)
    assert r.rhs == pytest.approx(np.e - 1.0, rel=1e-12)
    assert r.passed


def test_inequality_single_unit_jump():
    c = 1.7
    r = check_integral_inequality([(0.0, 1.0)], [c], beta=1.0)
    assert r.lhs == pytest.approx(c * c, rel=1e-15)
    assert r.rhs == pytest.approx(4.0 * c * c, rel=1e-15)
    assert r.passed


def test_inequality_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        check_integral_inequality([(0.0, 0.5)], [1.0], beta=0.0)


@pytest.mark.parametrize("seed", range(10))
def test_inequality_random_paths(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        K = int(rng.integers(1, 7))
        path = np.column_stack([rng.uniform(0, 0.6, K), rng.uniform(0, 1, K)])
        f_vals = rng.normal(0, 2, K)
        beta = float(rng.uniform(0.05, 5))
        t = int(rng.integers(0, K))
        assert check_integral_inequality(path, f_vals, beta, t).passed


# -- a priori estimate ----------------------------------------------------------------


def test_apriori_zero_data():
    model = scenarios.deterministic_grid(K=2, m=1, a=0.4)
    problem = BsdeProblem(model=model, beta=2.0, xi=scenarios.xi_constant(0.0),
                          f=Generator.zero())
    r = check_apriori_estimate(problem, solve_linear(problem))
    assert r.lhs == 0.0 and r.rhs == 0.0 and r.passed


def test_apriori_constant_formula_at_two():
    model = scenarios.deterministic_grid(K=1, m=1, a=0.5)
    problem = BsdeProblem(model=model, beta=2.0, xi=scenarios.xi_constant(1.0),
                          f=Generator.zero())
    r = check_apriori_estimate(problem, solve_linear(problem))
    assert r.detail["c_beta"] == 8.0


@pytest.mark.parametrize("seed", range(10))
def test_apriori_random_instances(seed):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        problem = random_linear_problem(rng, max_horizon=4, max_marks=2,
                                        beta=float(rng.uniform(0.05, 4)))
        r = check_apriori_estimate(problem, solve_linear(problem))
        assert r.passed


def test_apriori_fails_with_wrong_constant():
    rng = np.random.default_rng(13)
    problem = random_linear_problem(rng, K=3, beta=1.0)
    sol = solve_linear(problem)
    assert not check_apriori_estimate(problem, sol, c_scale=0.0).passed


# -- norm equivalence -------------------------------------------------------------------


def test_norm_equivalence_zero_field():
    tree = build_tree(scenarios.deterministic_grid(K=2, m=1, a=0.5))
    r = check_norm_equivalence(norms.field_zeros(tree), tree, 1.0, 0.5)
    assert r.passed and r.detail["mid"] == 0.0


def test_norm_equivalence_no_jump_mass_collapses():
    tree = build_tree(scenarios.deterministic_grid(K=3, m=2, a=0.0))
    Z = np.ones((tree.n_slots, 2))
    r = check_norm_equivalence(Z, tree, 1.0, 1.0)
    assert r.passed
    assert r.detail["lower"] == r.detail["mid"] == r.detail["upper"]


def test_norm_equivalence_half_slot_arithmetic():
    tree = build_tree(scenarios.deterministic_grid(K=1, m=1, a=0.5))
    r = check_norm_equivalence(np.array([[1.0]]), tree, 0.0, 0.5)
    assert r.detail["lower"] == pytest.approx(0.25)
    assert r.detail["mid"] == pytest.approx(0.25)
    assert r.detail["upper"] == pytest.approx(0.5)
    assert r.passed


def test_norm_equivalence_rejects_oversized_jump():
    tree = build_tree(scenarios.deterministic_grid(K=1, m=1, a=0.8))
    with pytest.raises(ValueError):
        check_norm_equivalence(np.ones((1, 1)), tree, 1.0, 0.5)


# -- lipschitz check -----------------------------------------------------------------------


def test_lipschitz_constant_generator():
    slot = build_tree(scenarios.deterministic_grid(K=1, m=2, a=0.5)).slot(0)
    f = Generator(lambda s, y, z: 3.0, 0.0, 0.0)
    assert check_lipschitz(f, slot, samples=50).passed


def test_lipschitz_linear_in_y_is_tight():
    slot = build_tree(scenarios.deterministic_grid(K=1, m=1, a=0.5)).slot(0)
    f = Generator(lambda s, y, z: 0.8 * y, 0.8, 0.0)
    r = check_lipschitz(f, slot, samples=100)
    assert r.passed
    assert r.lhs > -1e-9       # the bound is achieved up to rounding


def test_lipschitz_seminorm_generator_tight():
    slot = build_tree(scenarios.deterministic_grid(K=1, m=2, a=0.7)).slot(0)
    f = Generator(lambda s, y, z: 1.2 * norms.lipschitz_seminorm(z, s), 0.0, 1.2)
    assert check_lipschitz(f, slot, samples=100).passed


def test_lipschitz_detects_understated_constant():
    slot = build_tree(scenarios.deterministic_grid(K=1, m=1, a=0.5)).slot(0)
    f = Generator(lambda s, y, z: 2.0 * y, 0.5, 0.0)    # true constant is 2
    r = check_lipschitz(f, slot, samples=100, rng=np.random.default_rng(0))
    assert not r.passed
    assert r.detail["witness"] is not None


def test_lipschitz_rejects_hat_below_lip_z():
    slot = build_tree(scenarios.deterministic_grid(K=1, m=1, a=0.5)).slot(0)
    f = Generator(lambda s, y, z: 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        check_lipschitz(f, slot, hat_lz_sq=0.5)


# -- jump identity -----------------------------------------------------------------------


def test_jump_identity_constant_solution():
    model = scenarios.deterministic_grid(K=3, m=2, a=0.5)
    problem = BsdeProblem(model=model, beta=1.0, xi=scenarios.xi_constant(2.0),
                          f=Generator.zero())
    r = check_solution_jump_identity(solve_linear(problem), problem)
    assert r.passed and r.lhs < 1e-14


def test_jump_identity_m1_displacements(m1_problem):
    sol = solve_linear(m1_problem)
    tree = m1_problem.tree()
    jump_child, nojump_child = tree.children[0, 0], tree.children[0, 1]
    assert sol.Y[jump_child] - sol.Y[0] == pytest.approx(0.5)
    assert sol.Y[nojump_child] - sol.Y[0] == pytest.approx(-0.5)
    assert check_solution_jump_identity(sol, m1_problem).passed


@pytest.mark.parametrize("seed", range(8))
def test_jump_identity_oracle_solutions(seed):
    rng = np.random.default_rng(seed)
    problem, _ = random_problem(rng, max_horizon=4)
    sol = backward_oracle(problem)
    r = check_solution_jump_identity(sol, problem)
    assert r.passed and r.lhs <= 1e-10


# -- suite -------------------------------------------------------------------------------


def test_run_suite_all_pass_on_nonlinear_problem():
    rng = np.random.default_rng(21)
    problem, delta = random_problem(rng, max_horizon=4)
    sol, _ = picard_solve(problem, delta=delta)
    results = run_suite(problem, sol, rng=np.random.default_rng(0), n_paths=50)
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert {"identity_lemma", "integral_inequality", "apriori_estimate",
            "lipschitz_bound", "jump_identity"} <= names


def test_seminorm_expanded_form_is_algebraic_identity():
    # sum(|dz - hat|^2 phi) + (1-dA)/dA * hat^2 == seminorm^2, at every dA
    rng = np.random.default_rng(33)

    def rule(k, hist):
        return [0.0, 0.3, 1.0, 0.85][k]

    tree = build_tree(scenarios.predictable_random_jumps(K=4, m=3, rule=rule))
    for s in range(tree.n_slots):
        slot = tree.slot(s)
        for _ in range(20):
            dz = rng.normal(0, 2, 3)
            zh = norms.hat_z(dz, slot)
            expanded = float(np.dot((dz - zh) ** 2, slot.phi))
            if slot.delta_A != 0.0:
                expanded += (1.0 - slot.delta_A) / slot.delta_A * zh ** 2
            sem_sq = norms.lipschitz_seminorm(dz, slot) ** 2
            assert expanded == pytest.approx(sem_sq, rel=1e-12, abs=1e-14)


def test_lipschitz_fails_on_a_nan_driver():
    slot = build_tree(scenarios.deterministic_grid(K=1, m=2, a=0.5)).slot(0)
    r = check_lipschitz(Generator(lambda s, y, z: float("nan"), 0.1, 0.1), slot)
    assert not r.passed and np.isnan(r.lhs)
    assert r.detail["witness"] is not None
    # the first non-finite sample is the witness, whatever follows it
    draws = [(0.0, 1.0, [0.0, 0.0], [0.1, 0.0]), (2.0, 1.0, [0.0, 1.0], [0.0, 0.0]),
             (0.0, 3.0, [1.0, 0.0], [0.0, 0.0])]
    f = Generator(lambda s, y, z: float("nan") if y == 2.0 else 0.0, 0.1, 0.1)
    r = check_lipschitz(f, slot, samples=draws)
    assert not r.passed and np.isnan(r.lhs)
    assert r.detail["witness"] == {"y": 2.0, "y2": 1.0, "z": [0.0, 1.0], "z2": [0.0, 0.0]}


def test_suite_keeps_a_nan_lipschitz_slot():
    # NaN on one slot, away from the solution only: the solve succeeds,
    # and the suite's row must still fail on that slot's sample
    model = scenarios.deterministic_grid(K=3, m=2, a=0.5)
    f = Generator(lambda s, y, z: float("nan") if s.index == 6 and abs(y) > 1.0 else 0.1,
                  0.0, 0.0)
    problem = BsdeProblem(model=model, beta=1.0, xi=scenarios.xi_constant(0.0), f=f)
    results = run_suite(problem, solve_linear(problem), rng=np.random.default_rng(0))
    row = next(r for r in results if r.name == "lipschitz_bound")
    assert not row.passed and np.isnan(row.lhs)
