import numpy as np
import pytest

from treebsde import (BsdeProblem, Generator, backward_oracle, build_tree,
                      check_apriori_estimate, check_identity_lemma,
                      check_integral_inequality, check_lipschitz,
                      check_norm_equivalence, check_solution_jump_identity,
                      norms, picard_solve, run_suite, solve_linear)
from treebsde import scenarios, verification

from treebsde.verification import _sandwich_rows

from conftest import (brute_doleans, leaf_paths, lipschitz_samples, loop_norm_sandwich,
                      node_children, node_outcomes, per_sample_draws, per_slot, phi_sum,
                      random_linear_problem, random_problem, scalar_hat_z, scalar_seminorm)


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
        g = (sol.Z[0, 0] - zh) if node_outcomes(tree)[leaf] >= 0 else -zh
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
                          f=Generator(lambda block, y, z: y, 1.0, 0.0))
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


# -- per-slot norm sandwich of the suite ---------------------------------------------------


def _sandwich_tree(seed):
    rng = np.random.default_rng(500 + seed)
    return build_tree(scenarios.random_model(rng, m=1 + seed % 3, max_horizon=5)), rng


def _sandwich_fields(tree, rng):
    # normal rows over six decades, the constant 1, a normal field centred by
    # its phi-mean, and small integers (exact ties between rows)
    n, m = tree.n_slots, tree.n_marks
    R = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    centred = R - np.array([np.dot(r, phi) for r, phi in zip(R, tree.slot_phi)])[:, None]
    return {"normal": R, "constant": np.ones((n, m)), "centred": centred,
            "integer": rng.integers(-2, 3, (n, m)).astype(float)}


def _affine_z():
    return Generator(
        lambda block, y, zeta: 0.1 + 0.5 * norms.lipschitz_seminorm_rows(zeta, block), 0.0, 0.5)


def test_sandwich_trees_cover_zero_and_unit_jumps_and_three_mark_counts():
    trees = [_sandwich_tree(seed)[0] for seed in range(12)]
    assert any((t.slot_dA == 0.0).any() for t in trees)
    assert any((t.slot_dA == 1.0).any() for t in trees)
    assert any(((t.slot_dA > 0.0) & (t.slot_dA < 1.0)).any() for t in trees)
    assert {t.n_marks for t in trees} == {1, 2, 3}


@pytest.mark.parametrize("seed", range(12))
def test_sandwich_rows_are_the_scalar_loop(seed):
    tree, rng = _sandwich_tree(seed)
    da, phi = tree.slot_dA, tree.slot_phi
    for F in _sandwich_fields(tree, rng).values():
        got = _sandwich_rows(F, da, phi)
        want = loop_norm_sandwich(F, tree, range(tree.n_slots))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_sandwich_ends_are_met_by_the_extremal_fields(seed):
    # the constant field sits on the lower end (1 - dA) sq at every slot, the
    # centred field on the upper end sq when m > 1 (for m = 1 it is 0)
    tree, rng = _sandwich_tree(seed)
    da, phi = tree.slot_dA, tree.slot_phi
    fields = _sandwich_fields(tree, rng)
    for name, end in (("constant", 0), ("centred", 1)):
        F = fields[name]
        lo, sq, viol = _sandwich_rows(F, da, phi)
        mid = norms._seminorm_sq(F, da, phi)
        assert np.all(np.abs(mid - (lo, sq)[end]) <= 1e-15 * sq)
        assert np.all(viol <= 1e-15)
        if name == "centred" and tree.n_marks == 1:
            assert not sq.any()


def test_unit_jump_tree_gets_a_sandwich_row():
    # pdmp_like: dA = 1 on every slot, where the lower end is 0
    problem = BsdeProblem(model=scenarios.pdmp_like(K=4, m=3, phi=[0.2, 0.3, 0.5]),
                          beta=1.0, xi=scenarios.xi_last_mark_indicator(0, 1.0, n_marks=3),
                          f=_affine_z())
    sol = backward_oracle(problem)
    row = next(r for r in run_suite(problem, sol, seed=3)
               if r.name == "norm_equivalence")
    assert row.kind == "inequality" and row.passed
    # the solved rows are centred, so the solution sits on the upper end
    assert row.detail["lower"] == 0.0 < row.detail["mid"]
    assert row.detail["mid"] == pytest.approx(row.detail["upper"], rel=1e-14)
    assert row.detail["mid"] == norms.z_norm_sq(sol.Z, problem.tree(), 1.0)


def test_sandwich_fails_a_seminorm_with_a_shrunk_atom_term(monkeypatch):
    # c = dA (1 - dA) scaled by 1 - 1e-3 inside the seminorm: the weighted
    # sums against gamma = 1 - max dA cannot see it, the per-slot lower end
    # (met by the constant field) does
    model = scenarios.two_state_rule(K=8, m=2, a_after_jump=0.3, a_after_no_jump=0.6)
    problem = BsdeProblem(model=model, beta=1.0, xi=scenarios.xi_jump_count(),
                          f=_affine_z())
    sol = backward_oracle(problem)
    tree = problem.tree()

    def row():
        return next(r for r in run_suite(problem, sol, seed=0)
                    if r.name == "norm_equivalence")

    assert row().passed

    def shrunk(zeta, delta_A, phi):
        mean, spread = norms._moments(zeta, delta_A, phi)
        return spread + delta_A * (1.0 - delta_A) * (1.0 - 1e-3) * mean * mean

    monkeypatch.setattr(norms, "_seminorm_sq", shrunk)
    gamma = 1.0 - float(tree.slot_dA.max())
    W = np.random.default_rng(1).standard_normal(tree.slot_phi.shape)
    assert all(check_norm_equivalence(F, tree, 1.0, gamma).passed for F in (sol.Z, W))
    r = row()
    assert not r.passed and r.lhs > 1e-4
    da = tree.slot_dA
    lo, sq, viol = _sandwich_rows(np.ones(tree.slot_phi.shape), da, tree.slot_phi)
    assert viol.max() > 1e-4          # the constant field alone catches it


# -- lipschitz check -----------------------------------------------------------------------


def test_lipschitz_constant_generator():
    slot = build_tree(scenarios.deterministic_grid(K=1, m=2, a=0.5)).slot(0)
    f = Generator(lambda b, y, z: np.full(y.shape, 3.0), 0.0, 0.0)
    assert check_lipschitz(f, slot, samples=50).passed


def test_lipschitz_linear_in_y_is_tight():
    slot = build_tree(scenarios.deterministic_grid(K=1, m=1, a=0.5)).slot(0)
    f = Generator(lambda b, y, z: 0.8 * y, 0.8, 0.0)
    r = check_lipschitz(f, slot, samples=100)
    assert r.passed
    assert r.lhs > -1e-9       # the bound is achieved up to rounding


def test_lipschitz_seminorm_generator_tight():
    slot = build_tree(scenarios.deterministic_grid(K=1, m=2, a=0.7)).slot(0)
    f = Generator(lambda b, y, z: 1.2 * norms.lipschitz_seminorm_rows(z, b), 0.0, 1.2)
    assert check_lipschitz(f, slot, samples=100).passed


def test_lipschitz_detects_understated_constant():
    slot = build_tree(scenarios.deterministic_grid(K=1, m=1, a=0.5)).slot(0)
    f = Generator(lambda b, y, z: 2.0 * y, 0.5, 0.0)    # true constant is 2
    r = check_lipschitz(f, slot, samples=100, seed=0)
    assert not r.passed
    assert r.detail["witness"] is not None


@pytest.mark.parametrize("samples", [0, -3, []])
def test_lipschitz_refuses_no_samples(samples):
    # a check that sampled nothing would pass vacuously
    slot = build_tree(scenarios.deterministic_grid(2, 1, 0.5)).slot(0)
    f = Generator(lambda b, y, z: 2.0 * y, 0.5, 0.0)
    with pytest.raises(ValueError, match="sample"):
        check_lipschitz(f, slot, samples=samples)


def block_and_scalar_twins(tree, fn, lip_y, lip_z):
    """The level driver ``fn`` and its per-slot twin on ``tree``: one one-slot call per row."""
    level = Generator(fn, lip_y, lip_z)
    return level, per_slot(tree, level, lip_y, lip_z)


@pytest.mark.parametrize("a", [0.0, 0.35, 1.0])
def test_lipschitz_block_is_the_same_check_for_both_forms(a):
    tree = build_tree(scenarios.deterministic_grid(K=2, m=3, a=a))
    slot = tree.slot(1)
    pair = block_and_scalar_twins(
        tree, lambda block, y, zeta: 0.4 * np.sin(y)
        + 0.9 * np.tanh(norms.lipschitz_seminorm_rows(zeta, block)), 0.4, 0.9)
    rows = [check_lipschitz(f, slot, samples=60, seed=3)
            for f in pair]
    assert rows[0] == rows[1]
    assert rows[0].lhs.hex() == rows[1].lhs.hex() and rows[0].passed


def test_lipschitz_block_nan_sample_is_the_witness_for_both_forms():
    # sample 1 is NaN; sample 2 has the largest finite margin and must not win
    tree = build_tree(scenarios.deterministic_grid(K=1, m=2, a=0.5))
    slot = tree.slot(0)
    draws = [(0.0, 1.0, [0.0, 0.0], [0.1, 0.0]), (2.0, 1.0, [0.0, 1.0], [0.0, 0.0]),
             (0.0, 3.0, [1.0, 0.0], [0.0, 0.0]), (1.0, 0.5, [0.0, 0.0], [0.0, 0.0])]
    pair = block_and_scalar_twins(
        tree, lambda block, y, zeta: np.where(y == 2.0, np.nan, 5.0 * y), 0.1, 0.1)
    rows = [lipschitz_samples(f, slot, draws) for f in pair]
    for r in rows:
        assert not r.passed and np.isnan(r.lhs)
        assert r.detail["witness"] == {"y": 2.0, "y2": 1.0, "z": [0.0, 1.0], "z2": [0.0, 0.0]}
    assert rows[0].detail == rows[1].detail


def test_lipschitz_rejects_hat_below_lip_z():
    slot = build_tree(scenarios.deterministic_grid(K=1, m=1, a=0.5)).slot(0)
    f = Generator(lambda b, y, z: np.zeros(y.shape), 0.0, 1.0)
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
    jump_child, nojump_child = node_children(tree)[0, 0], node_children(tree)[0, 1]
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
    results = run_suite(problem, sol, seed=0)
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert {"identity_lemma", "integral_inequality", "apriori_estimate",
            "lipschitz_bound", "jump_identity"} <= names


def test_every_check_verdict_is_a_python_bool():
    # a side that was a numpy float made ``passed`` a numpy.bool, which a report
    # written with asdict could not serialize; both check kinds store a bool
    rng = np.random.default_rng(21)
    problem, delta = random_problem(rng, max_horizon=4)
    sol, _ = picard_solve(problem, delta=delta)
    results = run_suite(problem, sol, seed=0)
    assert {r.kind for r in results} == {"identity", "inequality"}
    assert all(type(r.passed) is bool for r in results)
    assert type(verification._identity("x", np.float64(1.0), np.float64(1.0)).passed) is bool


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
            zh = scalar_hat_z(dz, slot)
            expanded = phi_sum((dz - zh) ** 2, slot.phi)
            if slot.delta_A != 0.0:
                expanded += (1.0 - slot.delta_A) / slot.delta_A * zh ** 2
            sem_sq = scalar_seminorm(dz, slot) ** 2
            assert expanded == pytest.approx(sem_sq, rel=1e-12, abs=1e-14)


def test_lipschitz_fails_on_a_nan_driver():
    slot = build_tree(scenarios.deterministic_grid(K=1, m=2, a=0.5)).slot(0)
    r = check_lipschitz(Generator(lambda b, y, z: np.full(y.shape, np.nan), 0.1, 0.1), slot)
    assert not r.passed and np.isnan(r.lhs)
    assert r.detail["witness"] is not None
    # the first non-finite sample is the witness, whatever follows it
    draws = [(0.0, 1.0, [0.0, 0.0], [0.1, 0.0]), (2.0, 1.0, [0.0, 1.0], [0.0, 0.0]),
             (0.0, 3.0, [1.0, 0.0], [0.0, 0.0])]
    f = Generator(lambda b, y, z: np.where(y == 2.0, np.nan, 0.0), 0.1, 0.1)
    r = lipschitz_samples(f, slot, draws)
    assert not r.passed and np.isnan(r.lhs)
    assert r.detail["witness"] == {"y": 2.0, "y2": 1.0, "z": [0.0, 1.0], "z2": [0.0, 0.0]}


def test_suite_keeps_a_nan_lipschitz_slot():
    # NaN on one slot, away from the solution only: the solve succeeds,
    # and the suite's row must still fail on that slot's sample
    model = scenarios.deterministic_grid(K=3, m=2, a=0.5)
    f = Generator(lambda b, y, z: np.where((b.index == 6) & (np.abs(y) > 1.0), np.nan, 0.1),
                  0.0, 0.0)
    problem = BsdeProblem(model=model, beta=1.0, xi=scenarios.xi_constant(0.0), f=f)
    results = run_suite(problem, solve_linear(problem), seed=0)
    row = next(r for r in results if r.name == "lipschitz_bound")
    assert not row.passed and np.isnan(row.lhs)


def test_suite_fails_a_nan_integral_inequality_path():
    # at beta = 1000 the path weights overflow, and some of the 200 paths of
    # seed 1 evaluate to NaN (inf * 0): the row must fail on the first
    # of them instead of reporting the largest finite gap
    problem = BsdeProblem(model=scenarios.deterministic_grid(K=2, m=1, a=0.5), beta=1000.0,
                          xi=scenarios.xi_jump_count(), f=Generator.zero())
    with np.errstate(over="ignore", invalid="ignore"):
        results = run_suite(problem, solve_linear(problem), seed=1)
    row = next(r for r in results if r.name == "integral_inequality")
    assert not row.passed and np.isnan(row.lhs - row.rhs)


def test_suite_lipschitz_witness_is_the_first_nan_slot():
    # NaN away from the solution on two sampled slots: the row's witness is
    # the first NaN sample of the first of them, drawn from the same stream
    bad = (6, 20)
    f = Generator(lambda b, y, z: np.where(np.isin(b.index, bad) & (np.abs(y) > 1.0),
                                           np.nan, 0.1), 0.0, 0.0)
    problem = BsdeProblem(model=scenarios.deterministic_grid(K=5, m=1, a=0.5), beta=1.0,
                          xi=scenarios.xi_constant(0.0), f=f)
    tree = problem.tree()
    take = np.linspace(0, tree.n_slots - 1, verification.MAX_SLOTS).astype(int)
    assert set(bad) <= set(take.tolist())
    results = run_suite(problem, solve_linear(problem), seed=0)
    row = next(r for r in results if r.name == "lipschitz_bound")
    assert not row.passed and np.isnan(row.lhs)
    assert row.detail["n_samples"] == verification.N_SAMPLES
    stream = verification._stream("lipschitz", 0)
    per_slot_rows = {int(s): lipschitz_samples(f, tree.slot(s), per_sample_draws(
        stream, verification.N_SAMPLES, tree.n_marks)) for s in take}
    assert np.isnan(per_slot_rows[20].lhs)
    assert row.detail == per_slot_rows[6].detail != per_slot_rows[20].detail


def test_suite_calls_the_driver_twice_for_the_lipschitz_samples():
    # one call on the solved pair, then one per side of the sampled increments
    sizes = []

    def fn(block, y, zeta):
        sizes.append(block.index.size)
        return 0.5 * np.tanh(y)

    problem = BsdeProblem(model=scenarios.deterministic_grid(K=5, m=1, a=0.5), beta=1.0,
                          xi=scenarios.xi_jump_count(), f=Generator(fn, 0.5, 0.0))
    sol = backward_oracle(problem)
    sizes.clear()
    assert all(r.passed for r in run_suite(problem, sol, seed=0))
    n_rows = verification.MAX_SLOTS * verification.N_SAMPLES
    assert sizes == [problem.tree().n_slots, n_rows, n_rows]
