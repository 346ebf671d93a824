"""The block forms of the check suite against their per-item loop oracles.

``run_suite`` shares integrands across grid times and evaluates its
randomized checks as blocks; every row must keep the bits of the loop
forms in ``conftest``.  The drift paths, the norm sandwich and the
Lipschitz check each draw from their own stream of the seed
(``verification._stream``).  The loop suite evaluates the library's block
of drift paths row by row, so the law of that draw is tested on its own,
as is the law of the normals.
"""

import numpy as np
import pytest

from treebsde import (BsdeProblem, Generator, Solution, backward_oracle, build_tree,
                      run_suite, scenarios, verification)
from treebsde.verification import (_integral_inequality_rows, _normal_block, _random_paths,
                                   _stream)

from conftest import (check_identity_lemma, check_integral_inequality, check_lipschitz,
                      check_solution_jump_identity)
from conftest import (block_paths, full_matrix_jump_identity, loop_identity_lemma,
                      lipschitz_samples, loop_integral_inequality, loop_lipschitz,
                      loop_run_suite, per_sample_draws, random_generator, random_linear_problem,
                      random_problem, slot_view)


def _bits(r):
    return (r.name, r.kind, r.lhs.hex(), r.rhs.hex(), r.abs_gap.hex(),
            r.rel_gap.hex(), bool(r.passed), r.tol, r.detail)


def _perturbed(rng, sol, scale):
    # off the solution, so the identity gaps and the jump residuals are not 0
    return Solution(Y=sol.Y + rng.normal(0.0, scale, sol.Y.shape),
                    Z=sol.Z + rng.normal(0.0, scale, sol.Z.shape))


def _suite_problem(seed):
    rng = np.random.default_rng(1000 + seed)
    problem, _ = random_problem(rng, m=1 + seed % 4, max_horizon=7)
    if seed % 3 == 0:
        problem = BsdeProblem(model=problem.model, beta=0.0, xi=problem.xi,
                              f=problem.f, _tree=problem.tree())
    return problem, rng


def _suite_case(seed):
    problem, rng = _suite_problem(seed)
    sol = backward_oracle(problem)
    if seed % 2:
        sol = _perturbed(rng, sol, 1e-3)
    return problem, sol


@pytest.mark.parametrize("seed", range(24))
def test_run_suite_is_the_loop_suite_to_the_bit(seed):
    problem, sol = _suite_case(seed)
    block = run_suite(problem, sol, seed=seed)
    loop = loop_run_suite(problem, sol, seed=seed)
    assert [_bits(r) for r in block] == [_bits(r) for r in loop]


def test_a_nan_path_row_is_the_loop_suite_row():
    # at beta = 1000 some paths of seed 1 are NaN: both scans keep the first
    problem = BsdeProblem(model=scenarios.deterministic_grid(K=3, m=2, a=0.5), beta=1000.0,
                          xi=scenarios.xi_jump_count(), f=Generator.zero())
    sol = backward_oracle(problem)
    with np.errstate(over="ignore", invalid="ignore"):
        block = run_suite(problem, sol, seed=1)
        loop = loop_run_suite(problem, sol, seed=1)
    assert [_bits(r) for r in block] == [_bits(r) for r in loop]
    assert np.isnan(block[1].abs_gap)


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_each_randomized_check_draws_from_its_own_stream(seed, monkeypatch):
    # drawing more or fewer items in one check moves no other check's row,
    # and the paths are the seed's "paths" stream
    problem, sol = _suite_case(seed)
    assert problem.beta > 0

    def rows():
        return {r.name: _bits(r) for r in run_suite(problem, sol, seed=seed)}

    def same_but(name, other):
        assert {k: v for k, v in other.items() if k != name} == {
            k: v for k, v in base.items() if k != name}

    base = rows()
    assert base["integral_inequality"] == _bits(verification.check_integral_inequality(seed, problem.beta))
    for name, attr in (("integral_inequality", "N_PATHS"), ("norm_equivalence", "N_FIELDS"),
                       ("lipschitz_bound", "N_SAMPLES")):
        with monkeypatch.context() as mp:
            mp.setattr(verification, attr, 3)
            same_but(name, rows())


def test_suite_cases_cover_zero_beta_unit_jumps_and_four_marks():
    problems = [_suite_problem(seed)[0] for seed in range(24)]
    assert any(p.beta == 0.0 for p in problems)
    assert any(p.tree().slot_dA.max() == 1.0 for p in problems)
    assert any(p.tree().slot_dA.max() < 1.0 for p in problems)
    assert {p.tree().n_marks for p in problems} == {1, 2, 3, 4}


@pytest.mark.parametrize("seed", range(8))
def test_identity_lemma_rows_are_the_loop_rows(seed):
    rng = np.random.default_rng(seed)
    problem = random_linear_problem(rng, max_horizon=6)
    sol = _perturbed(rng, backward_oracle(problem), 1e-2)
    for beta in (None, 0.0, 2.5):
        for j in range(problem.tree().horizon + 1):
            assert (_bits(check_identity_lemma(problem, sol, j, beta))
                    == _bits(loop_identity_lemma(problem, sol, j, beta)))


def test_integral_inequality_one_row_is_the_loop_form():
    # longer paths than the suite draws, so the sums are pairwise, and every t
    rng = np.random.default_rng(5)
    for _ in range(60):
        K = int(rng.integers(1, 14))
        dAc = np.where(rng.random(K) < 0.5, rng.uniform(0.0, 0.5, K), 0.0)
        dA = rng.uniform(0.0, 1.0, K)
        dA[rng.random(K) < 0.2] = 0.0
        path, f_vals = np.column_stack([dAc, dA]), rng.normal(0.0, 1.5, K)
        beta = float(rng.uniform(0.1, 6.0))
        for t in range(K + 1):
            assert (_bits(check_integral_inequality(path, f_vals, beta, t))
                    == _bits(loop_integral_inequality(path, f_vals, beta, t)))


@pytest.mark.parametrize("beta", [1.7, 3000.0])
def test_integral_inequality_block_rows_are_the_loop_rows(beta):
    # every row of the suite's padded block, not only the worst one; the
    # square of the drift goes through C's pow, which is not always x * x,
    # and at beta = 3000 the weights overflow, so a padded term must not
    # turn an infinite row into a NaN one
    block = _random_paths(_stream("paths", 17), 4000)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs = _integral_inequality_rows(*block, beta, 0)
        loop = [loop_integral_inequality(path, f, beta) for path, f in block_paths(*block)]
    assert lhs.tobytes() == np.array([r.lhs for r in loop]).tobytes()
    assert rhs.tobytes() == np.array([r.rhs for r in loop]).tobytes()


def test_drift_path_block_draw_has_the_per_step_law():
    # two draws of bytes whatever the count, every length 1..6, exact zeros
    # past each length, and the shares of the per-step law: dA = 1 with
    # 0.15 * 0.85, dA = 0 with 0.15, dAc = 0 with 1/2
    calls = []

    class Counting:
        def __init__(self, stream):
            self.stream = stream

        def __getattr__(self, name):
            calls.append(name)
            return getattr(self.stream, name)

    for n in (1, 200):
        calls.clear()
        _random_paths(Counting(_stream("paths", n)), n)
        assert calls == ["randbytes"] * 2
    dAc, dA, f_vals, steps = _random_paths(_stream("paths", 23), 6000)
    assert set(steps.tolist()) == set(range(1, 7))
    padded = np.arange(6) >= steps[:, None]
    for a in (dAc, dA, f_vals):
        assert a.shape == (6000, 6) and np.all(a[padded] == 0.0)
    real = ~padded
    assert np.mean(dA[real] == 1.0) == pytest.approx(0.1275, abs=0.02)
    assert np.mean(dA[real] == 0.0) == pytest.approx(0.15, abs=0.02)
    assert np.mean(dAc[real] == 0.0) == pytest.approx(0.5, abs=0.02)
    assert np.all((0.0 <= dAc) & (dAc < 0.5) & (0.0 <= dA) & (dA <= 1.0))
    assert np.std(f_vals[real]) == pytest.approx(1.5, rel=0.03)


def test_normals_have_the_standard_normal_law():
    # 10^5 Box-Muller draws: the standard error of the mean is 0.0032 and of
    # the variance 0.0045, so the bounds are about 5 of them; the share of
    # |z| > 2 is 0.0455 with a standard error of 0.00066
    z = _normal_block(_stream("law", 0), 100_000, 1)[:, 0]
    assert np.all(np.isfinite(z))
    assert abs(np.mean(z)) < 0.016
    assert abs(np.var(z) - 1.0) < 0.023
    assert abs(np.mean(np.abs(z) > 2.0) - 0.0455) < 0.0035
    assert np.array_equal(_normal_block(_stream("law", 0), 10, 1, 2.0), 2.0 * z[:10, None])


@pytest.mark.parametrize("seed", [1, 2, 5, 9])
def test_integral_inequality_row_skips_the_paths_without_increment(seed):
    # a path with dAc = dA = 0 on every step has lhs = rhs = 0, a gap of 0
    # above every true gap: the row is the worst path with an increment,
    # and the trivial paths are counted
    dAc, dA, f_vals, steps = _random_paths(_stream("paths", seed), verification.N_PATHS)
    trivial = ~np.any(dAc + dA, axis=1)
    lhs, rhs = _integral_inequality_rows(dAc, dA, f_vals, steps, 1.0, 0)
    row = verification.check_integral_inequality(seed, 1.0)
    assert row.detail["trivial_paths"] == int(trivial.sum())
    assert row.passed and row.lhs - row.rhs < 0.0 and row.lhs > 0.0
    assert row.lhs - row.rhs == np.max((lhs - rhs)[~trivial])


def test_integral_inequality_row_of_only_trivial_paths(monkeypatch):
    # no path has an increment: the row is the first path, at lhs = rhs = 0
    zeros = np.zeros((4, 6))
    monkeypatch.setattr(verification, "_random_paths",
                        lambda r, n: (zeros, zeros, np.ones((4, 6)), np.full(4, 6)))
    row = verification.check_integral_inequality(0, 1.0)
    assert (row.lhs, row.rhs, row.passed) == (0.0, 0.0, True)
    assert row.detail["trivial_paths"] == 4


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_lipschitz_block_draw_is_the_per_sample_stream(m):
    s_block, s_loop = _stream("lipschitz", 40 + m), _stream("lipschitz", 40 + m)
    block = _normal_block(s_block, 50, 2 + 2 * m, 2.0)
    draws = per_sample_draws(s_loop, 50, m)
    for col, part in ((block[:, 0], 0), (block[:, 1], 1)):
        assert col.tobytes() == np.array([d[part] for d in draws]).tobytes()
    assert block[:, 2:2 + m].tobytes() == np.array([d[2] for d in draws]).tobytes()
    assert block[:, 2 + m:].tobytes() == np.array([d[3] for d in draws]).tobytes()
    assert s_block.getstate() == s_loop.getstate()

    tree = build_tree(scenarios.deterministic_grid(K=2, m=m, a=0.4))
    f = random_generator(np.random.default_rng(m), tree)
    r_block = check_lipschitz(f, tree.block([0]), samples=50, seed=7)
    draws = per_sample_draws(_stream("lipschitz", 7), 50, m)
    r_loop = lipschitz_samples(f, slot_view(tree, 0), draws)
    assert _bits(r_block) == _bits(r_loop) == _bits(loop_lipschitz(f, slot_view(tree, 0), draws))


@pytest.mark.parametrize("seed", range(10))
def test_jump_identity_columns_are_the_full_matrix(seed):
    rng = np.random.default_rng(300 + seed)
    problem, _ = random_problem(rng, m=1 + seed % 4, max_horizon=6)
    sol = backward_oracle(problem)
    for case in (sol, _perturbed(rng, sol, 1e-6), _perturbed(rng, sol, 1.0)):
        assert (_bits(check_solution_jump_identity(case, problem))
                == _bits(full_matrix_jump_identity(case, problem)))

