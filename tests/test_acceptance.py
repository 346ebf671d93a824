"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np

from treebsde import (BsdeProblem, NoConvergence, StepSingular,
                      backward_oracle, build_tree, check_apriori_estimate,
                      check_identity_lemma, check_integral_inequality,
                      check_lipschitz, check_norm_equivalence, conditions,
                      doleans_exponential, doleans_sqrt_factorization, norms,
                      picard_map, picard_solve, solve_linear)
from treebsde import cli, scenarios

from conftest import (contraction_profile_H, random_generator, random_linear_problem,
                      random_path, random_problem)


def report(number, label, ok, detail):
    line = f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst_y0, worst_dist = 0.0, 0.0
    for _ in range(200):
        problem, delta = random_problem(rng, max_horizon=6, max_marks=3)
        tree = problem.tree()
        sol, _ = picard_solve(problem, delta=delta)
        ora = backward_oracle(problem)
        worst_y0 = max(worst_y0, abs(float(sol.Y[0] - ora.Y[0])))
        dist = float(np.sqrt(norms.mixed_norm_sq(sol.Y - ora.Y, sol.Z - ora.Z,
                                                 tree, problem.beta)))
        worst_dist = max(worst_dist, dist)
    elapsed = time.perf_counter() - t0
    ok = worst_y0 <= 1e-8 and worst_dist <= 1e-8 and elapsed <= 60.0
    report(1, "oracle equivalence",
           ok, f"200 problems, max |Y0 gap| {worst_y0:.2e}, "
               f"max mixed-norm distance {worst_dist:.2e}, {elapsed:.1f}s")


def test_criterion_2_energy_identity():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        problem = random_linear_problem(rng, max_horizon=5)
        sol = solve_linear(problem)
        for j in range(problem.tree().horizon + 1):
            worst = max(worst, check_identity_lemma(problem, sol, j).rel_gap)
    ok = worst <= 1e-10
    report(2, "energy identity", ok,
           f"200 linear problems, every grid time, max relative gap {worst:.2e}")


def test_criterion_3_contraction():
    # delta is instantiated at 1/2 (problems drawn with slack > 1/2), where
    # the guaranteed factor 1 - delta coincides with delta
    rng = np.random.default_rng(1003)
    delta = 0.5
    worst_map, worst_iter = -np.inf, -np.inf
    for _ in range(100):
        problem, _ = random_problem(rng, max_horizon=4, eps_floor=0.6)
        tree = problem.tree()
        f = problem.f
        beta_min = conditions.beta_threshold(tree, f.lip_y, f.lip_z, delta)
        for beta in (max(beta_min, 1e-9), max(2 * beta_min, 2e-9)):
            problem.beta = beta
            prof = conditions.contraction_profile(tree, f.lip_y, f.lip_z, beta, delta)
            b = np.maximum(prof.b, 0.0)
            U1 = rng.normal(0, 1, tree.n_nodes)
            V1 = rng.normal(0, 1, (tree.n_slots, tree.n_marks))
            U2 = rng.normal(0, 1, tree.n_nodes)
            V2 = rng.normal(0, 1, (tree.n_slots, tree.n_marks))
            s1, s2 = picard_map(problem, U1, V1), picard_map(problem, U2, V2)
            num = norms.mixed_norm_sq(s1.Y - s2.Y, s1.Z - s2.Z, tree, beta, b)
            den = norms.mixed_norm_sq(U1 - U2, V1 - V2, tree, beta, b)
            if den > 0:
                worst_map = max(worst_map, num / den - delta)
        _, rep = picard_solve(problem, delta=delta, max_iter=200)
        if rep.ratio_sq:
            worst_iter = max(worst_iter, max(rep.ratio_sq) - delta)
    ok = worst_map <= 1e-10 and worst_iter <= 1e-10
    report(3, "contraction", ok,
           f"100 problem pairs at beta_min and 2*beta_min, map-ratio excess "
           f"{worst_map:.2e}, iterate-ratio excess {worst_iter:.2e} over delta={delta}")


def test_criterion_4_threshold_spot_values():
    tree = build_tree(scenarios.pdmp_like(K=2, m=1))
    spot = conditions.beta_threshold(tree, 0.0, 1.0, 0.1)
    spot_ok = abs(spot - 2.2 / 0.9) <= 1e-12

    def refined_argmin(H, lo, hi, rounds=9, pts=50):
        for _ in range(rounds):
            grid = np.exp(np.linspace(np.log(lo), np.log(hi), pts))
            vals = np.array([H(float(g)) for g in grid])
            i = int(np.argmin(vals))
            lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, pts - 1)]
        return float(np.sqrt(lo * hi))

    rng = np.random.default_rng(1004)
    worst_rel = 0.0
    for _ in range(100):
        da = float(rng.uniform(0, 1))
        delta = float(rng.uniform(0.0, 0.6))
        cap = np.sqrt((1 - delta) / 2) / max(da, 1e-9)
        lip_y = float(rng.uniform(0.1, min(0.95 * cap, 3.0)))
        _, H, ell = contraction_profile_H(delta, lip_y, da)
        found = refined_argmin(H, ell * 1e-2, ell * 1e2)
        worst_rel = max(worst_rel, abs(found - ell) / ell)
    ok = spot_ok and worst_rel <= 1e-6
    report(4, "threshold formulas", ok,
           f"beta_min spot gap {abs(spot - 2.2 / 0.9):.1e}, "
           f"minimizer vs grid refinement max rel gap {worst_rel:.1e} over 100 draws")


def test_criterion_5_counterexample_reproduction():
    model, gen = scenarios.counterexample_model(0.5)
    tree = build_tree(model)
    flagged = conditions.detect_counterexample(tree, gen.lip_y)
    flag_ok = len(flagged) == 1 and flagged[0][1] == 2.0

    problem = BsdeProblem(model=model, beta=0.0,
                          xi=scenarios.xi_constant(5e4), f=gen)
    try:
        backward_oracle(problem)
        oracle_ok = False
    except StepSingular:
        oracle_ok = True
    try:
        picard_solve(problem, max_iter=50, check_hypothesis=False)
        blowup, sup = False, 0.0
    except NoConvergence as exc:
        sup = max(exc.report.y_sup)
        blowup = sup > 1e6
    ok = flag_ok and oracle_ok and blowup
    report(5, "counter-example", ok,
           f"flag value {flagged[0][1] if flagged else None}, "
           f"oracle StepSingular {oracle_ok}, picard max |Y| {sup:.2e} in <= 50 sweeps")


def test_criterion_6_inequalities_bulk():
    rng = np.random.default_rng(1006)
    violations = {"integral": 0, "apriori": 0, "equivalence": 0, "lipschitz": 0}

    for _ in range(1000):
        path, fvals = random_path(rng)
        beta = float(rng.uniform(0.05, 5.0))
        t = int(rng.integers(0, path.shape[0]))
        if not check_integral_inequality(path, fvals, beta, t).passed:
            violations["integral"] += 1

    for _ in range(1000):
        problem = random_linear_problem(rng, max_horizon=4, max_marks=2,
                                        beta=float(rng.uniform(0.05, 4.0)))
        if not check_apriori_estimate(problem, solve_linear(problem)).passed:
            violations["apriori"] += 1

    trees = [build_tree(scenarios.random_model(rng, include_unit=False))
             for _ in range(50)]
    for i in range(1000):
        tree = trees[i % len(trees)]
        gamma = 1.0 - float(tree.slot_dA.max()) if tree.n_slots else 1.0
        Z = rng.normal(0, 1.5, (tree.n_slots, tree.n_marks))
        if not check_norm_equivalence(Z, tree, float(rng.uniform(0, 3)), gamma).passed:
            violations["equivalence"] += 1

    n_samples = 0
    while n_samples < 1000:
        tree = build_tree(scenarios.random_model(rng, max_horizon=3))
        if tree.n_slots == 0:
            continue
        gen = random_generator(rng, tree)
        slot = tree.slot(int(rng.integers(tree.n_slots)))
        if not check_lipschitz(gen, slot, samples=25,
                               seed=int(rng.integers(2 ** 31))).passed:
            violations["lipschitz"] += 1
        n_samples += 25

    ok = all(v == 0 for v in violations.values())
    report(6, "estimate bulk checks", ok,
           f">=1000 randomized inputs per check at slack 1e-12, violations {violations}")


def test_criterion_7_doleans_factorization():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(1000):
        K = int(rng.integers(1, 9))
        path = np.column_stack([
            np.where(rng.random(K) < 0.6, rng.uniform(0, 0.8, K), 0.0),
            np.where(rng.random(K) < 0.8, rng.uniform(0, 1, K), 0.0),
        ])
        beta = float(rng.uniform(0.05, 6.0))
        up, lo = doleans_sqrt_factorization(path, beta)
        E = doleans_exponential(path, beta)
        worst = max(worst, float(np.max(np.abs(up * up - E) / np.maximum(E, 1.0))))
        worst = max(worst, float(np.max(np.abs(up * lo - 1.0))))
    ok = worst <= 1e-12
    report(7, "square-root factorization", ok,
           f"1000 mixed paths, max relative defect {worst:.2e}")


def test_criterion_8_determinism(tmp_path):
    cfg = {
        "model": {"preset": "deterministic_grid", "params": {"K": 3, "m": 2, "a": 0.6}},
        "generator": {"preset": "saturating", "params": {"c0": 0.1, "cy": 0.3, "cz": 0.5}},
        "terminal": {"preset": "jump_count", "params": {"scale": 0.8}},
        "beta": "auto",
        "seed": 2024,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["verify", "--config", str(path), "--out", str(out)])
        assert code == 0
        outs.append(out)
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in ("summary.json", "checks.csv"))
    ok = same
    report(8, "byte-identical reports", ok,
           "two verify runs with identical config and seed compared file by file")
