"""Invalid arguments raise instead of falling back to a weaker mode."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebsde import (BsdeProblem, Generator, NonFinite, backward_oracle, cli, conditions,
                      measure_core, picard_solve, scenarios, solve_linear)
from treebsde import NoConvergence

from conftest import (check_apriori_estimate, check_integral_inequality, random_linear_problem,
                      random_problem)


def affine_y_problem(beta=1.0):
    model = scenarios.deterministic_grid(K=3, m=2, a=0.5)
    gen = cli._build_generator({"preset": "affine_y", "params": {"c0": 0.3, "c1": 1.0}}, None)
    return BsdeProblem(model=model, beta=beta, xi=scenarios.xi_jump_count(), f=gen)


@pytest.mark.parametrize("beta", [float("nan"), float("inf")])
def test_a_non_finite_beta_is_refused(beta):
    # NaN passed every sign check, and the weights and norms came out NaN
    problem = affine_y_problem()
    path = [(0.1, 0.5)]
    refusals = [lambda: affine_y_problem(beta=beta),
                lambda: problem.tree().doleans(beta),
                lambda: measure_core.doleans_exponential(path, beta),
                lambda: measure_core.doleans_sqrt_factorization(path, beta),
                lambda: check_integral_inequality(path, [1.0], beta),
                lambda: check_apriori_estimate(problem, backward_oracle(problem), beta=beta)]
    for call in refusals:
        with pytest.raises(ValueError, match="beta must be finite"):
            call()


def test_hypothesis_slack_of_the_regression_problem():
    assert conditions.check_main_hypothesis(affine_y_problem().tree(), 1.0) == 0.5


@pytest.mark.parametrize("delta", [5.0, 0.5, 0.0, -0.1])
def test_explicit_delta_outside_range_raises(delta):
    # this used to run with unit b-weights and report converged=True, profile=None
    with pytest.raises(ValueError, match="delta"):
        picard_solve(affine_y_problem(), delta=delta)


def test_delta_kept_where_it_is_not_used():
    # beta = 0 and unchecked runs never build contraction weights (no beta_min)
    _, rep = picard_solve(affine_y_problem(beta=0.0), delta=5.0)
    assert rep.converged and np.isnan(rep.beta_min)
    _, rep = picard_solve(affine_y_problem(), delta=5.0, check_hypothesis=False)
    assert rep.converged and np.isnan(rep.beta_min)
    _, rep = picard_solve(affine_y_problem(), delta=0.25)
    assert not np.isnan(rep.beta_min) and rep.delta == 0.25


def write_config(tmp_path, **cfg):
    base = {"model": {"preset": "deterministic_grid", "params": {"K": 3, "m": 2, "a": 0.5}},
            "generator": {"preset": "affine_y", "params": {"c0": 0.3, "c1": 1.0}},
            "terminal": {"preset": "jump_count"}, "beta": 1.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**base, **cfg}))
    return str(path)


@pytest.mark.parametrize("beta", [1.0, "auto"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_cli_bad_delta_is_a_config_error(tmp_path, capsys, beta, command):
    cfg = write_config(tmp_path, beta=beta, delta=5.0)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert "delta 5.0 outside" in capsys.readouterr().err


def test_cli_delta_sweep_out_of_range_is_a_config_error(tmp_path):
    cfg = write_config(tmp_path, sweep={"param": "delta", "values": [0.25, 0.75]})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    cfg = write_config(tmp_path, sweep={"param": "delta", "values": [0.1, 0.25]})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_OK
    rows = list(csv.DictReader((tmp_path / "o" / "sweep.csv").open()))
    assert [r["converged"] for r in rows] == ["1", "1"]


def test_cli_beta_zero_keeps_an_unused_delta(tmp_path):
    cfg = write_config(tmp_path, beta=0.0, delta=5.0)
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_OK


def test_cli_tree_over_budget_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(measure_core, "MAX_NODES", 100)
    cfg = write_config(tmp_path, model={"preset": "deterministic_grid",
                                        "params": {"K": 40, "m": 1, "a": 0.5}})
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert "over the budget of 100" in capsys.readouterr().err


def test_cli_bad_rule_value_is_a_config_error(tmp_path):
    cfg = write_config(tmp_path, model={"preset": "two_state_rule",
                                        "params": {"K": 3, "m": 1, "a_after_jump": 1.5,
                                                   "a_after_no_jump": 0.5}})
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_cli_internal_build_error_is_not_a_config_error(tmp_path, monkeypatch):
    # only ValueError from the tree build maps to exit 1; a bug keeps its traceback
    def broken(model):
        raise TypeError("internal")

    monkeypatch.setattr(cli.solver, "build_tree", broken)
    cfg = write_config(tmp_path)
    with pytest.raises(TypeError, match="internal"):
        cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("command,config,flags", [
    ("solve", "{}", []),                                   # no model section
    ("solve", "3", []),                                    # not a JSON object
    ("solve", {"generator": "saturating"}, []),
    ("solve", {"generator": {"preset": "constant", "params": {"c0": "abc"}}}, []),
    ("solve", {"generator": {"preset": "constant", "params": [1]}}, []),
    ("verify", {"terminal": {"preset": "last_mark", "params": {"mark": "z"}}}, []),
    ("verify", {"debug": []}, []),
    ("verify", {"seed": -1}, []),
    ("solve", {"out": 5}, []),
    ("solve", {"model": {"preset": "pdmp_like", "params": {"K": 2, "m": 0}}}, []),
    ("sweep", {"sweep": {"param": "beta", "values": ["x"]}}, []),
    ("sweep", {"sweep": {"param": "K", "values": [2, "three"]}}, []),
    ("sweep", {"sweep": "beta"}, []),
    ("counterexample", {"model": {"params": {"p": "half"}}}, []),
    ("counterexample", {"model": {"params": {"p": 2.0}}}, []),
    ("solve", {}, ["--beta", "abc"]),
    ("solve", {}, ["--beta", "-1"]),
    ("solve", {}, ["--delta", "abc"]),
    # params the preset does not read: these ran as 0 and wrote Y0 = 0.0
    ("solve", {"generator": {"preset": "constant", "params": {"c": 1.0}}}, []),
    ("solve", {"terminal": {"preset": "constant", "params": {"c0": 2.0}}}, []),
    # a non-finite beta passed the sign check and wrote NaN norms with exit 0
    ("solve", {}, ["--beta", "nan"]),
    ("solve", {}, ["--beta", "inf"]),
    ("solve", {"beta": "auto", "beta_margin": float("nan")}, []),
    ("sweep", {"sweep": {"param": "beta", "values": [1.0, float("nan")]}}, []),
])
def test_cli_malformed_input_is_a_config_error(tmp_path, capsys, command, config, flags):
    # a str is the whole JSON document, a dict overrides keys of a good one
    if isinstance(config, str):
        path = tmp_path / "raw.json"
        path.write_text(config)
        cfg = str(path)
    else:
        cfg = write_config(tmp_path, **config)
    argv = [command, "--config", cfg, *flags]
    if not isinstance(config, dict) or "out" not in config:
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


def test_solve_linear_refuses_a_feedback_driver():
    # this used to solve the driver frozen at (0, 0): Y0 = 3.0 against 6.2963
    problem = BsdeProblem(model=scenarios.deterministic_grid(3, 2, 0.5), beta=1.0,
                          xi=scenarios.xi_jump_count(),
                          f=Generator(lambda b, y, z: 0.5 * y + 1.0, 0.5, 0.0))
    with pytest.raises(ValueError, match=r"generator must be \(y, zeta\)-free"):
        solve_linear(problem)
    assert picard_solve(problem)[0].Y[0] == pytest.approx(6.2963, abs=1e-4)
    assert backward_oracle(problem).Y[0] == pytest.approx(6.2963, abs=1e-4)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), linear=st.booleans())
def test_three_routes_agree_and_fail_alike(seed, linear):
    rng = np.random.default_rng(seed)
    if linear:
        problem = random_linear_problem(rng, max_horizon=4)
    else:
        problem = random_problem(rng, max_horizon=4)[0]
    f, tree = problem.f, problem.tree()
    sol = picard_solve(problem)[0]
    solutions = [backward_oracle(problem)]
    if f.is_path:
        solutions.append(solve_linear(problem))
    else:
        with pytest.raises(ValueError, match="free"):
            solve_linear(problem)
    for other in solutions:
        assert np.max(np.abs(sol.Y - other.Y)) <= 1e-8
        assert np.max(np.abs(sol.Z - other.Z)) <= 1e-8

    # half of the draws break a dA = 0 slot, where the oracle's value is the
    # conditional mean whatever the driver gives
    zero = np.flatnonzero(tree.slot_dA == 0.0)
    bad = int(rng.choice(zero) if zero.size and rng.random() < 0.5
              else rng.integers(tree.n_slots))
    broken = Generator(lambda b, y, z: np.where(b.index == bad, np.nan, f.fn(b, y, z)),
                       f.lip_y, f.lip_z)
    nan_problem = BsdeProblem(model=problem.model, beta=problem.beta, xi=problem.xi,
                              f=broken, _tree=tree)
    # every route refuses it, on a dA = 0 slot too
    for route in [picard_solve, backward_oracle] + [solve_linear] * broken.is_path:
        with pytest.raises(NonFinite, match=f"at slot {bad} "):
            route(nan_problem)


def _constant(c):
    return Generator(lambda b, y, z: np.full(y.shape, c), 0.0, 0.0)


@pytest.mark.parametrize("model,f,c", [
    # a NaN terminal: Y0 was NaN on the linear route and the oracle
    (scenarios.deterministic_grid(2, 1, 0.5), Generator.zero(), math.nan),
    # 1e308 + 0.9 * 1e308 overflows at the root: Y0 was inf on both
    (scenarios.deterministic_grid(1, 1, 0.9), _constant(1e308), 1e308),
], ids=["nan-terminal", "overflow"])
@pytest.mark.parametrize("route", [solve_linear, backward_oracle, picard_solve])
def test_every_route_refuses_a_non_finite_value(model, f, c, route):
    problem = BsdeProblem(model=model, beta=0.0, xi=scenarios.xi_constant(c), f=f)
    with np.errstate(over="ignore"), pytest.raises(NonFinite, match="left the finite range"):
        route(problem)


COUNTEREXAMPLE = {"model": {"preset": "counterexample", "params": {"p": 0.5, "K": 2}},
                  "terminal": {"preset": "constant", "params": {"c": 5e4}}}


@pytest.mark.parametrize("config,flags", [
    ({}, ["--beta", "2"]),
    ({}, ["--beta", "auto"]),
    ({}, ["--delta", "0.1"]),
    ({}, ["--tol", "1e-10"]),
    ({"model": {"preset": "deterministic_grid", "params": {"K": 2, "m": 1, "a": 0.5}}}, []),
    ({"model": {"preset": "counterexample", "params": {"p": 0.5, "m": 2}}}, []),
    ({"terminal": {"preset": "jump_count"}}, []),
    ({"terminal": {"preset": "constant", "params": {"c": 1.0, "scale": 2.0}}}, []),
    ({"generator": {"preset": "affine_y", "params": {"c1": 2.0}}}, []),
    ({"beta": 0.0}, []),
    ({"beta_margin": 2.0}, []),
    ({"delta": 0.1}, []),
    ({"tol": 1e-6}, []),
    ({"max_iter": 10}, []),
    ({"sweep": {"param": "beta", "values": [1]}}, []),
    ({"debug": {"wrong_c_beta": True}}, []),
], ids=["beta-flag", "auto-beta-flag", "delta-flag", "tol-flag", "model-preset",
        "model-param", "terminal-preset", "terminal-param", "generator", "beta",
        "beta_margin", "delta", "tol", "max_iter", "sweep", "debug"])
def test_counterexample_refuses_input_it_ignores(tmp_path, capsys, config, flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**COUNTEREXAMPLE, **config}))
    argv = ["counterexample", "--config", str(path), "--out", str(tmp_path / "o"), *flags]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: counterexample ignores ")
    assert not (tmp_path / "o").exists()


def test_counterexample_reads_every_input_it_accepts(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**COUNTEREXAMPLE, "seed": 4, "beta": "auto"}))
    out = tmp_path / "o"
    assert cli.main(["counterexample", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 4 and summary["p"] == 0.5
    assert summary["observed"]["picard"]["diverged"]


@pytest.mark.parametrize("p,message", [("half", "bad parameter p"), (2.0, "bad model spec")])
def test_counterexample_bad_p_is_a_config_error(tmp_path, capsys, p, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"preset": "counterexample", "params": {"p": p}}}))
    argv = ["counterexample", "--config", str(path), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       beta_factor=st.sampled_from([1e-3, 0.05, 0.5, 1.5, 4.0]))
def test_converged_picard_agrees_with_the_oracle(seed, beta_factor):
    # beta below beta_min zeroes b-weights; convergence is still declared only
    # on the residual, so a converged report must hold the oracle's solution
    rng = np.random.default_rng(seed)
    problem, delta = random_problem(rng, max_horizon=4, beta_factor=beta_factor)
    try:
        sol, rep = picard_solve(problem, delta=delta, max_iter=200)
    except NoConvergence:
        return
    assert rep.converged
    assert sol.Y[0] == pytest.approx(backward_oracle(problem).Y[0], abs=1e-8)
