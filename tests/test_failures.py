"""Invalid arguments raise instead of falling back to a weaker mode."""

import csv
import json

import pytest

from treebsde import BsdeProblem, cli, conditions, measure_core, picard_solve, scenarios


def affine_y_problem(beta=1.0):
    model = scenarios.deterministic_grid(K=3, m=2, a=0.5)
    gen = cli._build_generator({"preset": "affine_y", "params": {"c0": 0.3, "c1": 1.0}}, None)
    return BsdeProblem(model=model, beta=beta, xi=scenarios.xi_jump_count(), f=gen)


def test_hypothesis_slack_of_the_regression_problem():
    assert conditions.check_main_hypothesis(affine_y_problem().tree(), 1.0) == 0.5


@pytest.mark.parametrize("delta", [5.0, 0.5, 0.0, -0.1])
def test_explicit_delta_outside_range_raises(delta):
    # this used to run with unit b-weights and report converged=True, profile=None
    with pytest.raises(ValueError, match="delta"):
        picard_solve(affine_y_problem(), delta=delta)


def test_delta_kept_where_it_is_not_used():
    # beta = 0 and unchecked runs never build contraction weights
    _, rep = picard_solve(affine_y_problem(beta=0.0), delta=5.0)
    assert rep.converged and rep.profile is None
    _, rep = picard_solve(affine_y_problem(), delta=5.0, check_hypothesis=False)
    assert rep.converged and rep.profile is None
    _, rep = picard_solve(affine_y_problem(), delta=0.25)
    assert rep.profile is not None and rep.delta == 0.25


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
