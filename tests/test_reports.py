"""Reports do not depend on whether models and terminals run level by level.

Each config runs twice in-process: as shipped (level rules and level
terminals) and with every model rule and terminal run one history at a
time.  The written reports must match byte for byte.
"""

import dataclasses
import functools
import json

import pytest

from treebsde import cli, scenarios, solver

from conftest import one_row, per_leaf, scalar_path

SOLVE = {
    "model": {"preset": "two_state_rule",
              "params": {"K": 5, "m": 2, "a_after_jump": 0.31, "a_after_no_jump": 0.58,
                         "phi": [0.45, 0.55]}},
    "generator": {"preset": "saturating", "params": {"c0": 0.2, "cy": 0.4, "cz": 0.8}},
    "terminal": {"preset": "jump_count", "params": {"scale": 0.5}},
    "beta": 8.0, "tol": 1e-10, "seed": 3,
}
VERIFY = {
    "model": {"preset": "discretized_intensity", "params": {"lam": 1.1, "K": 8, "m": 1}},
    "generator": {"preset": "constant", "params": {"c0": 0.3}},
    "terminal": {"preset": "jump_count", "params": {"scale": 0.45}},
    "beta": 1.0, "tol": 1e-10, "seed": 12345,
}
SWEEP = {
    "model": {"preset": "pdmp_like", "params": {"K": 5, "m": 3, "phi": [0.3, 0.45, 0.25]}},
    "generator": {"preset": "affine_z", "params": {"c0": 0.1, "c1": 0.5}},
    "terminal": {"preset": "last_mark", "params": {"mark": 0, "scale": 1.1}},
    "beta": "auto", "tol": 1e-10, "seed": 5,
    "sweep": {"param": "beta", "values": [1, 2, 4, 8], "relative_to_beta_min": True},
}
FLAGGED = {
    "model": {"preset": "counterexample", "params": {"p": 0.5, "K": 3, "t0_index": 1}},
    "generator": {"preset": "affine_y", "params": {"c1": 2.0}},
    "beta": 1.0,
}


def force_scalar(monkeypatch):
    """Route every model and terminal the CLI builds through its per-history route."""
    build, terminal = scenarios.ModelSpec.build, cli._build_terminal
    calls = {"model": 0, "terminal": 0}

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    def scalar_model(spec):
        model = build(spec)
        model = dataclasses.replace(model, jump_size=counted(model.jump_size, "model"),
                                    mark_law=counted(model.mark_law, "model"))
        return scalar_path(model)

    def scalar_terminal(*args):
        xi = counted(terminal(*args), "terminal")
        return per_leaf(lambda hist: xi(one_row(hist))[0])

    monkeypatch.setattr(scenarios.ModelSpec, "build", scalar_model)
    monkeypatch.setattr(cli, "_build_terminal", scalar_terminal)
    return calls


def run(tmp_path, name, command, cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    code = cli.main([command, "--config", str(path), "--out", str(out)])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command,cfg", [("solve", SOLVE), ("verify", VERIFY),
                                         ("sweep", SWEEP), ("solve", FLAGGED)])
def test_reports_identical_on_both_paths(tmp_path, monkeypatch, command, cfg):
    level = run(tmp_path, "level", command, cfg)
    calls = force_scalar(monkeypatch)
    scalar = run(tmp_path, "scalar", command, cfg)
    assert calls["model"] > 0 and (calls["terminal"] > 0 or cfg is FLAGGED)
    assert level == scalar
    assert level[0] == (cli.EXIT_CONDITION if cfg is FLAGGED else cli.EXIT_OK)


@pytest.mark.parametrize("command,cfg", [("solve", SOLVE), ("verify", VERIFY),
                                         ("sweep", SWEEP)])
def test_replaced_rules_and_terminals_are_the_ones_that_run(tmp_path, monkeypatch,
                                                             command, cfg):
    # wrapped the way a call counter wraps them: the wrappers run, once per
    # level per rule and once per read of the leaves, never once per node
    plain = run(tmp_path, "plain", command, cfg)
    build, terminal = scenarios.ModelSpec.build, cli._build_terminal
    reads = solver.BsdeProblem.terminal_values
    calls = {"builds": 0, "jump_size": [], "mark_law": [], "xi": [], "reads": 0}

    def counted(fn, key):
        @functools.wraps(fn)
        def wrapper(*args):
            calls[key].append(args)
            return fn(*args)
        return wrapper

    def counted_model(spec):
        calls["builds"] += 1
        model = build(spec)
        return dataclasses.replace(model, jump_size=counted(model.jump_size, "jump_size"),
                                   mark_law=counted(model.mark_law, "mark_law"))

    def counted_reads(problem, tree=None):
        calls["reads"] += 1
        return reads(problem, tree)

    monkeypatch.setattr(scenarios.ModelSpec, "build", counted_model)
    monkeypatch.setattr(cli, "_build_terminal", lambda *a: counted(terminal(*a), "xi"))
    monkeypatch.setattr(solver.BsdeProblem, "terminal_values", counted_reads)
    assert run(tmp_path, "counted", command, cfg) == plain
    K = cfg["model"]["params"]["K"]
    assert calls["builds"] >= 1
    for rule in ("jump_size", "mark_law"):
        assert [k for k, _ in calls[rule]] == list(range(K)) * calls["builds"]
        # one call per level: the first level is the root's one row, the last has many
        assert calls[rule][-1][1].shape[0] > 1
    assert len(calls["xi"]) == calls["reads"] >= 1
    assert all(H.shape[1] == K and H.shape[0] > 1 for (H,) in calls["xi"])


def test_flagged_histories_are_python_ints():
    cfg = cli.RunConfig(**FLAGGED)
    _, diag = cli._build_problem(cfg)
    assert diag["flagged"]
    for slot in diag["flagged"]:
        assert slot["history"] and all(type(o) is int for o in slot["history"])
