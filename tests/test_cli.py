import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebsde import cli


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "model": {"preset": "deterministic_grid", "params": {"K": 1, "m": 1, "a": 0.5}},
        "generator": {"preset": "zero"},
        "terminal": {"preset": "jump_count", "params": {"scale": 1.0}},
        "beta": "auto",
        "seed": 11,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


# -- solve ---------------------------------------------------------------------


def test_solve_m1_reports_half(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["solver"]["Y0"] == 0.5
    assert summary["solver"]["y0_gap"] <= 1e-10
    assert (out / "iterations.csv").exists()


def test_solve_zero_data_single_iteration(tmp_path):
    cfg = write_config(tmp_path,
                      terminal={"preset": "constant", "params": {"c": 0.0}},
                      beta=1.0)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["solver"]["Y0"] == 0.0
    assert summary["solver"]["iterations"] == 1


def test_solve_counterexample_config_exits_condition(tmp_path):
    cfg = write_config(tmp_path,
                      model={"preset": "counterexample", "params": {"p": 0.5}},
                      generator={"preset": "affine_y", "params": {"c1": 2.0}},
                      beta=1.0)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONDITION
    summary = read_summary(out)
    assert summary["conditions"]["flagged"][0]["value"] == 2.0


def test_solve_nonlinear_saturating(tmp_path):
    cfg = write_config(tmp_path,
                      model={"preset": "pdmp_like", "params": {"K": 3, "m": 2}},
                      generator={"preset": "saturating",
                                 "params": {"c0": 0.2, "cy": 0.4, "cz": 0.8}},
                      terminal={"preset": "last_mark", "params": {"mark": 1}})
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["solver"]["y0_gap"] <= 1e-8
    assert summary["solver"]["mixed_norm_distance"] <= 1e-8


def test_bad_config_exits_one(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["solve", "--config", str(path)]) == cli.EXIT_CONFIG
    cfg = write_config(tmp_path, model={"preset": "nope"})
    assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG


USAGE_ERRORS = [
    (["simulate", "--config", "cfg.json"], "unknown command 'simulate'"),
    ([], "missing command"),
    (["--config", "cfg.json"], "missing command"),
    (["solve", "--config", "cfg.json", "--bogus", "1"], "unknown flag --bogus"),
    (["solve", "--config"], "flag --config needs a value"),
    (["solve", "verify", "--config", "cfg.json"], "extra argument 'verify'"),
    # no abbreviation is read (argparse's prefix matching read this as --config)
    (["solve", "--conf", "cfg.json"], "unknown flag --conf"),
]


@pytest.mark.parametrize("argv,problem", USAGE_ERRORS,
                         ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
def test_an_unknown_or_missing_command_exits_two(tmp_path, capsys, argv, problem):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out", str(tmp_path / "run")] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: treebsde ") and f"error: {problem}" in err
    assert not list(tmp_path.iterdir())


def test_flags_take_either_form_anywhere_and_the_last_one_wins(tmp_path, capsys):
    cfg = write_config(tmp_path, beta=1.0)
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(spaced), "--beta", "2.5"]) == 0
    assert cli.main(["--beta=1.5", f"--out={joined}", "--beta", "3", "solve",
                     f"--config={cfg}", "--beta=2.5"]) == 0
    assert read_summary(joined)["conditions"]["beta"] == 2.5
    for name in ("summary.json", "iterations.csv"):
        assert (spaced / name).read_bytes() == (joined / name).read_bytes()
    capsys.readouterr()
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", flag, "--config", str(cfg)])
        assert exc.value.code == 0
        shown = capsys.readouterr().out
        assert shown.startswith("usage: treebsde ")
        assert all(f"\n  --{name} " in shown
                   for name in ("config", "out", "seed", "beta", "delta", "tol"))


# -- verify --------------------------------------------------------------------


def test_verify_defaults_all_pass(tmp_path):
    cfg = write_config(tmp_path,
                      generator={"preset": "affine_y", "params": {"c0": 0.3, "c1": 0.4}})
    out = tmp_path / "run"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "checks.csv").open()))
    assert rows and all(r["passed"] == "1" for r in rows)


def test_verify_wrong_constant_negative_control(tmp_path):
    cfg = write_config(tmp_path,
                      terminal={"preset": "constant", "params": {"c": 1.0}},
                      debug={"wrong_c_beta": True})
    out = tmp_path / "run"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_SOLVER
    rows = {r["name"]: r for r in csv.DictReader((out / "checks.csv").open())}
    assert rows["apriori_estimate"]["passed"] == "0"


def test_verify_beta_zero_identity_holds_inequality_skipped(tmp_path):
    cfg = write_config(tmp_path, beta=0.0)
    out = tmp_path / "run"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out)
    by_name = {c["name"]: c for c in summary["checks"]}
    assert by_name["identity_lemma"]["passed"] is True
    assert by_name["integral_inequality"]["kind"] == "skipped"
    assert any("beta = 0" in n for n in summary["notes"])


SUBNORMAL_JUMP = {
    "model": {"preset": "two_state_rule",
              "params": {"K": 2, "m": 3, "a_after_jump": 5e-324, "a_after_no_jump": 0.062}},
    "generator": {"preset": "saturating", "params": {"c0": 0.1, "cy": 0.3, "cz": 0.5}},
    "terminal": {"preset": "jump_count"},
    "seed": 3,
}


def test_verify_passes_a_subnormal_jump_size_without_a_warning(tmp_path):
    # the Lipschitz expansion's (1 - dA)/dA overflows at dA = 5e-324, where its
    # factor zh2 is 0: adding that inf * 0 made the margin NaN and the run exit 3
    cfg = write_config(tmp_path, **SUBNORMAL_JUMP)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    rows = {r["name"]: r for r in csv.DictReader((out / "checks.csv").open())}
    assert rows["lipschitz_bound"]["passed"] == "1"


def test_verify_runs_beyond_the_full_tree_budget(tmp_path):
    # the jump_count terminal on discretized_intensity merges histories by jump
    # count: 861 nodes at K = 40, where the full tree's 2^41 - 1 are refused
    lam, c0, scale, K = 1.0, 0.3, 0.5, 40
    cfg = write_config(tmp_path,
                       model={"preset": "discretized_intensity",
                              "params": {"lam": lam, "K": K, "m": 1}},
                       generator={"preset": "constant", "params": {"c0": c0}},
                       terminal={"preset": "jump_count", "params": {"scale": scale}},
                       beta=1.0)
    out = tmp_path / "run"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    summary = read_summary(out)
    assert len(summary["checks"]) == 6
    assert all(c["passed"] for c in summary["checks"])
    # the verify_intensity reference: Y0 = (scale + c0) * sum(dA_k)
    expected = (scale + c0) * sum(1.0 - math.exp(-lam * (1.0 / K)) for _ in range(K))
    assert abs(summary["solver"]["Y0"] - expected) <= 1e-12 * expected


# -- sweep ---------------------------------------------------------------------


def test_sweep_beta_multiples_ratios_below_delta(tmp_path):
    cfg = write_config(tmp_path,
                      generator={"preset": "affine_y", "params": {"c0": 0.3, "c1": 0.4}},
                      sweep={"param": "beta", "values": [1.0, 2.0, 4.0],
                             "relative_to_beta_min": True})
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "sweep.csv").open()))
    assert len(rows) == 3
    for r in rows:
        assert r["converged"] == "1"
        if r["worst_ratio_sq"]:
            assert float(r["worst_ratio_sq"]) <= float(r["delta"]) + 1e-10


def test_sweep_horizon_refinement_gaps_shrink(tmp_path):
    cfg = write_config(tmp_path,
                      model={"preset": "discretized_intensity",
                             "params": {"lam": 1.0, "K": 2, "m": 1}},
                      generator={"preset": "affine_y", "params": {"c1": 0.2}},
                      beta=1.0,
                      sweep={"param": "K", "values": [2, 4, 8]})
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "sweep.csv").open()))
    y0 = [float(r["Y0"]) for r in rows]
    gaps = [abs(y0[i + 1] - y0[i]) for i in range(len(y0) - 1)]
    assert gaps[1] < gaps[0]


@pytest.mark.parametrize("param,values,builds", [
    ("beta", [1.0, 2.0, 4.0], 1), ("delta", [0.1, 0.2], 1), ("K", [1, 2, 3], 3)])
def test_sweep_builds_one_tree_per_model(tmp_path, monkeypatch, param, values, builds):
    calls = []
    build = cli.solver.build_tree
    monkeypatch.setattr(cli.solver, "build_tree", lambda model: calls.append(1) or build(model))
    cfg = write_config(tmp_path, generator={"preset": "affine_y",
                                            "params": {"c0": 0.1, "c1": 0.3}},
                       sweep={"param": param, "values": values,
                              **({"relative_to_beta_min": True}
                                 if param == "beta" else {})})
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == builds


def test_sweep_empty_grid_empty_table(tmp_path):
    cfg = write_config(tmp_path, sweep={"param": "beta", "values": []})
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1   # header only


# -- counterexample ---------------------------------------------------------------


def test_counterexample_reproduces_blowup(tmp_path):
    out = tmp_path / "run"
    assert cli.main(["counterexample", "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["observed"]["flagged"][0]["value"] == 2.0
    assert "StepSingular" in summary["observed"]["oracle"]
    assert summary["observed"]["picard"]["max_y_sup"] > 1e6


def test_counterexample_with_an_empty_out_writes_nothing(tmp_path, monkeypatch, capsys):
    # an empty out is the working directory to Path: summary.json went there, with exit 0
    monkeypatch.chdir(tmp_path)
    assert cli.main(["counterexample", "--out="]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: out ")
    assert not any(tmp_path.iterdir())


# -- determinism --------------------------------------------------------------------


def test_reports_are_byte_identical_for_same_seed(tmp_path):
    cfg = write_config(tmp_path,
                      generator={"preset": "saturating",
                                 "params": {"c0": 0.1, "cy": 0.3, "cz": 0.5}},
                      model={"preset": "deterministic_grid",
                             "params": {"K": 3, "m": 2, "a": 0.6}})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("summary.json", "checks.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, beta=1.0)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out),
                     "--beta", "2.5"]) == 0
    assert read_summary(out)["conditions"]["beta"] == 2.5


@pytest.mark.parametrize("flags,fields", [
    (["--seed", "4", "--beta", "2.5", "--tol", "1e-12"], {"seed": 4, "beta": 2.5, "tol": 1e-12}),
    (["--beta", "auto", "--delta", "0.2"], {"beta": "auto", "delta": 0.2}),
])
def test_number_flags_read_as_json_run_as_the_config_fields(tmp_path, flags, fields):
    reports = []
    for name, cfg, extra in (("flags", write_config(tmp_path, "flags.json", beta=1.0), flags),
                             ("config", write_config(tmp_path, "config.json", **fields), [])):
        out = tmp_path / name
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)] + extra) == 0
        reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert reports[0] == reports[1]


def test_affine_z_preset_solves_and_verifies(tmp_path):
    cfg = write_config(tmp_path,
                      model={"preset": "deterministic_grid",
                             "params": {"K": 3, "m": 2, "a": 0.5}},
                      generator={"preset": "affine_z",
                                 "params": {"c0": 0.2, "c1": 0.6, "c2": 0.3}})
    out = tmp_path / "run"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "checks.csv").open()))
    assert all(r["passed"] == "1" for r in rows)


def test_affine_z_hat_term_rejected_on_unit_jumps(tmp_path):
    cfg = write_config(tmp_path,
                      model={"preset": "pdmp_like", "params": {"K": 2, "m": 2}},
                      generator={"preset": "affine_z",
                                 "params": {"c1": 0.5, "c2": 0.3}})
    assert cli.main(["solve", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG


def test_solver_failure_exits_three(tmp_path):
    cfg = write_config(tmp_path,
                      model={"preset": "pdmp_like", "params": {"K": 2, "m": 1}},
                      generator={"preset": "affine_y", "params": {"c0": 1.0, "c1": 0.5}},
                      beta="auto", max_iter=1)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_SOLVER
    assert "solver failure" in " ".join(read_summary(out)["notes"])


def test_solve_exits_three_when_the_oracle_disagrees(tmp_path, monkeypatch):
    # an oracle whose Y0 is 1e-6 off: the gap exceeds Y0_GAP_TOL
    oracle = cli.solver.backward_oracle

    def offset_oracle(problem):
        sol = oracle(problem)
        sol.Y[0] += 1e-6
        return sol

    monkeypatch.setattr(cli.solver, "backward_oracle", offset_oracle)
    cfg = write_config(tmp_path,
                      model={"preset": "deterministic_grid",
                             "params": {"K": 6, "m": 2, "a": 1.0}},
                      generator={"preset": "saturating",
                                 "params": {"c0": 0.3, "cy": 0.6, "cz": 0.0}},
                      terminal={"preset": "jump_count", "params": {"scale": 1.0}},
                      beta=4.0)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_SOLVER
    summary = read_summary(out)
    assert summary["solver"]["y0_gap"] > cli.Y0_GAP_TOL
    assert "disagrees with the backward oracle" in " ".join(summary["notes"])
    assert (out / "iterations.csv").exists()


def test_solve_below_beta_min_agrees_with_the_oracle(tmp_path):
    # beta far below beta_min zeroes every b-weight; Picard used to stop after
    # one sweep on the vanishing weighted distance, 3.6 off the oracle
    cfg = write_config(tmp_path,
                      model={"preset": "deterministic_grid",
                             "params": {"K": 6, "m": 2, "a": 1.0}},
                      generator={"preset": "saturating",
                                 "params": {"c0": 0.3, "cy": 0.6, "cz": 0.0}},
                      terminal={"preset": "jump_count", "params": {"scale": 1.0}},
                      beta=4.0)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    summary = read_summary(out)
    assert summary["solver"]["y0_gap"] <= 1e-8
    assert summary["conditions"]["beta"] < summary["conditions"]["beta_min"]


def test_iteration_rows_align_after_a_zero_distance(tmp_path):
    # with c0 = 0 the first sweep lands on a zero b-weighted distance, so
    # picard_solve records no ratio for row 2; row i carries (d_i/d_{i-1})^2
    cfg = write_config(tmp_path,
                      model={"preset": "two_state_rule",
                             "params": {"K": 5, "m": 1, "a_after_jump": 0.3,
                                        "a_after_no_jump": 0.6}},
                      generator={"preset": "saturating",
                                 "params": {"c0": 0.0, "cy": 0.4, "cz": 0.0}},
                      terminal={"preset": "constant", "params": {"c": 1.0}},
                      beta=0.05)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    solver = read_summary(out)["solver"]
    with open(out / "iterations.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    d = solver["diff_norms"]
    assert d[0] == 0.0 and len(rows) == len(d) > 3
    assert rows[0]["ratio_sq"] == rows[1]["ratio_sq"] == ""
    for i in range(2, len(rows)):
        assert float(rows[i]["ratio_sq"]) == pytest.approx((d[i] / d[i - 1]) ** 2, rel=1e-9)
    assert [float(r["ratio_sq"]) for r in rows[2:]] == solver["ratio_sq"]


# -- whole-number parameters ----------------------------------------------------------

GRID = {"preset": "deterministic_grid", "params": {"K": 2, "m": 2, "a": 0.5}}


def _with(section, **params):
    return {**section, "params": {**section["params"], **params}}


# one config per entry point that reads a whole number; each ran truncated
WHOLE_NUMBER_CASES = {
    "two_state_rule-K": ("solve", {"model": {"preset": "two_state_rule",
                                             "params": {"K": 2.5, "m": 2, "a_after_jump": 0.3,
                                                        "a_after_no_jump": 0.6}}}),
    "deterministic_grid-K": ("solve", {"model": _with(GRID, K=2.5)}),
    "sweep-K": ("sweep", {"model": GRID, "sweep": {"param": "K", "values": [2, 2.5]}}),
    "counterexample-K": ("counterexample", {"model": {"preset": "counterexample",
                                                      "params": {"K": 2.5}}}),
    "counterexample-t0_index": ("counterexample", {"model": {"preset": "counterexample",
                                                             "params": {"K": 2, "t0_index": 0.5}}}),
    "last_mark-mark": ("solve", {"model": GRID,
                                 "terminal": {"preset": "last_mark", "params": {"mark": 1.5}}}),
    "max_iter": ("solve", {"model": GRID, "max_iter": 2.5}),
    "seed": ("verify", {"model": GRID, "seed": 1.5}),
}


def refused(tmp_path, capsys, command, config):
    """Standard error of a config run that must exit 1 and write no report."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"beta": 1.0, **config} if command != "counterexample"
                               else config))
    out = tmp_path / "run"
    argv = [command, "--config", str(path)] + ([] if "out" in config else ["--out", str(out)])
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert not out.exists() or not any(out.iterdir())
    return capsys.readouterr().err


@pytest.mark.parametrize("case", WHOLE_NUMBER_CASES)
def test_a_fractional_whole_number_is_a_config_error(tmp_path, capsys, case):
    assert refused(tmp_path, capsys, *WHOLE_NUMBER_CASES[case]).startswith("config error: ")


# a last_mark terminal whose mark the tree does not have; -1 is the no-jump code
MARK_RANGE_CASES = {
    "last_mark-mark-5": ("solve", {"model": GRID, "terminal": {
        "preset": "last_mark", "params": {"mark": 5}}}),
    "last_mark-mark--1": ("verify", {"model": GRID, "terminal": {
        "preset": "last_mark", "params": {"mark": -1}}}),
}


@pytest.mark.parametrize("case", MARK_RANGE_CASES)
def test_a_mark_outside_the_tree_is_a_config_error(tmp_path, capsys, case):
    # each ran with xi = 0 on every leaf and exit 0
    err = refused(tmp_path, capsys, *MARK_RANGE_CASES[case])
    assert err.startswith("config error: terminal mark ") and "outside 0..1" in err


# preset numbers the solvers cannot use: a NaN terminal ran to "fixed-point iterates
# left the finite range" (exit 3), a NaN c0 to "generator value nan" (exit 3), and a
# Lipschitz constant of 1e300 to an OverflowError traceback from its square
NUMBER_CASES = {
    "constant-c-nan": ("solve", {"model": GRID, "terminal": {
        "preset": "constant", "params": {"c": math.nan}}}),
    "affine_y-c0-nan": ("verify", {"model": GRID, "generator": {
        "preset": "affine_y", "params": {"c0": math.nan}}}),
    "affine_y-c1-inf": ("solve", {"model": GRID, "generator": {
        "preset": "affine_y", "params": {"c1": math.inf}}}),
    "affine_y-c1-1e300": ("solve", {"model": GRID, "generator": {
        "preset": "affine_y", "params": {"c1": 1e300}}}),
    "saturating-cy-1e300": ("verify", {"model": GRID, "generator": {
        "preset": "saturating", "params": {"cy": 1e300}}}),
    "saturating-cz--1e300": ("solve", {"model": GRID, "generator": {
        "preset": "saturating", "params": {"cz": -1e300}}}),
    "affine_z-c1-1e300": ("solve", {"model": GRID, "generator": {
        "preset": "affine_z", "params": {"c1": 1e300}}}),
    "affine_z-c2-1e300": ("sweep", {"model": _with(GRID, a=0.4), "generator": {
        "preset": "affine_z", "params": {"c2": 1e300}},
        "sweep": {"param": "beta", "values": [1.0, 2.0]}}),
}


@pytest.mark.parametrize("case", NUMBER_CASES)
def test_a_preset_number_the_solvers_cannot_use_is_a_config_error(tmp_path, capsys, case):
    err = refused(tmp_path, capsys, *NUMBER_CASES[case])
    preset, key, _ = case.split("-", 2)
    if case.endswith("nan") or case.endswith("inf"):
        assert err.startswith(f"config error: bad parameter {key}: ") and "not finite" in err
    else:
        assert err.startswith(f"config error: generator preset {preset!r} with params ")
        assert "squares to overflow" in err


# a saturating cz whose square is finite but whose threshold data is not: 1e153
# ended in an uncaught DenominatorNonpositive traceback (exit 1), and 1e154 wrote
# beta_min NaN into summary.json before "no convergence after 100 sweeps" (exit 3)
THRESHOLD_CASES = {
    f"saturating-cz-{cz}": ("solve", {
        "model": _with(GRID, K=3, a=0.4),
        "generator": {"preset": "saturating", "params": {"c0": 0.1, "cy": 0.3, "cz": float(cz)}},
        "terminal": {"preset": "jump_count"}})
    for cz in ("1e153", "1e154")}


@pytest.mark.parametrize("case", THRESHOLD_CASES)
def test_a_threshold_the_set_up_cannot_represent_is_a_config_error(tmp_path, capsys, case):
    err = refused(tmp_path, capsys, *THRESHOLD_CASES[case])
    assert err.startswith("config error: generator preset 'saturating' with params ")
    assert "Traceback" not in err


# iteration controls _picard cannot run: NaN and -1 ran every sweep to exit 3,
# inf stopped after one sweep as converged, max_iter < 1 ran none to exit 3
CONTROL_CASES = {
    "tol-nan": ("solve", {"model": GRID, "tol": math.nan}),
    "tol--1": ("verify", {"model": GRID, "tol": -1.0}),
    "tol-inf": ("solve", {"model": GRID, "tol": math.inf}),
    "max_iter-0": ("solve", {"model": GRID, "max_iter": 0}),
    "max_iter--3": ("sweep", {"model": GRID, "max_iter": -3,
                              "sweep": {"param": "beta", "values": [1.0, 2.0]}}),
    # a malformed number ended in "could not convert string to float: 'abc'"
    # (or "invalid literal for int()"), which named no key
    "tol-abc": ("solve", {"model": GRID, "tol": "abc"}),
    "beta-x": ("solve", {"model": GRID, "beta": "x"}),
    "delta-x": ("verify", {"model": GRID, "delta": "x"}),
    "seed-x": ("verify", {"model": GRID, "seed": "x"}),
    "max_iter-x": ("solve", {"model": GRID, "max_iter": "x"}),
    # at beta 0 a non-finite delta ran to exit 0 and wrote "delta": NaN, which is not
    # JSON; a NaN beta_margin was refused only as the NaN beta it resolved to
    "delta-nan": ("solve", {"model": GRID, "beta": 0.0, "delta": math.nan}),
    "delta-inf": ("verify", {"model": GRID, "beta": 0.0, "delta": math.inf}),
    "beta_margin-nan": ("solve", {"model": GRID, "beta": "auto", "beta_margin": math.nan}),
}


@pytest.mark.parametrize("case", CONTROL_CASES)
def test_an_invalid_iteration_control_is_a_config_error(tmp_path, capsys, case):
    err = refused(tmp_path, capsys, *CONTROL_CASES[case])
    assert err.startswith("config error: bad numeric field: ")
    assert case.split("-")[0] in err


@pytest.mark.parametrize("tol", ["nan", "-1", "abc"])
def test_an_invalid_tol_flag_is_a_config_error(tmp_path, capsys, tol):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out), f"--tol={tol}"]) == 1
    assert not out.exists()
    assert "tol" in capsys.readouterr().err


# a horizon no tree can hold ended in numpy's words, not in one that names K
HORIZON_CASES = {
    # "all elements of broadcast shape must be non-negative"
    "deterministic_grid--1": ("solve", {"model": _with(GRID, K=-1)}),
    # "grid must be a nonempty 1-d array of times"
    "two_state_rule--1": ("verify", {"model": {"preset": "two_state_rule", "params": {
        "K": -1, "m": 2, "a_after_jump": 0.3, "a_after_no_jump": 0.6}}}),
    # "Maximum allowed size exceeded"
    "discretized_intensity-1e300": ("solve", {"model": {
        "preset": "discretized_intensity", "params": {"lam": 0.5, "K": 1e300, "m": 1}}}),
    "counterexample-1e300": ("counterexample", {"model": {"preset": "counterexample",
                                                          "params": {"K": 1e300}}}),
    # "Maximum allowed dimension exceeded"
    "pdmp_like-1e300": ("verify", {"model": {"preset": "pdmp_like",
                                             "params": {"K": 1e300, "m": 2}}}),
    "sweep-K-1e300": ("sweep", {"model": GRID, "sweep": {"param": "K", "values": [1e300]}}),
}


@pytest.mark.parametrize("case", HORIZON_CASES)
def test_a_horizon_no_tree_can_hold_is_a_config_error(tmp_path, capsys, recwarn, case):
    err = refused(tmp_path, capsys, *HORIZON_CASES[case])
    assert err.startswith("config error: ") and "horizon " in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# a JSON integer past the float range ended in an OverflowError traceback
HUGE_INTEGER_CASES = {
    "model-a": ("solve", {"model": _with(GRID, a=10 ** 400)}),
    "model-lam": ("verify", {"model": {"preset": "discretized_intensity",
                                       "params": {"lam": 10 ** 400, "K": 2, "m": 1}}}),
    "model-a_after_jump": ("solve", {"model": {"preset": "two_state_rule", "params": {
        "K": 2, "m": 1, "a_after_jump": 10 ** 400, "a_after_no_jump": 0.5}}}),
    "config-tol": ("solve", {"model": GRID, "tol": 10 ** 400}),
    "config-beta": ("verify", {"model": GRID, "beta": 10 ** 400}),
    "config-delta": ("solve", {"model": GRID, "delta": 10 ** 400}),
    "sweep-values": ("sweep", {"model": GRID, "sweep": {"param": "beta", "values": [10 ** 400]}}),
}


@pytest.mark.parametrize("case", HUGE_INTEGER_CASES)
def test_an_integer_past_the_float_range_is_a_config_error(tmp_path, capsys, case):
    err = refused(tmp_path, capsys, *HUGE_INTEGER_CASES[case])
    section, key = case.split("-")
    assert err.startswith("config error: ")
    assert key in err if section == "config" else "too large to convert to float" in err


# -- booleans where a number goes -----------------------------------------------------

# a JSON true where the config wants a number: each ran as the number 1, to exit 0
BOOLEAN_CASES = {
    "model-K": ("solve", {"model": _with(GRID, K=True)}),
    "model-a": ("verify", {"model": _with(GRID, a=True)}),
    "model-phi": ("solve", {"model": _with(GRID, phi=[True, 0.0])}),
    "generator-c0": ("solve", {"model": GRID, "generator": {
        "preset": "affine_y", "params": {"c0": True, "c1": 0.3}}}),
    "terminal-scale": ("verify", {"model": GRID, "terminal": {
        "preset": "jump_count", "params": {"scale": True}}}),
    "terminal-mark": ("solve", {"model": GRID, "terminal": {
        "preset": "last_mark", "params": {"mark": True}}}),
    "config-beta": ("solve", {"model": GRID, "beta": True}),
    "config-beta_margin": ("verify", {"model": GRID, "beta": "auto", "beta_margin": True}),
    "config-tol": ("solve", {"model": GRID, "tol": True}),
    "config-max_iter": ("solve", {"model": GRID, "max_iter": True}),
    "config-seed": ("verify", {"model": GRID, "seed": True}),
    "sweep-beta-values": ("sweep", {"model": GRID,
                                    "sweep": {"param": "beta", "values": [1.0, True]}}),
    "sweep-K-values": ("sweep", {"model": GRID, "sweep": {"param": "K", "values": [1, True]}}),
}


@pytest.mark.parametrize("case", BOOLEAN_CASES)
def test_a_boolean_where_a_number_goes_is_a_config_error(tmp_path, capsys, case):
    err = refused(tmp_path, capsys, *BOOLEAN_CASES[case])
    assert err.startswith("config error: ") and case.split("-")[-1] in err


# a JSON string that spells a number: each ran as that number, to exit 0
STRING_CASES = {
    "model-K": ("solve", {"model": _with(GRID, K="3")}),
    "model-m": ("verify", {"model": _with(GRID, m="2")}),
    "model-a": ("solve", {"model": _with(GRID, a="0.5")}),
    "model-phi": ("solve", {"model": _with(GRID, phi=["0.5", 0.5])}),
    "generator-c0": ("solve", {"model": GRID, "generator": {
        "preset": "affine_y", "params": {"c0": "0.3", "c1": 0.3}}}),
    "terminal-scale": ("verify", {"model": GRID, "terminal": {
        "preset": "jump_count", "params": {"scale": "0.9"}}}),
    "config-tol": ("solve", {"model": GRID, "tol": "1e-10"}),
    "config-seed": ("verify", {"model": GRID, "seed": "4"}),
    "config-beta": ("solve", {"model": GRID, "beta": "2.5"}),
    "sweep-K-values": ("sweep", {"model": GRID, "sweep": {"param": "K", "values": [1, "2"]}}),
    "counterexample-p": ("counterexample", {"model": {"preset": "counterexample",
                                                      "params": {"p": "0.5"}}}),
}


@pytest.mark.parametrize("case", STRING_CASES)
def test_a_string_that_spells_a_number_is_a_config_error(tmp_path, capsys, case):
    err = refused(tmp_path, capsys, *STRING_CASES[case])
    assert err.startswith("config error: ")
    assert re.search(rf"\b{case.split('-')[-1]}\b", err)   # the key, as a word


@pytest.mark.parametrize("param,values", [("delta", [0.1, 0.2]), ("K", [1, 2])])
@pytest.mark.parametrize("relative", [True, False])
def test_relative_to_beta_min_on_a_delta_or_K_sweep_is_a_config_error(tmp_path, capsys, param,
                                                                        values, relative):
    # only a beta sweep reads it: a delta or K sweep ran as if it were absent
    err = refused(tmp_path, capsys, "sweep", {"model": GRID, "sweep": {
        "param": param, "values": values, "relative_to_beta_min": relative}})
    assert err.startswith("config error: relative_to_beta_min ") and param in err


# each ended in a traceback ('float' object is not callable, an OverflowError), in
# exit 0 with a misread section, or in exit 3 ("no" read as true); each names its key
MISREAD_CASES = {
    "model-m-1e300": ("solve", {"model": _with(GRID, m=1e300)}, "127 marks"),
    "model-T-inf": ("solve", {"model": {"preset": "discretized_intensity", "params": {
        "lam": 0.5, "K": 2, "m": 1, "T": math.inf}}}, "T must be finite"),
    # only discretized_intensity reads T: on deterministic_grid it changed nothing
    "model-T-unread": ("solve", {"model": _with(GRID, T=2.0)}, "'T'"),
    "sweep-values-string": ("sweep", {"model": GRID, "sweep": {"param": "K", "values": "23"}},
                            "values"),
    "sweep-unread-key": ("sweep", {"model": GRID, "sweep": {"param": "K", "values": [2],
                                                            "valeus": [3]}}, "valeus"),
    "sweep-flag": ("sweep", {"model": GRID, "sweep": {"param": "beta", "values": [1.0],
                                                      "relative_to_beta_min": "yes"}},
                   "relative_to_beta_min"),
    "debug-flag": ("verify", {"model": GRID, "debug": {"wrong_c_beta": "no"}}, "wrong_c_beta"),
    "debug-unread-key": ("verify", {"model": GRID, "debug": {"wrong_cbeta": True}},
                         "wrong_cbeta"),
    # an empty out wrote the reports into the working directory, and an out that
    # is a file ended in a FileExistsError traceback
    "out-empty": ("solve", {"model": GRID, "out": ""}, "out"),
    "out-file": ("verify", {"model": GRID, "out": __file__}, "out"),
    **{f"preset-{command}": (command, {"model": {
        "preset": "predictable_random_jumps", "params": {"K": 2, "m": 1, "rule": 0.5}}},
        "unknown model preset 'predictable_random_jumps'")
       for command in ("solve", "verify", "sweep")},
}


@pytest.mark.parametrize("case", MISREAD_CASES)
def test_a_config_the_run_cannot_read_is_a_config_error(tmp_path, capsys, recwarn, case):
    command, config, key = MISREAD_CASES[case]
    if command == "sweep" and "sweep" not in config:
        config = {**config, "sweep": {"param": "beta", "values": [1.0]}}
    err = refused(tmp_path, capsys, command, config)
    assert err.startswith("config error: ") and key in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command,config,key", [
    # refused before too, but as a number: "delta 1.0 outside (0, 1.0)"
    ("solve", {"model": GRID, "delta": True}, "delta"),
    # K ran as 1 to exit 3, and p as 0 to "p must lie in (0, 1)"
    ("counterexample", {"model": {"preset": "counterexample", "params": {"K": True}}}, "K"),
    ("counterexample", {"model": {"preset": "counterexample", "params": {"p": False}}}, "p"),
])
def test_a_boolean_is_refused_as_a_boolean(tmp_path, capsys, command, config, key):
    err = refused(tmp_path, capsys, command, config)
    assert err.startswith("config error: ") and key in err
    assert "True" in err or "False" in err


@pytest.mark.parametrize("command,whole,integral", [
    ("solve", {"model": _with(GRID, K=3, m=2)}, {"model": _with(GRID, K=3.0, m=2.0)}),
    ("solve", {"model": GRID, "terminal": {"preset": "last_mark", "params": {"mark": 1}}},
     {"model": GRID, "terminal": {"preset": "last_mark", "params": {"mark": 1.0}}}),
    ("verify", {"model": GRID, "seed": 5, "max_iter": 40},
     {"model": GRID, "seed": 5.0, "max_iter": 40.0}),
    ("sweep", {"model": GRID, "sweep": {"param": "K", "values": [1, 3]}},
     {"model": GRID, "sweep": {"param": "K", "values": [1.0, 3.0]}}),
])
def test_an_integral_float_runs_as_its_integer(tmp_path, command, whole, integral):
    reports = []
    for name, config in (("whole", whole), ("integral", integral)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"beta": 1.0, **config}))
        out = tmp_path / name
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
        reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert reports[0] == reports[1]


def test_counterexample_takes_integral_floats(tmp_path):
    reports = []
    for name, params in (("whole", {"K": 2, "t0_index": 1}),
                         ("integral", {"K": 2.0, "t0_index": 1.0})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"model": {"preset": "counterexample", "params": params},
                                    "terminal": {"preset": "constant", "params": {"c": 5e4}}}))
        out = tmp_path / name
        assert cli.main(["counterexample", "--config", str(path), "--out", str(out)]) == 0
        reports.append((out / "summary.json").read_bytes())
    assert reports[0] == reports[1]


def test_beta_sweep_sets_up_once(tmp_path, monkeypatch):
    # the leaf values and the threshold data do not depend on beta
    calls = {"terminal": 0, "threshold": 0}
    terminal, threshold = cli.solver.BsdeProblem.terminal_values, cli.conditions._threshold

    def count(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli.solver.BsdeProblem, "terminal_values", count("terminal", terminal))
    monkeypatch.setattr(cli.conditions, "_threshold", count("threshold", threshold))
    cfg = write_config(tmp_path, generator={"preset": "affine_y",
                                            "params": {"c0": 0.1, "c1": 0.3}},
                       sweep={"param": "beta", "values": [1.0, 2.0, 4.0],
                              "relative_to_beta_min": True})
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert calls == {"terminal": 1, "threshold": 1}


def test_delta_sweep_sets_up_once(tmp_path, monkeypatch):
    # of the set-up only the threshold data depend on delta
    calls = {"terminal": 0, "hypothesis": 0, "threshold": 0}
    terminal, threshold = cli.solver.BsdeProblem.terminal_values, cli.conditions._threshold
    hypothesis = cli.conditions.check_main_hypothesis

    def count(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli.solver.BsdeProblem, "terminal_values", count("terminal", terminal))
    monkeypatch.setattr(cli.conditions, "check_main_hypothesis", count("hypothesis", hypothesis))
    monkeypatch.setattr(cli.conditions, "_threshold", count("threshold", threshold))
    cfg = write_config(tmp_path, generator={"preset": "affine_y",
                                            "params": {"c0": 0.1, "c1": 0.3}},
                       sweep={"param": "delta", "values": [0.1, 0.2, 0.4]})
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert calls == {"terminal": 1, "hypothesis": 1, "threshold": 3}


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("delta", [None, 0.2])
def test_a_run_sets_up_once(tmp_path, monkeypatch, command, delta):
    # the fixed-point solve takes the set-up the diagnostics were made from
    calls = dict.fromkeys(["hypothesis", "counterexample", "threshold"], 0)
    for key, name in [("hypothesis", "check_main_hypothesis"),
                      ("counterexample", "detect_counterexample"), ("threshold", "_threshold")]:
        fn = getattr(cli.conditions, name)
        monkeypatch.setattr(cli.conditions, name,
                            lambda *a, _fn=fn, _key=key: calls.__setitem__(_key, calls[_key] + 1)
                            or _fn(*a))
    cfg = write_config(tmp_path, model={"preset": "two_state_rule",
                                        "params": {"K": 4, "m": 2, "a_after_jump": 0.3,
                                                   "a_after_no_jump": 0.6}},
                       generator={"preset": "saturating",
                                  "params": {"c0": 0.1, "cy": 0.5, "cz": 0.4}},
                       **({} if delta is None else {"delta": delta}))
    out = tmp_path / "run"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert calls == {"hypothesis": 1, "counterexample": 1, "threshold": 1}
    assert read_summary(out)["conditions"]["delta"] == (delta or pytest.approx(
        read_summary(out)["conditions"]["epsilon_star"] / 2.0))


def test_a_run_that_does_not_converge_exits_three(tmp_path, capsys):
    # the solve keeps picard_solve's NoConvergence: a solver failure
    cfg = write_config(tmp_path, model={"preset": "two_state_rule",
                                        "params": {"K": 4, "m": 2, "a_after_jump": 0.3,
                                                   "a_after_no_jump": 0.6}},
                       generator={"preset": "saturating",
                                  "params": {"c0": 0.1, "cy": 0.5, "cz": 0.4}},
                       max_iter=1)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_SOLVER
    assert "solver failure: no convergence after 1 sweeps" in capsys.readouterr().out
    assert read_summary(out)["notes"][0].startswith("solver failure: no convergence")


def test_a_picard_sweep_that_returns_its_input_above_tol_stops_the_iteration(tmp_path):
    # values near 1e7 round at about 1e-9: from sweep 3 on a sweep returns its
    # input bit for bit while the residual stays above tol 1e-10, so the
    # iteration stops there instead of running out its 100 sweeps
    def solve(c, *flags):
        cfg = write_config(tmp_path, model={"preset": "deterministic_grid",
                                            "params": {"K": 3, "m": 2, "a": 0.4}},
                           generator={"preset": "saturating",
                                      "params": {"c0": 0.1, "cy": 0.3, "cz": 0.2}},
                           terminal={"preset": "constant", "params": {"c": c}})
        out = tmp_path / f"run-{c:g}{''.join(flags)}"
        return cli.main(["solve", "--config", str(cfg), "--out", str(out), *flags]), read_summary(out)

    code, summary = solve(1e6)
    assert code == cli.EXIT_OK and summary["solver"]["iterations"] == 2
    code, summary = solve(1e7)
    assert code == cli.EXIT_SOLVER
    found = re.fullmatch(r"solver failure: no convergence: sweep 3 returned its input exactly "
                         r"at residual (\S+) above tol 1e-10 \(y_sup 10000000\.48\)",
                         summary["notes"][0])
    assert found and 1e-10 < float(found[1]) < 1e-9
    # a tol the rounding meets converges where the iteration stopped
    code, summary = solve(1e7, "--tol", "1e-9")
    assert code == cli.EXIT_OK and summary["solver"]["iterations"] == 2


def test_a_sweep_whose_rows_do_not_converge_exits_zero(tmp_path):
    # a sweep records convergence per row (below beta_min none is expected), so
    # rows that miss tol exit 0, while solve on the same config exits 3
    relative = {"param": "beta", "values": [1.0, 2.0, 4.0], "relative_to_beta_min": True}
    cfg = write_config(tmp_path, model={"preset": "two_state_rule",
                                        "params": {"K": 4, "m": 2, "a_after_jump": 0.3,
                                                   "a_after_no_jump": 0.6}},
                       generator={"preset": "saturating",
                                  "params": {"c0": 0.3, "cy": 0.5, "cz": 0.7}},
                       max_iter=2, sweep=relative)
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    rows = list(csv.DictReader((out / "sweep.csv").open()))
    assert len(rows) == 3
    assert all(r["converged"] == "0" and r["Y0"] == "" and r["iterations"] == "2" for r in rows)
    solve = ["solve", "--config", str(cfg), "--out", str(tmp_path / "s")]
    assert cli.main(solve) == cli.EXIT_SOLVER


# the main hypothesis fails: 2 * 0.8^2 * 1^2 = 1.28 on both slots (slack -0.28)
VIOLATED = {"model": {"preset": "deterministic_grid", "params": {"K": 2, "m": 1, "a": 1.0}},
            "generator": {"preset": "affine_y", "params": {"c0": 0.1, "c1": 0.8}}}


@pytest.mark.parametrize("beta", ["auto", 2.0])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_a_violated_hypothesis_exits_two_under_beta_auto(tmp_path, capsys, command, beta):
    # auto, the default, reports the violation as an explicit beta does: the
    # summary with its flagged slots, and beta null, since no beta_min exists
    out = tmp_path / "run"
    cfg = write_config(tmp_path, **VIOLATED, beta=beta)
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONDITION
    assert "2 slot(s) flagged" in capsys.readouterr().out
    summary = read_summary(out)
    assert summary["conditions"] == {
        "beta": None if beta == "auto" else 2.0, "beta_min": None, "delta": None,
        "epsilon_star": 1.0 - 2.0 * 0.8 ** 2,
        "flagged": [{"delta_A": 1.0, "history": [], "step": 0, "value": 2.0 * 0.8 ** 2},
                    {"delta_A": 1.0, "history": [0], "step": 1, "value": 2.0 * 0.8 ** 2}]}
    assert summary["solver"] == {} and summary["checks"] == []


@pytest.mark.parametrize("sweep", [
    {"param": "beta", "values": [1.0, 2.0]},
    {"param": "beta", "values": [1.0, 2.0], "relative_to_beta_min": True},
    {"param": "delta", "values": [0.1]},
    {"param": "K", "values": [1, 2]}], ids=["beta", "relative-beta", "delta", "K"])
def test_a_violated_hypothesis_exits_two_in_a_sweep_under_beta_auto(tmp_path, capsys, sweep):
    cfg = write_config(tmp_path, **VIOLATED, sweep=sweep)
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "main hypothesis violated: slack -0.28" in capsys.readouterr().err
    assert not (tmp_path / "o" / "sweep.csv").exists()


@pytest.mark.parametrize("command,expected", [("solve", 2), ("verify", 1)])
def test_a_run_reads_the_leaf_values_once_per_solver(tmp_path, monkeypatch, command, expected):
    # the fixed-point iteration reads them once, the oracle of ``solve`` once more;
    # a set-up holds none (the condition diagnostics read them too: 3 and 2)
    calls = []
    terminal = cli.solver.BsdeProblem.terminal_values
    monkeypatch.setattr(cli.solver.BsdeProblem, "terminal_values",
                        lambda *args: calls.append(1) or terminal(*args))
    cfg = write_config(tmp_path, model={"preset": "deterministic_grid",
                                        "params": {"K": 2, "m": 2, "a": 0.5}},
                       generator={"preset": "saturating",
                                  "params": {"c0": 0.1, "cy": 0.5, "cz": 0.4}})
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == expected


@pytest.mark.parametrize("param,values", [
    ("beta", [1.0, 2.0, 4.0]), ("delta", [0.1, 0.2, 0.4]), ("K", [1, 2, 3])])
def test_sweep_iterates_once(tmp_path, monkeypatch, param, values):
    # the iterates depend on neither beta nor delta: those sweeps make one
    # solve's linear sweeps; a K sweep solves each tree on its own
    calls = []
    sweep = cli.solver._linear_sweep
    monkeypatch.setattr(cli.solver, "_linear_sweep",
                        lambda *args: calls.append(1) or sweep(*args))
    cfg = write_config(tmp_path, model={"preset": "deterministic_grid",
                                        "params": {"K": 2, "m": 2, "a": 0.5}},
                       generator={"preset": "saturating",
                                  "params": {"c0": 0.1, "cy": 0.5, "cz": 0.4}},
                       sweep={"param": param, "values": values,
                              **({"relative_to_beta_min": True}
                                 if param == "beta" else {})})
    out = tmp_path / "run"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    iterations = [int(row["iterations"]) for row in csv.DictReader((out / "sweep.csv").open())]
    assert len(iterations) == 3 and min(iterations) > 2
    if param == "K":
        assert len(calls) == sum(iterations)
    else:
        assert len(set(iterations)) == 1 and len(calls) == iterations[0]


def test_the_commands_load_no_random_or_masked_array_modules(tmp_path):
    # numpy.random pulls in secrets, hmac and _hashlib (OpenSSL) at its first
    # use, np.unique pulls in numpy.ma, and argparse pulls in gettext and
    # locale; a fresh process runs each command on a small config and must
    # load none of them
    cfg = write_config(tmp_path, generator={"preset": "affine_y",
                                            "params": {"c0": 0.3, "c1": 0.4}},
                       sweep={"param": "beta", "values": [1.0, 2.0],
                              "relative_to_beta_min": True})
    script = (
        "import sys\n"
        "from treebsde import cli\n"
        "for command in ('verify', 'solve', 'sweep'):\n"
        "    out = sys.argv[2] + '/' + command\n"
        "    assert cli.main([command, '--config', sys.argv[1], '--out', out]) == 0\n"
        "print(sorted(m for m in ('numpy.random', 'secrets', '_hashlib', 'numpy.ma',\n"
        "                         'argparse', 'gettext', 'locale') if m in sys.modules))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# -- every config ends in a named exit -------------------------------------------------

# a quarter of the fuzzed numbers come from here: the float range's edges, the
# values next to the hypothesis boundary, strings (two of them spell numbers), a
# JSON boolean and an integer past the float range
EDGE_NUMBERS = [0, 1, -1, 0.5, 2, 1e-300, 1e154, 1e300, math.nan, math.inf, 0.999999,
                "abc", "3", "0.5", True, 10 ** 400]


def _number(ordinary):
    return st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(EDGE_NUMBERS) if i == 0 else ordinary)


def _unit():
    return _number(st.floats(0.0, 1.0))


def _params(draw, reads):
    return {key: draw(strategy) for key, strategy in reads.items()}


@st.composite
def fuzzed_configs(draw):
    """``(command, config)`` over the four config models, five drivers and three
    terminals, with a ``T`` on any model preset, under solve, verify or a beta sweep."""
    K, m = _number(st.integers(0, 4)), _number(st.integers(1, 3))
    model_reads = {
        "deterministic_grid": {"K": K, "m": m, "a": _unit()},
        "two_state_rule": {"K": K, "m": m, "a_after_jump": _unit(),
                           "a_after_no_jump": _unit()},
        "pdmp_like": {"K": K, "m": m},
        "discretized_intensity": {"lam": _number(st.floats(0.0, 2.0)), "K": K, "m": m},
    }
    coef = _number(st.floats(-1.0, 1.0))
    generator_reads = {"zero": {}, "constant": {"c0": coef}, "affine_y": {"c0": coef, "c1": coef},
                       "affine_z": {"c0": coef, "c1": coef, "c2": coef},
                       "saturating": {"c0": coef, "cy": coef, "cz": coef}}
    terminal_reads = {"constant": {"c": coef}, "jump_count": {"scale": coef},
                      "last_mark": {"mark": _number(st.integers(0, 2)), "scale": coef}}
    model = draw(st.sampled_from(sorted(model_reads)))
    params = _params(draw, model_reads[model])
    if draw(st.booleans()):
        params["T"] = draw(_number(st.floats(0.1, 5.0)))
    gen = draw(st.sampled_from(sorted(generator_reads)))
    term = draw(st.sampled_from(sorted(terminal_reads)))
    config = {"model": {"preset": model, "params": params},
              "generator": {"preset": gen, "params": _params(draw, generator_reads[gen])},
              "terminal": {"preset": term, "params": _params(draw, terminal_reads[term])},
              "beta": draw(st.one_of(st.just("auto"), _number(st.floats(0.0, 50.0)))),
              "seed": draw(_number(st.integers(0, 99)))}
    for key, strategy in (("delta", _number(st.floats(0.01, 0.3))),
                          ("tol", _number(st.floats(1e-12, 1e-8)))):
        if draw(st.booleans()):
            config[key] = draw(strategy)
    command = draw(st.sampled_from(["solve", "verify", "sweep"]))
    if command == "sweep":
        config["sweep"] = {"param": "beta",
                           "values": draw(st.lists(_number(st.floats(0.0, 50.0)),
                                                   min_size=1, max_size=3))}
    return command, config


def _reports(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()} if out.is_dir() else {}


@settings(max_examples=500, deadline=None, derandomize=True)
@given(fuzzed_configs())
def test_every_fuzzed_config_ends_in_a_named_exit_with_reproducible_reports(case):
    """Every exit is one of the four named ones, no exception escapes ``main``, and a
    rerun writes the same report bytes.

    An exit 0 may still print a numpy ``RuntimeWarning`` (a beta or data whose
    weights or squares overflow: ROADMAP item 2); that clause is left to item 2,
    and no warning is filtered here.
    """
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(config))
        runs = []
        for i in range(2):
            out = Path(tmp) / f"run{i}"
            code = cli.main([command, "--config", str(path), "--out", str(out)])
            runs.append((code, _reports(out)))
    assert runs[0][0] in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_CONDITION, cli.EXIT_SOLVER)
    assert runs[0] == runs[1]
