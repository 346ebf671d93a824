"""Every exported name resolves; the scalar twins and the whole-tree forms
that only tests read live only in conftest."""

import dataclasses
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treebsde

from conftest import SlotView, check_lipschitz

MODULES = ["measure_core", "norms", "conditions", "solver", "verification",
           "scenarios", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"treebsde.{name}")
    assert mod.__all__
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


@pytest.mark.parametrize("name,module", [("represent_martingale", "solver"),
                                         ("jump_second_moment", "norms"),
                                         ("proof_weights", "conditions"),
                                         ("LevelRules", "measure_core"),
                                         ("batched_terminal", "solver"),
                                         ("hat_z", "norms"),
                                         ("contraction_profile_H", "conditions"),
                                         ("lipschitz_seminorm", "norms"),
                                         ("bsde_residual", "solver"),
                                         ("conditional_means", "solver"),
                                         ("canonical_field", "norms"),
                                         ("SlotView", "measure_core"),
                                         ("_per_history", "scenarios"),
                                         ("predictable_random_jumps", "scenarios"),
                                         ("jump_count", "scenarios")])
def test_scalar_twins_left_the_package(name, module):
    assert not hasattr(treebsde, name)
    assert not hasattr(importlib.import_module(f"treebsde.{module}"), name)
    with pytest.raises(ImportError):
        exec(f"from treebsde import {name}", {})


def test_a_slot_view_and_a_profile_carry_only_what_is_read():
    # no atom time on the conftest view; no jump sizes (the tree's slot_dA)
    # and no 1 - delta (``a`` per slot) on a profile
    assert [f.name for f in dataclasses.fields(SlotView)] == [
        "index", "step", "history", "delta_A", "phi"]
    assert [f.name for f in dataclasses.fields(treebsde.ContractionProfile)] == [
        "hat_lz_sq", "c", "d", "a", "b", "epsilon_star", "delta", "beta", "beta_min"]


def test_the_iteration_keeps_no_profile_and_no_leaf_values():
    # the reports read neither a value's contraction profile nor its own copy
    # of the leaf values; a tree keeps only its level plans
    from treebsde.solver import _Setup
    assert "profile" not in [f.name for f in dataclasses.fields(treebsde.SolveReport)]
    assert [f.name for f in dataclasses.fields(_Setup)] == [
        "eps_star", "flagged", "delta", "hat", "beta_min"]
    tree = treebsde.build_tree(treebsde.scenarios.deterministic_grid(K=2, m=1, a=0.5))
    assert not hasattr(tree, "_plan") and "_plans" not in vars(tree)


def test_a_tree_keeps_no_history_tuples_and_no_merged_flag():
    # neither on a full tree nor on the merged tree of a model with a state
    model = treebsde.scenarios.discretized_intensity(lam=0.5, K=3, m=1)
    merged = dataclasses.replace(model, state=lambda k, H: treebsde.scenarios.jump_counts(H))
    for tree in (treebsde.build_tree(model), treebsde.build_tree(merged)):
        assert not hasattr(tree, "histories") and not hasattr(tree, "merged")
        assert "_histories" not in vars(tree)


def test_a_slot_and_a_rule_have_one_form():
    # a slot is a one-row block, tree.block([i]); a rule is a level rule, and a
    # preset's phi is one probability vector
    tree = treebsde.build_tree(treebsde.scenarios.deterministic_grid(K=2, m=1, a=0.5))
    assert not hasattr(tree, "slot") and "_views" not in vars(tree)
    assert not hasattr(treebsde.SlotBlock, "of_view")
    assert [f.name for f in dataclasses.fields(treebsde.SlotBlock)] == [
        "index", "step", "delta_A", "phi"]
    with pytest.raises(TypeError):
        treebsde.scenarios.ModelSpec("two_state_rule", {
            "K": 2, "m": 2, "a_after_jump": 0.3, "a_after_no_jump": 0.6,
            "phi": lambda k, hist: [0.5, 0.5]}, "constant").build()


def test_the_module_exports_are_pinned():
    from treebsde import measure_core, scenarios
    assert measure_core.__all__ == [
        "NO_JUMP", "MAX_NODES", "ScenarioModel", "SlotBlock", "ScenarioTree", "TreeTooLarge",
        "build_tree", "doleans_exponential", "doleans_sqrt_factorization"]
    assert scenarios.__all__ == [
        "ModelSpec", "deterministic_grid", "two_state_rule", "pdmp_like",
        "discretized_intensity", "counterexample_model", "random_model", "jump_counts",
        "last_marks", "preset_state", "xi_constant", "xi_jump_count", "xi_last_mark_indicator"]
    assert "SlotView" not in vars(treebsde)


def test_check_lipschitz_refuses_a_list_of_samples():
    slot = treebsde.build_tree(treebsde.scenarios.deterministic_grid(K=1, m=1, a=0.5)).block([0])
    f = treebsde.Generator(lambda block, y, zeta: 0.5 * y, 0.5, 0.0)
    with pytest.raises(ValueError, match="count"):
        check_lipschitz(f, slot, samples=[(0.0, 1.0, [0.0], [1.0])])


def test_a_model_has_one_form():
    # level rules only: no batch field and no constructor deriving a second form;
    # the optional state declares what the rules read, it is not a second form
    assert not hasattr(treebsde.ScenarioModel, "batched")
    assert [f.name for f in dataclasses.fields(treebsde.ScenarioModel)] == [
        "m", "horizon", "jump_size", "mark_law", "state"]


def test_only_discretized_intensity_takes_a_time_horizon():
    # a model is its rules, K and m: T sets only the intensity preset's jump sizes
    takes_T = sorted(name for name in treebsde.scenarios.__all__
                     if callable(getattr(treebsde.scenarios, name))
                     and "T" in inspect.signature(getattr(treebsde.scenarios, name)).parameters)
    assert takes_T == ["discretized_intensity"]
    assert not hasattr(treebsde, "MarkSpace")


def test_a_driver_and_a_solution_have_one_form():
    # a level driver only: no batch field and no constructor deriving a second
    # form; a solution is the pair, with no path-sum diagnostic beside it
    assert [f.name for f in dataclasses.fields(treebsde.Generator)] == ["fn", "lip_y", "lip_z"]
    public = sorted(n for n in vars(treebsde.Generator) if not n.startswith("_"))
    assert public == ["is_path", "zero"]     # no batched or path constructor
    assert [f.name for f in dataclasses.fields(treebsde.Solution)] == ["Y", "Z"]
    assert not hasattr(treebsde.ScenarioTree, "accumulate")


def test_the_implicit_step_has_no_tuning_options():
    # the level kernel: its tolerance and step floor are constants
    params = inspect.signature(treebsde.implicit_step_solve).parameters
    assert list(params) == ["block", "c", "d", "z", "f"]


def test_the_benchmark_tracer_installs_on_the_package():
    # perfbench/tracer.py wraps package names from outside; a name it wraps
    # that is gone fails its install, in a fresh process
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "from tracer import Tracer; Tracer().install()")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-c", code, str(root / "perfbench"), str(root / "src")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr


TRACED_RUN = """
import json, math, pathlib, sys, tempfile
sys.path[:0] = sys.argv[1:3]
from tracer import Tracer
import run
tracer = Tracer()
tracer.install()
from treebsde import cli
config = {"model": {"preset": "two_state_rule",
                    "params": {"K": 3, "m": 2, "a_after_jump": 0.3, "a_after_no_jump": 0.6}},
          "generator": {"preset": "saturating", "params": {"c0": 0.2, "cy": 0.4, "cz": 0.5}},
          "terminal": {"preset": "jump_count"},
          "sweep": {"param": "beta", "values": [1.0, 2.0], "relative_to_beta_min": True}}
tmp = pathlib.Path(tempfile.mkdtemp(dir=sys.argv[3]))
(tmp / "cfg.json").write_text(json.dumps(config))
codes = [cli.main([command, "--config", str(tmp / "cfg.json"), "--out", str(tmp / command)])
         for command in sys.argv[4:]]
metrics = tracer.layer_metrics(0)
print(json.dumps({"codes": codes, "metrics": metrics, "keys": list(run.PER_LAYER)}))
"""


def traced_run(tmp_path, *commands):
    """``{"codes", "metrics", "keys"}`` of ``commands`` run under one tracer in a fresh process."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-c", TRACED_RUN, str(root / "perfbench"),
                          str(root / "src"), str(tmp_path), *commands],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_the_benchmark_tracer_runs_the_commands(tmp_path):
    # a wrapped name whose arguments or result moved would fail a traced run,
    # which installing alone does not show: solve, verify and a beta sweep of a
    # tiny config run under the tracer in a fresh process, and every per-layer
    # metric of the benchmark but the traced-minus-untraced overhead is finite
    out = traced_run(tmp_path, "solve", "verify", "sweep")
    assert out["codes"] == [0, 0, 0]
    keys = [k for k in out["keys"] if k != "trace.overhead_s"]
    assert len(keys) == 29
    bad = {k: out["metrics"].get(k) for k in keys
           if not isinstance(out["metrics"].get(k), (int, float))
           or not math.isfinite(out["metrics"][k])}
    assert bad == {}
    assert out["metrics"]["measure_core.build_tree_calls"] > 0


@pytest.mark.parametrize("command,nonzero", [
    ("verify", [f"verification.{name}_s" for name in (
        "identity_lemma", "integral_inequality", "apriori", "norm_equivalence", "lipschitz",
        "jump_identity")]),
    ("solve", ["solver.implicit_steps"]),
])
def test_the_benchmark_tracer_sees_the_kernels_that_run(tmp_path, command, nonzero):
    # the tracer wraps the public check_* and implicit_step_solve names, and
    # run_suite and the oracle call those names: each wrapped kernel of a
    # command is timed or counted, not left at 0
    out = traced_run(tmp_path, command)
    assert out["codes"] == [0]
    assert {k: out["metrics"][k] for k in nonzero if not out["metrics"][k] > 0} == {}
