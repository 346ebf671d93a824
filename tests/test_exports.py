"""Every exported name resolves; the scalar twins and the whole-tree forms
that only tests read live only in conftest."""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treebsde

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
                                         ("canonical_field", "norms")])
def test_scalar_twins_left_the_package(name, module):
    assert not hasattr(treebsde, name)
    assert not hasattr(importlib.import_module(f"treebsde.{module}"), name)
    with pytest.raises(ImportError):
        exec(f"from treebsde import {name}", {})


def test_a_slot_view_and_a_profile_carry_only_what_is_read():
    # no atom time on a view; no jump sizes (the tree's slot_dA) and no
    # 1 - delta (``a`` per slot) on a profile
    assert [f.name for f in dataclasses.fields(treebsde.SlotView)] == [
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


def test_check_lipschitz_refuses_a_list_of_samples():
    slot = treebsde.build_tree(treebsde.scenarios.deterministic_grid(K=1, m=1, a=0.5)).slot(0)
    f = treebsde.Generator(lambda block, y, zeta: 0.5 * y, 0.5, 0.0)
    with pytest.raises(ValueError, match="count"):
        treebsde.check_lipschitz(f, slot, samples=[(0.0, 1.0, [0.0], [1.0])])


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
    # one slot of the level kernel: its tolerance and step floor are constants
    params = inspect.signature(treebsde.implicit_step_solve).parameters
    assert list(params) == ["cond_mean", "delta_A", "slot", "zeta", "f"]


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
