"""Every exported name resolves; the scalar twins live only in conftest."""

import dataclasses
import importlib

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
                                         ("batched_terminal", "solver")])
def test_scalar_twins_left_the_package(name, module):
    assert not hasattr(treebsde, name)
    assert not hasattr(importlib.import_module(f"treebsde.{module}"), name)
    with pytest.raises(ImportError):
        exec(f"from treebsde import {name}", {})


def test_a_model_has_one_form():
    # level rules only: no batch field and no constructor deriving a second form;
    # the optional state declares what the rules read, it is not a second form
    assert not hasattr(treebsde.ScenarioModel, "batched")
    assert [f.name for f in dataclasses.fields(treebsde.ScenarioModel)] == [
        "marks", "grid", "jump_size", "mark_law", "state"]


def test_a_driver_and_a_solution_have_one_form():
    # a level driver only: no batch field and no constructor deriving a second
    # form; a solution is the pair, with no path-sum diagnostic beside it
    assert [f.name for f in dataclasses.fields(treebsde.Generator)] == ["fn", "lip_y", "lip_z"]
    public = sorted(n for n in vars(treebsde.Generator) if not n.startswith("_"))
    assert public == ["is_path", "on_slots", "zero"]     # no batched or path constructor
    assert [f.name for f in dataclasses.fields(treebsde.Solution)] == ["Y", "Z"]
    assert not hasattr(treebsde.ScenarioTree, "accumulate")
