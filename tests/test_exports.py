"""Every exported name resolves; the scalar twins live only in conftest."""

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
                                         ("proof_weights", "conditions")])
def test_scalar_twins_left_the_package(name, module):
    assert not hasattr(treebsde, name)
    assert not hasattr(importlib.import_module(f"treebsde.{module}"), name)
    with pytest.raises(ImportError):
        exec(f"from treebsde import {name}", {})
