import importlib.util
import json
import math
from pathlib import Path

import pytest

from treebsde import scenarios

_spec = importlib.util.spec_from_file_location(
    "report_diff", Path(__file__).resolve().parents[1] / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def write_reports(d, z_norm_sq=0.1 + 0.2, lhs=1.5):
    d.mkdir()
    (d / "summary.json").write_text(json.dumps(
        {"solver": {"Y0": 0.5, "iterations": 3, "z_norm_sq": z_norm_sq},
         "checks": [{"name": "identity_lemma", "lhs": lhs, "passed": True}]}))
    (d / "checks.csv").write_text(f"name,kind,lhs,passed\nidentity_lemma,identity,{lhs!r},1\n")


def test_identical_directories_report_nothing(tmp_path):
    write_reports(tmp_path / "old")
    write_reports(tmp_path / "new")
    assert report_diff.compare_dirs(tmp_path / "old", tmp_path / "new") == []


def test_one_ulp_edits_report_one_ulp(tmp_path):
    write_reports(tmp_path / "old")
    write_reports(tmp_path / "new", z_norm_sq=math.nextafter(0.1 + 0.2, 1.0),
                  lhs=math.nextafter(1.5, 0.0))
    diffs = report_diff.compare_dirs(tmp_path / "old", tmp_path / "new")
    assert {(d.where, d.ulps) for d in diffs} == {
        ("checks.csv[row 1].lhs", 1),
        ("summary.json.checks[identity_lemma].lhs", 1),
        ("summary.json.solver.z_norm_sq", 1),
    }
    assert report_diff.ulp_distance(-0.0, 5e-324) == 1


def test_every_case_config_builds_its_model():
    # a case whose model is a config error compares two identical error exits
    for name, _, config, _ in report_diff.cases():
        if config is not None:
            model = config["model"]
            assert scenarios.ModelSpec(model["preset"], model["params"]).build(), name


def test_headroom_keeps_each_checks_largest_gap_to_tolerance_ratio(tmp_path):
    def run(name, *rows):
        out = tmp_path / name
        out.mkdir()
        (out / "summary.json").write_text(json.dumps({"checks": [
            {"name": n, "kind": kind, "abs_gap": a, "rel_gap": r, "tol": tol}
            for n, kind, a, r, tol in rows]}))
        return out

    worst = {}
    for name, rows in (
            ("a", [("identity_lemma", "identity", 5.0, 2e-11, 1e-10),
                   ("jump_identity", "inequality", 9e-11, 9e-11, 1e-10),
                   ("integral_inequality", "inequality", -3e-12, -1.0, 1e-12),
                   ("apriori_estimate", "skipped", 0.0, 0.0, 0.0)]),
            ("b", [("identity_lemma", "identity", 1e-20, 1.1e-10, 1e-10),
                   ("jump_identity", "inequality", 1e-11, 1e-11, 1e-10),
                   ("integral_inequality", "inequality", math.nan, math.nan, 1e-12)]),
            ("c", [("integral_inequality", "inequality", 5e-13, 5e-13, 1e-12)])):
        report_diff.fold_headroom(run(name, *rows), name, worst)
    report_diff.fold_headroom(tmp_path / "missing", "d", worst)
    assert worst["identity_lemma"] == (pytest.approx(1.1), "b")     # rel_gap of an identity
    assert worst["jump_identity"] == (pytest.approx(0.9), "a")      # abs_gap of an inequality
    assert math.isnan(worst["integral_inequality"][0])              # a NaN gap fails: worst
    assert worst["integral_inequality"][1] == "b"
    assert "apriori_estimate" not in worst
