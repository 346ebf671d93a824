import importlib.util
import json
import math
from pathlib import Path

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
    for name, _, config in report_diff.cases():
        if config is not None:
            model = config["model"]
            assert scenarios.ModelSpec(model["preset"], model["params"]).build(), name
