"""Compare the reports of two treebsde source trees, case by case.

Run from the root of a checkout:

    python3 tools/report_diff.py --old ../treebsde-main --new .

``--old`` and ``--new`` are checkout roots (each holds ``src/treebsde``).
Every case of a fixed list runs once per tree, as ``python -m treebsde.cli``
in a fresh process with ``PYTHONPATH`` set to that tree's ``src``.
Then every report file and the exit code are compared.  A differing
number is printed with its JSON path or CSV cell and its distance in units
in the last place (ulp); any other difference is printed as text.  The
last lines summarise the cases, the moved fields with their largest
distance in ulp and in absolute value, and the changed exit codes.  The
exit status is 0 when every case is identical.

The case list:

* the three benchmark workloads (``perfbench/workloads.py``) at seeds 5
  and 31;
* every generator preset with every terminal preset on two models, under
  ``solve`` and ``verify``;
* a ``beta``, a relative ``beta``, a ``delta`` and a ``K`` sweep, and a
  relative ``beta`` sweep with ``max_iter`` 2, whose rows do not converge
  (empty ``Y0``, ``converged`` 0);
* a K=0 tree under ``solve`` and ``verify``;
* a ``solve`` and a ``verify`` with beta far below ``beta_min``;
* a ``solve`` whose first fixed-point distance is exactly 0 (the
  ``iterations.csv`` ratio column after a zero distance);
* ``solve`` and ``verify`` on two ``two_state_rule`` models whose levels
  mix branch kinds (``a_after_jump`` 0 and 1 with an interior
  ``a_after_no_jump``); the CLI merges their histories by declared state,
  so they run the merged tree's edge path of the child read and parent
  broadcast;
* ``solve`` and ``verify`` on a merged ``two_state_rule`` with five marks
  and a ``last_mark`` terminal, with the ``saturating`` driver and with the
  ``affine_z`` driver (``c2`` 0.3): rows of five marks, where an order of
  the mark sums other than left to right would move bits;
* a ``solve`` and a ``verify`` whose ``last_mark`` terminal names a mark
  the tree lacks (5, and the no-jump code -1, with two marks): config
  errors;
* a ``verify`` of the ``verify_intensity`` workload at seed 3 with
  ``beta`` 1000 and ``seed`` 1, whose overflowing path weights make some
  drift-inequality paths NaN: it pins the worst-row rule of the checks;
* a ``solve`` with ``beta`` NaN and a ``verify`` with ``beta`` inf on the
  ``verify_intensity`` workload at seed 5: config errors;
* a ``solve`` with ``tol`` NaN and one with ``max_iter`` 0: config errors;
* a ``solve`` with a NaN ``constant`` terminal, a ``verify`` with an
  ``affine_y`` driver whose ``c0`` is NaN, and a ``solve`` whose ``affine_y``
  ``c1`` is 1e300 (its square overflows): config errors;
* a ``solve`` and a ``verify`` on a grid whose first and last levels have
  ``delta_A = 0`` (with a ``saturating`` driver, so the oracle's implicit
  step runs whole levels of rows with contraction factor 0);
* two ``solve`` runs whose ``saturating`` ``cz`` (1e153, 1e154) squares to a
  finite number but leaves the contraction threshold unrepresentable:
  config errors;
* a ``solve`` with ``beta`` true and a ``verify`` whose ``saturating``
  ``c0`` is true: config errors (a JSON boolean is not a number);
* config errors that name their key: a ``K`` sweep whose ``values`` is the
  string ``"23"``, a sweep key no run reads (``valeus``), a ``debug`` flag
  ``wrong_c_beta`` of ``"no"``, a ``debug`` key no run reads, a ``tol`` of
  ``"abc"``, a ``seed`` of ``"x"``, a ``K`` sweep value of 1e300, a ``tol`` of
  ``"1e-10"`` and an ``affine_y`` ``c0`` of ``"0.3"`` (a string is not a
  number), and ``relative_to_beta_min`` on a ``delta`` sweep (a bad model is
  left out: its old traceback and its new config error both exit 1, and a
  ``T`` on a preset that does not read it would be such a model);
* a ``verify`` on a ``two_state_rule`` whose ``a_after_jump`` is the
  subnormal 5e-324, where the Lipschitz check's ``(1 - dA)/dA`` overflows;
* a ``solve`` near the contraction boundary: ``deterministic_grid`` K=10,
  m=2, ``a = 0.9`` with a ``saturating`` ``cy`` of 0.78, so ``dA * lip_y``
  is 0.702 on every slot, the longest implicit steps of the corpus (on the
  CLI's merged tree);
* a ``solve`` that violates the main hypothesis (``deterministic_grid`` K=2,
  m=1, ``a`` 1, with an ``affine_y`` ``c1`` of 0.8), at ``beta`` 2 and at
  ``beta`` ``"auto"``: each exits 2 with a summary whose ``flagged`` rows
  carry their histories;
* a ``solve`` with a ``constant`` terminal of 1e6 and one of 1e7
  (``deterministic_grid`` K=3, m=2, ``a`` 0.4, a ``saturating`` driver):
  near 1e7 a fixed-point sweep returns its input bit for bit while the
  residual stays above ``tol``, so that run stops unconverged at sweep 3;
* ``verify`` runs that set ``--tol``, ``--beta auto``, ``--seed`` and
  ``--delta`` on the command line, each as ``--flag value`` and as
  ``--flag=value``; one whose flags come before the command; and one with
  an unknown flag (exit 2, no reports);
* config errors that exit 1 with no reports: a ``solve`` with ``delta`` NaN at
  ``beta`` 0, the built-in ``counterexample`` run with an empty ``--out=``, and
  a ``verify`` whose ``--out`` is its own ``config.json``, a file;
* the built-in ``counterexample`` run.

Every case but the command-line ones runs ``COMMAND --out out --config
config.json`` (no ``--config`` for the built-in run).

Reports carry no timings, so a case whose code did not change must match to
the byte.  Console output is not compared.

After the summary, the headroom of the ``--new`` tree's checks: for each
check, its largest gap-to-tolerance ratio over the corpus and the case it
comes from.  The gap is ``rel_gap`` for an identity row and ``abs_gap`` for an
inequality row (negative inside the gate); a ratio above 1, or NaN, fails.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

GENERATORS = {
    "zero": {},
    "constant": {"c0": 0.4},
    "affine_y": {"c0": 0.2, "c1": 0.5},
    "affine_z": {"c0": 0.1, "c1": 0.6, "c2": 0.3},
    "saturating": {"c0": 0.3, "cy": 0.5, "cz": 0.7},
}
TERMINALS = {
    "constant": {"c": 0.7},
    "jump_count": {"scale": 0.9},
    "last_mark": {"mark": 1, "scale": 1.3},
}
MODELS = {
    "grid": {"preset": "deterministic_grid", "params": {"K": 4, "m": 2, "a": 0.4}},
    "two_state": {"preset": "two_state_rule",
                  "params": {"K": 5, "m": 3, "a_after_jump": 0.3,
                             "a_after_no_jump": 0.6, "phi": [0.2, 0.3, 0.5]}},
}


class Diff(NamedTuple):
    where: str          # file and JSON path or CSV cell, or "exit code"
    field: str          # ``where`` without row numbers: what the summary groups by
    old: object
    new: object
    ulps: int | None    # distance of two finite floats, else None


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def cases() -> list[tuple[str, str, dict | None, tuple | None]]:
    """``(name, command, config, argv)`` of every case; ``None`` is the built-in
    config, and the default command line (``run_case``)."""
    out = []
    for name, (command, config_of, _, _) in _workloads().items():
        for seed in (5, 31):
            out.append((f"{name}-seed{seed}", command, config_of(seed)[0]))
    for model_name, model in MODELS.items():
        for gen, gparams in GENERATORS.items():
            for term, tparams in TERMINALS.items():
                config = {"model": model,
                          "generator": {"preset": gen, "params": gparams},
                          "terminal": {"preset": term, "params": tparams},
                          "seed": 3}
                for command in ("solve", "verify"):
                    out.append((f"{command}-{model_name}-{gen}-{term}", command, config))
    base = {"model": MODELS["two_state"],
            "generator": {"preset": "saturating", "params": GENERATORS["saturating"]},
            "terminal": {"preset": "jump_count", "params": TERMINALS["jump_count"]},
            "seed": 4}
    relative = {"param": "beta", "values": [1.0, 2.0, 4.0], "relative_to_beta_min": True}
    for name, sweep in (("beta", {"param": "beta", "values": [2.0, 8.0, 32.0]}),
                        ("relative-beta", relative),
                        ("delta", {"param": "delta", "values": [0.05, 0.1, 0.2]}),
                        ("K", {"param": "K", "values": [2, 3, 5]})):
        out.append((f"sweep-{name}", "sweep", {**base, "sweep": sweep}))
    out.append(("sweep-relative-beta-max-iter-2", "sweep",
                {**base, "max_iter": 2, "sweep": relative}))
    k0 = {**base, "model": {"preset": "deterministic_grid",
                            "params": {"K": 0, "m": 2, "a": 0.5}},
          "beta": 1.0}
    low_beta = {"model": {"preset": "deterministic_grid", "params": {"K": 6, "m": 2, "a": 1.0}},
                "generator": {"preset": "saturating",
                              "params": {"c0": 0.3, "cy": 0.6, "cz": 0.0}},
                "terminal": {"preset": "jump_count", "params": {"scale": 1.0}},
                "beta": 4.0}
    for command in ("solve", "verify"):
        out.append((f"{command}-K0", command, k0))
        out.append((f"{command}-beta-below-beta-min", command, low_beta))
    zero_first = {"model": {"preset": "two_state_rule",
                            "params": {"K": 5, "m": 1, "a_after_jump": 0.3,
                                       "a_after_no_jump": 0.6}},
                  "generator": {"preset": "saturating",
                                "params": {"c0": 0.0, "cy": 0.4, "cz": 0.0}},
                  "terminal": {"preset": "constant", "params": {"c": 1.0}},
                  "beta": 0.05}
    out.append(("solve-zero-first-distance", "solve", zero_first))
    for a_jump in (0.0, 1.0):
        mixed = {**base, "model": {"preset": "two_state_rule",
                                   "params": {"K": 6, "m": 2, "a_after_jump": a_jump,
                                              "a_after_no_jump": 0.45, "phi": [0.3, 0.7]}}}
        for command in ("solve", "verify"):
            out.append((f"{command}-mixed-kinds-a{a_jump:g}", command, mixed))
    wide = {**base, "model": {"preset": "two_state_rule",
                              "params": {"K": 6, "m": 5, "a_after_jump": 0.3,
                                         "a_after_no_jump": 0.55,
                                         "phi": [0.1, 0.15, 0.2, 0.25, 0.3]}},
            "terminal": {"preset": "last_mark", "params": {"mark": 3, "scale": 1.3}}}
    for gen, gparams in (("saturating", GENERATORS["saturating"]),
                         ("affine_z", GENERATORS["affine_z"])):
        for command in ("solve", "verify"):
            out.append((f"{command}-wide-rows-{gen}", command,
                        {**wide, "generator": {"preset": gen, "params": gparams}}))
    for command, mark in (("solve", 5), ("verify", -1)):
        out.append((f"{command}-last_mark-{mark}", command,
                    {**base, "model": MODELS["grid"],
                     "terminal": {"preset": "last_mark", "params": {"mark": mark}}}))
    intensity = _workloads()["verify_intensity"][1]
    nan_paths = {**intensity(3)[0], "beta": 1000.0, "seed": 1}
    out.append(("verify-nan-paths", "verify", nan_paths))
    for command, beta in (("solve", math.nan), ("verify", math.inf)):
        out.append((f"{command}-beta-{beta}", command, {**intensity(5)[0], "beta": beta}))
    out.append(("solve-tol-nan", "solve", {**base, "tol": math.nan}))
    out.append(("solve-max-iter-0", "solve", {**base, "max_iter": 0}))
    out.append(("solve-terminal-nan", "solve",
                {**base, "terminal": {"preset": "constant", "params": {"c": math.nan}}}))
    for name, command, params in (("verify-affine_y-c0-nan", "verify", {"c0": math.nan, "c1": 0.3}),
                                  ("solve-affine_y-c1-1e300", "solve", {"c1": 1e300})):
        out.append((name, command, {**base, "generator": {"preset": "affine_y", "params": params}}))
    zero_levels = {**base, "model": {"preset": "deterministic_grid",
                                     "params": {"K": 3, "m": 2, "a": [0.0, 0.5, 0.0]}}}
    for command in ("solve", "verify"):
        out.append((f"{command}-zero-levels", command, zero_levels))
    for cz in ("1e153", "1e154"):
        out.append((f"solve-saturating-cz-{cz}", "solve",
                    {**base, "model": {"preset": "deterministic_grid",
                                       "params": {"K": 3, "m": 2, "a": 0.4}},
                     "generator": {"preset": "saturating",
                                   "params": {"c0": 0.1, "cy": 0.3, "cz": float(cz)}},
                     "beta": 1.0}))
    # a JSON true where a number goes (kept out of the model params, whose
    # models every case must build)
    out.append(("solve-beta-true", "solve", {**base, "beta": True}))
    out.append(("verify-saturating-c0-true", "verify",
                {**base, "generator": {"preset": "saturating",
                                       "params": {**GENERATORS["saturating"], "c0": True}}}))
    out += [("sweep-values-string", "sweep", {**base, "sweep": {"param": "K", "values": "23"}}),
            ("sweep-unread-key", "sweep",
             {**base, "sweep": {"param": "K", "values": [2], "valeus": [3]}}),
            ("verify-wrong_c_beta-no", "verify", {**base, "debug": {"wrong_c_beta": "no"}}),
            ("verify-debug-unread-key", "verify", {**base, "debug": {"wrong_cbeta": True}}),
            ("solve-tol-abc", "solve", {**base, "tol": "abc"}),
            ("verify-seed-x", "verify", {**base, "seed": "x"}),
            ("sweep-K-1e300", "sweep", {**base, "sweep": {"param": "K", "values": [1e300]}}),
            # a string that spells a number is not a number
            ("solve-tol-string", "solve", {**base, "tol": "1e-10"}),
            ("solve-affine_y-c0-string", "solve",
             {**base, "generator": {"preset": "affine_y", "params": {"c0": "0.3", "c1": 0.5}}}),
            ("sweep-delta-relative", "sweep",
             {**base, "sweep": {"param": "delta", "values": [0.05, 0.1],
                                "relative_to_beta_min": True}})]
    out.append(("verify-subnormal-jump", "verify",
                {"model": {"preset": "two_state_rule",
                           "params": {"K": 2, "m": 3, "a_after_jump": 5e-324,
                                      "a_after_no_jump": 0.062}},
                 "generator": {"preset": "saturating",
                               "params": {"c0": 0.1, "cy": 0.3, "cz": 0.5}},
                 "terminal": {"preset": "jump_count"}, "beta": "auto", "seed": 3}))
    out.append(("solve-near-boundary", "solve",
                {"model": {"preset": "deterministic_grid", "params": {"K": 10, "m": 2, "a": 0.9}},
                 "generator": {"preset": "saturating",
                               "params": {"c0": 0.05, "cy": 0.78, "cz": 0.5}},
                 "terminal": {"preset": "last_mark", "params": {"mark": 0, "scale": -0.3}},
                 "beta": 2.0, "seed": 3}))
    violated = {"model": {"preset": "deterministic_grid", "params": {"K": 2, "m": 1, "a": 1.0}},
                "generator": {"preset": "affine_y", "params": {"c0": 0.1, "c1": 0.8}},
                "terminal": {"preset": "jump_count"}}
    for beta in (2.0, "auto"):
        out.append((f"solve-violated-beta-{beta}", "solve", {**violated, "beta": beta}))
    for c in ("1e6", "1e7"):
        out.append((f"solve-fixed-point-c{c}", "solve",
                    {"model": {"preset": "deterministic_grid",
                               "params": {"K": 3, "m": 2, "a": 0.4}},
                     "generator": {"preset": "saturating",
                                   "params": {"c0": 0.1, "cy": 0.3, "cz": 0.2}},
                     "terminal": {"preset": "constant", "params": {"c": float(c)}}}))
    out = [(name, command, config, None) for name, command, config in out]
    line = ("--out", "out", "--config", "config.json")
    for name, flags in (("tol", ("--tol", "1e-12")), ("beta-auto", ("--beta", "auto")),
                        ("seed", ("--seed", "9")), ("delta", ("--delta", "0.1"))):
        out.append((f"verify-flag-{name}", "verify", {**base, "beta": 8.0},
                    ("verify", *line, *flags)))
        out.append((f"verify-flag-{name}-joined", "verify", {**base, "beta": 8.0},
                    ("verify", *line, "=".join(flags))))
    out.append(("verify-flags-before-command", "verify", base,
                ("--seed=9", "--tol", "1e-12", "verify", "--out=out", "--config", "config.json")))
    out.append(("verify-unknown-flag", "verify", base, ("verify", *line, "--bogus", "1")))
    out.append(("solve-delta-nan-beta-0", "solve", {**base, "beta": 0.0, "delta": math.nan},
                None))
    out.append(("counterexample-out-empty", "counterexample", None, ("counterexample", "--out=")))
    out.append(("verify-out-file", "verify", base,
                ("verify", "--out", "config.json", "--config", "config.json")))
    out.append(("counterexample", "counterexample", None, None))
    return out


def run_case(tree: Path, command: str, config: dict | None, workdir: Path,
             argv: tuple | None = None) -> int:
    """Run one case against the source tree ``tree`` in ``workdir``; reports go to ``out``.

    ``argv`` is the command line after ``python -m treebsde.cli``, by
    default ``command --out out --config config.json``; the config is
    written to ``config.json`` unless it is ``None`` (the built-in run).
    """
    workdir.mkdir(parents=True)
    if config is not None:
        (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    if argv is None:
        argv = (command, "--out", "out")
        argv += ("--config", "config.json") if config is not None else ()
    argv = [sys.executable, "-m", "treebsde.cli", *argv]
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run(argv, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    (workdir / "stderr.txt").write_text(done.stderr, encoding="utf-8")
    return done.returncode


# -- comparison ------------------------------------------------------------------


def ulp_distance(a: float, b: float) -> int:
    """Number of doubles from ``a`` to ``b`` (0.0 and -0.0 coincide)."""
    def key(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)
    return abs(key(a) - key(b))


def _number_diff(where, field, a: float, b: float) -> list[Diff]:
    if repr(a) == repr(b):
        return []
    finite = math.isfinite(a) and math.isfinite(b)
    return [Diff(where, field, a, b, ulp_distance(a, b) if finite else None)]


def _json_diffs(where: str, field: str, a, b) -> list[Diff]:
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for key in sorted(set(a) | set(b), key=str):
            w, f = f"{where}.{key}", f"{field}.{key}"
            out += (_json_diffs(w, f, a[key], b[key]) if key in a and key in b
                    else [Diff(w, f, a.get(key), b.get(key), None)])
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            # a list of named rows (the check table) is keyed by the row name
            label = x["name"] if isinstance(x, dict) and "name" in x else None
            out += _json_diffs(f"{where}[{label or i}]",
                               f"{field}[{label}]" if label else field, x, y)
        return out
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    if numbers and (isinstance(a, float) or isinstance(b, float)):
        return _number_diff(where, field, float(a), float(b))
    return [] if a == b and type(a) is type(b) else [Diff(where, field, a, b, None)]


def _as_float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _csv_diffs(name: str, a: str, b: str) -> list[Diff]:
    rows_a, rows_b = list(csv.reader(a.splitlines())), list(csv.reader(b.splitlines()))
    if len(rows_a) != len(rows_b) or not rows_a or rows_a[0] != rows_b[0]:
        return [Diff(name, name, f"{len(rows_a)} rows", f"{len(rows_b)} rows", None)]
    header, out = rows_a[0], []
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(ra) != len(rb):
            out.append(Diff(f"{name}[row {i}]", name, f"{len(ra)} cells", f"{len(rb)} cells",
                            None))
            continue
        # a row whose first cell is a name (the check table) is grouped by it
        label = f"[{ra[0]}]" if _as_float(ra[0]) is None else ""
        for col, x, y in zip(header, ra, rb):
            if x == y:
                continue
            where, field = f"{name}[row {i}].{col}", f"{name}{label}.{col}"
            fx, fy = _as_float(x), _as_float(y)
            out += (_number_diff(where, field, fx, fy) if fx is not None and fy is not None
                    else [Diff(where, field, x, y, None)])
    return out


def compare_dirs(old: Path, new: Path) -> list[Diff]:
    """Every difference between the report files of two output directories."""
    def files(d):
        return {p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()} \
            if d.is_dir() else set()

    out = []
    for name in sorted(files(old) | files(new)):
        pa, pb = old / name, new / name
        if not (pa.is_file() and pb.is_file()):
            out.append(Diff(name, name, "present" if pa.is_file() else "missing",
                            "present" if pb.is_file() else "missing", None))
            continue
        a, b = pa.read_text(encoding="utf-8"), pb.read_text(encoding="utf-8")
        if a == b:
            continue
        if name.endswith(".json"):
            out += _json_diffs(name, name, json.loads(a), json.loads(b))
        elif name.endswith(".csv"):
            out += _csv_diffs(name, a, b)
        else:
            out.append(Diff(name, name, "differs", "differs", None))
    return out


def fold_headroom(out: Path, case: str, worst: dict) -> None:
    """Fold the check rows of one run's ``summary.json`` into ``worst``: per check
    name, its largest gap-to-tolerance ratio and the case of that ratio."""
    path = out / "summary.json"
    if not path.is_file():
        return
    for row in json.loads(path.read_text(encoding="utf-8")).get("checks", []):
        gap = {"identity": "rel_gap", "inequality": "abs_gap"}.get(row["kind"])
        if gap is None or not row["tol"]:
            continue
        ratio, least = row[gap] / row["tol"], worst.get(row["name"], (-math.inf,))[0]
        if math.isnan(ratio) > math.isnan(least) or ratio > least:   # a NaN gap fails: worst
            worst[row["name"]] = (ratio, case)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--old", required=True, type=Path, help="checkout root of the old tree")
    ap.add_argument("--new", required=True, type=Path, help="checkout root of the new tree")
    ap.add_argument("--work", type=Path, default=None,
                    help="keep the runs in this (new) directory instead of a temporary one")
    args = ap.parse_args(argv)
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    for side, tree in trees.items():
        if not (tree / "src" / "treebsde").is_dir():
            ap.error(f"--{side} {tree} holds no src/treebsde")
    work = args.work or Path(tempfile.mkdtemp(prefix="report_diff_"))
    identical, moved, exits, headroom = 0, {}, [], {}
    try:
        all_cases = cases()
        for name, command, config, argv in all_cases:
            codes = {side: run_case(tree, command, config, work / side / name, argv)
                     for side, tree in trees.items()}
            diffs = compare_dirs(work / "old" / name / "out", work / "new" / name / "out")
            if codes["old"] != codes["new"]:
                diffs.insert(0, Diff("exit code", "exit code", codes["old"], codes["new"], None))
                exits.append((name, codes["old"], codes["new"]))
            identical += not diffs
            fold_headroom(work / "new" / name / "out", name, headroom)
            for d in diffs:
                dist = "" if d.ulps is None else f"  ({d.ulps} ulp, change {d.new - d.old:.3g})"
                print(f"{name}  {d.where}: {d.old!r} -> {d.new!r}{dist}")
                if d.where != "exit code":
                    moved.setdefault(d.field, []).append(d)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{len(all_cases)} cases, {identical} identical, "
          f"{len(all_cases) - identical} differ")
    # a gap near 0 moves by many of its own ulps when a norm moves by one,
    # so the summary also gives the largest absolute change
    for field, ds in sorted(moved.items()):
        num = [d for d in ds if d.ulps is not None]
        worst = (f", at most {max(d.ulps for d in num)} ulp and "
                 f"{max(abs(d.new - d.old) for d in num):.3g} absolute" if num else "")
        other = len(ds) - len(num)
        print(f"moved: {field}  {len(ds)} value(s){worst}"
              + (f", {other} non-float" if other else ""))
    for name, old, new in exits:
        print(f"exit code: {name}  {old} -> {new}")
    for check, (ratio, name) in sorted(headroom.items()):
        print(f"headroom: {check}  {ratio:.3g} of its gate, in {name}")
    return 0 if identical == len(all_cases) else 1


if __name__ == "__main__":
    sys.exit(main())
