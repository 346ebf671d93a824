"""Batch front door: config in, solver runs and machine-readable reports out.

Subcommands: ``solve`` (fixed-point solve cross-checked against the
backward oracle), ``verify`` (full check suite), ``sweep`` (grid over
beta, delta or the horizon), ``counterexample`` (reproduce the blow-up
regime).  Config is one JSON document; flags override its scalar fields.
Reports are CSV tables plus ``summary.json``; they contain no wall-clock
data, so identical config and seed produce byte-identical files (timing
goes to the console).

Exit codes: 0 ok; 1 config error; 2 main-hypothesis violation;
3 solver failure, failed verification check, or a ``solve`` whose
fixed-point Y0 misses the backward oracle's by more than ``Y0_GAP_TOL``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import conditions, norms, scenarios, solver, verification
from .measure_core import _whole

__all__ = ["RunConfig", "RunReport", "main", "cmd_solve", "cmd_verify",
           "cmd_sweep", "cmd_counterexample"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONDITION = 2
EXIT_SOLVER = 3

# criterion 1: the fixed-point Y0 agrees with the backward oracle's
Y0_GAP_TOL = 1e-8


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """Parsed run configuration (model, generator and terminal presets)."""

    model: dict
    generator: dict = field(default_factory=lambda: {"preset": "zero"})
    terminal: dict = field(default_factory=lambda: {"preset": "constant", "params": {"c": 0.0}})
    beta: object = "auto"
    beta_margin: float = 1.0
    delta: float | None = None
    tol: float = 1e-10
    max_iter: int = 100
    seed: int = 0
    out: str = "out"
    sweep: dict | None = None
    debug: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path, overrides=None) -> "RunConfig":
        """Config of a JSON file (of the built-in counterexample run for None) with overrides.

        Numeric fields, ``beta`` included, are parsed here; anything
        malformed is a ``ConfigError`` naming its key.
        """
        if path is None:
            raw = {"model": {"preset": "counterexample"},
                   "terminal": {"preset": "constant", "params": {"c": 5e4}}}
        else:
            try:
                raw = json.loads(Path(path).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "model" not in raw:
            raise ConfigError("config needs a 'model' section")
        cfg = cls(**raw)
        for key, val in (overrides or {}).items():
            if val is not None:
                setattr(cfg, key, val)
        for key in ("model", "generator", "terminal", "debug"):
            section = getattr(cfg, key)
            params = section.get("params", {}) if isinstance(section, dict) else None
            if not isinstance(params, dict):
                raise ConfigError(f"{key} and its params must be JSON objects")
        _check_keys("debug", cfg.debug, {"wrong_c_beta": bool})
        if isinstance(cfg.sweep, dict):
            _check_keys("sweep", cfg.sweep,
                        {"param": object, "values": list, "relative_to_beta_min": bool})
        if not isinstance(cfg.out, str):
            raise ConfigError(f"out must be a path, not {cfg.out!r}")
        for key, kind, valid, why in (
                ("beta_margin", float, None, ""),
                ("tol", float, lambda v: 0.0 <= v < math.inf, "is not finite and >= 0"),
                ("max_iter", _whole, lambda v: v >= 1, "is below 1"),
                ("seed", _whole, lambda v: v >= 0, "is negative"),
                ("delta", float, None, ""),
                ("beta", float, None, "")):
            value = getattr(cfg, key)
            if (key, value) in (("delta", None), ("beta", "auto")):
                continue
            try:
                if _not_number(value):
                    raise ValueError("not a JSON number")
                num = kind(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad numeric field: {key} {value!r}: {exc}") from exc
            if valid is not None and not valid(num):
                raise ConfigError(f"bad numeric field: {key} {num!r} {why}")
            setattr(cfg, key, num)
        return cfg


@dataclass
class RunReport:
    """Everything a run writes: diagnostics, solver output, check table."""

    seed: int
    conditions: dict
    solver: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)


# -- presets ------------------------------------------------------------------


def _check_keys(name: str, section: dict, reads: dict) -> None:
    """``ConfigError`` naming a key of ``section`` that no run reads, or a value
    that is not of the JSON type ``reads`` gives for its key."""
    unread = sorted(set(section) - set(reads))
    if unread:
        raise ConfigError(f"{name} keys no run reads: {', '.join(unread)}")
    kinds = {bool: "a JSON boolean", list: "a JSON list"}
    for key, kind in reads.items():
        if key in section and not isinstance(section[key], kind):
            raise ConfigError(f"{name} {key} must be {kinds[kind]}, not {section[key]!r}")


def _not_number(value) -> bool:
    """Not a JSON number, nor a list of them: ``float()`` would read a boolean as 1 or 0
    and a string as the number it spells."""
    items = value if isinstance(value, list) else [value]
    return not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items)


def _num(params, key, default, kind=float):
    """``kind(params.get(key, default))``; a malformed or non-finite value is a config error."""
    value = params.get(key, default)
    try:
        if _not_number(value):
            raise TypeError(f"{value!r} is not a number")
        num = kind(value)
        if math.isfinite(num):
            return num
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad parameter {key}: {value!r}") from exc
    raise ConfigError(f"bad parameter {key}: {value!r} is not finite")


def _preset(spec, kind: str, default: str, reads: dict):
    """``(preset, params)`` of a config section; ``reads`` maps each preset to its params.

    An unknown preset and a param the preset does not read are config errors.
    """
    preset = spec.get("preset", default)
    if not isinstance(preset, str) or preset not in reads:
        raise ConfigError(f"unknown {kind} preset {preset!r}")
    p = spec.get("params", {})
    unread = sorted(set(p) - set(reads[preset]))
    if unread:
        raise ConfigError(f"{kind} preset {preset!r} does not read {', '.join(unread)}")
    return preset, p


def _build_generator(spec, tree) -> solver.Generator:
    """A config's ``generator`` driver; a ``lip_y`` or ``lip_z`` squaring to inf is refused."""
    preset, p = _preset(spec, "generator", "zero", {
        "zero": (), "constant": ("c0",), "affine_y": ("c0", "c1"),
        "affine_z": ("c0", "c1", "c2"), "saturating": ("c0", "cy", "cz")})
    if preset == "zero":
        return solver.Generator.zero()
    if preset == "constant":
        c0 = _num(p, "c0", 0.0)
        return solver.Generator(lambda block, y, zeta: np.full(y.shape, c0), lip_y=0.0, lip_z=0.0)
    if preset == "affine_y":
        c0, c1 = _num(p, "c0", 0.0), _num(p, "c1", 0.0)
        gen = solver.Generator(lambda block, y, zeta: c0 + c1 * y, lip_y=abs(c1), lip_z=0.0)
    elif preset == "affine_z":
        c0 = _num(p, "c0", 0.0)
        c1 = _num(p, "c1", 0.0)          # seminorm coefficient
        c2 = _num(p, "c2", 0.0)          # hat-projection coefficient
        lip = abs(c1)
        if c2 != 0.0:
            da = tree.slot_dA
            if da.size and np.any(da >= 1.0):
                raise ConfigError("affine_z with c2 != 0 needs jumps below 1")
            ratio = float(np.max(np.sqrt(da / (1.0 - da)))) if da.size else 0.0
            lip += abs(c2) * ratio

        def fn(block, y, zeta):
            val = c0 + c1 * norms.lipschitz_seminorm_rows(zeta, block)
            if c2 != 0.0:
                val += c2 * norms.hat_z_rows(zeta, block)
            return val

        gen = solver.Generator(fn, lip_y=0.0, lip_z=lip)
    else:   # saturating
        c0, cy, cz = _num(p, "c0", 0.0), _num(p, "cy", 0.0), _num(p, "cz", 0.0)
        gen = solver.Generator(
            lambda block, y, zeta: c0 + cy * np.tanh(y)
            + cz * np.tanh(norms.lipschitz_seminorm_rows(zeta, block)),
            lip_y=abs(cy), lip_z=abs(cz))
    if not all(math.isfinite(lip * lip) for lip in (gen.lip_y, gen.lip_z)):
        raise ConfigError(f"generator preset {preset!r} with params {p}: "
                          "a Lipschitz constant squares to overflow")
    return gen


def _build_terminal(spec, n_marks: int):
    """Terminal of a config's ``terminal`` section on a tree with ``n_marks`` marks."""
    preset, p = _preset(spec, "terminal", "constant", {
        "constant": ("c",), "jump_count": ("scale",), "last_mark": ("mark", "scale")})
    if preset == "constant":
        return scenarios.xi_constant(_num(p, "c", 0.0))
    if preset == "jump_count":
        return scenarios.xi_jump_count(_num(p, "scale", 1.0))
    mark, scale = _num(p, "mark", 0, _whole), _num(p, "scale", 1.0)
    try:
        return scenarios.xi_last_mark_indicator(mark, scale, n_marks=n_marks)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_tree(cfg: RunConfig):
    """Construct the model of a config and enumerate its tree.

    The model declares the state its preset and the terminal preset read
    (``scenarios.preset_state``), so the tree merges the histories that
    agree on it.  A bad model section, an invalid rule value and a tree
    over the node budget (``TreeTooLarge``) are config errors.
    """
    bad = sorted(key for key, value in cfg.model.get("params", {}).items() if _not_number(value))
    if bad:
        raise ConfigError(f"bad model spec: not a JSON number: {', '.join(bad)}")
    try:
        model = scenarios.ModelSpec(cfg.model["preset"], cfg.model.get("params", {}),
                                    cfg.terminal.get("preset", "constant")).build()
    # an OverflowError: a JSON integer past the float range
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad model spec: {exc}") from exc
    try:
        return model, solver.build_tree(model)
    except ValueError as exc:
        raise ConfigError(f"bad model: {exc}") from exc


def _base_problem(cfg: RunConfig, built=None, base=None):
    """``(problem at beta 0, its solver._setup_of)``: all of a config's problem but beta.

    ``built`` as in ``_build_problem``.  ``base``, the pair of a config that
    differs at most in ``beta`` and ``delta``, lends its problem and its
    delta-free set-up; ``built`` is then not read.  Threshold data the
    set-up cannot represent (``conditions.DenominatorNonpositive``) is a
    config error naming the generator preset.
    """
    if base is not None:
        problem, setup = base
    else:
        model, tree = built or _build_tree(cfg)
        gen = _build_generator(cfg.generator, tree)
        xi = _build_terminal(cfg.terminal, tree.n_marks)
        problem = solver.BsdeProblem(model=model, beta=0.0, xi=xi, f=gen, _tree=tree)
        setup = None
    try:
        return problem, solver._setup_of(problem, cfg.delta, setup)
    except conditions.DenominatorNonpositive as exc:
        raise ConfigError(f"generator preset {cfg.generator.get('preset', 'zero')!r} with params "
                          f"{cfg.generator.get('params', {})}: {exc}") from exc


def _build_problem(cfg: RunConfig, built=None, base=None):
    """Construct the problem and the condition diagnostics from a config.

    Reused parts must come from a config like ``cfg``: ``built`` (a
    ``(model, tree)`` pair from ``_build_tree``) from one with the same
    model section, ``base`` (a ``_base_problem`` pair) from one that
    differs at most in ``beta`` and ``beta_margin``.
    """
    base_problem, setup = base or _base_problem(cfg, built)
    eps_star, delta, beta_min = setup.eps_star, setup.delta, setup.beta_min
    # an explicit delta the contraction weights cannot use is refused, as picard_solve
    # refuses it; a violated hypothesis is reported, at beta None under auto
    bad_delta = eps_star > 0 and beta_min is None
    beta = cfg.beta
    if beta == "auto":
        beta = None if beta_min is None else beta_min * cfg.beta_margin
    if bad_delta and (beta is None or beta > 0):
        raise ConfigError(f"delta {delta!r} outside (0, {eps_star!r})")
    # BsdeProblem refuses a beta that is not finite and >= 0
    try:
        problem = base_problem if beta is None else replace(base_problem, beta=beta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    diag = {
        "epsilon_star": eps_star,
        "beta_min": beta_min,
        "beta": beta,
        "delta": delta,
        "flagged": _flagged_rows(problem.tree(), setup.flagged, history=True),
    }
    return problem, diag


def _flagged_rows(tree, flagged, history: bool) -> list:
    """Report rows of ``conditions.detect_counterexample``'s ``(slot id, value)`` pairs:
    each slot's step, jump size and value, and with ``history`` its history."""
    return [{"step": int(tree.slot_step[i]), "delta_A": float(tree.slot_dA[i]), "value": v,
             **({"history": list(tree.history(i))} if history else {})}
            for i, v in flagged]


# -- report writing ------------------------------------------------------------


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(x)) if isinstance(x, float) else x for x in row])


def _check_rows(checks):
    return [(c.name, c.kind, c.lhs, c.rhs, c.abs_gap, c.rel_gap,
             int(c.passed), c.tol) for c in checks]


CHECK_HEADER = ["name", "kind", "lhs", "rhs", "abs_gap", "rel_gap", "passed", "tol"]
ITER_HEADER = ["iteration", "diff_norm", "ratio_sq", "y_sup"]
SWEEP_HEADER = ["param", "value", "beta", "delta", "converged", "iterations",
                "worst_ratio_sq", "Y0", "residual"]


def _iteration_rows(report: solver.SolveReport):
    # picard_solve records a ratio only after a nonzero distance
    ratios = iter(report.ratio_sq)
    rows = []
    for i, dn in enumerate(report.diff_norms, start=1):
        ratio = float(next(ratios)) if i >= 2 and report.diff_norms[i - 2] > 0 else ""
        rows.append((i, float(dn), ratio, report.y_sup[i - 1]))
    return rows


def _solver_dict(sol, rep, tree, beta):
    w = norms._slot_weights(tree, beta)
    return {
        "Y0": float(sol.Y[0]),
        "iterations": rep.iterations,
        "converged": rep.converged,
        "residual": rep.residual,
        "diff_norms": [float(x) for x in rep.diff_norms],
        "ratio_sq": [float(x) for x in rep.ratio_sq],
        "y_norm_sq": norms._weighted_y_sq(sol.Y, tree, w),
        "z_norm_sq": norms._weighted_z_sq(sol.Z, tree, w),
    }


# -- subcommands ----------------------------------------------------------------


def _solved(cfg: RunConfig, noun: str, oracle: bool = False):
    """Build, check and Picard-solve a config: the start ``solve`` and ``verify`` share.

    Returns ``(code, problem, report, out, (solution, solve_report, oracle))``;
    a nonzero ``code`` comes with the summary written and no solution.
    """
    base = _base_problem(cfg)
    problem, diag = _build_problem(cfg, base=base)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    report = RunReport(seed=cfg.seed, conditions=diag)
    if diag["epsilon_star"] <= 0:
        code, note = EXIT_CONDITION, f"main hypothesis violated; no {noun} attempted"
        message = (f"condition violated: epsilon_star = {diag['epsilon_star']}, "
                   f"{len(diag['flagged'])} slot(s) flagged")
    else:
        try:
            # the set-up _base_problem made: picard_solve would make it again
            sol, rep = solver._picard_at(problem, base[1], cfg.tol, cfg.max_iter)
            solved = (sol, rep, solver.backward_oracle(problem) if oracle else None)
            return EXIT_OK, problem, report, out, solved
        except solver.SolverError as exc:
            code = EXIT_SOLVER
            note = message = f"solver failure: {exc}"
    report.notes.append(note)
    _write_json(out / "summary.json", asdict(report))
    print(message)
    return code, problem, report, out, None


def cmd_solve(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    code, problem, report, out, solved = _solved(cfg, "solve", oracle=True)
    if code:
        return code
    sol, rep, oracle = solved
    tree = problem.tree()
    sdict = _solver_dict(sol, rep, tree, problem.beta)
    sdict["oracle_Y0"] = float(oracle.Y[0])
    sdict["y0_gap"] = abs(float(sol.Y[0]) - float(oracle.Y[0]))
    sdict["mixed_norm_distance"] = float(np.sqrt(norms.mixed_norm_sq(
        sol.Y - oracle.Y, sol.Z - oracle.Z, tree, problem.beta)))
    report.solver = sdict
    agrees = sdict["y0_gap"] <= Y0_GAP_TOL
    if not agrees:
        report.notes.append(f"oracle gap {sdict['y0_gap']!r} exceeds {Y0_GAP_TOL:g}: "
                            "the fixed-point solution disagrees with the backward oracle")
    _write_json(out / "summary.json", asdict(report))
    _write_csv(out / "iterations.csv", ITER_HEADER, _iteration_rows(rep))
    elapsed = time.perf_counter() - t0
    print(f"Y0 = {float(sol.Y[0])!r}  iterations = {rep.iterations}  "
          f"residual = {rep.residual:.3e}  oracle gap = {sdict['y0_gap']:.3e}  "
          f"[{elapsed:.3f}s]")
    return EXIT_OK if agrees else EXIT_SOLVER


def cmd_verify(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    code, problem, report, out, solved = _solved(cfg, "verification")
    if code:
        return code
    sol, rep, _ = solved
    c_scale = 0.0 if cfg.debug.get("wrong_c_beta") else 1.0
    checks = verification.run_suite(problem, sol, seed=cfg.seed, c_scale=c_scale)
    report.solver = _solver_dict(sol, rep, problem.tree(), problem.beta)
    report.checks = [asdict(c) for c in checks]
    if problem.beta == 0:
        report.notes.append("beta = 0: integral inequality and a priori "
                            "estimate skipped (they need beta > 0)")
    _write_json(out / "summary.json", asdict(report))
    _write_csv(out / "checks.csv", CHECK_HEADER, _check_rows(checks))
    failed = [c for c in checks if not c.passed]
    elapsed = time.perf_counter() - t0
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name:<22} "
              f"gap={c.abs_gap:.3e} (tol {c.tol:g}, {c.kind})")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed [{elapsed:.3f}s]")
    return EXIT_OK if not failed else EXIT_SOLVER


def _sweep_rows(param: str, runs: list, cfg: RunConfig) -> list:
    """``sweep.csv`` rows of ``runs``, ``(value, setup, problem, diag)`` of one problem.

    The problems differ at most in ``beta`` and ``delta``, and each
    ``setup`` is its problem's ``solver._setup_of`` at its ``delta``, so one
    ``solver._picard`` serves them all.
    """
    sol, reports = solver._picard(runs[0][2], [(p.beta, setup) for _, setup, p, _ in runs],
                                  cfg.tol, cfg.max_iter, None, True)
    rows = []
    for (v, _, _, diag), rep in zip(runs, reports):
        worst = max(rep.ratio_sq) if rep.ratio_sq else ""
        solved = (float(sol.Y[0]), rep.residual) if rep.converged else ("", "")
        rows.append((param, v, diag["beta"], diag["delta"], int(rep.converged),
                     rep.iterations, worst, *solved))
    return rows


def cmd_sweep(cfg: RunConfig) -> int:
    """Grid over ``beta``, ``delta`` or the horizon ``K``: one ``sweep.csv`` row per value.

    A ``beta`` or ``delta`` sweep builds every value's problem and
    diagnostics first, so a bad value is a config error before any solve.
    The fixed-point iterates and their stop depend on neither, so one
    iteration serves every value: each row has its own ``beta``, ``delta``
    and ``worst_ratio_sq``, and the rest comes from that one iteration.  A
    ``K`` sweep builds and solves one tree per value, in turn.
    """
    t0 = time.perf_counter()
    if not isinstance(cfg.sweep, dict) or not cfg.sweep:
        raise ConfigError("sweep needs a 'sweep' section in the config")
    param = cfg.sweep.get("param")
    if param not in ("beta", "delta", "K"):
        raise ConfigError("sweep param must be one of beta, delta, K")
    if param != "beta" and "relative_to_beta_min" in cfg.sweep:
        raise ConfigError(f"relative_to_beta_min applies to a beta sweep, not to a {param} sweep")
    try:
        if _not_number(cfg.sweep.get("values", [])):
            raise ValueError(f"not a JSON number: values {cfg.sweep['values']!r}")
        values = [float(v) for v in cfg.sweep.get("values", [])]
        if param == "K":
            horizons = [_whole(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad sweep value: {exc}") from exc
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    # beta leaves the set-up alone: one serves every value
    base = _base_problem(cfg) if param == "beta" and values else None
    relative = param == "beta" and values and cfg.sweep.get("relative_to_beta_min")
    if relative:
        beta_min = _build_problem(cfg, base=base)[1]["beta_min"]
        if beta_min is None:
            solver._refuse_violated(base[1])   # exit 2, as a sweep of explicit betas
            raise ConfigError("relative beta sweep needs a valid beta_min")
    rows, runs = [], []
    for i, v in enumerate(values):
        if param == "beta":
            sub = replace(cfg, beta=v * beta_min if relative else v)
        elif param == "delta":
            # of the set-up only the threshold depends on delta: one tree serves all
            sub = replace(cfg, delta=v)
            base = _base_problem(sub, base=base)
        else:
            sub = replace(cfg, model={**cfg.model,
                                      "params": {**cfg.model.get("params", {}), "K": horizons[i]}})
            base = _base_problem(sub)
        runs.append((v, base[1], *_build_problem(sub, base=base)))
        # a K sweep has a tree per value, each solved before the next is built
        if param == "K" or i == len(values) - 1:
            rows += _sweep_rows(param, runs, cfg)
            runs = []
    _write_csv(out / "sweep.csv", SWEEP_HEADER, rows)
    elapsed = time.perf_counter() - t0
    print(f"swept {param} over {len(values)} value(s) -> {out / 'sweep.csv'} "
          f"[{elapsed:.3f}s]")
    return EXIT_OK


def _refuse_ignored(cfg: RunConfig) -> None:
    """``ConfigError`` on any input the counterexample run would not read.

    It reads the ``counterexample`` model's ``p``, ``K`` and ``t0_index``, a
    constant terminal's ``c``, ``seed`` and ``out``; it solves its own driver.
    """
    default = RunConfig(model={})
    ignored = [key for key in ("generator", "beta", "beta_margin", "delta", "tol",
                               "max_iter", "sweep", "debug")
               if getattr(cfg, key) != getattr(default, key)]
    for key, preset, read in (("model", "counterexample", {"p", "K", "t0_index"}),
                              ("terminal", "constant", {"c"})):
        spec = getattr(cfg, key)
        if spec.get("preset", "constant") != preset:
            ignored.append(f"{key} preset {spec.get('preset')!r}")
        ignored += [f"{key} param {k!r}" for k in sorted(set(spec.get("params", {})) - read)]
    if ignored:
        raise ConfigError(f"counterexample ignores {', '.join(ignored)}")


def cmd_counterexample(cfg: RunConfig) -> int:
    """Reproduce the blow-up regime end to end and report what happened."""
    t0 = time.perf_counter()
    _refuse_ignored(cfg)
    params = cfg.model.get("params", {})
    p = _num(params, "p", 0.5)
    K = _num(params, "K", 1, _whole)
    t0_index = _num(params, "t0_index", 0, _whole)
    xi_scale = _num(cfg.terminal.get("params", {}), "c", 5e4)
    try:
        model, gen = scenarios.counterexample_model(p, t0_index=t0_index, K=K)
    except ValueError as exc:
        raise ConfigError(f"bad model spec: {exc}") from exc
    problem = solver.BsdeProblem(model=model, beta=0.0,
                                 xi=scenarios.xi_constant(xi_scale), f=gen)
    tree = problem.tree()
    flagged = conditions.detect_counterexample(tree, gen.lip_y)
    observed = {"flagged": _flagged_rows(tree, flagged, history=False)}
    try:
        solver.backward_oracle(problem)
        observed["oracle"] = "solved (unexpected)"
        oracle_singular = False
    except solver.StepSingular as exc:
        observed["oracle"] = f"StepSingular (degenerate={exc.degenerate})"
        oracle_singular = True
    try:
        solver.picard_solve(problem, max_iter=50, check_hypothesis=False)
        observed["picard"] = {"diverged": False}
        blew_up = False
    except solver.NoConvergence as exc:
        sup = max(exc.report.y_sup) if exc.report else float("nan")
        observed["picard"] = {"diverged": True, "max_y_sup": sup,
                              "iterations": exc.report.iterations,
                              "y_sup": exc.report.y_sup}
        blew_up = sup > 1e6
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "summary.json",
                {"seed": cfg.seed, "p": p, "observed": observed})
    reproduced = bool(flagged) and oracle_singular and blew_up
    elapsed = time.perf_counter() - t0
    print(f"flagged={len(flagged)} oracle={observed['oracle']} "
          f"picard_diverged={observed['picard'].get('diverged')} [{elapsed:.3f}s]")
    return EXIT_OK if reproduced else EXIT_SOLVER


# -- entry point -----------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="treebsde",
                                 description="Backward equations on exact scenario trees")
    ap.add_argument("command", choices=("solve", "verify", "sweep", "counterexample"))
    ap.add_argument("--config", default=None, help="JSON config (optional for counterexample)")
    ap.add_argument("--out", default=None, help="output directory")
    # values are read as JSON and parsed with the config, so a malformed one is a
    # config error
    ap.add_argument("--seed", default=None, type=_flag)
    ap.add_argument("--beta", default=None, type=_flag, help="'auto' or a number")
    ap.add_argument("--delta", default=None, type=_flag)
    ap.add_argument("--tol", default=None, type=_flag)
    return ap


def _flag(text: str):
    """A number flag's JSON value; a flag that is not JSON, or is null, stays its text."""
    try:
        value = json.loads(text)
    except ValueError:
        return text
    return text if value is None else value


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {"out": args.out, "seed": args.seed, "beta": args.beta,
                 "delta": args.delta, "tol": args.tol}
    try:
        if args.config is None and args.command != "counterexample":
            raise ConfigError("--config is required")
        flags = [f"--{k}" for k in ("beta", "delta", "tol") if overrides[k] is not None]
        if args.command == "counterexample" and flags:
            raise ConfigError(f"counterexample ignores {', '.join(flags)}")
        cfg = RunConfig.load(args.config, overrides)
        handler = {"solve": cmd_solve, "verify": cmd_verify,
                   "sweep": cmd_sweep, "counterexample": cmd_counterexample}
        return handler[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except solver.ConditionViolated as exc:
        print(f"condition violated: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    except solver.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
