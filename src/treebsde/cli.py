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

import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
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
        if not isinstance(cfg.out, str) or not cfg.out:
            raise ConfigError(f"out must be a path, not {cfg.out!r}")
        for key, kind, valid, why in (
                ("beta_margin", float, None, "is not finite"),
                ("tol", float, lambda v: v >= 0.0, "is not finite and >= 0"),
                ("max_iter", _whole, lambda v: v >= 1, "is below 1"),
                ("seed", _whole, lambda v: v >= 0, "is negative"),
                ("delta", float, None, "is not finite"),
                ("beta", float, None, "is not finite")):
            value = getattr(cfg, key)
            if (key, value) not in (("delta", None), ("beta", "auto")):
                setattr(cfg, key, _number(f"bad numeric field: {key}", value, kind, valid, why))
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


def _number(what: str, value, kind, valid, why: str):
    """``kind(value)`` of a finite JSON number that ``valid`` (None: any) accepts.

    Anything else is a ``ConfigError`` that begins with ``what``: a boolean or
    a string (``float()`` would read them as 1, 0 or the number spelled), a
    value ``kind`` refuses, and a value that is not finite or that ``valid``
    refuses, which ``why`` words.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} {value!r} is not a JSON number")
    try:
        num = kind(value)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} {value!r}: {exc}") from exc
    if (isinstance(num, float) and not math.isfinite(num)) or (valid and not valid(num)):
        raise ConfigError(f"{what} {num!r} {why}")
    return num


def _num(params, key, default, kind=float):
    """``kind(params.get(key, default))``; a malformed or non-finite value is a config error."""
    return _number(f"bad parameter {key}:", params.get(key, default), kind, None, "is not finite")


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
    for k, value in cfg.model.get("params", {}).items():
        for v in value if isinstance(value, list) else [value]:
            _number(f"bad model spec: {k}", v, float, None, f"is not finite ({k} must be finite)")
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


def _problems(cfg: RunConfig, param=None, values=(None,)):
    """``(value, problem, diag, setup)`` of ``cfg`` with ``param`` at each of ``values``.

    ``param`` is a field of ``cfg`` or its model's horizon ``"K"``; without
    it the one item is ``cfg``'s.  ``setup`` is ``solver._setup_of`` at the
    problem's ``delta``: items share a tree and a set-up across ``beta`` and
    ``beta_margin``, and a tree and the delta-free part across ``delta``; a
    ``K`` item builds its tree when it is asked for.  Threshold data the
    set-up cannot represent, a ``delta`` the contraction weights cannot use
    and a ``beta`` that is not finite and >= 0 are config errors.
    """
    base = setup = None
    for value in values:
        change = {param: value} if param != "K" else {"model": {
            **cfg.model, "params": {**cfg.model.get("params", {}), "K": _whole(value)}}}
        sub = cfg if param is None else replace(cfg, **change)
        if base is None or param == "K":
            model, tree = _build_tree(sub)
            gen = _build_generator(sub.generator, tree)
            xi = _build_terminal(sub.terminal, tree.n_marks)
            base = solver.BsdeProblem(model=model, beta=0.0, xi=xi, f=gen, _tree=tree)
            setup = None
        if setup is None or param == "delta":
            try:
                setup = solver._setup_of(base, sub.delta, setup)
            except conditions.DenominatorNonpositive as exc:
                raise ConfigError(f"generator preset {cfg.generator.get('preset', 'zero')!r} with "
                                  f"params {cfg.generator.get('params', {})}: {exc}") from exc
        eps_star, delta, beta_min = setup.eps_star, setup.delta, setup.beta_min
        # an explicit delta the contraction weights cannot use is refused, as picard_solve
        # refuses it; a violated hypothesis is reported, at beta None under auto
        beta = sub.beta
        if beta == "auto":
            beta = None if beta_min is None else beta_min * sub.beta_margin
        if eps_star > 0 and beta_min is None and (beta is None or beta > 0):
            raise ConfigError(f"delta {delta!r} outside (0, {eps_star!r})")
        # BsdeProblem refuses a beta that is not finite and >= 0
        try:
            problem = base if beta is None else replace(base, beta=beta)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        diag = {"epsilon_star": eps_star, "beta_min": beta_min, "beta": beta, "delta": delta,
                "flagged": _flagged_rows(tree, setup.flagged, history=True)}
        yield value, problem, diag, setup


def _build_problem(cfg: RunConfig):
    """``(problem, diag)`` of a config: the one item of ``_problems``."""
    [(_, problem, diag, _)] = _problems(cfg)
    return problem, diag


def _out_dir(cfg: RunConfig) -> Path:
    """``cfg.out``, made a directory if it is none; one it cannot be is a config error."""
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out {cfg.out!r} cannot be a directory: {exc}") from exc
    return out


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
    [(_, problem, diag, setup)] = _problems(cfg)
    out = _out_dir(cfg)
    report = RunReport(seed=cfg.seed, conditions=diag)
    if diag["epsilon_star"] <= 0:
        code, note = EXIT_CONDITION, f"main hypothesis violated; no {noun} attempted"
        message = (f"condition violated: epsilon_star = {diag['epsilon_star']}, "
                   f"{len(diag['flagged'])} slot(s) flagged")
    else:
        try:
            # the set-up the diagnostics came from: picard_solve would make it again
            sol, rep = solver._picard_at(problem, setup, cfg.tol, cfg.max_iter)
            solved = (sol, rep, solver.backward_oracle(problem) if oracle else None)
            return EXIT_OK, problem, report, out, solved
        except solver.SolverError as exc:
            code = EXIT_SOLVER
            note = message = f"solver failure: {exc}"
    report.notes.append(note)
    _write_json(out / "summary.json", vars(report))
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
    _write_json(out / "summary.json", vars(report))
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
    report.checks = [vars(c) for c in checks]
    if problem.beta == 0:
        report.notes.append("beta = 0: integral inequality and a priori "
                            "estimate skipped (they need beta > 0)")
    _write_json(out / "summary.json", vars(report))
    _write_csv(out / "checks.csv", CHECK_HEADER, _check_rows(checks))
    failed = [c for c in checks if not c.passed]
    elapsed = time.perf_counter() - t0
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name:<22} "
              f"gap={c.abs_gap:.3e} (tol {c.tol:g}, {c.kind})")
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed [{elapsed:.3f}s]")
    return EXIT_OK if not failed else EXIT_SOLVER


def _sweep_rows(param: str, runs: list, cfg: RunConfig) -> list:
    """``sweep.csv`` rows of ``runs``, items of ``_problems`` that share a tree.

    The problems differ at most in ``beta`` and ``delta``, and each set-up
    is its problem's at its ``delta``, so one ``solver._picard`` serves them all.
    """
    sol, reports = solver._picard(runs[0][1], [(p.beta, setup) for _, p, _, setup in runs],
                                  cfg.tol, cfg.max_iter, None, True)
    rows = []
    for (v, _, diag, _), rep in zip(runs, reports):
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
    kind = (lambda v: float(_whole(v))) if param == "K" else float   # a K row shows a float
    values = [_number("bad sweep values:", v, kind, None, "is not finite")
              for v in cfg.sweep.get("values", [])]
    out = _out_dir(cfg)
    # a beta relative to beta_min is beta "auto" at a beta_margin of the value
    problems = (_problems(replace(cfg, beta="auto"), "beta_margin", values)
                if cfg.sweep.get("relative_to_beta_min") else _problems(cfg, param, values))
    batches = ([item] for item in problems) if param == "K" else [list(problems)]
    rows = [row for runs in batches if runs for row in _sweep_rows(param, runs, cfg)]
    _write_csv(out / "sweep.csv", SWEEP_HEADER, rows)
    elapsed = time.perf_counter() - t0
    print(f"swept {param} over {len(values)} value(s) -> {out / 'sweep.csv'} "
          f"[{elapsed:.3f}s]")
    return EXIT_OK


def _refuse_ignored(cfg: RunConfig, flags: dict) -> None:
    """``ConfigError`` on any input the counterexample run would not read.

    It reads the ``counterexample`` model's ``p``, ``K`` and ``t0_index``, a
    constant terminal's ``c``, ``seed`` and ``out``; it solves its own driver,
    so a ``--beta``, ``--delta`` or ``--tol`` in ``flags`` is refused at any value.
    """
    default = RunConfig(model={})
    ignored = [f"--{key}" if flags.get(key) is not None else key
               for key in ("generator", "beta", "beta_margin", "delta", "tol", "max_iter",
                           "sweep", "debug")
               if flags.get(key) is not None or getattr(cfg, key) != getattr(default, key)]
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
    out = _out_dir(cfg)
    _write_json(out / "summary.json",
                {"seed": cfg.seed, "p": p, "observed": observed})
    reproduced = bool(flagged) and oracle_singular and blew_up
    elapsed = time.perf_counter() - t0
    print(f"flagged={len(flagged)} oracle={observed['oracle']} "
          f"picard_diverged={observed['picard'].get('diverged')} [{elapsed:.3f}s]")
    return EXIT_OK if reproduced else EXIT_SOLVER


# -- entry point -----------------------------------------------------------------


COMMANDS = ("solve", "verify", "sweep", "counterexample")
# every flag and its help; each takes one value, as ``--flag value`` or ``--flag=value``
FLAGS = {"config": "JSON config (optional for counterexample)",
         "out": "output directory",
         "seed": "seed of the checks' random draws",
         "beta": "'auto' or a number",
         "delta": "contraction margin, in (0, epsilon_star)",
         "tol": "fixed-point residual tolerance"}
USAGE = (f"usage: treebsde [-h] {{{','.join(COMMANDS)}}}"
         + "".join(f" [--{name} {name.upper()}]" for name in FLAGS))


def _usage_error(problem: str):
    print(f"{USAGE}\ntreebsde: error: {problem}", file=sys.stderr)
    raise SystemExit(2)


def _read_argv(argv: list) -> tuple:
    """``(command, {flag name: value or None})`` of a command line.

    Flags go anywhere, the last of a name winning.  No abbreviation is
    read.  ``-h``/``--help`` prints the help and exits 0; any other misuse
    exits 2 with the usage line and the problem on stderr.
    """
    command, values = None, dict.fromkeys(FLAGS)
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            print(f"{USAGE}\n\nBackward equations on exact scenario trees\n\nflags:")
            for name, text in FLAGS.items():
                print(f"  {f'--{name} {name.upper()}':<17} {text}")
            raise SystemExit(0)
        if not arg.startswith("-"):
            if command is not None:
                _usage_error(f"extra argument {arg!r} after the command {command!r}")
            if arg not in COMMANDS:
                _usage_error(f"unknown command {arg!r} (choose from {', '.join(COMMANDS)})")
            command = arg
            continue
        name, eq, value = arg[2:].partition("=")
        if not arg.startswith("--") or name not in FLAGS:
            _usage_error(f"unknown flag {arg.partition('=')[0]}")
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                _usage_error(f"flag --{name} needs a value")
        # a number flag is read as JSON and parsed with the config, so a
        # malformed one is a config error
        values[name] = value if name in ("config", "out") else _flag(value)
    if command is None:
        _usage_error(f"missing command (choose from {', '.join(COMMANDS)})")
    return command, values


def _flag(text: str):
    """A number flag's JSON value; a flag that is not JSON, or is null, stays its text."""
    try:
        value = json.loads(text)
    except ValueError:
        return text
    return text if value is None else value


def main(argv=None) -> int:
    command, overrides = _read_argv(sys.argv[1:] if argv is None else argv)
    config = overrides.pop("config")
    try:
        if config is None and command != "counterexample":
            raise ConfigError("--config is required")
        cfg = RunConfig.load(config, overrides)
        if command == "counterexample":
            _refuse_ignored(cfg, overrides)
        # built per call, so a command rebound in this module (by a tracer) runs rebound
        handler = {"solve": cmd_solve, "verify": cmd_verify,
                   "sweep": cmd_sweep, "counterexample": cmd_counterexample}
        return handler[command](cfg)
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
