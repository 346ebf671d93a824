"""Batch front door: config in, solver runs and machine-readable reports out.

Subcommands: ``solve`` (fixed-point solve cross-checked against the
backward oracle), ``verify`` (full check suite), ``sweep`` (grid over
beta, delta or the horizon), ``counterexample`` (reproduce the blow-up
regime).  Config is one JSON document; flags override its scalar fields.
Reports are CSV tables plus ``summary.json``; they contain no wall-clock
data, so identical config and seed produce byte-identical files (timing
goes to the console).

Exit codes: 0 ok; 1 config error; 2 main-hypothesis violation;
3 solver failure or failed verification check.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import conditions, norms, scenarios, solver, verification

__all__ = ["RunConfig", "RunReport", "main", "cmd_solve", "cmd_verify",
           "cmd_sweep", "cmd_counterexample"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONDITION = 2
EXIT_SOLVER = 3


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
        malformed is a ``ConfigError``.
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
        if not isinstance(cfg.out, str):
            raise ConfigError(f"out must be a path, not {cfg.out!r}")
        try:
            cfg.beta_margin = float(cfg.beta_margin)
            cfg.tol = float(cfg.tol)
            cfg.max_iter = int(cfg.max_iter)
            cfg.seed = int(cfg.seed)
            if cfg.seed < 0:
                raise ValueError(f"seed {cfg.seed} is negative")
            if cfg.delta is not None:
                cfg.delta = float(cfg.delta)
            if cfg.beta != "auto":
                cfg.beta = float(cfg.beta)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad numeric field: {exc}") from exc
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


def _num(params, key, default, kind=float):
    """``kind(params.get(key, default))``; a malformed value is a config error."""
    value = params.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameter {key}: {value!r}") from exc


def _build_generator(spec, tree) -> solver.Generator:
    preset = spec.get("preset", "zero")
    p = spec.get("params", {})
    if preset == "zero":
        return solver.Generator.zero()
    if preset == "constant":
        c0 = _num(p, "c0", 0.0)
        return solver.Generator.batched(lambda block, y, zeta: np.full(y.shape, c0),
                                        lip_y=0.0, lip_z=0.0)
    if preset == "affine_y":
        c0, c1 = _num(p, "c0", 0.0), _num(p, "c1", 0.0)
        return solver.Generator.batched(lambda block, y, zeta: c0 + c1 * y,
                                        lip_y=abs(c1), lip_z=0.0)
    if preset == "affine_z":
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

        return solver.Generator.batched(fn, lip_y=0.0, lip_z=lip)
    if preset == "saturating":
        c0, cy, cz = _num(p, "c0", 0.0), _num(p, "cy", 0.0), _num(p, "cz", 0.0)
        return solver.Generator.batched(
            lambda block, y, zeta: c0 + cy * np.tanh(y)
            + cz * np.tanh(norms.lipschitz_seminorm_rows(zeta, block)),
            lip_y=abs(cy), lip_z=abs(cz))
    raise ConfigError(f"unknown generator preset {preset!r}")


def _build_terminal(spec):
    preset = spec.get("preset", "constant")
    p = spec.get("params", {})
    if preset == "constant":
        return scenarios.xi_constant(_num(p, "c", 0.0))
    if preset == "jump_count":
        return scenarios.xi_jump_count(_num(p, "scale", 1.0))
    if preset == "last_mark":
        return scenarios.xi_last_mark_indicator(_num(p, "mark", 0, int), _num(p, "scale", 1.0))
    raise ConfigError(f"unknown terminal preset {preset!r}")


def _build_tree(cfg: RunConfig):
    """Construct the model of a config and enumerate its tree.

    A bad model section, an invalid rule value and a tree over the node
    budget (``TreeTooLarge``) are config errors.
    """
    try:
        model = scenarios.ModelSpec(cfg.model["preset"],
                                    cfg.model.get("params", {})).build()
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model spec: {exc}") from exc
    try:
        return model, solver.build_tree(model)
    except ValueError as exc:
        raise ConfigError(f"bad model: {exc}") from exc


def _build_problem(cfg: RunConfig, built=None):
    """Construct the problem and the condition diagnostics from a config.

    ``built`` is a ``(model, tree)`` pair from ``_build_tree`` to reuse;
    it must come from a config with the same model section.
    """
    model, tree = built or _build_tree(cfg)
    gen = _build_generator(cfg.generator, tree)
    xi = _build_terminal(cfg.terminal)

    eps_star = conditions.check_main_hypothesis(tree, gen.lip_y)
    flagged = conditions.detect_counterexample(tree, gen.lip_y)
    delta = cfg.delta
    if delta is None and eps_star > 0:
        delta = eps_star / 2.0
    beta_min = None
    if eps_star > 0 and delta is not None and 0 < delta < eps_star:
        beta_min = conditions.beta_threshold(tree, gen.lip_y, gen.lip_z, delta)
    # an explicit delta the contraction weights cannot use is refused, as
    # picard_solve refuses it; a violated hypothesis is reported instead
    bad_delta = eps_star > 0 and beta_min is None
    if cfg.beta == "auto":
        if beta_min is None:
            raise ConfigError(f"delta {delta!r} outside (0, {eps_star!r})" if bad_delta
                              else "beta=auto needs the main hypothesis to hold")
        beta = beta_min * cfg.beta_margin
    else:
        beta = cfg.beta
        if bad_delta and beta > 0:
            raise ConfigError(f"delta {delta!r} outside (0, {eps_star!r})")
    if beta < 0:
        raise ConfigError(f"beta {beta!r} is negative")

    problem = solver.BsdeProblem(model=model, beta=beta, xi=xi, f=gen, _tree=tree)
    diag = {
        "epsilon_star": eps_star,
        "beta_min": beta_min,
        "beta": beta,
        "delta": delta,
        "flagged": [
            {"step": s.step, "history": list(s.history),
             "delta_A": s.delta_A, "value": v}
            for s, v in flagged
        ],
    }
    return problem, diag


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


def _check_dict(c: verification.CheckResult) -> dict:
    d = asdict(c)
    d["passed"] = bool(c.passed)
    return d


def _iteration_rows(report: solver.SolveReport):
    rows = []
    for i, dn in enumerate(report.diff_norms, start=1):
        ratio = report.ratio_sq[i - 2] if i >= 2 and len(report.ratio_sq) >= i - 1 else ""
        rows.append((i, float(dn), float(ratio) if ratio != "" else "", report.y_sup[i - 1]))
    return rows


def _solver_dict(sol, rep, tree, beta):
    return {
        "Y0": float(sol.Y[0]),
        "iterations": rep.iterations,
        "converged": rep.converged,
        "residual": rep.residual,
        "diff_norms": [float(x) for x in rep.diff_norms],
        "ratio_sq": [float(x) for x in rep.ratio_sq],
        "y_norm_sq": norms.y_norm_sq(sol.Y, tree, beta),
        "z_norm_sq": norms.z_norm_sq(sol.Z, tree, beta),
    }


# -- subcommands ----------------------------------------------------------------


def _solved(cfg: RunConfig, noun: str, oracle: bool = False):
    """Build, check and Picard-solve a config: the start ``solve`` and ``verify`` share.

    Returns ``(code, problem, report, out, (solution, solve_report, oracle))``;
    a nonzero ``code`` comes with the summary written and no solution.
    """
    problem, diag = _build_problem(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    report = RunReport(seed=cfg.seed, conditions=diag)
    if diag["epsilon_star"] <= 0:
        code, note = EXIT_CONDITION, f"main hypothesis violated; no {noun} attempted"
        message = (f"condition violated: epsilon_star = {diag['epsilon_star']}, "
                   f"{len(diag['flagged'])} slot(s) flagged")
    else:
        try:
            sol, rep = solver.picard_solve(problem, tol=cfg.tol,
                                           max_iter=cfg.max_iter, delta=diag["delta"])
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
    _write_json(out / "summary.json", asdict(report))
    _write_csv(out / "iterations.csv", ITER_HEADER, _iteration_rows(rep))
    elapsed = time.perf_counter() - t0
    print(f"Y0 = {float(sol.Y[0])!r}  iterations = {rep.iterations}  "
          f"residual = {rep.residual:.3e}  oracle gap = {sdict['y0_gap']:.3e}  "
          f"[{elapsed:.3f}s]")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    code, problem, report, out, solved = _solved(cfg, "verification")
    if code:
        return code
    sol, rep, _ = solved
    rng = np.random.default_rng(cfg.seed)
    c_scale = 0.0 if cfg.debug.get("wrong_c_beta") else 1.0
    checks = verification.run_suite(problem, sol, rng=rng, c_scale=c_scale)
    report.solver = _solver_dict(sol, rep, problem.tree(), problem.beta)
    report.checks = [_check_dict(c) for c in checks]
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


def cmd_sweep(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    if not isinstance(cfg.sweep, dict) or not cfg.sweep:
        raise ConfigError("sweep needs a 'sweep' section in the config")
    param = cfg.sweep.get("param")
    if param not in ("beta", "delta", "K"):
        raise ConfigError("sweep param must be one of beta, delta, K")
    try:
        values = [float(v) for v in cfg.sweep.get("values", [])]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep value: {exc}") from exc
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    # beta and delta leave the model alone: one tree serves every value
    built = _build_tree(cfg) if param != "K" and values else None
    relative = param == "beta" and values and cfg.sweep.get("relative_to_beta_min")
    if relative:
        beta_min = _build_problem(cfg, built)[1]["beta_min"]
        if beta_min is None:
            raise ConfigError("relative beta sweep needs a valid beta_min")
    for v in values:
        if param == "beta":
            sub = replace(cfg, beta=v * beta_min if relative else v)
        elif param == "delta":
            sub = replace(cfg, delta=v)
        else:
            sub = replace(cfg, model={**cfg.model,
                                      "params": {**cfg.model.get("params", {}), "K": int(v)}})
        problem, diag = _build_problem(sub, built)
        try:
            sol, rep = solver.picard_solve(problem, tol=sub.tol,
                                           max_iter=sub.max_iter, delta=diag["delta"])
            worst = max(rep.ratio_sq) if rep.ratio_sq else ""
            rows.append((param, v, diag["beta"], diag["delta"],
                         int(rep.converged), rep.iterations, worst,
                         float(sol.Y[0]), rep.residual))
        except solver.NoConvergence as exc:
            rep = exc.report
            worst = max(rep.ratio_sq) if rep and rep.ratio_sq else ""
            rows.append((param, v, diag["beta"], diag["delta"], 0,
                         rep.iterations if rep else cfg.max_iter, worst, "", ""))
    _write_csv(out / "sweep.csv", SWEEP_HEADER, rows)
    elapsed = time.perf_counter() - t0
    print(f"swept {param} over {len(values)} value(s) -> {out / 'sweep.csv'} "
          f"[{elapsed:.3f}s]")
    return EXIT_OK


def cmd_counterexample(cfg: RunConfig) -> int:
    """Reproduce the blow-up regime end to end and report what happened."""
    t0 = time.perf_counter()
    params = cfg.model.get("params", {})
    p = _num(params, "p", 0.5)
    K, t0_index = _num(params, "K", 1, int), _num(params, "t0_index", 0, int)
    xi_scale = _num(cfg.terminal.get("params", {}), "c", 5e4)
    try:
        model, gen = scenarios.counterexample_model(p, t0_index=t0_index, K=K)
    except ValueError as exc:
        raise ConfigError(f"bad model spec: {exc}") from exc
    problem = solver.BsdeProblem(model=model, beta=0.0,
                                 xi=scenarios.xi_constant(xi_scale), f=gen)
    tree = problem.tree()
    flagged = conditions.detect_counterexample(tree, gen.lip_y)
    observed = {"flagged": [{"step": s.step, "delta_A": s.delta_A, "value": v}
                            for s, v in flagged]}
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
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "sweep", "counterexample"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="JSON config (optional for counterexample)")
        sp.add_argument("--out", default=None, help="output directory")
        # values are parsed with the config, so a malformed one is a config error
        sp.add_argument("--seed", default=None)
        sp.add_argument("--beta", default=None, help="'auto' or a number")
        sp.add_argument("--delta", default=None)
        sp.add_argument("--tol", default=None)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {"out": args.out, "seed": args.seed, "beta": args.beta,
                 "delta": args.delta, "tol": args.tol}
    try:
        if args.config is None and args.command != "counterexample":
            raise ConfigError("--config is required")
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
