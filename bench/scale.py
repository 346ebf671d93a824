"""In-process stage timings and peak memory of a treebsde source tree.

Run from the root of a checkout:

    python3 bench/scale.py                              # this tree
    python3 bench/scale.py --old ../treebsde-main --new . --out BENCH.json

``--old`` and ``--new`` are checkout roots (each holds ``src/treebsde``).
Each case runs ``--repeat`` times per tree, every run in a fresh process
with ``PYTHONPATH`` set to that tree's ``src`` and one BLAS thread; the
trees alternate, and so does which of them runs first.  Each tree's ``src``
is byte-compiled once before the runs, into a temporary
``PYTHONPYCACHEPREFIX`` that its runs share, so that no run compiles it
and no ``__pycache__`` lands in the checkout: a compiled checkout measured
less ``peak_rss_mb`` and ``setup_s`` in ``perfbench`` than a fresh one, and
with ``PYTHONDONTWRITEBYTECODE`` set, the compile's allocations moved the
later stages' fault counts with the length of the source text (a 20-line
comment in ``measure_core.py`` moved ``two_state_k10_full``'s
``picard_solve`` faults from 2,307 to 3,298).  One untimed run of a small
config then fills the prefix with the rest of what a run imports (numpy
and the standard library, whose bytecode the prefix holds apart too).  A run
times, once each and in this order:

* ``build_tree``: enumerating the config's tree;
* ``build_problem``: the rest of the CLI's problem set-up on that tree
  (driver, terminal, hypothesis slack, ``beta_min``);
* ``picard_solve``: the fixed-point solve ``treebsde verify`` runs;
* ``backward_oracle``: the reference solve ``treebsde solve`` adds;
* ``run_suite``: the check suite on the Picard solution, with the time
  of each check inside it (the outermost call of the functions that
  ``run_suite`` calls for that check, whichever of them the tree has);
* ``sweep_beta``: ``cli.cmd_sweep`` over ``beta`` at 1, 2, 4 and 8 times
  ``beta_min`` of the config (``relative_to_beta_min``), tree build and
  ``sweep.csv`` included, after the run has dropped its own tree;

and reports the ``resource.getrusage`` peak RSS of the process at the end,
the driver rows the ``backward_oracle`` stage evaluates (summed over its
block driver calls, counted in the untimed ``tracemalloc`` run below: a
count that host noise cannot move),
the minor page faults of each stage (the ``ru_minflt`` delta: a count that
host noise does not move, where a stage time swings by a quarter between
rounds of unchanged code),
and the bytes of the built tree's arrays (``nbytes`` of every buffer that
the tree's numpy attributes, a merged tree's child map among them, its
``level_histories``, its plans (per level and of the whole tree) and
their slot blocks hold or view, each buffer once), in total and per node.  A tree that refuses a case's config (a tree over the node budget,
say) is recorded with its message instead.
After its timed runs, each tree runs each case once more under
``tracemalloc``, untimed, for each stage's peak of traced memory above what
the stage started with (numpy's buffers included); tracing slows every
allocation, so no time comes from that run.
The output is the median of each stage's time and faults over the runs, the
``tracemalloc`` peaks and the largest peak RSS, per tree and case, with the
host and library versions.  It is
a measurement, not a gate: nothing here fails on a slow tree.

The CLI's configs declare the state their presets read, so a tree that
merges histories by state solves them on its merged tree; the node counts
below are those of the full trees.  A case in ``FULL_TREE`` drops the
model's state before its build, so every stage but ``sweep_beta`` runs on
the full tree; ``sweep_beta`` goes through ``cli.cmd_sweep``, which builds
the CLI's merged tree.

The cases:

* ``verify_intensity_seed7``: the ``verify_intensity`` benchmark workload
  at seed 7 (K=16, one mark, 131,071 nodes);
* ``two_state_k12_m2``: the ``two_state_rule`` model with K=12 and two
  marks (797,161 nodes), the saturating driver and beta = 8;
* ``two_state_k10_full``: the same model and driver with K=10, its state
  dropped (``FULL_TREE``): 88,573 nodes that cannot merge, every slot with
  every child, so a full tree that reads each level's children as a view of
  the next nodes, and stores no child map, is measured;
* ``two_state_k13_m2``: the same model and driver with K=13 (2,391,484
  nodes, about 0.5 GiB peak RSS);
* ``pdmp_k11_m3``: unit jumps at every step (``pdmp_like``) with K=11 and
  three marks (265,720 nodes), the ``affine_z`` driver, the ``last_mark``
  terminal and ``beta = auto``: the ``sweep_unit_jumps`` workload's tree
  two steps deeper;
* ``pdmp_k10_full``: the same config with K=10, its state dropped
  (``FULL_TREE``): 88,573 nodes, every slot a unit jump with no no-jump
  child, so a full tree that reads its children through its child map is
  measured next to ``two_state_k10_full``;
* ``intensity_k256_m1``: the ``verify_intensity`` workload at seed 7 with
  K=256 (2^257 - 1 histories, 33,153 jump-count states): a full tree
  refuses it;
* ``two_state_k256_m2``: the ``solve_predictable`` workload at seed 7 with
  K=256, its jump sizes scaled by 9/256 and ``beta = auto`` (3^256 leaf
  histories, 65,793 (last outcome, jump count) states): the fixed-point
  solve runs 18 sweeps over 256 levels, so the per-level cost of a sweep
  shows;
* ``grid_k10_boundary_full``: ``deterministic_grid`` with K=10, m=2 and
  ``a = 0.9``, the ``saturating`` driver with ``cy = 0.78`` and a
  ``last_mark`` terminal, on its full tree (``FULL_TREE``, 88,573 nodes):
  ``dA * lip_y = 0.702`` on every slot (``2 q^2 = 0.986``, so the main
  hypothesis holds), the longest implicit steps of the cases.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SWEEP_BETAS = [1.0, 2.0, 4.0, 8.0]     # multiples of beta_min, as in sweep_unit_jumps
# cases built without the model's state
FULL_TREE = {"two_state_k10_full", "pdmp_k10_full", "grid_k10_boundary_full"}


def _cases() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True      # no __pycache__ in the checkout's perfbench
    import workloads
    verify_cfg, _ = workloads.verify_intensity(7)

    def two_state(K):
        return {
            "model": {"preset": "two_state_rule",
                      "params": {"K": K, "m": 2, "a_after_jump": 0.3, "a_after_no_jump": 0.6}},
            "generator": {"preset": "saturating", "params": {"c0": 0.3, "cy": 0.5, "cz": 0.7}},
            "terminal": {"preset": "jump_count", "params": {"scale": 1.0}},
            "beta": 8.0,
            "seed": 3,
        }

    def pdmp(K):
        return {
            "model": {"preset": "pdmp_like", "params": {"K": K, "m": 3, "phi": [0.2, 0.3, 0.5]}},
            "generator": {"preset": "affine_z", "params": {"c0": 0.1, "c1": 0.5}},
            "terminal": {"preset": "last_mark", "params": {"mark": 0, "scale": 1.0}},
            "beta": "auto",
            "seed": 3,
        }

    lattice, _ = workloads.solve_predictable(7, horizon=256)
    for key in ("a_after_jump", "a_after_no_jump"):
        lattice["model"]["params"][key] *= 9 / 256
    lattice["beta"] = "auto"
    boundary = {
        "model": {"preset": "deterministic_grid", "params": {"K": 10, "m": 2, "a": 0.9}},
        "generator": {"preset": "saturating", "params": {"c0": 0.05, "cy": 0.78, "cz": 0.5}},
        "terminal": {"preset": "last_mark", "params": {"mark": 0, "scale": -0.3}},
        "beta": 2.0,
        "seed": 3,
    }
    return {"verify_intensity_seed7": verify_cfg, "two_state_k12_m2": two_state(12),
            "two_state_k10_full": two_state(10),
            "two_state_k13_m2": two_state(13), "pdmp_k11_m3": pdmp(11),
            "pdmp_k10_full": pdmp(10),
            "intensity_k256_m1": workloads.verify_intensity(7, horizon=256)[0],
            "two_state_k256_m2": lattice, "grid_k10_boundary_full": boundary}


# the functions run_suite calls for each check: its check_* kernel, and for the
# norm sandwich the solution field's reduction ``_solution_sandwich``.  Older
# trees called private kernels, named after the check_* name of each, beside
# check_* wrappers that run_suite did not call (and, older still, the norm
# sandwich ``_worst_norm_equivalence``); a tree is timed on the names it has
CHECKS = {
    "identity_lemma": ("check_identity_lemma", "_identity_lemma_rows"),
    "integral_inequality": ("check_integral_inequality", "_worst_integral_inequality"),
    "apriori_estimate": ("check_apriori_estimate", "_apriori_estimate"),
    "norm_equivalence": ("check_norm_equivalence", "_solution_sandwich", "_norm_sandwich",
                         "_worst_norm_equivalence"),
    "lipschitz_bound": ("check_lipschitz", "_lipschitz_rows"),
    "jump_identity": ("check_solution_jump_identity", "_jump_identity"),
}
# the untimed run that fills a tree's bytecode prefix: every stage, on a small tree
WARM_UP = {"model": {"preset": "deterministic_grid", "params": {"K": 2, "m": 2, "a": 0.4}},
           "generator": {"preset": "saturating", "params": {"c0": 0.3, "cy": 0.5, "cz": 0.7}},
           "beta": 8.0}


def _child(config_path: str, full: bool, traced: bool) -> None:
    """One run of one case in this process; prints its JSON record.

    ``full``: build the config's model without its state (``FULL_TREE``).
    ``traced``: run under ``tracemalloc`` and record each stage's peak.
    """
    import contextlib
    import dataclasses
    import functools
    import inspect
    import io
    import resource
    import time
    import tracemalloc

    import numpy as np
    from treebsde import cli, scenarios, solver, verification
    from treebsde.measure_core import SlotBlock

    stages, faults, peaks, checks = {}, {}, {}, dict.fromkeys(CHECKS, 0.0)
    depth = [0]
    if traced:
        tracemalloc.start()

    @contextlib.contextmanager
    def stage(name):
        """Time, minor faults and (when traced) peak traced MiB of the block."""
        if traced:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        yield
        stages[name] = time.perf_counter() - t0
        faults[name] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
        if traced:
            peaks[name] = round((tracemalloc.get_traced_memory()[1] - start) / 2 ** 20, 3)

    def timed(check, fn):
        def record(t0):
            depth[0] -= 1
            if depth[0] == 0:
                checks[check] += time.perf_counter() - t0

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                depth[0] += 1
                t0 = time.perf_counter()
                rows = list(fn(*args, **kwargs))
                record(t0)
                return iter(rows)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                depth[0] += 1
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record(t0)
        return wrapper

    cfg = cli.RunConfig.load(config_path)
    try:
        with stage("build_tree"):
            if full:
                model = scenarios.ModelSpec(cfg.model["preset"], cfg.model.get("params", {}),
                                            cfg.terminal.get("preset", "constant")).build()
                model = dataclasses.replace(model, state=None)
                built = (model, solver.build_tree(model))
            else:
                built = cli._build_tree(cfg)
    except cli.ConfigError as exc:
        print(json.dumps({"refused": str(exc)}))
        return
    tree = built[1]
    # the arrays of the tree, of its plans (the levels' and the whole tree's) and
    # of the plans' slot blocks, each counted by the buffer it views, once
    plans = list(getattr(tree, "_levels", ())) + [getattr(tree, "_slot_rows", None)]
    fields = list(vars(tree).values()) + list(tree.level_histories)
    fields += [v for lv in plans if lv is not None for v in vars(lv).values()]
    fields += [v for f in fields if isinstance(f, SlotBlock) for v in vars(f).values()]
    owners = {}
    for a in fields:
        while isinstance(a, np.ndarray) and isinstance(a.base, np.ndarray):
            a = a.base
        if isinstance(a, np.ndarray):
            owners[id(a)] = a
    tree_bytes = sum(a.nbytes for a in owners.values())
    # the CLI's problem set-up, on the tree just built: its one builder reads
    # the tree through cli._build_tree, rebound for this stage only
    build, cli._build_tree = cli._build_tree, lambda _cfg: built
    with stage("build_problem"):
        problem, diag = cli._build_problem(cfg)
    cli._build_tree = build
    with stage("picard_solve"):
        sol, rep = solver.picard_solve(problem, tol=cfg.tol, max_iter=cfg.max_iter,
                                       delta=diag["delta"])
    oracle_rows = [0]
    if traced:      # the untimed run counts the driver rows the oracle evaluates
        checked = solver.Generator._checked

        def counted(self, block, y, zeta):
            oracle_rows[0] += len(y)
            return checked(self, block, y, zeta)

        solver.Generator._checked = counted
    with stage("backward_oracle"):
        solver.backward_oracle(problem)
    if traced:
        solver.Generator._checked = checked

    for check, names in CHECKS.items():
        for name in names:
            if hasattr(verification, name):
                setattr(verification, name, timed(check, getattr(verification, name)))
    with stage("run_suite"):
        results = verification.run_suite(problem, sol, seed=cfg.seed)

    record = {
        "nodes": tree.n_nodes, "slots": tree.n_slots, "sweeps": rep.iterations,
        "failed_checks": sum(1 for r in results if not r.passed),
        "tree_bytes": tree_bytes, "tree_bytes_per_node": round(tree_bytes / tree.n_nodes, 2),
        "stages_s": stages, "stages_minflt": faults, "run_suite_checks_s": checks,
    }
    # the sweep builds its own tree, so the first one goes before it
    del built, tree, fields, owners, problem, diag, sol, rep, results
    sweep = {"param": "beta", "values": SWEEP_BETAS, "relative_to_beta_min": True}
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        with stage("sweep_beta"):
            cli.cmd_sweep(dataclasses.replace(cfg, sweep=sweep, out=out))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        record["stages_tracemalloc_peak_mb"] = peaks
        record["oracle_driver_rows"] = oracle_rows[0]
    print(json.dumps(record))


def _run(src: Path, prefix: Path, config_path: Path, full: bool, traced: bool = False) -> dict:
    """One run of a case in a fresh process on the tree ``src``, with its bytecode in ``prefix``."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(src / "src")
    env["PYTHONPYCACHEPREFIX"] = str(prefix)
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--child", str(config_path)] + ["--full"] * full
                          + ["--tracemalloc"] * traced,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(runs: list, traced: dict) -> dict:
    """Medians of the timed ``runs``, with the peaks of the ``traced`` run."""
    if "refused" in runs[0]:
        return {"refused": runs[0]["refused"], "runs": len(runs)}

    def med(key):
        return {k: round(statistics.median(r[key][k] for r in runs), 5) for k in runs[0][key]}

    first = runs[0]
    return {"nodes": first["nodes"], "slots": first["slots"], "sweeps": first["sweeps"],
            "failed_checks": first["failed_checks"], "runs": len(runs),
            "tree_bytes": first["tree_bytes"], "tree_bytes_per_node": first["tree_bytes_per_node"],
            "stages_s": med("stages_s"), "stages_minflt": med("stages_minflt"),
            "stages_tracemalloc_peak_mb": traced["stages_tracemalloc_peak_mb"],
            "oracle_driver_rows": traced["oracle_driver_rows"],
            "run_suite_checks_s": med("run_suite_checks_s"),
            "peak_rss_mb": round(max(r["peak_rss_mb"] for r in runs), 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--old", type=Path, help="checkout root of the baseline tree")
    ap.add_argument("--new", type=Path, default=ROOT, help="checkout root to measure")
    ap.add_argument("--repeat", type=int, default=5, help="runs per case and tree")
    ap.add_argument("--case", action="append", help="run only this case (repeatable)")
    ap.add_argument("--out", type=Path, help="write the JSON here as well")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--full", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--tracemalloc", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        _child(args.child, args.full, args.tracemalloc)
        return 0

    import numpy as np
    trees = {"old": args.old, "new": args.new} if args.old else {"new": args.new}
    cases = _cases()
    out = {"host": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "platform": platform.platform()},
           "repeat": args.repeat, "cases": {}}
    with tempfile.TemporaryDirectory() as tmp:
        prefixes = {key: Path(tmp) / f"pycache-{key}" for key in trees}
        warm_up = Path(tmp) / "warm_up.json"
        warm_up.write_text(json.dumps(WARM_UP))
        for key, tree in trees.items():
            env = {**os.environ, "PYTHONPYCACHEPREFIX": str(prefixes[key])}
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree.resolve() / "src")],
                           env=env, check=True, capture_output=True)
            _run(tree.resolve(), prefixes[key], warm_up, False)
        for name in args.case or cases:
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(cases[name]))
            runs = {key: [] for key in trees}
            full = name in FULL_TREE
            for i in range(args.repeat):      # alternate the trees run by run, and which goes first
                for key in list(trees)[::1 if i % 2 == 0 else -1]:
                    runs[key].append(_run(trees[key].resolve(), prefixes[key], path, full))
            out["cases"][name] = {"config": cases[name], **{
                key: _summary(r, _run(trees[key].resolve(), prefixes[key], path, full,
                                      traced=True))
                for key, r in runs.items()}}
            print(f"{name}: " + "  ".join(
                f"{key} refused" if "refused" in out["cases"][name][key] else
                f"{key} run_suite {out['cases'][name][key]['stages_s']['run_suite']:.3f} s, "
                f"sweep_beta {out['cases'][name][key]['stages_s']['sweep_beta']:.3f} s, "
                f"rss {out['cases'][name][key]['peak_rss_mb']:.1f} MiB" for key in trees),
                file=sys.stderr)
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
