"""treebsde benchmark: the real CLI on fixed workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve_predictable --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``solve_predictable``: ``solve`` on the two-state rule, K=9, m=2.
* ``verify_intensity``: ``verify`` on discretized intensity, K=16, m=1.
* ``sweep_unit_jumps``: ``sweep`` over beta on unit jumps, K=9, m=3.

The seed draws the workload's numeric parameters and nothing else; only the
generated config reaches the CLI.  Each sample is one fresh process
(``child.py``) running one CLI command, with BLAS/OpenMP threads pinned to 1.
Samples repeat until ``--seconds`` is spent (at least two rounds), and each metric is
the median over the samples.

``--trace 0`` reports the end-to-end metrics: ``wall_norm_s`` and
``cpu_norm_s``, the wall and CPU time of the command; ``peak_rss_mb`` of the
process; and ``setup_s``, the time from process start until ``treebsde.cli``
is imported and the config loaded.  The three times are normalised to a
reference host speed by the in-process probe of ``child.py``: the load of
other machines on the shared host swings raw times by up to half, in phases
longer than a run.  The raw times are in ``result.json`` and the printed
report.  ``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of the traced ones (``tracer.py``, raw times), plus
``trace.overhead_s``, the traced minus the untraced ``wall_norm_s``.

Every sample passes a correctness gate or counts as failed: exit code 0, the
workload's checks on its reports against an independent reference Y0 (1e-8),
and reports byte-identical to the first sample's.  All files go to
``.bench_out/<workload>/seed-<seed>-trace-<t>/``, including ``result.json``
with the seed, the resolved parameters, the environment and every sample.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 60         # a sample normally takes a few seconds

END_TO_END = {"wall_norm_s": "s", "cpu_norm_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
RAW = {"raw_wall_s": "s", "raw_cpu_s": "s", "raw_setup_s": "s"}   # printed, not metrics
PER_LAYER = {
    "measure_core.build_tree_s": "s",
    "measure_core.build_tree_calls": "count",
    "measure_core.nodes": "count",
    "measure_core.slots": "count",
    "measure_core.slot_views_s": "s",
    "measure_core.doleans_s": "s",
    "measure_core.distinct_tree_ratio": "ratio",
    "conditions.threshold_s": "s",
    "conditions.calls": "count",
    "solver.picard_solve_s": "s",
    "solver.picard_self_s": "s",
    "solver.sweeps": "count",
    "solver.generator_calls": "count",
    "solver.backward_oracle_s": "s",
    "solver.implicit_steps": "count",
    "solver.terminal_values_s": "s",
    "norms.s": "s",
    "norms.calls": "count",
    "verification.run_suite_s": "s",
    "verification.identity_lemma_s": "s",
    "verification.apriori_s": "s",
    "verification.norm_equivalence_s": "s",
    "verification.lipschitz_s": "s",
    "verification.integral_inequality_s": "s",
    "verification.jump_identity_s": "s",
    "verification.checks_failed": "count",
    "scenarios.callback_calls": "count",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def environment(env: dict) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "threads": {var: env.get(var) for var in THREAD_VARS},
    }


def _digest(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _run_child(rep: int, traced: bool, command: str, cfg: Path, work: Path,
               env: dict) -> dict:
    rep_dir = work / f"rep-{rep:03d}-{'traced' if traced else 'plain'}"
    rep_dir.mkdir()
    out, res = rep_dir / "out", rep_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--command", command,
           "--config", str(cfg), "--out", str(out), "--result", str(res)]
    if traced:
        cmd += ["--trace", str(rep_dir / "trace.json")]
    with open(rep_dir / "console.txt", "w", encoding="utf-8") as console:
        cmd += ["--spawn-ns", str(time.monotonic_ns())]
        try:
            code = subprocess.run(cmd, stdout=console, stderr=subprocess.STDOUT,
                                  env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = None
    sample = {"rep": rep, "traced": traced, "exit_code": code, "out": out}
    if res.is_file():
        sample.update(json.loads(res.read_text(encoding="utf-8")))
    return sample


def _gate(samples: list, check, reference: float, tol: float) -> None:
    """Attach ``problems`` (empty when the sample passes) and ``info`` to each sample."""
    first_digest = None
    for s in samples:
        problems = []
        if s["exit_code"] != 0:
            problems.append(f"exit code {s['exit_code']}")
        try:
            found, s["info"] = check(s["out"], reference, tol)
            problems += found
            digest = _digest(s["out"])
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"unreadable report: {exc!r}")
            digest = None
        if digest is not None:
            if first_digest is None:
                first_digest = (s["rep"], digest)
            elif digest != first_digest[1]:
                problems.append(f"reports differ from sample {first_digest[0]}")
        s["problems"] = problems


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, work: Path,
                  horizon: int | None = None, debug: dict | None = None) -> dict:
    """Run one workload for ``seconds`` and return the full result record.

    ``horizon`` shrinks the workload (used by the self-test); ``debug`` is
    copied into the config's ``debug`` section.
    """
    command, make_config, reference_of, check = workloads.WORKLOADS[name]
    config, params = make_config(seed) if horizon is None else make_config(seed, horizon)
    if debug:
        config["debug"] = dict(debug)
    reference = reference_of(params)
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    env = child_env()

    kinds = (False, True) if trace else (False,)
    samples: list[dict] = []
    start = time.monotonic()
    while True:
        for traced in kinds:
            samples.append(_run_child(len(samples), traced, command, cfg_path, work, env))
        elapsed = time.monotonic() - start
        rounds = len(samples) // len(kinds)
        if rounds >= 2 and elapsed + elapsed / rounds > seconds:
            break
    _gate(samples, check, reference, config["tol"])

    plain = [s for s in samples if not s["traced"] and "wall_norm_s" in s]
    traced = [s for s in samples if s["traced"] and "layers" in s]
    if not plain or (trace and not traced):
        raise RuntimeError(f"no sample finished its measurement; see {work}")
    metrics = {key: _median(plain, key) for key in END_TO_END}
    layers = {}
    if trace:
        layers = {key: statistics.median(s["layers"][key] for s in traced)
                  for key in PER_LAYER if key != "trace.overhead_s"}
        layers["trace.overhead_s"] = _median(traced, "wall_norm_s") - metrics["wall_norm_s"]
    failed = sum(1 for s in samples if s["problems"])
    for s in samples:
        s["out"] = str(Path(s["out"]).relative_to(ROOT))
    record = {
        "workload": name, "command": command, "seed": seed, "trace": int(trace),
        "seconds": seconds, "params": params, "config": config,
        "reference_Y0": reference, "environment": environment(env),
        "attempted": len(samples), "failed": failed, "correct": failed == 0,
        "metrics": metrics, "layers": layers, "samples": samples,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n",
                                      encoding="utf-8")
    return record


def final_line(record: dict) -> dict:
    units, values = ((PER_LAYER, record["layers"]) if record["trace"]
                     else (END_TO_END, record["metrics"]))
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def print_report(record: dict) -> None:
    print(f"treebsde benchmark: workload {record['workload']} ({record['command']}), "
          f"seed {record['seed']}, trace {record['trace']}")
    print(f"params: {json.dumps(record['params'], sort_keys=True)}")
    env = record["environment"]
    print(f"environment: nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"threads {json.dumps(env['threads'], sort_keys=True)}")
    print(f"samples: {record['attempted']} attempted, {record['failed']} failed")
    for s in record["samples"]:
        info = s.get("info", {})
        gap = f", oracle gap {info['oracle_gap']:.3e}" if "oracle_gap" in info else ""
        print(f"  sample {s['rep']:3d} {'traced' if s['traced'] else 'plain '} "
              f"exit {s['exit_code']}, Y0 {info.get('Y0')!r} (reference "
              f"{record['reference_Y0']!r}){gap}"
              + (f"  FAILED: {'; '.join(s['problems'])}" if s["problems"] else ""))
    plain = [s for s in record["samples"] if not s["traced"] and "wall_norm_s" in s]
    for key, unit in {**END_TO_END, **RAW}.items():
        values = [s[key] for s in plain]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"  {key:<38} {statistics.median(values):>14.6f} {unit:<5} "
              f"(median of {len(plain)}, quartiles {q1:.6f} .. {q3:.6f})")
    for key, unit in PER_LAYER.items() if record["trace"] else ():
        print(f"  {key:<38} {record['layers'][key]:>14.6f} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "treebsde" / "cli.py").is_file():
        print(f"perfbench: no treebsde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_out" / args.workload / f"seed-{args.seed}-trace-{args.trace}"
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), work)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_report(record)
    print(json.dumps(final_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
