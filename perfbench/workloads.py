"""The benchmark's three workloads: configs drawn from a seed, references, gates.

Each workload turns ``--seed`` into one treebsde config.  The seed draws the
numeric parameters only (jump sizes, mark laws, generator coefficients, terminal
scale and the verify RNG seed); the tree shape, the node count and whether the
main hypothesis holds are the same for every seed.

The reference Y0 of each workload is computed here, independently of the
package, from the drawn parameters:

* ``solve_predictable``: the two-state rule and the jump-count terminal make
  the value a function of (step, last outcome was a jump, jump count), so a
  backward induction over that recombining lattice (O(K^2) states, each
  implicit step solved by Newton) gives the exact value.
* ``verify_intensity``: a constant generator on deterministic jump sizes gives
  ``Y0 = (scale + c0) * sum(dA_k)`` in closed form.
* ``sweep_unit_jumps``: with a unit jump at every step only the last step
  carries information, so ``Y0 = scale*p + c0*K + c1*|scale|*sqrt(p(1-p))``
  with ``p`` the probability of the indicated mark, for every beta.

Pure Python on purpose: the harness process imports neither numpy nor
treebsde, so it neither shares code with the program it checks nor pays
their import time.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

Y0_TOL = 1e-8          # reference and oracle agreement, absolute


def _draw(seed: int, name: str) -> random.Random:
    # one stream per workload, so a seed means different draws per workload
    return random.Random(f"{name}:{int(seed)}")


# -- solve_predictable ---------------------------------------------------------


def solve_predictable(seed: int, horizon: int = 9) -> tuple[dict, dict]:
    rng = _draw(seed, "solve_predictable")
    p0 = rng.uniform(0.4, 0.6)
    params = {
        "K": horizon, "m": 2,
        "a_after_jump": rng.uniform(0.25, 0.35),
        "a_after_no_jump": rng.uniform(0.55, 0.65),
        "phi": [p0, 1.0 - p0],
        "c0": rng.uniform(0.1, 0.3),
        "cy": rng.uniform(0.38, 0.42),
        "cz": rng.uniform(0.76, 0.84),
        "scale": rng.uniform(0.4, 0.6),
        "beta": 8.0,
    }
    config = {
        "model": {"preset": "two_state_rule",
                  "params": {k: params[k] for k in
                             ("K", "m", "a_after_jump", "a_after_no_jump", "phi")}},
        "generator": {"preset": "saturating",
                      "params": {k: params[k] for k in ("c0", "cy", "cz")}},
        "terminal": {"preset": "jump_count", "params": {"scale": params["scale"]}},
        "beta": params["beta"],
        "tol": 1e-10,
        "seed": int(seed),
    }
    return config, params


def _implicit_root(const: float, da: float, cy: float) -> float:
    """Root of ``y = const + da*cy*tanh(y)`` by Newton (slope 1 - da*cy*sech^2 > 0)."""
    y = const
    for _ in range(100):
        t = math.tanh(y)
        step = (y - const - da * cy * t) / (1.0 - da * cy * (1.0 - t * t))
        y -= step
        if abs(step) <= 1e-16 * max(1.0, abs(y)):
            break
    return y


def solve_predictable_reference(params: dict) -> float:
    K = params["K"]
    aj, an = params["a_after_jump"], params["a_after_no_jump"]
    c0, cy, cz, scale = params["c0"], params["cy"], params["cz"], params["scale"]
    # value[(last_was_jump, jump_count)] at the current depth; leaves first
    value = {(lj, c): scale * c for lj in (0, 1) for c in range(K + 1)}
    for k in range(K - 1, -1, -1):
        nxt = {}
        for lj in (0, 1):
            for c in range(k + 1):
                da = aj if (k > 0 and lj) else an
                vj, vn = value[(1, c + 1)], value[(0, c)]
                # every mark child shares vj, so the field row is (vj - vn) * 1
                # and its Lipschitz seminorm is |vj - vn| * sqrt(1 - da)
                const = (da * vj + (1.0 - da) * vn
                         + da * (c0 + cz * math.tanh(abs(vj - vn) * math.sqrt(1.0 - da))))
                nxt[(lj, c)] = _implicit_root(const, da, cy)
        value = nxt
    return value[(0, 0)]


# -- verify_intensity --------------------------------------------------------------


def verify_intensity(seed: int, horizon: int = 16) -> tuple[dict, dict]:
    rng = _draw(seed, "verify_intensity")
    params = {
        "K": horizon, "m": 1,
        "lam": rng.uniform(0.8, 1.2),
        "c0": rng.uniform(0.1, 0.5),
        "scale": rng.uniform(0.4, 0.6),
        "beta": 1.0,
        "rng_seed": rng.randrange(2 ** 31),
    }
    config = {
        "model": {"preset": "discretized_intensity",
                  "params": {k: params[k] for k in ("lam", "K", "m")}},
        "generator": {"preset": "constant", "params": {"c0": params["c0"]}},
        "terminal": {"preset": "jump_count", "params": {"scale": params["scale"]}},
        "beta": params["beta"],
        "tol": 1e-10,
        "seed": params["rng_seed"],
    }
    return config, params


def verify_intensity_reference(params: dict) -> float:
    K, lam = params["K"], params["lam"]
    expected_jumps = sum(1.0 - math.exp(-lam * (1.0 / K)) for _ in range(K))
    return (params["scale"] + params["c0"]) * expected_jumps


# -- sweep_unit_jumps ---------------------------------------------------------------


def sweep_unit_jumps(seed: int, horizon: int = 9) -> tuple[dict, dict]:
    rng = _draw(seed, "sweep_unit_jumps")
    w = [rng.uniform(0.5, 1.5) for _ in range(3)]
    params = {
        "K": horizon, "m": 3,
        "phi": [x / sum(w) for x in w],
        "c0": rng.uniform(0.05, 0.15),
        "c1": rng.uniform(0.4, 0.6),
        "scale": rng.uniform(0.8, 1.2),
        "mark": 0,
        "beta_over_beta_min": [1, 2, 4, 8],
    }
    config = {
        "model": {"preset": "pdmp_like",
                  "params": {k: params[k] for k in ("K", "m", "phi")}},
        "generator": {"preset": "affine_z",
                      "params": {"c0": params["c0"], "c1": params["c1"]}},
        "terminal": {"preset": "last_mark",
                     "params": {"mark": params["mark"], "scale": params["scale"]}},
        "beta": "auto",
        "tol": 1e-10,
        "seed": int(seed),
        "sweep": {"param": "beta", "values": params["beta_over_beta_min"],
                  "relative_to_beta_min": True},
    }
    return config, params


def sweep_unit_jumps_reference(params: dict) -> float:
    p = params["phi"][params["mark"]] / sum(params["phi"])
    scale = params["scale"]
    return (scale * p + params["c0"] * params["K"]
            + params["c1"] * abs(scale) * math.sqrt(p * (1.0 - p)))


# -- gates on the written reports ------------------------------------------------


def _near(a, b) -> bool:
    return abs(a - b) <= Y0_TOL


def check_solve(out: Path, reference: float, tol: float) -> tuple[list, dict]:
    solver = json.loads((out / "summary.json").read_text())["solver"]
    if not solver:
        return ["no solver output"], {}
    info = {"Y0": solver["Y0"], "oracle_gap": solver["y0_gap"],
            "residual": solver["residual"], "iterations": solver["iterations"]}
    problems = []
    if not solver["y0_gap"] <= Y0_TOL:
        problems.append(f"oracle gap {solver['y0_gap']!r} > {Y0_TOL}")
    if not solver["residual"] <= tol:
        problems.append(f"residual {solver['residual']!r} > tol {tol}")
    if not _near(solver["Y0"], reference):
        problems.append(f"Y0 {solver['Y0']!r} != reference {reference!r}")
    return problems, info


def check_verify(out: Path, reference: float, tol: float) -> tuple[list, dict]:
    summary = json.loads((out / "summary.json").read_text())
    if not summary["solver"]:
        return ["no solver output"], {}
    y0 = summary["solver"]["Y0"]
    failed = [c["name"] for c in summary["checks"] if not c["passed"]]
    info = {"Y0": y0, "checks": len(summary["checks"]), "checks_failed": failed}
    problems = [f"check {name} failed" for name in failed]
    if not summary["checks"]:
        problems.append("no checks ran")
    if not _near(y0, reference):
        problems.append(f"Y0 {y0!r} != reference {reference!r}")
    return problems, info


def check_sweep(out: Path, reference: float, tol: float) -> tuple[list, dict]:
    with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != 4:
        problems.append(f"{len(rows)} sweep rows, expected 4")
    for row in rows:
        if row["converged"] != "1":
            problems.append(f"beta={row['beta']} did not converge")
        elif not _near(float(row["Y0"]), reference):
            problems.append(f"beta={row['beta']}: Y0 {row['Y0']} != reference {reference!r}")
    y0 = float(rows[0]["Y0"]) if rows and rows[0]["Y0"] else None
    return problems, {"Y0": y0, "rows": len(rows),
                      "iterations": [int(r["iterations"]) for r in rows]}


# name -> (CLI command, config from seed, reference Y0, output gate)
WORKLOADS = {
    "solve_predictable": ("solve", solve_predictable, solve_predictable_reference, check_solve),
    "verify_intensity": ("verify", verify_intensity, verify_intensity_reference, check_verify),
    "sweep_unit_jumps": ("sweep", sweep_unit_jumps, sweep_unit_jumps_reference, check_sweep),
}
