"""Machine checks for the identities and estimates behind the solvers.

Each check computes both sides of an identity or inequality as exact tree
sums (or closed-form path integrals) and reports a :class:`CheckResult`.
Identities use a relative tolerance of 1e-10 (rounding accumulated over
up to ``(m+1)^K`` terms); inequalities use an absolute slack of 1e-12.
Randomized checks take a seeded ``numpy.random.Generator`` so every run
is replayable.

One condition is deliberately not checked: the square-integrability of
the data against the weighted compensator is automatic on a finite tree
(every sum is finite), so no check row is emitted for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import norms, solver
from .measure_core import ScenarioTree, doleans_exponential, _as_path

__all__ = [
    "CheckResult",
    "IDENTITY_RTOL",
    "INEQUALITY_SLACK",
    "check_identity_lemma",
    "check_integral_inequality",
    "check_apriori_estimate",
    "check_norm_equivalence",
    "check_lipschitz",
    "check_solution_jump_identity",
    "run_suite",
]

IDENTITY_RTOL = 1e-10
INEQUALITY_SLACK = 1e-12
# run_suite's random fields per norm comparison, Lipschitz samples and slots
N_FIELDS = 25
N_SAMPLES = 50
MAX_SLOTS = 25


@dataclass(frozen=True)
class CheckResult:
    """One verified identity or inequality: both sides, gap, verdict."""

    name: str
    lhs: float
    rhs: float
    abs_gap: float
    rel_gap: float
    passed: bool
    tol: float
    kind: str = "identity"            # identity | inequality | skipped
    detail: dict = field(default_factory=dict)


def _identity(name, lhs, rhs, rtol=IDENTITY_RTOL, detail=None):
    abs_gap = abs(lhs - rhs)
    rel_gap = abs_gap / max(abs(lhs), abs(rhs), 1.0)
    return CheckResult(name, float(lhs), float(rhs), float(abs_gap),
                       float(rel_gap), rel_gap <= rtol, rtol, "identity",
                       detail or {})


def _inequality(name, lhs, rhs, slack=INEQUALITY_SLACK, detail=None):
    abs_gap = lhs - rhs
    rel_gap = abs_gap / max(abs(lhs), abs(rhs), 1.0)
    return CheckResult(name, float(lhs), float(rhs), float(abs_gap),
                       float(rel_gap), lhs <= rhs + slack, slack,
                       "inequality", detail or {})


def _skipped(name, note):
    return CheckResult(name, 0.0, 0.0, 0.0, 0.0, True, 0.0, "skipped",
                       {"note": note})


def _path_values(problem, tree):
    if not problem.f.is_path:
        raise ValueError("generator must be (y, zeta)-free for this check")
    n = tree.n_slots
    return problem.f.on_slots(tree, slice(0, n), np.zeros(n), norms.field_zeros(tree))


def check_identity_lemma(problem, solution, t_index: int, beta=None) -> CheckResult:
    """Energy identity of the linear solve, evaluated at one grid time.

    Both sides are exact tree sums restricted to the slots after
    ``t_index``; the left side carries the weighted square of Y at the
    grid time, the discounted Y-integral and the Z norm, the right side
    the weighted terminal square, twice the Y-drift cross term and minus
    the squared-drift atom correction.
    """
    tree = problem.tree()
    if np.any(tree.slot_dAc > 0):
        raise ValueError("identity check needs a purely discrete model")
    beta = problem.beta if beta is None else beta
    f_path = _path_values(problem, tree)
    j = int(t_index)
    if not 0 <= j <= tree.horizon:
        raise ValueError("t_index outside the grid")
    Y, Z = solution.Y, solution.Z
    E = tree.doleans(beta)
    n = tree.n_slots
    P = tree.prob[:n]
    da = tree.slot_dA
    E_end = tree.doleans_at_slot_end(beta)
    after = tree.slot_step >= j

    nodes = tree.depth_slice(j)
    lhs = float(np.sum(tree.prob[nodes] * E[nodes] * Y[nodes] ** 2))
    lhs += beta * float(np.sum(
        (P * E_end / (1.0 + beta * da) * Y[:n] ** 2 * da)[after]))
    lhs += float(np.sum((P * E_end * norms.slot_z_contribution(Z, tree))[after]))

    leaves = tree.leaf_slice
    rhs = float(np.sum(tree.prob[leaves] * E[leaves] * Y[leaves] ** 2))
    rhs += 2.0 * float(np.sum((P * E_end * Y[:n] * f_path * da)[after]))
    rhs -= float(np.sum((P * E_end * f_path ** 2 * da ** 2)[after]))
    return _identity("identity_lemma", lhs, rhs,
                     detail={"t_index": j, "beta": beta})


def check_integral_inequality(path, f_path, beta: float, t_index: int = 0) -> CheckResult:
    """Weighted Cauchy-Schwarz bound for the drift integral on one path.

    ``E_t (int |f| dA)^2 <= (1/beta + beta sum dA^2) int E |f|^2 dA``
    with the continuous part integrated in closed form for piecewise
    constant ``f``.
    """
    if beta <= 0:
        raise ValueError("beta must be strictly positive")
    dAc, dA = _as_path(path)
    f_vals = np.asarray(f_path, dtype=float)
    if f_vals.shape != dAc.shape:
        raise ValueError("f_path must hold one value per step")
    E = doleans_exponential(np.column_stack([dAc, dA]), beta)
    j = int(t_index)
    sel = slice(j, dAc.size)
    drift = float(np.sum(np.abs(f_vals[sel]) * (dAc[sel] + dA[sel])))
    lhs = E[j] * drift ** 2
    cont_w = (np.exp(beta * dAc[sel]) - 1.0) / beta
    integral = float(np.sum(f_vals[sel] ** 2 * (E[j:-1][: dAc.size - j] * cont_w
                                                + E[j + 1:] * dA[sel])))
    bracket = 1.0 / beta + beta * float(np.sum(dA[sel] ** 2))
    rhs = bracket * integral
    return _inequality("integral_inequality", lhs, rhs,
                       detail={"t_index": j, "beta": beta})


def check_apriori_estimate(problem, solution, beta=None, c_scale: float = 1.0) -> CheckResult:
    """A priori bound of the solution norms by the data, constant 2 + 4(1+beta)/beta.

    ``c_scale`` rescales the constant; it exists so the checker itself
    can be falsified (a wrong constant must make the check fail).
    """
    tree = problem.tree()
    beta = problem.beta if beta is None else beta
    if beta <= 0:
        raise ValueError("beta must be strictly positive")
    f_path = _path_values(problem, tree)
    lhs = (norms.y_norm_sq(solution.Y, tree, beta)
           + norms.z_norm_sq(solution.Z, tree, beta))
    E = tree.doleans(beta)
    leaves = tree.leaf_slice
    term_xi = float(np.sum(tree.prob[leaves] * E[leaves] * solution.Y[leaves] ** 2))
    # per-path accumulators: sum of dA^2 and of E |f|^2 dA along each history
    E_end = tree.doleans_at_slot_end(beta)
    S1 = tree.accumulate(tree.slot_dA ** 2)
    S2 = tree.accumulate(E_end * f_path ** 2 * tree.slot_dA)
    term_f = float(np.sum(tree.prob[leaves]
                          * (1.0 / beta + beta * S1[leaves]) * S2[leaves]))
    c_beta = c_scale * (2.0 + 4.0 * (1.0 + beta) / beta)
    rhs = c_beta * (term_xi + term_f)
    return _inequality("apriori_estimate", lhs, rhs,
                       detail={"beta": beta, "c_beta": c_beta})


def check_norm_equivalence(Z, tree: ScenarioTree, beta: float, gamma: float) -> CheckResult:
    """Two-sided comparison of the Z norm with the plain weighted L2 norm.

    Requires every jump below ``1 - gamma``; then
    ``gamma * full <= z_norm_sq <= full`` where ``full`` integrates
    ``|Z|^2`` against the weighted compensator.  The reported lhs is the
    worst sandwich violation (0 when both bounds hold).
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if np.any(tree.slot_dA > 1.0 - gamma + 1e-15):
        raise ValueError("a jump size exceeds 1 - gamma")
    P = tree.prob[:tree.n_slots]
    E_end = tree.doleans_at_slot_end(beta)
    sq = np.einsum("sm,sm->s", Z * Z, tree.slot_phi)
    full = float(np.sum(P * E_end * tree.slot_dA * sq))
    mid = norms.z_norm_sq(Z, tree, beta)
    violation = max(gamma * full - mid, mid - full)
    return _inequality("norm_equivalence", violation, 0.0,
                       detail={"gamma": gamma, "lower": gamma * full,
                               "mid": mid, "upper": full})


def check_lipschitz(f, slot, samples=100, hat_lz_sq=None, rng=None) -> CheckResult:
    """Sampled Lipschitz bound for a generator at one slot.

    Checks, per sample, the declared bound
    ``|f(y', z') - f(y, z)| <= lip_y |y' - y| + lip_z * seminorm(z' - z)``
    and the squared form with any level ``hat_lz_sq > lip_z^2``, whose
    zeta term carries the ``(1 - dA)/dA`` expansion; the two seminorm
    forms are also compared as an exact algebraic identity.  The reported
    lhs is the worst margin over samples and sub-checks; a NaN margin (a
    driver value that is not a number) fails the check and stops it, with
    that sample as the witness.
    """
    if hat_lz_sq is None:
        hat_lz_sq = f.lip_z ** 2 + 0.1
    if hat_lz_sq <= f.lip_z ** 2:
        raise ValueError("hat_lz_sq must exceed lip_z^2")
    m = slot.phi.size
    da = slot.delta_A
    if isinstance(samples, int):
        rng = rng or np.random.default_rng(0)
        draws = [(rng.normal(0, 2.0), rng.normal(0, 2.0),
                  rng.normal(0, 2.0, m), rng.normal(0, 2.0, m))
                 for _ in range(samples)]
    else:
        draws = list(samples)
    worst = -np.inf
    witness = None
    for y, y2, z, z2 in draws:
        dz = np.asarray(z2, dtype=float) - np.asarray(z, dtype=float)
        s = norms.lipschitz_seminorm(dz, slot)
        fbar = f(slot, y2, z2) - f(slot, y, z)
        plain = abs(fbar) - (f.lip_y * abs(y2 - y) + f.lip_z * s)
        zh = norms.hat_z(dz, slot)
        expanded = float(np.dot((dz - zh) ** 2, slot.phi))
        if da != 0.0:
            expanded += (1.0 - da) / da * zh ** 2
        squared = fbar ** 2 - (2.0 * f.lip_y ** 2 * (y2 - y) ** 2
                               + 2.0 * hat_lz_sq * expanded)
        forms = abs(expanded - s ** 2) / max(s ** 2, 1.0) - 1e-12
        margin = max(plain, squared, forms)
        if margin > worst or math.isnan(margin):
            worst = margin
            witness = {"y": float(y), "y2": float(y2),
                       "z": np.asarray(z, float).tolist(),
                       "z2": np.asarray(z2, float).tolist()}
            if math.isnan(margin):
                break
    return _inequality("lipschitz_bound", worst, 0.0,
                       detail={"hat_lz_sq": float(hat_lz_sq),
                               "n_samples": len(draws), "witness": witness})


def check_solution_jump_identity(solution, problem, tol: float = 1e-10) -> CheckResult:
    """Per-slot jump identity of a solved pair.

    For each slot and each existing child:
    ``Y_child - Y_parent = g(outcome) - f * dA`` with ``g`` the centered
    representation increment of the solution's field row.
    """
    tree = problem.tree()
    Y, Z = solution.Y, solution.Z
    n = tree.n_slots
    if n == 0:
        return _inequality("jump_identity", 0.0, 0.0, slack=tol)
    f_path = problem.f.on_slots(tree, slice(0, n), Y[:n], Z)
    zh = norms.hat_z_all(Z, tree)
    ch = tree.children
    Yc = Y[np.maximum(ch, 0)]
    # expected child values: parent + g(outcome) - f dA
    g = np.concatenate([Z - zh[:, None], -zh[:, None]], axis=1)
    expected = Y[:n, None] + g - (f_path * tree.slot_dA)[:, None]
    res = np.where(ch >= 0, Yc - expected, 0.0)
    worst = float(np.max(np.abs(res)))
    return _inequality("jump_identity", worst, 0.0, slack=tol)


# -- randomized suite ------------------------------------------------------


def _random_path(rng, max_steps=6):
    K = int(rng.integers(1, max_steps + 1))
    dAc = np.where(rng.random(K) < 0.5, rng.uniform(0.0, 0.5, K), 0.0)
    dA = rng.uniform(0.0, 1.0, K)
    dA[rng.random(K) < 0.15] = 1.0
    dA[rng.random(K) < 0.15] = 0.0
    return np.column_stack([dAc, dA]), rng.normal(0.0, 1.5, K)


def run_suite(problem, solution, rng=None, n_paths=200, c_scale=1.0):
    """Run every check against one solved problem plus randomized inputs.

    The generator is frozen along the solved pair, which turns any
    solution into the solution of a linear problem, so the energy
    identity and the a priori bound apply verbatim.  Randomized inputs
    (paths, fields, Lipschitz samples) come from ``rng``.

    Returns a list of :class:`CheckResult`, one aggregate row per check.
    """
    rng = rng or np.random.default_rng(0)
    tree = problem.tree()
    results: list[CheckResult] = []
    beta = problem.beta

    Y, Z = solution.Y, solution.Z
    frozen_vals = problem.f.on_slots(tree, slice(0, tree.n_slots), Y[:tree.n_slots], Z)
    frozen = solver.BsdeProblem(
        model=problem.model, beta=beta, xi=problem.xi,
        f=solver.Generator.batched(lambda block, y, zeta: frozen_vals[block.index],
                                   0.0, 0.0),
        _tree=tree,
    )

    # energy identity at every grid time
    worst = None
    for j in range(tree.horizon + 1):
        r = check_identity_lemma(frozen, solution, j)
        if worst is None or r.rel_gap > worst.rel_gap:
            worst = r
    results.append(worst)

    # path inequality and a priori bound need beta > 0
    if beta > 0:
        worst = None
        for _ in range(n_paths):
            path, fvals = _random_path(rng)
            r = check_integral_inequality(path, fvals, beta)
            if worst is None or r.abs_gap > worst.abs_gap:
                worst = r
        results.append(worst)
        results.append(check_apriori_estimate(frozen, solution, c_scale=c_scale))
    else:
        results.append(_skipped("integral_inequality", "needs beta > 0"))
        results.append(_skipped("apriori_estimate", "needs beta > 0"))

    # norm equivalence on the solution field and random fields
    max_da = float(np.max(tree.slot_dA)) if tree.n_slots else 0.0
    if max_da < 1.0:
        gamma = 1.0 - max_da
        worst = check_norm_equivalence(Z, tree, beta, gamma)
        for _ in range(N_FIELDS):
            W = rng.normal(0.0, 1.0, (tree.n_slots, tree.n_marks))
            r = check_norm_equivalence(W, tree, beta, gamma)
            if r.abs_gap > worst.abs_gap:
                worst = r
        results.append(worst)
    else:
        results.append(_skipped("norm_equivalence",
                                "unit jumps present: no gamma in (0, 1]"))

    # Lipschitz bound on a spread of slots
    if tree.n_slots:
        take = np.unique(np.linspace(0, tree.n_slots - 1,
                                     min(MAX_SLOTS, tree.n_slots)).astype(int))
        worst = None
        for s in take:
            r = check_lipschitz(problem.f, tree.slot(int(s)), samples=N_SAMPLES, rng=rng)
            if worst is None or r.abs_gap > worst.abs_gap or math.isnan(r.abs_gap):
                worst = r
        results.append(worst)
    else:
        results.append(_skipped("lipschitz_bound", "no slots"))

    results.append(check_solution_jump_identity(solution, problem))
    return results
