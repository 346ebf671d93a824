"""Machine checks for the identities and estimates behind the solvers.

Each check computes both sides of an identity or inequality as exact tree
sums (or closed-form path integrals) and reports a :class:`CheckResult`.
Identities use a relative tolerance of 1e-10 (rounding accumulated over
up to ``(m+1)^K`` terms); inequalities use an absolute slack of 1e-12.

Each ``check_*`` function is the one kernel of its check, and
``run_suite`` calls each of them once.  They take what ``run_suite``
computes once from the tree, beta or the solved pair (the driver along
the pair, the slot weights, the weighted Z integrand), not a problem.
Each randomized check has its own seeded stream of the standard library's
``random`` (``numpy.random`` is never imported),
``random.Random(f"{name}:{seed}")`` for ``name`` in ``paths``,
``sandwich`` and ``lipschitz``; it draws its inputs as blocks (a block is
the concatenation of its rows' draws) and evaluates each item with the
bits of one check call.
Every aggregate row (a grid time, a path, a sandwich row, a Lipschitz
sample) is chosen by one rule, ``_worst_row``: the first row whose gap is
NaN, else the first largest gap.  So a NaN never passes unseen.  The drift
paths are scanned among those with an increment: a path without one has
both sides 0.

One condition is deliberately not checked: the square-integrability of
the data against the weighted compensator is automatic on a finite tree
(every sum is finite), so no check row is emitted for it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import norms, solver
from .measure_core import ScenarioTree, _doleans_product

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
JUMP_SLACK = 1e-10      # absolute slack of the per-slot jump identity of a solution
# run_suite's randomized inputs: N_PATHS drift paths, and on a spread of up to
# MAX_SLOTS slots N_FIELDS normal sandwich rows and N_SAMPLES Lipschitz samples each
N_PATHS = 200
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


# a side that is a numpy float makes a numpy verdict: ``passed`` is stored as a bool
def _identity(name, lhs, rhs, detail=None):
    abs_gap = abs(lhs - rhs)
    rel_gap = abs_gap / max(abs(lhs), abs(rhs), 1.0)
    return CheckResult(name, float(lhs), float(rhs), float(abs_gap), float(rel_gap),
                       bool(rel_gap <= IDENTITY_RTOL), IDENTITY_RTOL, "identity", detail or {})


def _inequality(name, lhs, rhs, slack=INEQUALITY_SLACK, detail=None):
    abs_gap = lhs - rhs
    rel_gap = abs_gap / max(abs(lhs), abs(rhs), 1.0)
    return CheckResult(name, float(lhs), float(rhs), float(abs_gap), float(rel_gap),
                       bool(lhs <= rhs + slack), slack, "inequality", detail or {})


def _skipped(name, note):
    return CheckResult(name, 0.0, 0.0, 0.0, 0.0, True, 0.0, "skipped", {"note": note})


def check_identity_lemma(tree, Y, f_path, beta, w, z_part, steps) -> list[CheckResult]:
    """Energy identity of a linear solve, one row per grid time in ``steps``.

    ``f_path`` is the driver along the pair, one value per slot, ``w`` the
    slot weight ``norms._slot_weights`` and ``z_part`` the weighted Z
    integrand ``w * slot_z_contribution(Z)``.  At grid time ``j`` both sides
    are exact tree sums over the slots after ``j``: the left side carries
    the weighted square of Y at ``j``, the discounted Y-integral and the Z
    norm, the right side the weighted terminal square, twice the Y-drift
    cross term and minus the squared-drift atom correction.  Slots are
    stored in step order, so the slots after ``j`` are the slice
    ``level_start[j]:n_slots``.
    """
    E = tree.doleans(beta)
    n = tree.n_slots
    da = tree.slot_dA
    Yp = Y[:n]
    y_part = w / (1.0 + beta * da) * Yp ** 2 * da
    cross = w * Yp * f_path * da
    atom = w * f_path ** 2 * da ** 2

    def depth_term(nodes):
        return float(np.sum(tree.prob[nodes] * E[nodes] * Y[nodes] ** 2))

    leaf_term = depth_term(tree.leaf_slice)
    rows = []
    for j in steps:
        j = int(j)
        if not 0 <= j <= tree.horizon:
            raise ValueError("t_index outside the grid")
        after = slice(int(tree.level_start[j]), n)
        lhs = depth_term(tree.depth_slice(j))
        lhs += beta * float(np.sum(y_part[after]))
        lhs += float(np.sum(z_part[after]))
        rhs = leaf_term
        rhs += 2.0 * float(np.sum(cross[after]))
        rhs -= float(np.sum(atom[after]))
        rows.append(_identity("identity_lemma", lhs, rhs, detail={"t_index": j, "beta": beta}))
    return rows


def _integral_inequality_rows(dAc, dA, f_vals, steps, beta: float, j: int):
    """Both sides of the integral inequality for each row of ``(n, K)`` path arrays.

    Row ``i`` holds a path of ``steps[i]`` steps, padded with zeros at the
    end; padded terms are masked to 0, so each row sum (sequential for
    short rows) sees its own terms in order followed by exact zeros.
    Returns ``(lhs[n], rhs[n])``.
    """
    E = _doleans_product(beta * dAc, beta * dA)
    sel = (slice(None), slice(j, None))
    # the drift is squared with C's pow, as Python's float ``**`` does
    drift = np.sum(np.abs(f_vals[sel]) * (dAc[sel] + dA[sel]), axis=1)
    lhs = E[:, j] * np.float_power(drift, 2.0)
    cont_w = (np.exp(beta * dAc[sel]) - 1.0) / beta
    terms = f_vals[sel] ** 2 * (E[:, j:-1] * cont_w + E[:, j + 1:] * dA[sel])
    padded = np.arange(dAc.shape[1])[j:] >= np.asarray(steps)[:, None]
    integral = np.sum(np.where(padded, 0.0, terms), axis=1)
    bracket = 1.0 / beta + beta * np.sum(dA[sel] ** 2, axis=1)
    return lhs, bracket * integral


def check_apriori_estimate(tree, Y, f_path, beta, E_end, lhs, c_scale) -> CheckResult:
    """A priori bound of the solution norms by the data, constant 2 + 4(1+beta)/beta.

    ``lhs`` is the solution's squared norm ``y_norm_sq + z_norm_sq`` at
    ``beta > 0``; the data side is computed here from the terminal values
    ``Y`` on the leaves, the driver ``f_path`` along the pair and the
    weights ``E_end = tree.doleans_at_slot_end(beta)``.  ``c_scale``
    rescales the constant; it exists so the checker itself can be
    falsified (a wrong constant must make the check fail).
    """
    E = tree.doleans(beta)
    leaves = tree.leaf_slice
    term_xi = float(np.sum(tree.prob[leaves] * E[leaves] * Y[leaves] ** 2))
    # sum over leaf paths of P (1/beta + beta S1) S2, with the path sums S1 of
    # dA^2 and S2 of E_end |f|^2 dA, as one forward recursion of the
    # probability-weighted means over the paths into each node (one path per
    # node on a full tree): b of E S1, c of S2 and s of S1 S2
    da, f2 = tree.slot_dA, f_path ** 2
    d1, h, r, g = da ** 2, f2 * da, 1.0 + beta * da, E_end * f2 * da
    b = c = s = np.zeros(1)
    for k in range(tree.horizon):
        sl = tree.depth_slice(k)
        t = (b + d1[sl] * E[sl]) * r[sl]             # E' S1' before the step to the children
        s = tree._forward(s + d1[sl] * c + t * h[sl], k)
        c = tree._forward(c + g[sl], k)
        b = tree._forward(t, k)
    term_f = float(np.sum(tree.prob[leaves] * (c / beta + beta * s)))
    c_beta = c_scale * (2.0 + 4.0 * (1.0 + beta) / beta)
    rhs = c_beta * (term_xi + term_f)
    return _inequality("apriori_estimate", lhs, rhs, detail={"beta": beta, "c_beta": c_beta})


def check_lipschitz(f, block, draws, hat_lz_sq, n_samples) -> CheckResult:
    """Sampled Lipschitz bound on the rows of ``block``, one sample per row.

    Row ``i`` of ``draws`` is ``(y, y2, z[m], z2[m])`` on the slot of
    ``block`` row ``i``.  Checks, per row, the declared bound
    ``|f(y', z') - f(y, z)| <= lip_y |y' - y| + lip_z * seminorm(z' - z)``
    and the squared form with any level ``hat_lz_sq > lip_z^2`` (default
    ``lip_z^2 + 0.1``), whose zeta term carries the ``(1 - dA)/dA``
    expansion on rows with ``dA != 0`` and a nonzero hat projection (where
    it is not an exact 0); the two seminorm forms are also compared as an
    exact algebraic identity.  The driver's raw values are read, twice, on
    the whole block.  The reported lhs is the worst margin and its row
    the witness (``_worst_row``: a NaN margin fails the check);
    ``n_samples`` is reported as the samples per slot.
    """
    if hat_lz_sq is None:
        hat_lz_sq = f.lip_z ** 2 + 0.1
    if hat_lz_sq <= f.lip_z ** 2:
        raise ValueError("hat_lz_sq must exceed lip_z^2")
    m = block.phi.shape[1]
    # the driver gets contiguous copies, as it did from per-sample draws
    y, y2 = draws[:, 0].copy(), draws[:, 1].copy()
    z, z2 = draws[:, 2:2 + m].copy(), draws[:, 2 + m:].copy()
    dz = z2 - z
    s = norms.lipschitz_seminorm_rows(dz, block)
    fbar = f._values(block, y2, z2) - f._values(block, y, z)
    plain = np.abs(fbar) - (f.lip_y * np.abs(y2 - y) + f.lip_z * s)
    zh = norms.hat_z_rows(dz, block)
    # np.float_power calls the C library's pow, as Python's float ``**`` does, so
    # each margin has the bits of a per-sample evaluation (x * x can differ)
    fbar2, dy2, zh2, s2 = np.float_power([fbar, y2 - y, zh, s], 2.0)
    expanded = norms._phi_dot((dz - zh[:, None]) ** 2, block.phi)
    da = block.delta_A
    # left out where zh2 is 0: at a subnormal dA the ratio overflows, and
    # inf * 0 made the margin NaN
    jumps = (da != 0.0) & (zh2 != 0.0)
    expanded[jumps] += (1.0 - da[jumps]) / da[jumps] * zh2[jumps]
    squared = fbar2 - (2.0 * f.lip_y ** 2 * dy2 + 2.0 * hat_lz_sq * expanded)
    forms = np.abs(expanded - s2) / np.maximum(s2, 1.0) - 1e-12
    margin = np.maximum(np.maximum(plain, squared), forms)
    j = _worst_row(margin)
    witness = {"y": float(y[j]), "y2": float(y2[j]), "z": z[j].tolist(), "z2": z2[j].tolist()}
    return _inequality("lipschitz_bound", margin[j], 0.0, detail={
        "hat_lz_sq": float(hat_lz_sq), "n_samples": n_samples, "witness": witness})


def _worst_row(v) -> int:
    # the one rule of every aggregate row: the first NaN row, else the first maximum
    return int(np.argmax(np.isnan(v)) if np.isnan(v).any() else np.argmax(v))


def check_solution_jump_identity(tree, Y, Z, f_path) -> CheckResult:
    """Per-slot jump identity of a solved pair ``(Y, Z)``.

    For each slot and each existing child:
    ``Y_child - Y_parent = g(outcome) - f * dA`` with ``g`` the centered
    representation increment of the field row and ``f_path`` the driver
    along the pair, one value per slot.  Every child (the last column the
    no-jump one) minus its expected value, in one block; the reported lhs
    is the worst absolute residual.
    """
    rows = tree._slot_rows
    zh = norms.hat_z_rows(Z, rows.block)
    res = np.concatenate([Z - zh[:, None], -zh[:, None]], axis=1)   # g
    res += Y[:tree.n_slots, None]     # in place, the expected child value
    res -= (f_path * tree.slot_dA)[:, None]
    V = tree._child_values(tree._node_values(Y))
    worst = np.max(np.abs(np.subtract(V, res, out=res), out=res), where=rows.branches,
                   initial=0.0)
    return _inequality("jump_identity", float(worst), 0.0, slack=JUMP_SLACK)


# -- randomized suite ------------------------------------------------------


def _stream(name, seed) -> random.Random:
    # the seeded stream of one randomized check
    return random.Random(f"{name}:{seed}")


def _uniforms(r, *shape):
    # uniforms on [0, 1) from the top 53 bits of 8 bytes each, so a block is
    # the concatenation of its rows' draws
    u = np.frombuffer(r.randbytes(8 * math.prod(shape)), "<u8") >> 11
    return (u * 2.0 ** -53).reshape(shape)


def _normal_block(r, n, k, scale=1.0):
    # n rows of k normals of standard deviation scale, by Box-Muller on
    # consecutive pairs of uniforms
    u = _uniforms(r, n, 2 * k)
    return scale * np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2])) * np.cos(2.0 * np.pi * u[:, 1::2])


def _random_paths(r, n):
    # n paths of 1 to 6 steps, zero-padded to (n, 6), in 2 draws: 1 + floor(6u)
    # steps; per step dAc ~ U(0, 0.5) w.p. 1/2, else 0; dA ~ U(0, 1), then 1
    # w.p. 0.15, then 0 w.p. 0.15; f normal with standard deviation 1.5
    u = _uniforms(r, n, 31)
    steps = 1 + (6.0 * u[:, 0]).astype(np.int64)
    half, dAc, dA, one, zero = u[:, 1:].reshape(n, 5, 6).transpose(1, 0, 2)
    dAc = np.where(half < 0.5, 0.5 * dAc, 0.0)
    dA = np.where(zero < 0.15, 0.0, np.where(one < 0.15, 1.0, dA))
    f_vals = _normal_block(r, n, 6, 1.5)
    dAc, dA, f_vals = np.where(np.arange(6) >= steps[:, None], 0.0, [dAc, dA, f_vals])
    return dAc, dA, f_vals, steps


def check_integral_inequality(seed, beta: float) -> CheckResult:
    """Weighted Cauchy-Schwarz bound for the drift integral on ``N_PATHS`` paths.

    ``E_t (int |f| dA)^2 <= (1/beta + beta sum dA^2) int E |f|^2 dA`` with
    the continuous part integrated in closed form for piecewise constant
    ``f``, at ``t = 0`` on the drift paths of the ``paths`` stream of
    ``seed`` (``_random_paths``).  The row is the worst among the paths
    with an increment: a path with ``dAc = dA = 0`` has ``lhs = rhs = 0``,
    which says nothing of the margin; such paths are counted.
    """
    dAc, dA, f_vals, steps = _random_paths(_stream("paths", seed), N_PATHS)
    lhs, rhs = _integral_inequality_rows(dAc, dA, f_vals, steps, beta, 0)
    trivial = ~np.any(dAc + dA, axis=1)
    i = _worst_row(np.where(trivial, -np.inf, lhs - rhs))
    return _inequality("integral_inequality", lhs[i], rhs[i], detail={
        "t_index": 0, "beta": beta, "trivial_paths": int(np.sum(trivial))})


def _sandwich_rows(F, da, phi, mid=None):
    # per row of F: lo = (1 - dA) sq, sq = sum(F^2 phi) and the violation of
    # lo <= seminorm^2 <= sq, scaled by max(sq, 1).  In place, to keep memory
    # low: a given mid, F's squared seminorm, is overwritten
    sq = norms._phi_dot(F * F, phi)
    mid = norms._seminorm_sq(F, da, phi) if mid is None else mid
    lo = 1.0 - da
    lo *= sq
    v = lo - mid
    np.maximum(v, np.subtract(mid, sq, out=mid), out=v)
    v /= np.maximum(sq, 1.0)
    return lo, sq, v


def _field_worst(name, v, at=None):
    # a field's worst row (_worst_row) with its slot; None for a field without rows
    if not v.size:
        return None
    j = _worst_row(v)
    return v[j], {"field": name, "slot": int(j if at is None else at[j])}


def _solution_sandwich(Z, tree: ScenarioTree, w, z_sem):
    # the sandwich of the solution field: its worst row and its lower and
    # upper sums.  z_sem, Z's squared seminorm per slot, is overwritten
    da = tree.slot_dA
    lo, sq, v = _sandwich_rows(Z, da, tree.slot_phi, z_sem)
    return _field_worst("solution", v), float(np.sum(w * da * lo)), float(np.sum(w * da * sq))


def check_norm_equivalence(solution, z_sq: float, tree: ScenarioTree, take, r) -> CheckResult:
    """Two-sided comparison of the Z seminorm with the plain weighted L2 norm, per slot.

    On a slot of jump size ``dA`` a row ``F`` satisfies
    ``(1 - dA) sum(F^2 phi) <= seminorm^2 <= sum(F^2 phi)``.  Checked on
    the solution field (``solution``, its ``_solution_sandwich``; ``z_sq``
    its Z norm), then on every slot of the constant 1 (lower end met), of
    a normal field R and of R centred (upper end met when m > 1), all
    drawn from the stream ``r``, then on ``N_FIELDS`` normal rows on each
    slot of ``take``, one field at a time.  The reported lhs is the worst
    violation scaled by ``max(sum(F^2 phi), 1)`` (``_worst_row`` of the
    fields' worst rows; 0 when every bound holds); the detail holds the
    solution's lower and upper sums.
    """
    da, phi = tree.slot_dA, tree.slot_phi
    rows = np.repeat(take, N_FIELDS)
    solution_worst, lower, upper = solution

    def worst_of(name, F, at=None):
        sel = slice(None) if at is None else at
        return _field_worst(name, _sandwich_rows(F, da[sel], phi[sel])[2], at)

    found = [solution_worst, worst_of("constant", np.broadcast_to(1.0, phi.shape))]
    R = _normal_block(r, *phi.shape)
    found.append(worst_of("normal", R))
    R -= norms._phi_dot(R, phi)[:, None]
    found.append(worst_of("centred", R))
    found.append(worst_of("sampled", _normal_block(r, rows.size, tree.n_marks), rows))
    found = [c for c in found if c is not None]
    worst, detail = found[_worst_row([c[0] for c in found])] if found else (0.0, {})
    return _inequality("norm_equivalence", worst, 0.0,
                       detail={**detail, "lower": lower, "mid": z_sq, "upper": upper})


def run_suite(problem, solution, seed=0, c_scale=1.0):
    """Run every check against one solved problem plus randomized inputs.

    The generator is frozen along the solved pair, which turns any
    solution into the solution of a linear problem, so the energy
    identity and the a priori bound apply verbatim.  Randomized inputs
    (``N_PATHS`` drift paths, sandwich fields, Lipschitz samples) come from
    the ``paths``, ``sandwich`` and ``lipschitz`` streams of the integer
    ``seed``, one stream per check.

    Quantities that depend only on the tree, ``beta`` or the solved pair
    are computed once: the frozen driver values, the slot weights and the
    solution's Z seminorm per slot serve the energy identity at every grid
    time, the a priori estimate, the norm sandwich and the jump identity.

    Returns a list of :class:`CheckResult`, one aggregate row per check.
    """
    tree, beta = problem.tree(), problem.beta
    results: list[CheckResult] = []

    # the generator frozen along the solved pair, the slot weights, the Z
    # seminorm and the weighted Z integrand: every check below shares them
    Y, Z = solution.Y, solution.Z
    f_path = solver._eval_path(tree, problem.f, Y, Z)
    w = norms._slot_weights(tree, beta)
    z_sem = norms._seminorm_sq(Z, tree.slot_dA, tree.slot_phi)
    z_part = w * (tree.slot_dA * z_sem)     # w * slot_z_contribution(Z)
    z_sq = float(np.sum(z_part))
    # the sandwich's solution field overwrites z_sem: it is reduced to its worst
    # row and sums here, so z_sem is gone before the other checks allocate
    solution_sandwich = _solution_sandwich(Z, tree, w, z_sem)
    del z_sem

    # energy identity at every grid time
    rows = check_identity_lemma(tree, Y, f_path, beta, w, z_part, range(tree.horizon + 1))
    results.append(rows[_worst_row([r.rel_gap for r in rows])])
    del z_part

    # path inequality and a priori bound need beta > 0
    if beta > 0:
        results.append(check_integral_inequality(seed, beta))
        # y_norm_sq + z_norm_sq
        lhs = norms._weighted_y_sq(Y, tree, w) + z_sq
        results.append(check_apriori_estimate(tree, Y, f_path, beta,
                                              tree.doleans_at_slot_end(beta), lhs, c_scale))
    else:
        results.append(_skipped("integral_inequality", "needs beta > 0"))
        results.append(_skipped("apriori_estimate", "needs beta > 0"))

    # the norm sandwich per slot, and the Lipschitz bound on a spread of slots
    # increasing as it is (np.unique would only import numpy.ma: 15 ms, 0.5 MiB)
    take = np.linspace(0, tree.n_slots - 1, min(MAX_SLOTS, tree.n_slots)).astype(int)
    results.append(check_norm_equivalence(solution_sandwich, z_sq, tree, take,
                                          _stream("sandwich", seed)))
    if tree.n_slots:
        # N_SAMPLES rows per slot of take, slot after slot, as one block of the stream
        draws = _normal_block(_stream("lipschitz", seed), take.size * N_SAMPLES,
                              2 + 2 * tree.n_marks, 2.0)
        results.append(check_lipschitz(problem.f, tree.block(np.repeat(take, N_SAMPLES)),
                                       draws, None, N_SAMPLES))
    else:
        results.append(_skipped("lipschitz_bound", "no slots"))

    del w
    results.append(check_solution_jump_identity(tree, Y, Z, f_path))
    return results
