"""Solvers for the backward equation on a scenario tree.

Three routes to the same solution pair (Y, Z):

* ``solve_linear``: the explicit construction for generators that do not
  depend on (y, zeta): condition the terminal-plus-drift martingale and
  read Z off its increments.
* ``picard_solve``: the fixed-point iteration that freezes the generator
  at the current iterate and re-solves the linear equation, monitored in
  the b-weighted mixed norm in which the map contracts.
* ``backward_oracle``: an independent sweep from the leaves that solves
  the implicit equation ``y = cond_mean + dA * f(slot, y, Z)`` on every
  slot of a level at once.  It is the reference the other routes are
  checked against.

The implicit step has one home, the safeguarded secant
``implicit_step_solve`` on a block of rows, which the oracle calls on each
level.  Each value is within ``q / (1 - q) * max(STEP_TOL, ROUNDING * |y|)``
of the root, with ``q = dA * lip_y``.

Every route reads the terminal functional once, as ``xi(H)`` on the leaf
history matrix (``BsdeProblem.terminal_values``).  It evaluates the driver
on slot blocks through ``Generator._checked``, which rejects non-finite
values with ``NonFinite``; ``_eval_path`` is the one place that evaluates
it on every slot of a tree.

On every slot the martingale representation is solved exactly from the
children's values (``_represent_block``); its rows follow the
canonical-row rule of ``norms._canonical_rows``, so fields returned by all
solvers are canonical.  Every route sweeps a node-value buffer of the tree
(``ScenarioTree._node_values``) from the leaves, one level plan at a time
(``_backward``), which refuses a non-finite value with ``NonFinite`` on
every route.  The oracle represents Z level by level, before the
implicit step reads it; the linear sweep, whose Y needs no Z, recurses on
Y alone and then represents Z for every slot in one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import conditions, norms
from .measure_core import (ScenarioModel, ScenarioTree, SlotBlock, _check_beta, _one_slot,
                           build_tree)

__all__ = [
    "SolverError",
    "StepSingular",
    "NonFinite",
    "NoConvergence",
    "ConditionViolated",
    "Generator",
    "BsdeProblem",
    "Solution",
    "SolveReport",
    "solve_linear",
    "implicit_step_solve",
    "backward_oracle",
    "picard_map",
    "picard_solve",
]


class SolverError(Exception):
    pass


class StepSingular(SolverError):
    """One-step implicit equation is not uniquely solvable (dA * L_y >= 1).

    ``degenerate`` distinguishes the continuum-of-solutions case (the
    one-step map is the identity) from plain unsolvability.
    """

    def __init__(self, message, degenerate=False):
        super().__init__(message)
        self.degenerate = degenerate


class NonFinite(SolverError):
    pass


class NoConvergence(SolverError):
    def __init__(self, message, report=None, last=None):
        super().__init__(message)
        self.report = report
        self.last = last


class ConditionViolated(SolverError):
    def __init__(self, message, flagged=()):
        super().__init__(message)
        self.flagged = list(flagged)


@dataclass(frozen=True)
class Generator:
    """Driver of the backward equation with its declared Lipschitz constants.

    ``fn(block, y[n], zeta[n, m]) -> f[n]`` gives the driver on the ``n``
    slots of a :class:`~treebsde.measure_core.SlotBlock`, whose ``index``,
    ``step``, ``delta_A`` and ``phi`` arrays describe them.  History
    dependence goes through arrays indexed by ``block.index``.

    Every solver route and the implicit step evaluate it through
    ``_checked``, which refuses non-finite values; the Lipschitz check
    reads the raw ``_values``, so a NaN fails the check instead of raising.
    Calling it on one slot, a one-row block (``tree.block([i])``), gives
    one float, for per-slot code outside the solvers.

    Predictability: the driver never sees a slot's own outcome.
    ``lip_y`` bounds the y-increments, ``lip_z`` the zeta-increments
    measured in :func:`treebsde.norms.lipschitz_seminorm_rows`.
    """

    fn: Callable[[SlotBlock, np.ndarray, np.ndarray], np.ndarray]
    lip_y: float
    lip_z: float

    def __call__(self, slot, y, zeta) -> float:
        zeta = np.asarray(zeta, dtype=float).reshape(1, -1)
        return float(self._values(_one_slot(slot), np.array([y], dtype=float), zeta)[0])

    def _checked(self, block: SlotBlock, y, zeta) -> np.ndarray:
        """Driver values on the slots of ``block`` at ``y[n]``, ``zeta[n, m]``.

        Raises ``NonFinite`` on any non-finite value.
        """
        if block.index.size == 0:
            return np.zeros(0)
        vals = self._values(block, y, zeta)
        finite = np.isfinite(vals)
        if not finite.all():
            j = int(np.argmin(finite))
            raise NonFinite(f"generator value {vals[j]} at slot {int(block.index[j])} "
                            f"(step {int(block.step[j])})")
        return vals

    def _values(self, block: SlotBlock, y, zeta) -> np.ndarray:
        """Raw driver values on the rows of ``block``, one per row."""
        vals = np.asarray(self.fn(block, y, zeta), dtype=float)
        if vals.shape != block.index.shape:
            raise ValueError(f"generator returned shape {vals.shape}, "
                             f"expected {block.index.shape}")
        return vals

    @property
    def is_path(self) -> bool:
        """True when the declared constants force (y, zeta)-independence."""
        return self.lip_y == 0.0 and self.lip_z == 0.0

    @classmethod
    def zero(cls) -> "Generator":
        return cls(lambda block, y, zeta: np.zeros(y.shape), 0.0, 0.0)


@dataclass
class BsdeProblem:
    """Problem data: model, weight exponent, terminal functional, driver.

    It holds these four fields and the tree of its own ``model``, nothing else."""

    model: ScenarioModel
    beta: float
    xi: Callable[[np.ndarray], np.ndarray]
    f: Generator
    _tree: ScenarioTree | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        _check_beta(self.beta)

    def tree(self) -> ScenarioTree:
        if self._tree is None or self._tree.model is not self.model:
            self._tree = build_tree(self.model)
        return self._tree

    def terminal_values(self, tree=None) -> np.ndarray:
        """``xi`` on every leaf, in leaf order.

        ``xi(H) -> values[n]`` is called once on the leaf history matrix
        ``H[n, K]``: one leaf history per row as int8 outcomes (mark index
        or ``NO_JUMP``).
        """
        tree = tree or self.tree()
        H = tree.level_histories[tree.horizon]
        vals = np.asarray(self.xi(H), dtype=float)
        if vals.shape != (H.shape[0],):
            raise ValueError(f"terminal returned shape {vals.shape}, "
                             f"expected ({H.shape[0]},)")
        return vals


@dataclass(frozen=True)
class _Setup:
    """What ``_picard`` reads of a problem at one ``delta``; none of it depends on ``beta``.

    The hypothesis slack and the ``(slot id, value)`` pairs of
    ``conditions.detect_counterexample``, and at ``delta`` (half the
    slack unless given) ``conditions._threshold``'s ``hat`` and
    ``beta_min``, None unless ``0 < delta < eps_star``.  The leaf values
    are the problem's (``BsdeProblem.terminal_values``).  Read-only.
    """

    eps_star: float
    flagged: tuple
    delta: float | None
    hat: np.ndarray | None
    beta_min: float | None


def _setup_of(problem: BsdeProblem, delta: float | None = None,
              base: _Setup | None = None) -> _Setup:
    """The beta-free set-up of ``problem`` at ``delta``; ``problem.beta`` is not read.

    ``base``, a set-up of ``problem`` at any ``delta``, lends its delta-free
    part, so only ``conditions._threshold`` runs.
    """
    tree, f = problem.tree(), problem.f
    if base is None:
        eps_star = conditions.check_main_hypothesis(tree, f.lip_y)
        flagged = tuple(conditions.detect_counterexample(tree, f.lip_y))
        base = _Setup(eps_star, flagged, None, None, None)
    eps_star = base.eps_star
    if delta is None and eps_star > 0.0:
        delta = eps_star / 2.0
    hat = beta_min = None
    if delta is not None and 0.0 < delta < eps_star:
        _, hat, beta_min = conditions._threshold(tree, f.lip_y, f.lip_z, delta, eps_star)
    return replace(base, delta=delta, hat=hat, beta_min=beta_min)


@dataclass
class Solution:
    """Solution pair on the tree."""

    Y: np.ndarray                     # one value per node; equals xi on leaves
    Z: np.ndarray                     # (n_slots, n_marks), canonical rows


@dataclass
class SolveReport:
    """One iteration at one ``(beta, delta)``; ``beta_min`` is the set-up's, NaN
    where no contraction weights were built (``beta = 0`` or no threshold data)."""

    iterations: int
    converged: bool
    diff_norms: list          # mixed-norm distance between successive iterates
    ratio_sq: list            # squared-norm ratios of successive differences
    residual: float           # max one-step recursion residual of the result
    y_sup: list               # per-iteration max |Y|
    beta: float
    delta: float | None
    beta_min: float
    epsilon_star: float
    flagged: list             # (slot id, value) of each slot violating the main hypothesis


# -- martingale representation -------------------------------------------


def _cond_means(rows, V):
    # rows: the slots' plan (a level plan); V: their children's values
    jump_mean = np.einsum("sm,sm->s", rows.phi, V[:, :-1])
    return rows.dA * jump_mean + rows.stay * V[:, -1]


def _represent_block(rows, V):
    # value(x) - value(no jump) is the unique row when dA < 1; a unit slot
    # has no no-jump child (its V entry is 0), so its row is then centered
    Z = V[:, :-1] - V[:, -1][:, None]
    return norms._canonical_rows(Z, rows)


def _residual(tree, Y, cm, f_path) -> float:
    # max slot residual of Y = cm + dA * f; cm: the conditional means of
    # Y's children, one per slot
    res = Y[: tree.n_slots] - cm - tree.slot_dA * f_path
    return float(np.max(np.abs(res), initial=0.0))


# -- explicit linear solve ------------------------------------------------


def _backward(tree: ScenarioTree, xi_leaf: np.ndarray, parent_values) -> np.ndarray:
    """Leaf-to-root sweep of every route, filling a node-value buffer: ``Y`` on the
    slots of each level plan is ``parent_values(level, its children's values)``.

    The one finiteness check of every route's values: a buffer that holds a
    non-finite value, leaf or not, raises ``NonFinite``.
    """
    Y = tree._node_values()
    Y[tree.leaf_slice] = xi_leaf
    for k in range(tree.horizon - 1, -1, -1):
        lv = tree._levels[k]
        Y[lv.slots] = parent_values(lv, tree._child_values(Y, k))
    finite = np.isfinite(Y)
    if not finite.all():
        j = int(np.argmin(finite))
        raise NonFinite(f"value {Y[j]} at node {j} left the finite range")
    return Y


def _linear_sweep(tree: ScenarioTree, xi_leaf: np.ndarray, f_path: np.ndarray,
                  cm_out: np.ndarray | None = None):
    # (Y, Z) of the linear equation, Z once Y is done; cm_out receives the conditional means
    def parent_values(lv, V):
        cm = _cond_means(lv, V)
        if cm_out is not None:
            cm_out[lv.slots] = cm
        return cm + f_path[lv.slots] * lv.dA

    Y = _backward(tree, xi_leaf, parent_values)
    return Y[:tree.n_nodes], _represent_block(tree._slot_rows, tree._child_values(Y))


def _eval_path(tree: ScenarioTree, f: Generator, Y: np.ndarray,
               Z: np.ndarray) -> np.ndarray:
    """Driver frozen along (Y, Z): one value per slot (``Y`` per node).

    The one place that evaluates a driver on every slot of a tree.
    """
    return f._checked(tree._slot_rows.block, Y[:tree.n_slots], Z)


def _path_values(problem: BsdeProblem, tree: ScenarioTree) -> np.ndarray:
    """Per-slot values of a (y, zeta)-free driver; any other driver is refused."""
    f = problem.f
    if not f.is_path:
        raise ValueError(f"generator must be (y, zeta)-free, not lip_y = {f.lip_y}, "
                         f"lip_z = {f.lip_z}")
    return _eval_path(tree, f, norms.adapted_zeros(tree), norms.field_zeros(tree))


def solve_linear(problem: BsdeProblem) -> Solution:
    """Exact solve for a (y, zeta)-independent generator.

    Y at a node is the conditional expectation of the terminal value plus
    the remaining drift; Z comes from the exact martingale representation
    of the increments.  The one-step recursion residual of the result is
    zero up to rounding.

    Raises:
        ValueError: the generator declares a nonzero ``lip_y`` or
            ``lip_z``; it is never solved as if frozen at (0, 0).
    """
    tree = problem.tree()
    f_path = _path_values(problem, tree)
    return Solution(*_linear_sweep(tree, problem.terminal_values(tree), f_path))


# -- implicit one-step solve ----------------------------------------------

STEP_TOL = 1e-13     # absolute stopping tolerance of an implicit step
STEP_FLOOR = 200     # driver evaluations an implicit step may always take
STEP_MARGIN = 16     # evaluations beyond the contraction count of ``_step_budget``
ROUNDING = 8.0 * np.finfo(float).eps   # a step's relative stopping floor


def _step_budget(q: float, first: float) -> int:
    """Driver evaluations the implicit step needs at contraction factor ``q``.

    ``first`` is the largest residual at the start ``y = c``.  Every second
    evaluation at the latest cuts the kept residual by ``sqrt(q)``
    (``implicit_step_solve``), so it falls to ``STEP_TOL`` within twice
    ``log(STEP_TOL / first) / log(sqrt(q))`` evaluations; a margin absorbs
    rounding, and the budget is never below ``STEP_FLOOR``.
    """
    if first <= STEP_TOL:
        return STEP_FLOOR
    need = math.ceil(math.log(STEP_TOL / first) / math.log(math.sqrt(q)))
    return max(STEP_FLOOR, 2 * need + STEP_MARGIN)


def implicit_step_solve(block: SlotBlock, c: np.ndarray, d: np.ndarray, z: np.ndarray,
                        f: Generator) -> np.ndarray:
    """Root of ``y = c + d * f(block, y, z)`` on every row of ``block``.

    The one implicit-step iteration: a safeguarded secant on the residual
    ``F(y) = y - g(y)``, ``g = c + d * f``, whose difference quotients lie in
    ``[1 - q, 1 + q]`` for the contraction factor ``q = d * lip_y``.  Per
    row, the first trial is ``y = c`` and the next is the fixed-point image
    ``y - F`` of the kept point; after that, a trial whose residual is at
    most ``sqrt(q)`` times the kept one is kept, and the next trial is the
    secant step ``y - F / s`` with the last difference quotient ``s``
    clipped to ``[1 - q, 1 + q]``; a trial that is not kept is followed by
    the fixed-point image of the kept point, which is always kept (it cuts
    the residual by ``q``).  So every second evaluation at the latest cuts
    the residual by ``sqrt(q)``, for any Lipschitz driver.

    A row leaves the live set at the first trial ``t`` whose residual is at
    most ``STEP_TOL``, floored at the rounding scale of ``g(t)``, and
    returns ``g(t)``, within ``q / (1 - q)`` times that tolerance of the
    root; every row ends on the trial of its own one-row solve, and a row
    that stops on its first evaluation returns ``c + d * f(c)``.  The
    budget of evaluations follows from the largest ``q`` and first
    residual (``_step_budget``).  A driver with ``lip_y = 0`` is evaluated
    once, at ``y = c``.

    Raises:
        StepSingular: some row has ``q >= 1`` (no contraction; the blow-up
            regime).  ``degenerate=True`` when the first such row's
            one-step map is the identity and every y solves it.
        NonFinite: a driver value or an iterate is not finite.
        NoConvergence: a row missed the tolerance within the budget.
    """
    q = d * f.lip_y
    singular = np.flatnonzero(q >= 1.0)[:1]
    if singular.size:
        one, cj, dj, zj = block.take(singular), c[singular], d[singular], z[singular]
        r0 = cj + dj * f._values(one, np.zeros(1), zj)
        r1 = cj + dj * f._values(one, np.ones(1), zj) - 1.0
        tol = 1e-12 * max(1.0, abs(cj[0]))
        raise StepSingular(f"one-step map is not a contraction (dA * lip_y = {q[singular[0]]})",
                           degenerate=bool(abs(r0[0]) <= tol and abs(r1[0]) <= tol))
    if f.lip_y == 0.0:
        return c + d * f._checked(block, c, z)
    Y, live = np.empty_like(c), np.arange(c.size)
    lo, hi, sq = 1.0 - q, 1.0 + q, np.sqrt(q)
    t, it, budget = c, 0, STEP_FLOOR
    while it < budget:
        G = c + d * f._checked(block, t, z)
        if not np.isfinite(G).all():
            raise NonFinite("implicit step iterates left the finite range")
        F_t = t - G
        size = np.abs(F_t)
        if it == 0:
            budget = _step_budget(float(q.max()), float(size.max()))
            y, F, s, bound = t, F_t, np.ones_like(t), np.full_like(t, np.inf)
        else:
            s = (F_t - F) / (t - y)
            np.minimum(np.maximum(s, lo, out=s), hi, out=s)
            kept = size <= bound
            if kept.all():
                y, F, bound = t, F_t, sq * size
            else:
                y, F = np.where(kept, t, y), np.where(kept, F_t, F)
                s, bound = np.where(kept, s, 1.0), np.where(kept, sq * size, np.inf)
        done = size <= np.maximum(STEP_TOL, ROUNDING * np.abs(G))
        if done.any():
            Y[live[done]] = G[done]
            keep = ~done
            live = live[keep]
            if live.size == 0:
                return Y
            c, d, z, block = c[keep], d[keep], z[keep], block.take(keep)
            lo, hi, sq, y, F, s, bound = (v[keep] for v in (lo, hi, sq, y, F, s, bound))
        t = y - F / s
        it += 1
    raise NoConvergence("implicit step did not reach tolerance")


# -- independent backward oracle ------------------------------------------


def backward_oracle(problem: BsdeProblem) -> Solution:
    """Reference solver: backward induction with implicit one-step solves.

    Works leaf to root: at each level the field rows are represented from
    the children's values, then the parent values solve the implicit
    equations ``y = cond_mean + dA * f(slot, y, Z)``, one level array at a
    time.  A ``dA = 0`` slot is the row with ``q = 0``: its first trial
    stops at ``cond_mean``, after one driver evaluation there.  Exact up
    to the per-step tolerance of ``implicit_step_solve``; propagates
    ``StepSingular`` from the blow-up regime.
    """
    tree, f = problem.tree(), problem.f
    Z = np.zeros((tree.n_slots, tree.n_marks))

    def parent_values(lv, V):
        Zl = Z[lv.slots] = _represent_block(lv, V)
        return implicit_step_solve(lv.block, _cond_means(lv, V), lv.dA, Zl, f)

    Y = _backward(tree, problem.terminal_values(tree), parent_values)
    return Solution(Y[:tree.n_nodes], Z)


# -- fixed-point iteration -------------------------------------------------


def picard_map(problem: BsdeProblem, U: np.ndarray, V: np.ndarray) -> Solution:
    """One application of the fixed-point map.

    Freezes the generator along the current pair (the left limit at a
    slot is the parent-node value ``U[slot.index]``) and solves the
    resulting linear equation exactly.
    """
    tree = problem.tree()
    f_path = _eval_path(tree, problem.f, U, V)
    return Solution(*_linear_sweep(tree, problem.terminal_values(tree), f_path))


def picard_solve(problem: BsdeProblem, tol: float = 1e-10, max_iter: int = 100,
                 delta: float | None = None, initial: Solution | None = None,
                 check_hypothesis: bool = True):
    """Fixed-point iteration from (0, 0), monitored in the b-weighted norm.

    Each sweep freezes the generator at the current iterate and re-solves
    the linear equation; the b-weights come from the contraction profile
    at the problem's ``beta`` and ``delta`` (default ``delta`` is half
    the hypothesis slack).  Iteration stops when the one-step recursion
    residual drops to ``tol``.  The successive-iterate mixed-norm distance
    is reported but never stops it: with every b-weight 0 (``beta`` far
    below ``beta_min``) that distance vanishes away from the solution.  A
    sweep that returns its input bit for bit at a residual above ``tol``
    stops it unconverged, since every later sweep would do the same.
    The one-value call of ``_picard``.

    Args:
        delta: contraction margin; with ``beta > 0`` and the hypothesis
            checked, an explicit value must lie in ``(0, eps_star)``.
        check_hypothesis: when True (default), a violated main hypothesis
            raises ``ConditionViolated`` up front; pass False to iterate
            anyway (unit b-weights) and watch the blow-up.

    Returns:
        ``(Solution, SolveReport)``.

    Raises:
        ConditionViolated: ``2 lip_y^2 dA^2 >= 1`` somewhere.
        ValueError: an explicit ``delta`` outside ``(0, eps_star)`` (see
            ``delta``); it never falls back to unit b-weights.  Also a
            ``tol`` that is not finite and ``>= 0``, or ``max_iter < 1``.
        NoConvergence: ``max_iter`` sweeps without meeting ``tol``, or a
            sweep that returned its input above ``tol`` (the report so far
            is attached to the exception).
    """
    return _picard_at(problem, _setup_of(problem, delta), tol, max_iter, initial,
                      check_hypothesis)


def _picard_at(problem, setup: _Setup, tol, max_iter, initial=None, check_hypothesis=True):
    """``picard_solve`` at ``setup``, a set-up of ``problem`` (``_setup_of``)."""
    sol, (report,) = _picard(problem, [(problem.beta, setup)], tol, max_iter, initial,
                             check_hypothesis)
    if report.iterations < max_iter and not report.converged:
        raise NoConvergence(
            f"no convergence: sweep {report.iterations} returned its input exactly at "
            f"residual {report.residual!r} above tol {tol!r} (y_sup {report.y_sup[-1]!r})",
            report=report, last=sol)
    if not report.converged:
        last = report.diff_norms[-1] if report.diff_norms else np.nan
        raise NoConvergence(f"no convergence after {max_iter} sweeps (last distance {last})",
                            report=report, last=sol)
    return sol, report


def _monitor(tree: ScenarioTree, beta: float, setup: _Setup, check_hypothesis: bool):
    """``(report, wb, w)`` of one value: its empty report and ``mixed_norm_sq``'s weights.

    Both are ``norms._slot_weights``: ``wb = P * b * E_end`` with, of the
    contraction profile, only its ``b``, and ``w = P * E_end``.  Refuses a
    violated hypothesis and a ``delta`` outside ``(0, eps_star)`` at
    ``beta > 0`` as ``picard_solve`` does, unless ``check_hypothesis`` is
    False.
    """
    eps_star, delta = setup.eps_star, setup.delta
    if check_hypothesis:
        _refuse_violated(setup)
    if check_hypothesis and beta > 0.0 and delta is not None and not 0.0 < delta < eps_star:
        raise ValueError(f"delta {delta!r} outside (0, {eps_star!r}), "
                         "the range the contraction weights need")
    beta_min, b = np.nan, np.ones(tree.n_slots)
    if setup.hat is not None and beta > 0.0:
        beta_min = setup.beta_min
        b = np.maximum(conditions._profile(tree, eps_star, setup.hat, beta_min, beta, delta).b, 0.0)
    report = SolveReport(
        iterations=0, converged=False, diff_norms=[], ratio_sq=[], residual=np.inf,
        y_sup=[], beta=beta, delta=delta, beta_min=float(beta_min),
        epsilon_star=eps_star, flagged=list(setup.flagged))
    return report, norms._slot_weights(tree, beta, b), norms._slot_weights(tree, beta)


def _refuse_violated(setup: _Setup) -> None:
    """``ConditionViolated``, with the flagged slots, where the set-up's hypothesis fails."""
    if setup.eps_star <= 0.0:
        raise ConditionViolated(f"main hypothesis violated: slack {setup.eps_star}",
                                flagged=setup.flagged)


def _picard(problem: BsdeProblem, values: list, tol: float, max_iter: int,
            initial: Solution | None, check_hypothesis: bool):
    """The fixed-point iteration of ``problem``, monitored at every ``(beta, _Setup)``.

    Every set-up is one of ``problem`` at some ``delta``.  The iterates, the
    residual and the stop depend on neither ``beta`` nor ``delta``, so the
    sweeps, the driver evaluations, ``y_sup`` and the ``NonFinite`` check run
    once, and so do the leaf values (``problem.terminal_values``), ``Y - U``
    and the z contribution of ``Z - V`` of each sweep; each value keeps only
    its two slot-weight arrays (``_monitor``) and its report.

    Returns ``(Solution, [SolveReport per value])``; a report that is not
    ``converged`` holds the iteration so far, which ends before ``max_iter``
    only at a sweep that returned its input.  Raises as ``picard_solve``
    does, but for ``NoConvergence``.
    """
    if not (0.0 <= tol < math.inf and max_iter >= 1):
        raise ValueError(f"tol {tol!r} must be finite and >= 0, max_iter {max_iter!r} >= 1")
    tree, f = problem.tree(), problem.f
    monitors = [_monitor(tree, beta, setup, check_hypothesis) for beta, setup in values]
    if initial is None:
        U, V = norms.adapted_zeros(tree), norms.field_zeros(tree)
    else:
        U, V = np.array(initial.Y, dtype=float), np.array(initial.Z, dtype=float)

    xi_leaf = problem.terminal_values(tree)
    f_path = _eval_path(tree, f, U, V)
    cm = np.empty(tree.n_slots)   # the conditional means of a sweep
    prev_dsq = [None] * len(monitors)
    residual = np.inf
    converged = False
    for it in range(1, max_iter + 1):   # max_iter >= 1, so ``it`` is the sweep count
        try:
            Y, Z = _linear_sweep(tree, xi_leaf, f_path, cm)
        except NonFinite:
            raise NonFinite("fixed-point iterates left the finite range") from None
        # the beta-free parts of the distance; np.sum(w * zc) is _weighted_z_sq, to the bit
        dY, zc = Y - U, norms.slot_z_contribution(Z - V, tree)
        sup = float(np.max(np.abs(Y)))
        for i, (report, wb, w) in enumerate(monitors):
            dsq = norms._weighted_y_sq(dY, tree, wb) + float(np.sum(w * zc))
            report.diff_norms.append(float(np.sqrt(dsq)))
            if prev_dsq[i] is not None and prev_dsq[i] > 0:
                report.ratio_sq.append(dsq / prev_dsq[i])
            prev_dsq[i] = dsq
            report.y_sup.append(sup)
        # a zero distance alone is no fixed point: zero b-weights make it vanish
        # away from the solution, so only then are the iterates compared
        stalled = 0.0 in prev_dsq and np.array_equal(Y, U) and np.array_equal(Z, V)
        U, V = Y, Z
        f_path = _eval_path(tree, f, U, V)
        residual = _residual(tree, U, cm, f_path)
        if residual <= tol:
            converged = True
            break
        if stalled:   # every later sweep would return its input again
            break
    for report, _, _ in monitors:
        report.iterations, report.converged, report.residual = it, converged, float(residual)
    return Solution(U, V), [report for report, _, _ in monitors]
