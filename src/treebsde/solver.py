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

Every route evaluates the driver through ``Generator.on_slots``, which
rejects non-finite values with ``NonFinite``.

On every slot the martingale representation is solved exactly from the
children's values (``represent_martingale``); fields returned by all
solvers are canonical in the sense of :mod:`treebsde.norms`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import conditions, norms
from .measure_core import (ScenarioModel, ScenarioTree, SlotBlock, SlotView,
                           _one_row, build_tree)

__all__ = [
    "SolverError",
    "StepSingular",
    "NonFinite",
    "NoConvergence",
    "ConditionViolated",
    "Generator",
    "BsdeProblem",
    "batched_terminal",
    "Solution",
    "SolveReport",
    "represent_martingale",
    "conditional_means",
    "bsde_residual",
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

    Two forms, one evaluation entry point (:meth:`on_slots`):

    * scalar, ``Generator(fn, lip_y, lip_z)`` with
      ``fn(slot, y, zeta) -> float``; ``slot`` is a
      :class:`~treebsde.measure_core.SlotView` (step, time, history, jump
      size, mark law).  ``on_slots`` adapts it with one loop over the
      slots.
    * level batch, ``Generator.batched(fn, lip_y, lip_z)`` with
      ``fn(block, y[n], zeta[n, m]) -> f[n]``; ``block`` is a
      :class:`~treebsde.measure_core.SlotBlock` whose ``index``, ``step``,
      ``delta_A`` and ``phi`` arrays describe the ``n`` slots.  History
      dependence goes through arrays indexed by ``block.index``.  Calling
      such a generator on one slot view evaluates a one-slot block.

    Predictability: neither form ever sees a slot's own outcome.
    ``lip_y`` bounds the y-increments, ``lip_z`` the zeta-increments
    measured in :func:`treebsde.norms.lipschitz_seminorm`.
    """

    fn: Callable[[SlotView, float, np.ndarray], float]
    lip_y: float
    lip_z: float
    batch: Callable[[SlotBlock, np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, repr=False)

    def __call__(self, slot, y, zeta) -> float:
        return float(self.fn(slot, y, zeta))

    def on_slots(self, tree: ScenarioTree, ids, y, zeta) -> np.ndarray:
        """Driver values on the slots ``ids`` at ``y[n]``, ``zeta[n, m]``.

        ``ids`` is a slice or an array of slot ids; ``y`` and ``zeta`` are
        aligned with it.  Raises ``NonFinite`` on any non-finite value.
        """
        block = tree.block(ids)
        index = block.index
        if index.size == 0:
            return np.zeros(0)
        if self.batch is None:
            vals = np.array([self(tree.slot(s), y[j], zeta[j])
                             for j, s in enumerate(index)], dtype=float)
        else:
            vals = np.asarray(self.batch(block, y, zeta), dtype=float)
            if vals.shape != index.shape:
                raise ValueError(f"batched generator returned shape {vals.shape}, "
                                 f"expected {index.shape}")
        finite = np.isfinite(vals)
        if not np.all(finite):
            j = int(np.argmin(finite))
            raise NonFinite(f"generator value {vals[j]} at slot {int(index[j])} "
                            f"(step {int(block.step[j])})")
        return vals

    @property
    def is_path(self) -> bool:
        """True when the declared constants force (y, zeta)-independence."""
        return self.lip_y == 0.0 and self.lip_z == 0.0

    @classmethod
    def batched(cls, fn, lip_y: float, lip_z: float) -> "Generator":
        """Driver given in level-batch form ``fn(block, y[n], zeta[n, m]) -> f[n]``."""
        def one_slot(slot, y, zeta):
            zeta = np.asarray(zeta, dtype=float).reshape(1, -1)
            return fn(SlotBlock.of_view(slot), np.array([y], dtype=float), zeta)[0]

        return cls(one_slot, lip_y, lip_z, batch=fn)

    @classmethod
    def zero(cls) -> "Generator":
        return cls.batched(lambda block, y, zeta: np.zeros(y.shape), 0.0, 0.0)

    @classmethod
    def from_path(cls, path_fn) -> "Generator":
        """Wrap a per-slot value ``path_fn(slot)`` as a (y, zeta)-free driver."""
        return cls(lambda slot, y, zeta: float(path_fn(slot)), 0.0, 0.0)


@dataclass
class BsdeProblem:
    """Problem data: model, weight exponent, terminal functional, driver."""

    model: ScenarioModel
    beta: float
    xi: Callable[[tuple], float]
    f: Generator
    _tree: ScenarioTree | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")

    def tree(self) -> ScenarioTree:
        if self._tree is None:
            self._tree = build_tree(self.model)
        return self._tree

    def terminal_values(self, tree=None) -> np.ndarray:
        """``xi`` on every leaf, in leaf order.

        A batched terminal (see :func:`batched_terminal`) is evaluated once
        on the leaf history matrix; any other ``xi`` is called once per
        leaf on a history tuple of Python ints.
        """
        tree = tree or self.tree()
        H = tree.level_histories[tree.horizon]
        batch = getattr(self.xi, "batch", None)
        if batch is None:
            return np.array([float(self.xi(tuple(h))) for h in H.tolist()])
        vals = np.asarray(batch(H), dtype=float)
        if vals.shape != (H.shape[0],):
            raise ValueError(f"batched terminal returned shape {vals.shape}, "
                             f"expected ({H.shape[0]},)")
        return vals


def batched_terminal(fn, scalar=None) -> Callable[[tuple], float]:
    """Terminal functional given on the leaf matrix: ``fn(H[n, K]) -> xi[n]``.

    ``H`` holds one leaf history per row as int8 outcomes (mark index or
    ``NO_JUMP``).  Returns the scalar form ``xi(history) -> float``, which
    carries ``fn`` as its ``batch`` attribute; ``BsdeProblem.terminal_values``
    uses ``batch`` whenever it is present.  ``scalar`` is the same
    functional on one history tuple; without it ``xi`` is a one-row
    adapter of ``fn``, which costs a numpy round trip per call.

    A wrapper made with ``functools.wraps`` copies ``batch``, so a wrapper
    that changes the values must set its own ``batch`` or delete it.
    """
    if scalar is None:
        def xi(history):
            return float(fn(_one_row(history))[0])
    else:
        def xi(history):
            return scalar(history)

    xi.batch = fn
    return xi


@dataclass
class Solution:
    """Solution pair on the tree plus the martingale-part diagnostic."""

    Y: np.ndarray                     # one value per node; equals xi on leaves
    Z: np.ndarray                     # (n_slots, n_marks), canonical rows
    martingale: np.ndarray | None = None


@dataclass
class SolveReport:
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
    flagged: list             # slots violating the main hypothesis
    profile: conditions.ContractionProfile | None = None


# -- martingale representation -------------------------------------------


def represent_martingale(values, slot: SlotView):
    """Solve the one-slot martingale representation from child values.

    Args:
        values: array of length m+1 in outcome order; entry j is the
            value on the mark-j child, entry m on the no-jump child;
            entries of children that do not exist are ignored.
        slot: the predictable slot.

    Returns:
        ``(Z, check)`` where the centered increment ``g`` satisfies
        ``g(jump x) = Z[x] - hat_z(Z)`` and ``g(no jump) = -hat_z(Z)``,
        and ``check`` is the max reconstruction error (0 up to rounding).
        For ``delta_A < 1`` the unique row is ``value(x) - value(no
        jump)``; for ``delta_A = 1`` the centered representative is
        returned; a ``delta_A = 0`` slot carries no information and
        yields ``Z = 0``.
    """
    vals = np.asarray(values, dtype=float)
    m = slot.phi.size
    da = slot.delta_A
    if da == 0.0:
        return np.zeros(m), 0.0
    vm = vals[:m]
    jump_mean = float(np.dot(slot.phi, vm))
    if da < 1.0:
        vn = float(vals[m])
        Z = vm - vn
        mean = da * jump_mean + (1.0 - da) * vn
    else:
        Z = vm - jump_mean
        mean = jump_mean
    zh = norms.hat_z(Z, slot)
    err = float(np.max(np.abs(vm - (mean + Z - zh))))
    if da < 1.0:
        err = max(err, abs(vn - (mean - zh)))
    return Z, err


def _child_values(tree: ScenarioTree, Y: np.ndarray, sl: slice) -> np.ndarray:
    ch = tree.children[sl]
    V = Y[np.maximum(ch, 0)]
    V[ch < 0] = 0.0
    return V


def _cond_means(tree, V, sl):
    da = tree.slot_dA[sl]
    jump_mean = np.einsum("sm,sm->s", tree.slot_phi[sl], V[:, :-1])
    return da * jump_mean + (1.0 - da) * V[:, -1]


def _represent_block(tree, V, sl):
    da = tree.slot_dA[sl]
    Z = V[:, :-1] - V[:, -1][:, None]
    unit = da == 1.0
    if np.any(unit):
        jm = np.einsum("sm,sm->s", tree.slot_phi[sl][unit], V[unit, :-1])
        Z[unit] = V[unit, :-1] - jm[:, None]
    Z[da == 0.0] = 0.0
    return Z


def conditional_means(tree: ScenarioTree, Y: np.ndarray) -> np.ndarray:
    """Per-slot conditional mean of the children's Y values."""
    sl = slice(0, tree.n_slots)
    return _cond_means(tree, _child_values(tree, Y, sl), sl)


def bsde_residual(tree: ScenarioTree, Y: np.ndarray, f_path: np.ndarray) -> float:
    """Max slot residual of ``Y = cond_mean + dA * f`` over the tree."""
    if tree.n_slots == 0:
        return 0.0
    cm = conditional_means(tree, Y)
    res = Y[: tree.n_slots] - cm - tree.slot_dA * f_path
    return float(np.max(np.abs(res)))


# -- explicit linear solve ------------------------------------------------


def _require_discrete(tree):
    if np.any(tree.slot_dAc > 0):
        raise ValueError("solvers need a purely discrete model (no continuous part)")


def _backward(tree: ScenarioTree, xi_leaf: np.ndarray, parent_values):
    """Leaf-to-root sweep shared by every route; returns ``(Y, Z)``.

    ``parent_values(sl, cond_mean, Z[sl])`` gives ``Y[sl]`` level by level.
    """
    Y = np.empty(tree.n_nodes)
    Y[tree.leaf_slice] = xi_leaf
    Z = np.zeros((tree.n_slots, tree.n_marks))
    for k in range(tree.horizon - 1, -1, -1):
        sl = tree.slot_level_slice(k)
        V = _child_values(tree, Y, sl)
        Z[sl] = _represent_block(tree, V, sl)
        Y[sl] = parent_values(sl, _cond_means(tree, V, sl), Z[sl])
    return Y, Z


def _solve_linear_path(tree: ScenarioTree, xi_leaf: np.ndarray,
                       f_path: np.ndarray) -> Solution:
    Y, Z = _backward(tree, xi_leaf, lambda sl, cm, _: cm + f_path[sl] * tree.slot_dA[sl])
    return Solution(Y=Y, Z=Z, martingale=Y + tree.accumulate(f_path * tree.slot_dA))


def _eval_path(tree: ScenarioTree, f: Generator, Y: np.ndarray,
               Z: np.ndarray) -> np.ndarray:
    """Driver frozen along (Y, Z): one value per slot (``Y`` per node)."""
    n = tree.n_slots
    return f.on_slots(tree, slice(0, n), Y[:n], Z)


def solve_linear(problem: BsdeProblem) -> Solution:
    """Exact solve for a (y, zeta)-independent generator.

    Y at a node is the conditional expectation of the terminal value plus
    the remaining drift; Z comes from the exact martingale representation
    of the increments.  The one-step recursion residual of the result is
    zero up to rounding.
    """
    tree = problem.tree()
    _require_discrete(tree)
    f_path = _eval_path(tree, problem.f, norms.adapted_zeros(tree), norms.field_zeros(tree))
    return _solve_linear_path(tree, problem.terminal_values(tree), f_path)


# -- implicit one-step solve ----------------------------------------------


def implicit_step_solve(cond_mean: float, delta_A: float, slot: SlotView,
                        zeta: np.ndarray, f: Generator, tol: float = 1e-13,
                        max_iter: int = 200) -> float:
    """Unique root of ``y = cond_mean + delta_A * f(slot, y, zeta)``.

    Plain fixed-point iteration with contraction factor
    ``delta_A * lip_y < 1``; the absolute stopping tolerance is floored
    at the rounding scale of the iterate so large solutions terminate.

    Raises:
        StepSingular: when ``delta_A * lip_y >= 1`` (no contraction; the
            blow-up regime).  ``degenerate=True`` when the one-step map
            is the identity and every y solves the equation.
        NonFinite: iterates left the finite range.
        NoConvergence: tolerance not met within ``max_iter``.
    """
    if delta_A == 0.0:
        return float(cond_mean)
    q = delta_A * f.lip_y
    if q >= 1.0:
        r0 = cond_mean + delta_A * f(slot, 0.0, zeta)
        r1 = cond_mean + delta_A * f(slot, 1.0, zeta) - 1.0
        scale = max(1.0, abs(cond_mean))
        degenerate = abs(r0) <= 1e-12 * scale and abs(r1) <= 1e-12 * scale
        raise StepSingular(
            f"one-step map is not a contraction (dA * lip_y = {q})",
            degenerate=degenerate,
        )
    if f.lip_y == 0.0:
        return float(cond_mean + delta_A * f(slot, cond_mean, zeta))
    y = float(cond_mean)
    for _ in range(max_iter):
        y_new = cond_mean + delta_A * f(slot, y, zeta)
        if not np.isfinite(y_new):
            raise NonFinite("implicit step iterates left the finite range")
        if abs(y_new - y) <= max(tol, 8.0 * np.finfo(float).eps * abs(y_new)):
            return float(y_new)
        y = y_new
    raise NoConvergence("implicit step did not reach tolerance")


# -- independent backward oracle ------------------------------------------


def _implicit_level(tree: ScenarioTree, f: Generator, sl: slice, cm: np.ndarray,
                    Z: np.ndarray, tol: float, max_iter: int = 200) -> np.ndarray:
    """``implicit_step_solve`` on every slot of one level at once.

    A masked fixed point: each slot leaves the active set at the iterate
    where the per-slot stopping rule of ``implicit_step_solve`` first
    holds, so every slot ends on the same iterate as the scalar solve.
    A slot without contraction is handed to ``implicit_step_solve``,
    which raises ``StepSingular`` with its ``degenerate`` flag.
    """
    da = tree.slot_dA[sl]
    ids = np.arange(sl.start, sl.stop)
    Y = cm.copy()
    live = np.nonzero(da != 0.0)[0]
    singular = live[da[live] * f.lip_y >= 1.0]
    if singular.size:
        j = int(singular[0])   # raises StepSingular, telling degenerate steps apart
        implicit_step_solve(cm[j], da[j], tree.slot(ids[j]), Z[j], f, tol, max_iter)
    if f.lip_y == 0.0:
        Y[live] = cm[live] + da[live] * f.on_slots(tree, ids[live], cm[live], Z[live])
        return Y
    y = Y[live]
    for _ in range(max_iter):
        y_new = cm[live] + da[live] * f.on_slots(tree, ids[live], y, Z[live])
        if not np.all(np.isfinite(y_new)):
            raise NonFinite("implicit step iterates left the finite range")
        done = np.abs(y_new - y) <= np.maximum(tol, 8.0 * np.finfo(float).eps * np.abs(y_new))
        Y[live[done]] = y_new[done]
        live, y = live[~done], y_new[~done]
        if live.size == 0:
            return Y
    raise NoConvergence("implicit step did not reach tolerance")


def backward_oracle(problem: BsdeProblem, tol: float = 1e-13) -> Solution:
    """Reference solver: backward induction with implicit one-step solves.

    Works leaf to root: at each level the field rows are represented from
    the children's values, then the parent values solve the implicit
    equations ``y = cond_mean + dA * f(slot, y, Z)``, one level array at a
    time.  Exact up to the per-step tolerance; propagates ``StepSingular``
    from the blow-up regime.
    """
    tree = problem.tree()
    _require_discrete(tree)
    f = problem.f
    Y, Z = _backward(tree, problem.terminal_values(tree),
                     lambda sl, cm, Zl: _implicit_level(tree, f, sl, cm, Zl, tol))
    f_path = _eval_path(tree, f, Y, Z)
    return Solution(Y=Y, Z=Z, martingale=Y + tree.accumulate(f_path * tree.slot_dA))


# -- fixed-point iteration -------------------------------------------------


def picard_map(problem: BsdeProblem, U: np.ndarray, V: np.ndarray) -> Solution:
    """One application of the fixed-point map.

    Freezes the generator along the current pair (the left limit at a
    slot is the parent-node value ``U[slot.index]``) and solves the
    resulting linear equation exactly.
    """
    tree = problem.tree()
    _require_discrete(tree)
    f_path = _eval_path(tree, problem.f, U, V)
    return _solve_linear_path(tree, problem.terminal_values(tree), f_path)


def picard_solve(problem: BsdeProblem, tol: float = 1e-10, max_iter: int = 100,
                 delta: float | None = None, initial: Solution | None = None,
                 check_hypothesis: bool = True):
    """Fixed-point iteration from (0, 0), monitored in the b-weighted norm.

    Each sweep freezes the generator at the current iterate and re-solves
    the linear equation; the b-weights come from the contraction profile
    at the problem's ``beta`` and ``delta`` (default ``delta`` is half
    the hypothesis slack).  Iteration stops when the successive-iterate
    mixed-norm distance or the one-step recursion residual drops to
    ``tol``.

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
            ``delta``); it never falls back to unit b-weights.
        NoConvergence: ``max_iter`` sweeps without meeting ``tol`` (the
            report so far is attached to the exception).
    """
    tree = problem.tree()
    _require_discrete(tree)
    f, beta = problem.f, problem.beta
    eps_star = conditions.check_main_hypothesis(tree, f.lip_y)
    flagged = conditions.detect_counterexample(tree, f.lip_y)
    if check_hypothesis and eps_star <= 0.0:
        raise ConditionViolated(
            f"main hypothesis violated: slack {eps_star}", flagged=flagged)
    if check_hypothesis and beta > 0.0 and delta is not None and not 0.0 < delta < eps_star:
        raise ValueError(f"delta {delta!r} outside (0, {eps_star!r}), "
                         "the range the contraction weights need")
    if delta is None and eps_star > 0.0:
        delta = eps_star / 2.0
    profile = None
    beta_min = np.nan
    b = np.ones(tree.n_slots)
    if delta is not None and 0.0 < delta < eps_star and beta > 0.0:
        profile = conditions.contraction_profile(tree, f.lip_y, f.lip_z, beta, delta)
        beta_min = profile.beta_min
        b = np.maximum(profile.b, 0.0)

    if initial is None:
        U = norms.adapted_zeros(tree)
        V = norms.field_zeros(tree)
    else:
        U, V = np.array(initial.Y, dtype=float), np.array(initial.Z, dtype=float)

    xi_leaf = problem.terminal_values(tree)
    f_path = _eval_path(tree, f, U, V)
    diff_norms: list[float] = []
    ratio_sq: list[float] = []
    y_sup: list[float] = []
    prev_dsq = None
    sol = Solution(U, V)
    residual = np.inf
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        sol = _solve_linear_path(tree, xi_leaf, f_path)
        dsq = norms.mixed_norm_sq(sol.Y - U, sol.Z - V, tree, beta, b)
        diff_norms.append(float(np.sqrt(dsq)))
        if prev_dsq is not None and prev_dsq > 0:
            ratio_sq.append(dsq / prev_dsq)
        prev_dsq = dsq
        sup = float(np.max(np.abs(sol.Y)))
        y_sup.append(sup)
        if not np.isfinite(sup):
            raise NonFinite("fixed-point iterates left the finite range")
        U, V = sol.Y, sol.Z
        f_path = _eval_path(tree, f, U, V)
        residual = bsde_residual(tree, U, f_path)
        if residual <= tol or diff_norms[-1] <= tol:
            converged = True
            break
    report = SolveReport(
        iterations=iterations, converged=converged, diff_norms=diff_norms,
        ratio_sq=ratio_sq, residual=float(residual), y_sup=y_sup, beta=beta,
        delta=delta, beta_min=float(beta_min), epsilon_star=eps_star,
        flagged=flagged, profile=profile,
    )
    if not converged:
        raise NoConvergence(
            f"no convergence after {max_iter} sweeps "
            f"(last distance {diff_norms[-1] if diff_norms else np.nan})",
            report=report, last=sol)
    return sol, report
