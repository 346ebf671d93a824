"""Finite-mark random measures on a time grid and their exact scenario trees.

The driving noise is an integer-valued random measure that places at most
one point per grid time, carrying one of finitely many marks.  Its
compensator is specified predictably: the jump ``delta_A`` of the
integrator and the mark distribution ``phi`` at a step may depend on
everything that happened strictly before that step.  Enumerating every
outcome history gives a finite tree whose node masses are exact branch
products, so every expectation on the tree is a finite sum with no
sampling error.

Outcome encoding: a step outcome is an ``int``, a mark index ``0..m-1``
when a point occurs, ``NO_JUMP`` (= -1) when none does.  A history is a
tuple of outcomes, one per elapsed step.  Slot ``k`` (0-based) covers the
interval ``(t_k, t_{k+1}]`` with its atom at ``t_{k+1}``; on the tree the
slots are in bijection with the internal nodes, and a slot's index equals
the node index of its parent.

Multiplicative path weights: ``doleans_exponential`` evaluates the
Doleans-Dade exponential of ``beta * A`` along a deterministic path of
increments, and each tree caches the same weight per node (the value is
determined by the parent history, which is the predictability of ``A``
made concrete).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

NO_JUMP = -1   # outcome code: no point at this step
_ROOT = -2     # incoming-outcome code of the root node

__all__ = [
    "NO_JUMP",
    "MarkSpace",
    "ScenarioModel",
    "SlotView",
    "SlotBlock",
    "ScenarioTree",
    "build_tree",
    "doleans_exponential",
    "doleans_sqrt_factorization",
]


@dataclass(frozen=True)
class MarkSpace:
    """Ordered finite set of mark identifiers."""

    marks: tuple

    def __post_init__(self):
        if len(self.marks) < 1:
            raise ValueError("mark space needs at least one mark")
        if len(set(self.marks)) != len(self.marks):
            raise ValueError("mark identifiers must be distinct")

    @property
    def size(self) -> int:
        return len(self.marks)

    @classmethod
    def of_size(cls, m: int) -> "MarkSpace":
        return cls(tuple(range(int(m))))


@dataclass(frozen=True)
class ScenarioModel:
    """Predictable step-by-step specification of the driving measure.

    Args:
        marks: the finite mark space.
        grid: strictly increasing times ``t_0 = 0 < t_1 < ... < t_K``.
        jump_size: ``(k, history) -> delta_A`` in [0, 1] for slot ``k``,
            where ``history`` holds the outcomes of slots ``0..k-1`` only
            (this is what makes ``A`` predictable).
        mark_law: ``(k, history) -> probability vector`` of length ``m``.
        continuous_increments: optional per-slot deterministic increments
            of the continuous part of ``A``; used by the path utilities
            and the weighted norms, but must be identically zero in any
            model handed to a solver.
    """

    marks: MarkSpace
    grid: np.ndarray
    jump_size: Callable[[int, tuple], float]
    mark_law: Callable[[int, tuple], np.ndarray]
    continuous_increments: np.ndarray | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        if grid.ndim != 1 or grid.size < 1:
            raise ValueError("grid must be a nonempty 1-d array of times")
        if grid[0] != 0.0:
            raise ValueError("grid must start at t_0 = 0")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid not strictly increasing")
        K = grid.size - 1
        dAc = self.continuous_increments
        dAc = np.zeros(K) if dAc is None else np.asarray(dAc, dtype=float)
        if dAc.shape != (K,):
            raise ValueError(f"continuous_increments must have shape ({K},)")
        if np.any(dAc < 0):
            raise ValueError("continuous increments must be nonnegative")
        object.__setattr__(self, "continuous_increments", dAc)

    @property
    def horizon(self) -> int:
        """Number of steps K."""
        return self.grid.size - 1

    @property
    def is_purely_discrete(self) -> bool:
        return not np.any(self.continuous_increments > 0)


@dataclass(frozen=True)
class SlotView:
    """Read-only view of one predictable slot (parent node -> next step)."""

    index: int          # == node index of the parent
    step: int           # 0-based slot index; atom sits at grid[step + 1]
    time: float         # atom time t_{step+1}
    history: tuple      # outcomes strictly before the slot
    delta_A: float
    phi: np.ndarray
    dAc: float


@dataclass(frozen=True)
class SlotBlock:
    """Predictable data of a set of slots, one array entry per slot.

    ``index`` holds the slot ids (parent node ids), ``step`` the 0-based
    slot steps, ``delta_A`` the jump sizes and ``phi`` the mark laws as
    rows of shape ``(n, m)``.  Like :class:`SlotView` it carries nothing
    about a slot's own outcome.
    """

    index: np.ndarray
    step: np.ndarray
    delta_A: np.ndarray
    phi: np.ndarray

    @classmethod
    def of_view(cls, slot: SlotView) -> "SlotBlock":
        """One-slot block of a view."""
        return cls(index=np.array([slot.index]), step=np.array([slot.step]),
                   delta_A=np.array([slot.delta_A]), phi=slot.phi[None, :])


class ScenarioTree:
    """Exhaustive enumeration of the outcome histories of a model.

    Nodes are stored level by level; ``level_start[k] : level_start[k+1]``
    slices depth ``k``.  Children of a node at depth ``k``: one per mark
    when ``delta_A > 0`` plus a no-jump child when ``delta_A < 1``.
    Internal nodes double as slots, so slot arrays are indexed by the
    parent's node id.
    """

    def __init__(self, model, level_start, parent, outcome, branch_prob,
                 prob, cum_A, histories, slot_dA, slot_phi, slot_dAc,
                 children):
        self.model = model
        self.level_start = level_start
        self.parent = parent
        self.outcome = outcome
        self.branch_prob = branch_prob
        self.prob = prob
        self.cum_A = cum_A
        self.histories = histories
        self.slot_dA = slot_dA
        self.slot_phi = slot_phi
        self.slot_dAc = slot_dAc
        self.children = children
        self.depth = np.empty(self.prob.size, dtype=np.int64)
        for k in range(self.level_start.size - 1):
            self.depth[self.level_start[k]:self.level_start[k + 1]] = k
        self._doleans_cache: dict[float, np.ndarray] = {}
        self._views: list[SlotView | None] = [None] * int(level_start[-2])

    # -- shape ----------------------------------------------------------

    @property
    def horizon(self) -> int:
        return self.level_start.size - 2

    @property
    def n_marks(self) -> int:
        return self.model.marks.size

    @property
    def n_nodes(self) -> int:
        return self.prob.size

    @property
    def n_slots(self) -> int:
        return int(self.level_start[self.horizon])

    @property
    def leaf_slice(self) -> slice:
        return slice(int(self.level_start[self.horizon]), self.n_nodes)

    def depth_slice(self, k: int) -> slice:
        return slice(int(self.level_start[k]), int(self.level_start[k + 1]))

    def slot_level_slice(self, k: int) -> slice:
        """Slots whose parent sits at depth k (atom at grid[k+1])."""
        return self.depth_slice(k)

    @property
    def slot_step(self) -> np.ndarray:
        return self.depth[: self.n_slots]

    # -- views ----------------------------------------------------------

    def slot(self, i: int) -> SlotView:
        """View of one slot, built on first use and kept."""
        i = int(i)
        if not 0 <= i < len(self._views):
            raise IndexError(f"slot {i} outside 0..{len(self._views) - 1}")
        view = self._views[i]
        if view is None:
            step = int(self.depth[i])
            view = self._views[i] = SlotView(
                index=i, step=step, time=float(self.model.grid[step + 1]),
                history=self.histories[i], delta_A=float(self.slot_dA[i]),
                phi=self.slot_phi[i], dAc=float(self.slot_dAc[i]))
        return view

    @property
    def slot_views(self) -> list:
        """Views of every slot; per-slot code uses ``slot`` instead."""
        return [self.slot(i) for i in range(self.n_slots)]

    def block(self, ids) -> SlotBlock:
        """Array data of the slots ``ids`` (a slice or an array of slot ids)."""
        if isinstance(ids, slice):
            index = np.arange(*ids.indices(self.n_slots))
        else:
            index = np.asarray(ids, dtype=np.int64)
        return SlotBlock(index=index, step=self.slot_step[ids],
                         delta_A=self.slot_dA[ids], phi=self.slot_phi[ids])

    def accumulate(self, per_slot: np.ndarray) -> np.ndarray:
        """Per-node sum of ``per_slot`` over the slots on the path from the root.

        The root gets 0 and each child its parent's sum plus the parent
        slot's value, added level by level in a fixed order.
        """
        out = np.zeros(self.n_nodes)
        for k in range(self.horizon):
            nodes = slice(int(self.level_start[k + 1]), int(self.level_start[k + 2]))
            par = self.parent[nodes]
            out[nodes] = out[par] + per_slot[par]
        return out

    # -- weights --------------------------------------------------------

    def doleans(self, beta: float) -> np.ndarray:
        """Per-node Doleans-Dade weight of ``beta * A`` at the node's time.

        The value at a node is fixed by the parent history, so siblings of
        one slot share it.  Cached per ``beta``; treat the result as
        read-only.
        """
        if beta < 0:
            raise ValueError("beta must be nonnegative")
        key = float(beta)
        cached = self._doleans_cache.get(key)
        if cached is not None:
            return cached
        E = np.empty(self.n_nodes)
        E[0] = 1.0
        dAc = self.model.continuous_increments
        for k in range(self.horizon):
            ids = np.arange(self.level_start[k + 1], self.level_start[k + 2])
            par = self.parent[ids]
            E[ids] = E[par] * np.exp(beta * dAc[k]) * (1.0 + beta * self.slot_dA[par])
        self._doleans_cache[key] = E
        return E

    def doleans_at_slot_end(self, beta: float) -> np.ndarray:
        """Weight at each slot's atom time (equal across the slot's children)."""
        E = self.doleans(beta)
        n = self.n_slots
        dAc_per_slot = self.slot_dAc[:n]
        return E[:n] * np.exp(beta * dAc_per_slot) * (1.0 + beta * self.slot_dA[:n])


def build_tree(model: ScenarioModel) -> ScenarioTree:
    """Enumerate all reachable outcome histories of ``model``.

    Branch layout per slot: a jump child per mark when ``delta_A > 0``
    (probability ``delta_A * phi[x]``) and a no-jump child when
    ``delta_A < 1`` (probability ``1 - delta_A``).  Zero-probability
    branch *kinds* are never created, which keeps every conditional law
    normalized.
    """
    K = model.horizon
    m = model.marks.size
    dAc = model.continuous_increments

    histories: list[tuple] = [()]
    parent = [-1]
    outcome = [_ROOT]
    branch_prob = [1.0]
    prob = [1.0]
    cum_A = [0.0]
    level_start = [0, 1]
    slot_dA: list[float] = []
    slot_phi: list[np.ndarray] = []
    children: list[np.ndarray] = []

    for k in range(K):
        for node in range(level_start[k], level_start[k + 1]):
            hist = histories[node]
            da = float(model.jump_size(k, hist))
            if not 0.0 <= da <= 1.0:
                raise ValueError(f"jump size {da!r} outside [0, 1] at slot {k}")
            phi = np.asarray(model.mark_law(k, hist), dtype=float)
            if phi.shape != (m,):
                raise ValueError(f"mark law must have shape ({m},) at slot {k}")
            if np.any(phi < 0) or abs(phi.sum() - 1.0) > 1e-12:
                raise ValueError(f"mark law is not a probability vector at slot {k}")
            phi = phi / phi.sum()
            a_next = cum_A[node] + dAc[k] + da
            ch = np.full(m + 1, -1, dtype=np.int64)
            if da > 0.0:
                for j in range(m):
                    ch[j] = len(histories)
                    histories.append(hist + (j,))
                    parent.append(node)
                    outcome.append(j)
                    bp = da * phi[j]
                    branch_prob.append(bp)
                    prob.append(prob[node] * bp)
                    cum_A.append(a_next)
            if da < 1.0:
                ch[m] = len(histories)
                histories.append(hist + (NO_JUMP,))
                parent.append(node)
                outcome.append(NO_JUMP)
                branch_prob.append(1.0 - da)
                prob.append(prob[node] * (1.0 - da))
                cum_A.append(a_next)
            slot_dA.append(da)
            slot_phi.append(phi)
            children.append(ch)
        level_start.append(len(histories))

    n_slots = level_start[K]
    slot_dAc = np.empty(n_slots)
    for k in range(K):
        slot_dAc[level_start[k]:level_start[k + 1]] = dAc[k]

    return ScenarioTree(
        model=model,
        level_start=np.asarray(level_start, dtype=np.int64),
        parent=np.asarray(parent, dtype=np.int64),
        outcome=np.asarray(outcome, dtype=np.int64),
        branch_prob=np.asarray(branch_prob),
        prob=np.asarray(prob),
        cum_A=np.asarray(cum_A),
        histories=histories,
        slot_dA=np.asarray(slot_dA) if n_slots else np.zeros(0),
        slot_phi=np.asarray(slot_phi) if n_slots else np.zeros((0, m)),
        slot_dAc=slot_dAc,
        children=(np.asarray(children, dtype=np.int64).reshape(n_slots, m + 1)
                  if n_slots else np.zeros((0, m + 1), dtype=np.int64)),
    )


# -- deterministic path utilities ---------------------------------------


def _as_path(path) -> tuple[np.ndarray, np.ndarray]:
    """Split a sequence of (dAc, dA) increments into two arrays."""
    arr = np.asarray(list(path), dtype=float)
    if arr.size == 0:
        return np.zeros(0), np.zeros(0)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("path must be a sequence of (dAc, dA) pairs")
    dAc, dA = arr[:, 0], arr[:, 1]
    if np.any(dAc < 0):
        raise ValueError("continuous increments must be nonnegative")
    if np.any(dA < 0) or np.any(dA > 1):
        raise ValueError("jump increments must lie in [0, 1]")
    return dAc, dA


def _doleans_product(cont: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    # exp of the accumulated continuous part times the product of (1 + jump),
    # with the pre-root value 1 prepended
    vals = np.exp(np.cumsum(cont)) * np.cumprod(1.0 + jumps)
    return np.concatenate(([1.0], vals))


def doleans_exponential(path, beta: float) -> np.ndarray:
    """Doleans-Dade exponential of ``beta * A`` along a deterministic path.

    Args:
        path: sequence of (dAc, dA) increments, one per step.
        beta: nonnegative weight exponent.

    Returns:
        Array of K+1 values starting at 1; equals
        ``exp(beta * A^c_t) * prod(1 + beta * dA_s)`` at each grid point,
        and is nondecreasing.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    dAc, dA = _as_path(path)
    return _doleans_product(beta * dAc, beta * dA)


def doleans_sqrt_factorization(path, beta: float):
    """Split the weight into reciprocal square-root factors.

    Builds the two auxiliary paths whose continuous parts are
    ``+-(beta/2) * A^c`` and whose jumps are ``sqrt(1 + beta*dA) - 1``
    and ``1/sqrt(1 + beta*dA) - 1``, and returns their Doleans-Dade
    exponentials ``(upper, lower)``.  They satisfy ``lower * upper = 1``
    and ``upper**2 = doleans_exponential(path, beta)`` at every grid
    point.
    """
    if beta <= 0:
        raise ValueError("beta must be strictly positive")
    dAc, dA = _as_path(path)
    root = np.sqrt(1.0 + beta * dA)
    upper = _doleans_product(0.5 * beta * dAc, root - 1.0)
    lower = _doleans_product(-0.5 * beta * dAc, 1.0 / root - 1.0)
    return upper, lower
