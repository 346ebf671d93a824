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
when a point occurs, ``NO_JUMP`` (= -1) when none does.  A history is the
sequence of outcomes, one per elapsed step.  Slot ``k`` (0-based) covers
the interval ``(t_k, t_{k+1}]`` with its atom at ``t_{k+1}``; on the tree
the slots are in bijection with the internal nodes, and a slot's index
equals the node index of its parent.

The tree is built one level at a time: a model in level-batch form
(:meth:`ScenarioModel.batched`) sees the int8 matrix ``H`` of the
histories of every node of a depth at once, one row per node; a model
given by scalar ``(k, history)`` callables is evaluated row by row.  The
tree keeps those int8 level matrices (``ScenarioTree.level_histories``);
history tuples of Python ints are built only on demand
(``ScenarioTree.history``, ``ScenarioTree.histories``, ``SlotView``).

Multiplicative path weights: ``doleans_exponential`` evaluates the
Doleans-Dade exponential of ``beta * A`` along a deterministic path of
increments, and each tree caches the same weight per node (the value is
determined by the parent history, which is the predictability of ``A``
made concrete).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

NO_JUMP = -1   # outcome code: no point at this step
_ROOT = -2     # incoming-outcome code of the root node
MAX_MARKS = 127          # outcomes are stored as int8
MAX_NODES = 5_000_000    # node budget of build_tree

__all__ = [
    "NO_JUMP",
    "MAX_NODES",
    "MarkSpace",
    "LevelRules",
    "ScenarioModel",
    "SlotView",
    "SlotBlock",
    "ScenarioTree",
    "TreeTooLarge",
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
class LevelRules:
    """Level-batch form of a model's step rules.

    ``jump_sizes(k, H) -> dA[n]`` and ``mark_laws(k, H) -> phi[n, m]``,
    where ``H`` is the ``(n, k)`` int8 matrix of the outcomes of slots
    ``0..k-1`` of the ``n`` nodes of depth ``k``, one row per node in node
    order.  Row ``i`` of each result belongs to node ``i``.
    """

    jump_sizes: Callable[[int, np.ndarray], np.ndarray]
    mark_laws: Callable[[int, np.ndarray], np.ndarray]


def _one_row(history) -> np.ndarray:
    return np.array(history, dtype=np.int8).reshape(1, len(history))


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
        batch: optional :class:`LevelRules`, the same rules on a whole
            tree level at once; ``build_tree`` uses it when present and
            otherwise calls the scalar pair once per node.  Build models
            with ``batch`` through :meth:`batched`, which derives the
            scalar pair from it.

    ``batch`` takes precedence over the scalar pair, and
    ``dataclasses.replace`` keeps it: replacing ``jump_size`` or
    ``mark_law`` with a different rule must also set or clear ``batch``.
    """

    marks: MarkSpace
    grid: np.ndarray
    jump_size: Callable[[int, tuple], float]
    mark_law: Callable[[int, tuple], np.ndarray]
    continuous_increments: np.ndarray | None = None
    batch: LevelRules | None = field(default=None, repr=False)

    @classmethod
    def batched(cls, marks: MarkSpace, grid, jump_sizes, mark_laws,
                continuous_increments=None) -> "ScenarioModel":
        """Model given in level-batch form (see :class:`LevelRules`).

        Predictability: row ``i`` of ``H`` holds node ``i``'s outcomes
        strictly before step ``k``, never the outcome of step ``k``.  The
        scalar ``jump_size`` and ``mark_law`` are one-row adapters of the
        batch rules.
        """
        def jump_size(k, history):
            return float(jump_sizes(k, _one_row(history))[0])

        def mark_law(k, history):
            return np.asarray(mark_laws(k, _one_row(history)))[0]

        return cls(marks, grid, jump_size, mark_law, continuous_increments,
                   batch=LevelRules(jump_sizes, mark_laws))

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
    when ``delta_A > 0`` plus a no-jump child when ``delta_A < 1``, in
    that order.  Internal nodes double as slots, so slot arrays are
    indexed by the parent's node id.  ``level_histories[k]`` is the
    ``(n_k, k)`` int8 matrix of the histories of depth ``k``, one row per
    node in node order.
    """

    def __init__(self, model, level_start, parent, outcome, branch_prob,
                 prob, cum_A, level_histories, slot_dA, slot_phi, slot_dAc,
                 children):
        self.model = model
        self.level_start = level_start
        self.parent = parent
        self.outcome = outcome
        self.branch_prob = branch_prob
        self.prob = prob
        self.cum_A = cum_A
        self.level_histories = level_histories
        self.slot_dA = slot_dA
        self.slot_phi = slot_phi
        self.slot_dAc = slot_dAc
        self.children = children
        self.depth = np.repeat(np.arange(level_start.size - 1), np.diff(level_start))
        self._doleans_cache: dict[float, np.ndarray] = {}
        self._views: list[SlotView | None] = [None] * int(level_start[-2])
        self._histories: list[tuple] | None = None

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

    def history(self, node: int) -> tuple:
        """Outcomes before ``node`` as a tuple of Python ints."""
        k = int(self.depth[node])
        return tuple(self.level_histories[k][node - int(self.level_start[k])].tolist())

    @property
    def histories(self) -> list:
        """History tuple of every node, built on first use and kept."""
        if self._histories is None:
            self._histories = [tuple(row) for H in self.level_histories
                               for row in H.tolist()]
        return self._histories

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
                history=self.history(i), delta_A=float(self.slot_dA[i]),
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


class TreeTooLarge(ValueError):
    """The tree would hold more nodes than the build budget ``MAX_NODES`` allows."""

    def __init__(self, depth: int, nodes: int, budget: int):
        super().__init__(f"tree would hold {nodes} nodes through depth {depth}, "
                         f"over the budget of {budget} (MAX_NODES)")
        self.depth, self.nodes, self.budget = depth, nodes, budget


def _level_rules(model: ScenarioModel, k: int, H: np.ndarray):
    """Checked jump sizes ``dA[n]`` and normalized mark laws ``phi[n, m]`` of depth k.

    A model without ``batch`` goes through one loop over the rows of
    ``H``, calling its scalar pair on history tuples of Python ints.
    """
    n, m = H.shape[0], model.marks.size
    if model.batch is not None:
        dA = np.asarray(model.batch.jump_sizes(k, H), dtype=float)
        if dA.shape != (n,):
            raise ValueError(f"jump sizes must have shape ({n},) at slot {k}")
    else:
        hists = [tuple(row) for row in H.tolist()]
        dA = np.array([float(model.jump_size(k, h)) for h in hists])
    bad = ~((dA >= 0.0) & (dA <= 1.0))          # also catches NaN
    if np.any(bad):
        raise ValueError(f"jump size {float(dA[np.argmax(bad)])!r} outside [0, 1] at slot {k}")
    if model.batch is not None:
        phi = np.ascontiguousarray(model.batch.mark_laws(k, H), dtype=float)
        if phi.shape != (n, m):
            raise ValueError(f"mark law must have shape ({m},) at slot {k}")
    else:
        phi = np.empty((n, m))
        for i, h in enumerate(hists):
            row = np.asarray(model.mark_law(k, h), dtype=float)
            if row.shape != (m,):
                raise ValueError(f"mark law must have shape ({m},) at slot {k}")
            phi[i] = row
    total = phi.sum(axis=1)
    if not np.all(phi >= 0) or not np.all(np.abs(total - 1.0) <= 1e-12):
        raise ValueError(f"mark law is not a probability vector at slot {k}")
    return dA, phi / total[:, None]


def build_tree(model: ScenarioModel) -> ScenarioTree:
    """Enumerate all reachable outcome histories of ``model``, one level at a time.

    Branch layout per slot: a jump child per mark when ``delta_A > 0``
    (probability ``delta_A * phi[x]``) and a no-jump child when
    ``delta_A < 1`` (probability ``1 - delta_A``), in that order.
    Zero-probability branch *kinds* are never created, which keeps every
    conditional law normalized.

    Raises:
        ValueError: a jump size outside [0, 1] (or NaN), a mark law of the
            wrong shape or not a probability vector, or more than 127 marks.
        TreeTooLarge: the next level would take the node count past the
            module budget ``MAX_NODES``; raised before that level is
            allocated.
    """
    K = model.horizon
    m = model.marks.size
    if m > MAX_MARKS:
        raise ValueError(f"at most {MAX_MARKS} marks (outcomes are stored as int8)")
    dAc = model.continuous_increments
    # outcome of the child in each column: marks 0..m-1, then no jump
    codes = np.append(np.arange(m), NO_JUMP)

    H = np.zeros((1, 0), dtype=np.int8)
    level_histories = [H]
    parent = [np.array([-1])]
    outcome = [np.array([_ROOT])]
    branch_prob = [np.ones(1)]
    prob = [np.ones(1)]
    cum_A = [np.zeros(1)]
    level_start = [0, 1]
    slot_dA, slot_phi = [np.zeros(0)], [np.zeros((0, m))]
    children = [np.zeros((0, m + 1), dtype=np.int64)]

    for k in range(K):
        n = H.shape[0]
        dA, phi = _level_rules(model, k, H)
        mask = np.empty((n, m + 1), dtype=bool)
        mask[:, :m] = (dA > 0.0)[:, None]
        mask[:, m] = dA < 1.0
        total = level_start[-1] + int(np.count_nonzero(mask))
        if total > MAX_NODES:
            raise TreeTooLarge(k + 1, total, MAX_NODES)
        bp = np.empty((n, m + 1))
        bp[:, :m] = dA[:, None] * phi
        bp[:, m] = 1.0 - dA
        bp = bp[mask]
        local = np.nonzero(mask)[0]             # parent of each child, within the level
        ch = np.full((n, m + 1), -1, dtype=np.int64)
        ch[mask] = np.arange(level_start[-1], total)
        out = np.broadcast_to(codes, (n, m + 1))[mask]
        parent.append(level_start[k] + local)
        outcome.append(out)
        branch_prob.append(bp)
        prob.append(prob[-1][local] * bp)
        cum_A.append(((cum_A[-1] + dAc[k]) + dA)[local])
        H = np.concatenate([H[local], out[:, None].astype(np.int8)], axis=1)
        level_histories.append(H)
        slot_dA.append(dA)
        slot_phi.append(phi)
        children.append(ch)
        level_start.append(total)

    level_start = np.asarray(level_start, dtype=np.int64)
    return ScenarioTree(
        model=model,
        level_start=level_start,
        parent=np.concatenate(parent),
        outcome=np.concatenate(outcome),
        branch_prob=np.concatenate(branch_prob),
        prob=np.concatenate(prob),
        cum_A=np.concatenate(cum_A),
        level_histories=level_histories,
        slot_dA=np.concatenate(slot_dA),
        slot_phi=np.concatenate(slot_phi),
        slot_dAc=np.repeat(dAc, np.diff(level_start[:-1])),
        children=np.concatenate(children),
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
