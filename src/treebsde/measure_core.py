"""Finite-mark random measures in discrete steps and their exact scenario trees.

The driving noise is an integer-valued random measure that places at most
one point per step, carrying one of finitely many marks.  Its
compensator is specified predictably: the jump ``delta_A`` of the
integrator and the mark distribution ``phi`` at a step may depend on
everything that happened strictly before that step.  Enumerating every
outcome history gives a finite tree whose node masses are exact branch
products, so every expectation on the tree is a finite sum with no
sampling error.

Outcome encoding: a step outcome is an ``int``, a mark index ``0..m-1``
when a point occurs, ``NO_JUMP`` (= -1) when none does.  A history is the
sequence of outcomes, one per elapsed step.  Slot ``k`` (0-based) is step
``k``, from depth ``k`` to depth ``k + 1``; on the tree the slots are in
bijection with the internal nodes, and a slot's index equals the node
index of its parent.

The tree is built one level at a time: a model's rules see the int8
matrix ``H`` of the histories of every node of a depth at once, one row
per node, and answer with one jump size and one mark law per row.  That
is the only form a model has.  The tree keeps those int8 level matrices
(``ScenarioTree.level_histories``); a history tuple of Python ints is
built only on demand, for one node (``ScenarioTree.history``).  A
slot's data has one form too, a row of a ``SlotBlock``
(``ScenarioTree.block``).

The tree keeps per-level data only.  One rule, ``_branches``, gives a
slot's children from its jump size.  ``build_tree`` writes the layout
once; the plans (``_Level``) of each level and of the whole tree are views
of it, handed to the solvers' kernels, and two tree operators alone carry
the child layout: ``_child_values`` (of a level or of every slot) and
``_forward``.  A level's children are the next depth's nodes (a merged
level's edges) in slot and column order.  The child map
(``ScenarioTree._child_index``: each slot's child node per outcome,
``n_nodes`` where none) holds them, so a child read is one gather from the
node values followed by one 0 (``ScenarioTree._node_values``); a full
tree's plan whose every slot has every child reads a reshape view instead.

Merged trees: the nodes of a depth whose declared states
(``ScenarioModel.state``) are equal are one node.  It keeps the first
history, sums their probabilities and carries their probability-weighted
mean weight, so every ``prob * weight`` sum is the full tree's.
``_forward`` averages over the edges into a node.

Trees are purely atomic: ``A`` moves only by its jumps ``delta_A``, so a
node's Doleans-Dade weight of ``beta * A`` is the product of
``1 + beta * delta_A`` over the slots above it, fixed by the parent
history (the predictability of ``A`` made concrete).  A continuous part of
``A`` lives only on the deterministic ``(dAc, dA)`` paths of
``doleans_exponential`` and ``doleans_sqrt_factorization``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

NO_JUMP = -1   # outcome code: no point at this step
MAX_MARKS = 127          # outcomes are stored as int8
MAX_NODES = 5_000_000    # node budget of build_tree

__all__ = [
    "NO_JUMP",
    "MAX_NODES",
    "ScenarioModel",
    "SlotBlock",
    "ScenarioTree",
    "TreeTooLarge",
    "build_tree",
    "doleans_exponential",
    "doleans_sqrt_factorization",
]


def _whole(value) -> int:
    """``int(value)`` of a whole number, never truncated; a boolean or a string is refused."""
    if isinstance(value, (bool, str)) or value % 1:   # nan and inf too
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _check_beta(beta, positive=False) -> None:
    """Refuse a weight exponent that is not finite and ``>= 0`` (``> 0`` if ``positive``)."""
    if not (np.isfinite(beta) and (beta > 0 if positive else beta >= 0)):
        raise ValueError(f"beta must be finite and {'> 0' if positive else '>= 0'}, not {beta!r}")


@dataclass(frozen=True)
class ScenarioModel:
    """Predictable step-by-step specification of the driving measure.

    ``A`` is purely atomic: it moves only by the jumps ``delta_A``.

    Args:
        m: the mark count; the marks are ``0..m-1``.
        horizon: the number of steps K; slot ``k`` is step ``k``.
        jump_size: ``(k, H) -> dA[n]``, the jump sizes in [0, 1] of slot
            ``k``, where ``H`` is the ``(n, k)`` int8 matrix of the
            outcomes of slots ``0..k-1`` of the ``n`` nodes of depth ``k``,
            one row per node in node order.  Row ``i`` holds node ``i``'s
            outcomes strictly before step ``k``, never the outcome of step
            ``k`` (this is what makes ``A`` predictable).
        mark_law: ``(k, H) -> phi[n, m]``, one probability vector per row.
        state: ``(k, H) -> keys``, integer keys of shape ``[n]`` or
            ``[n, j]`` for the histories of depth ``k``, or None (the
            default: every history is its own node).  Histories of a depth
            with equal keys become one node.  The contract: ``jump_size``
            and ``mark_law`` at depth ``k``, the state at depth ``k + 1``,
            the terminal and any driver that reads histories depend on a
            history only through its state.

    Row ``i`` of each result belongs to node ``i``.  ``build_tree`` calls
    each rule once per level, and the state once per level below the
    root.  These are the model's only rules, so a model changed with
    ``dataclasses.replace`` runs the rules it was given.  It is the one
    home of both counts, whole numbers: ``m`` in ``1..MAX_MARKS``
    (outcomes are int8) and K in ``0..MAX_NODES - 1`` (a tree of K steps
    holds at least K + 1 nodes).
    """

    m: int
    horizon: int
    jump_size: Callable[[int, np.ndarray], np.ndarray]
    mark_law: Callable[[int, np.ndarray], np.ndarray]
    state: Callable[[int, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        for name, unit, low, high in (("m", "marks", 1, MAX_MARKS),
                                      ("horizon", "steps", 0, MAX_NODES - 1)):
            value = getattr(self, name)
            count = _whole(value)
            if not low <= count <= high:
                raise ValueError(f"{name} {value!r}: a model has {low} to {high} {unit}")
            object.__setattr__(self, name, count)


@dataclass(frozen=True)
class SlotBlock:
    """Predictable data of a set of slots, one array entry per slot.

    ``index`` holds the slot ids (parent node ids), ``step`` the 0-based
    slot steps, ``delta_A`` the jump sizes and ``phi`` the mark laws as
    rows of shape ``(n, m)``.  It carries nothing about a slot's own
    outcome.  One slot is a one-row block (``tree.block([i])``).
    """

    index: np.ndarray
    step: np.ndarray
    delta_A: np.ndarray
    phi: np.ndarray

    def take(self, rows) -> "SlotBlock":
        """The block of ``rows`` (an index array or a boolean mask)."""
        return SlotBlock(index=self.index[rows], step=self.step[rows],
                         delta_A=self.delta_A[rows], phi=self.phi[rows])


def _one_slot(slot) -> SlotBlock:
    """``slot`` if it is a one-row ``SlotBlock``; any other row count, or type, is refused."""
    if not (isinstance(slot, SlotBlock) and np.shape(slot.index) == (1,)):
        raise ValueError("a slot is a one-row SlotBlock, tree.block([i])")
    return slot


class _Level:
    """Plan of the slots of levels ``k`` to ``stop - 1`` (one level, or all):
    slices (``slots``, and their children's ``nodes``, on a full tree in slot
    and column order) and read-only views of the tree's layout arrays: the
    slots' rows ``dA``, ``stay = 1 - dA``, ``phi`` and ``step``, their
    ``branches`` mask, their rows of the child map (``child_index``: None when
    the plan reads a view) and a level's ``edges`` (per edge in slot and column
    order, its slot within the level, its node within the next depth and its
    path mass; per node the slot of its first edge).  Its own: ``unit`` (rows
    with ``dA = 1``: None, True for all, else an ``(n, 1)`` mask) and ``zero``
    (``dA = 0``: None or a mask).
    """

    def __init__(self, tree: "ScenarioTree", k: int, stop: int):
        ls = tree.level_start
        self.slots = slots = slice(int(ls[k]), int(ls[stop]))
        self.nodes = slice(int(ls[k + 1]), int(ls[stop + 1]))
        self.dA, self.stay = tree.slot_dA[slots], tree._slot_stay[slots]
        self.phi, self.step = tree.slot_phi[slots], tree.slot_step[slots]
        self.branches = tree._branches[slots]
        view = tree._edges is None and self.branches.all()   # full, every slot every child
        self.child_index = None if view else tree._child_index[slots]
        self.edges = None if tree._edges is None or stop != k + 1 else tree._edges[k]
        unit, zero = tree._unit[slots], tree._zero[slots]
        self.unit = True if unit.all() else unit[:, None] if unit.any() else None
        self.zero = zero if zero.any() else None

    @functools.cached_property
    def children(self):   # built on first use: each slot's child count, one number if all agree
        counts = np.count_nonzero(self.branches, 1)
        return counts if (counts[1:] != counts[:-1]).any() else int(counts[:1].sum())

    @functools.cached_property
    def block(self) -> SlotBlock:   # built on first use
        return SlotBlock(np.arange(self.slots.start, self.slots.stop), self.step, self.dA, self.phi)


class ScenarioTree:
    """Exhaustive enumeration of the outcome histories of a model.

    Nodes are stored level by level; ``level_start[k] : level_start[k+1]``
    slices depth ``k``.  Internal nodes double as slots, so slot arrays
    are indexed by the parent's node id.  ``level_histories[k]`` is the
    ``(n_k, k)`` int8 matrix of the histories of depth ``k``, one row per
    node in node order.

    ``build_tree`` alone writes its layout (``_branches``, a merged tree's
    ``_edges`` and the child map); the plans (``_Level``) of each level,
    ``_levels[k]``, and of the whole tree, ``_slot_rows``, are views of it, and
    ``_child_values`` and ``_forward`` alone read where children lie.
    """

    def __init__(self, model, level_start, prob, level_histories, slot_dA, slot_phi,
                 branches, edges=None, child_index=None):
        self.model = model
        self.level_start = level_start
        self.prob = prob
        self.level_histories = level_histories
        self.slot_dA = slot_dA
        self.slot_phi = slot_phi
        self.slot_step = np.repeat(np.arange(self.horizon), np.diff(level_start[:-1]))
        self._slot_stay, self._unit, self._zero = 1.0 - slot_dA, slot_dA == 1.0, slot_dA == 0.0
        self._branches, self._edges, self._child_index = branches, edges, child_index
        self._slot_rows = _Level(self, 0, self.horizon)
        self._levels = [_Level(self, k, k + 1) for k in range(self.horizon)]
        self._doleans_cache: dict[float, np.ndarray] = {}

    # -- shape ----------------------------------------------------------

    @property
    def horizon(self) -> int:
        return self.level_start.size - 2

    @property
    def n_marks(self) -> int:
        return self.model.m

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
        """Nodes at depth k: also the slots of level k, those of step k."""
        return slice(int(self.level_start[k]), int(self.level_start[k + 1]))

    # -- views ----------------------------------------------------------

    def history(self, node: int) -> tuple:
        """Outcomes before ``node`` as Python ints: the tree's one reader of one node's history."""
        k = int(np.searchsorted(self.level_start, node, side="right")) - 1
        return tuple(self.level_histories[k][node - int(self.level_start[k])].tolist())

    @property
    def slot_views(self) -> list:
        """One-row blocks of every slot.  The package never reads it: it stays only
        while the benchmark tracer (``perfbench/tracer.py``) wraps it by name."""
        return [self.block([i]) for i in range(self.n_slots)]

    def block(self, ids) -> SlotBlock:
        """Array data of the slots ``ids`` (a slice or an array of slot ids)."""
        if isinstance(ids, slice):
            index = np.arange(*ids.indices(self.n_slots))
        else:
            index = np.asarray(ids, dtype=np.int64)
        return SlotBlock(index=index, step=self.slot_step[ids],
                         delta_A=self.slot_dA[ids], phi=self.slot_phi[ids])

    # -- child layout ---------------------------------------------------

    def _node_values(self, Y=None) -> np.ndarray:
        """A node-value buffer, unset or a copy of ``Y``, then the 0 a missing child reads."""
        buf = np.empty(self.n_nodes + 1)
        buf[-1] = 0.0
        if Y is not None:
            buf[:-1] = Y
        return buf

    def _child_values(self, Y: np.ndarray, k: int | None = None) -> np.ndarray:
        """Children's values of the slots of level ``k``, or of all: one column per outcome,
        0 where none: one gather from the ``_node_values`` buffer ``Y`` through the
        plan's rows of the child map, or a reshape view of its next nodes."""
        lv = self._slot_rows if k is None else self._levels[k]
        if lv.child_index is None:
            return Y[lv.nodes].reshape(lv.dA.size, self.n_marks + 1)
        return Y[lv.child_index]

    def _forward(self, values: np.ndarray, k: int) -> np.ndarray:
        """Values of the slots of level ``k`` carried to the nodes of depth ``k + 1``.

        On a full tree each value repeated over its children, in node
        order.  On a merged tree each node's probability-weighted mean of
        the values over its edges, summed in edge order (a node of zero
        probability takes its first edge's value).
        """
        lv = self._levels[k]
        if lv.edges is not None:
            parent, child, mass, first = lv.edges
            prob = self.prob[lv.nodes]
            out = values[first]
            np.divide(np.bincount(child, mass * values[parent], prob.size), prob,
                      out=out, where=prob > 0.0)
            return out
        return np.repeat(values, lv.children)

    # -- weights --------------------------------------------------------

    def doleans(self, beta: float) -> np.ndarray:
        """Per-node Doleans-Dade weight of ``beta * A`` at the node's time.

        The product of ``1 + beta * delta_A`` over the slots above the
        node, so siblings of one slot share it; on a merged node the
        probability-weighted mean of that product over the merged paths,
        ``sum(P * E) / sum(P)``.  Cached per ``beta``; treat the result as
        read-only.
        """
        _check_beta(beta)
        key = float(beta)
        cached = self._doleans_cache.get(key)
        if cached is not None:
            return cached
        E = np.empty(self.n_nodes)
        E[0] = 1.0
        for k, lv in enumerate(self._levels):
            E[lv.nodes] = self._forward(E[lv.slots] * (1.0 + beta * lv.dA), k)
        self._doleans_cache[key] = E
        return E

    def doleans_at_slot_end(self, beta: float) -> np.ndarray:
        """Weight at each slot's atom time (equal across the slot's children)."""
        E = self.doleans(beta)
        n = self.n_slots
        return E[:n] * (1.0 + beta * self.slot_dA[:n])


class TreeTooLarge(ValueError):
    """The tree would hold more nodes than the build budget ``MAX_NODES`` allows."""

    def __init__(self, depth: int, nodes: int, budget: int):
        super().__init__(f"tree would hold {nodes} nodes through depth {depth}, "
                         f"over the budget of {budget} (MAX_NODES)")
        self.depth, self.nodes, self.budget = depth, nodes, budget


def _level_rules(model: ScenarioModel, k: int, H: np.ndarray):
    """Checked jump sizes ``dA[n]`` and normalized mark laws ``phi[n, m]`` of depth k."""
    n, m = H.shape[0], model.m
    dA = np.asarray(model.jump_size(k, H), dtype=float)
    if dA.shape != (n,):
        raise ValueError(f"jump sizes must have shape ({n},) at slot {k}")
    bad = ~((dA >= 0.0) & (dA <= 1.0))          # also catches NaN
    if bad.any():
        raise ValueError(f"jump size {float(dA[np.argmax(bad)])!r} outside [0, 1] at slot {k}")
    phi = np.ascontiguousarray(model.mark_law(k, H), dtype=float)
    if phi.shape != (n, m):
        raise ValueError(f"mark law must have shape ({m},) at slot {k}")
    total = phi.sum(axis=1)
    if not (phi >= 0).all() or not (np.abs(total - 1.0) <= 1e-12).all():
        raise ValueError(f"mark law is not a probability vector at slot {k}")
    return dA, phi / total[:, None]


def _state_keys(model: ScenarioModel, k: int, H: np.ndarray) -> np.ndarray:
    """Checked state keys of the histories ``H`` of depth k, one row per history."""
    n = H.shape[0]
    keys = np.asarray(model.state(k, H))
    if keys.ndim not in (1, 2) or keys.shape[0] != n or keys.size < n:
        raise ValueError(f"state keys must have shape ({n},) or ({n}, j) at depth {k}, "
                         f"not {keys.shape}")
    if keys.dtype.kind not in "iu":
        raise ValueError(f"state keys must be integers, not {keys.dtype}, at depth {k}")
    return keys.reshape(n, -1)


def _groups(keys: np.ndarray):
    """Group of each row of ``keys`` and the first row of each group.

    Groups are numbered in order of first appearance.  A stable sort of the
    rows finds them; ``np.unique`` would import ``numpy.ma`` (15 ms).
    """
    order = np.lexsort(keys.T)
    s = keys[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (s[1:] != s[:-1]).any(axis=1)
    first = order[new]                  # the sort is stable: each group's first row
    by_first = np.argsort(first)
    label = np.empty_like(by_first)
    label[by_first] = np.arange(by_first.size)
    group = np.empty_like(order)
    group[order] = label[np.cumsum(new) - 1]
    return group, first[by_first]


def _branches(dA: np.ndarray, m: int) -> np.ndarray:
    """Children of slots with jump sizes ``dA``: an ``(n, m + 1)`` bool mask.

    Columns are the marks, then no jump: a child per mark when
    ``delta_A > 0`` and a no-jump child when ``delta_A < 1``.  Joined as
    columns: filling the mark columns by one broadcast copies a few bytes
    per row and took 5× as long on 30,000 slots.
    """
    return np.concatenate([(dA > 0.0)[:, None]] * m + [(dA < 1.0)[:, None]], axis=1)


def build_tree(model: ScenarioModel) -> ScenarioTree:
    """Enumerate all reachable outcome histories of ``model``, one level at a time.

    Branch layout per slot (``_branches``): a jump child per mark when
    ``delta_A > 0`` (probability ``delta_A * phi[x]``) and a no-jump child
    when ``delta_A < 1`` (probability ``1 - delta_A``), in that order.
    Zero-probability branch *kinds* are never created, which keeps every
    conditional law normalized.

    A model with a ``state`` gives a merged tree: each level's children
    with equal state keys become one node, in order of first appearance,
    with the first child's history and the children's path masses summed
    in order.

    Raises:
        ValueError: a jump size outside [0, 1] (or NaN), a mark law of the
            wrong shape or not a probability vector, state keys of the
            wrong shape or not integers.
        TreeTooLarge: the next level's children, before any merge, would
            take the node count past the module budget ``MAX_NODES``;
            raised before that level is allocated.
    """
    K = model.horizon
    m = model.m
    # outcome of the child in each column: marks 0..m-1, then no jump
    codes = np.append(np.arange(m), NO_JUMP).astype(np.int8)

    H = np.zeros((1, 0), dtype=np.int8)
    level_histories = [H]
    prob = [np.ones(1)]
    level_start = [0, 1]
    slot_dA, slot_phi = [np.zeros(0)], [np.zeros((0, m))]
    branches = [np.zeros((0, m + 1), dtype=bool)]
    edges = None if model.state is None else []

    for k in range(K):
        n = H.shape[0]
        dA, phi = _level_rules(model, k, H)
        mask = _branches(dA, m)
        total = level_start[-1] + int(np.count_nonzero(mask))
        if total > MAX_NODES:
            raise TreeTooLarge(k + 1, total, MAX_NODES)
        bp = np.empty((n, m + 1))
        bp[:, :m] = dA[:, None] * phi
        bp[:, m] = 1.0 - dA
        local, col = np.nonzero(mask)   # each child's parent (within the level) and column
        p = prob[-1][local] * bp[mask]
        H, parents = np.empty((local.size, k + 1), dtype=np.int8), H
        H[:, :k] = parents[local]
        H[:, k] = codes[col]
        if edges is not None:
            child, first = _groups(_state_keys(model, k + 1, H))
            edges.append((local, child, p, local[first]))
            H, p = H[first], np.bincount(child, p, first.size)
        prob.append(p)
        level_histories.append(H)
        slot_dA.append(dA)
        slot_phi.append(phi)
        branches.append(mask)
        level_start.append(level_start[-1] + H.shape[0])

    branches = np.concatenate(branches)
    child_index = None
    if edges is not None or not branches.all():   # else every plan reads a view
        child_index = np.full(branches.shape, level_start[-1])
        # a level's children (a merged level's edges) run in slot and column
        # order, as the cells of its mask do
        for k in range(K):
            slots, first = slice(level_start[k], level_start[k + 1]), level_start[k + 1]
            child_index[slots][branches[slots]] = (
                np.arange(first, level_start[k + 2]) if edges is None else first + edges[k][1])
    return ScenarioTree(
        model=model,
        level_start=np.asarray(level_start, dtype=np.int64),
        prob=np.concatenate(prob),
        level_histories=level_histories,
        slot_dA=np.concatenate(slot_dA),
        slot_phi=np.concatenate(slot_phi),
        branches=branches, edges=edges, child_index=child_index,
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
    # exp of the accumulated continuous part times the product of (1 + jump)
    # along the last axis (one path per row), with the pre-root value 1 prepended
    vals = np.exp(np.cumsum(cont, axis=-1)) * np.cumprod(1.0 + jumps, axis=-1)
    return np.concatenate([np.ones(vals.shape[:-1] + (1,)), vals], axis=-1)


def doleans_exponential(path, beta: float) -> np.ndarray:
    """Doleans-Dade exponential of ``beta * A`` along a deterministic path.

    Args:
        path: sequence of (dAc, dA) increments, one per step.
        beta: finite nonnegative weight exponent.

    Returns:
        Array of K+1 values starting at 1; equals
        ``exp(beta * A^c_t) * prod(1 + beta * dA_s)`` after each step,
        and is nondecreasing.
    """
    _check_beta(beta)
    dAc, dA = _as_path(path)
    return _doleans_product(beta * dAc, beta * dA)


def doleans_sqrt_factorization(path, beta: float):
    """Split the weight into reciprocal square-root factors.

    Builds the two auxiliary paths whose continuous parts are
    ``+-(beta/2) * A^c`` and whose jumps are ``sqrt(1 + beta*dA) - 1``
    and ``1/sqrt(1 + beta*dA) - 1``, and returns their Doleans-Dade
    exponentials ``(upper, lower)``.  They satisfy ``lower * upper = 1``
    and ``upper**2 = doleans_exponential(path, beta)`` after every
    step.
    """
    _check_beta(beta, positive=True)
    dAc, dA = _as_path(path)
    root = np.sqrt(1.0 + beta * dA)
    upper = _doleans_product(0.5 * beta * dAc, root - 1.0)
    lower = _doleans_product(-0.5 * beta * dAc, 1.0 / root - 1.0)
    return upper, lower
