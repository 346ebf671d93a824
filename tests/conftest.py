"""Shared factories and independent brute-force oracles for the test suite.

The oracles recompute expectations by enumerating root-to-leaf paths and
rebuilding the multiplicative weights from scratch with plain Python
arithmetic, independently of the vectorized slot sums they check.
"""

import dataclasses
import math
import weakref

import numpy as np
import pytest

from treebsde import (BsdeProblem, Generator, NoConvergence, NonFinite, StepSingular,
                      build_tree)
from treebsde.solver import ROUNDING, STEP_FLOOR, STEP_MARGIN, STEP_TOL
from treebsde import conditions, scenarios
from treebsde.measure_core import NO_JUMP


ROOT_OUTCOME = -2     # incoming-outcome code of the root node


# -- node layout rebuilt from the histories ------------------------------------
#
# The tree keeps per-level data only; these rebuild the per-node layout from
# ``node_histories`` alone, through a {history: node} map, independently of
# the tree's own child operators.

_LAYOUTS = weakref.WeakKeyDictionary()   # a tree never changes: one layout per tree


def node_histories(tree):
    """History tuple of Python ints of every node, in node order."""
    return [tuple(row) for H in tree.level_histories for row in H.tolist()]


def is_merged(tree):
    """True for a tree built from a model with a state (its nodes merge by state)."""
    return tree.model.state is not None


def _node_layout(tree):
    layout = _LAYOUTS.get(tree)
    if layout is None:
        hists = node_histories(tree)
        node_of = {h: i for i, h in enumerate(hists)}
        parents = np.array([-1] + [node_of[h[:-1]] for h in hists[1:]], dtype=np.int64)
        outcomes = np.array([ROOT_OUTCOME] + [h[-1] for h in hists[1:]], dtype=np.int64)
        codes = list(range(tree.n_marks)) + [NO_JUMP]
        children = np.array([[node_of.get(h + (c,), -1) for c in codes]
                             for h in hists[:tree.n_slots]], dtype=np.int64)
        layout = _LAYOUTS[tree] = (parents, children.reshape(tree.n_slots, len(codes)),
                                   outcomes)
    return layout


def node_parents(tree):
    """Parent node of every node, -1 at the root (the node of ``history[:-1]``)."""
    return _node_layout(tree)[0]


def node_children(tree):
    """``(n_slots, m + 1)`` child node of each slot per outcome column, -1 where none.

    Columns are the marks, then no jump: column ``c`` holds the node of
    ``history + (code_c,)``.
    """
    return _node_layout(tree)[1]


def node_outcomes(tree):
    """Outcome of the last step of every node; ``ROOT_OUTCOME`` at the root."""
    return _node_layout(tree)[2]


# -- brute-force oracles -----------------------------------------------------


def leaf_paths(tree):
    """List of (leaf index, [node ids root..leaf])."""
    parent = node_parents(tree)
    out = []
    for leaf in range(tree.leaf_slice.start, tree.leaf_slice.stop):
        path = [leaf]
        while parent[path[0]] >= 0:
            path.insert(0, int(parent[path[0]]))
        out.append((leaf, path))
    return out


def brute_doleans(tree, beta, node):
    """Weight at a node rebuilt from the raw increments along its path."""
    parent = node_parents(tree)
    path = [node]
    while parent[path[0]] >= 0:
        path.insert(0, int(parent[path[0]]))
    val = 1.0
    for nid in path[:-1]:
        val *= 1.0 + beta * float(tree.slot_dA[nid])
    return val


def brute_y_norm(Y, tree, beta):
    """Leafwise regrouping of the Y norm."""
    total = 0.0
    for leaf, path in leaf_paths(tree):
        p = float(tree.prob[leaf])
        acc = 0.0
        for step, nid in enumerate(path[:-1]):
            acc += brute_doleans(tree, beta, path[step + 1]) \
                * float(Y[nid]) ** 2 * float(tree.slot_dA[nid])
        total += p * acc
    return total


def brute_z_norm(Z, tree, beta):
    """Pathwise second moment of the compensated one-step integrals.

    Realizes the jump integral outcome by outcome instead of using the
    closed-form slot variance, which is the independence that makes it an
    oracle for z_norm_sq.
    """
    outcome = node_outcomes(tree)
    total = 0.0
    for leaf, path in leaf_paths(tree):
        p = float(tree.prob[leaf])
        acc = 0.0
        for step in range(len(path) - 1):
            nid = path[step]
            da = float(tree.slot_dA[nid])
            phi = tree.slot_phi[nid]
            zh = da * float(np.dot(Z[nid], phi))
            o = int(outcome[path[step + 1]])
            g = (float(Z[nid][o]) - zh) if o != NO_JUMP else -zh
            acc += brute_doleans(tree, beta, path[step + 1]) * g * g
        total += p * acc
    return total


def brute_apriori_data(tree, f_path, beta):
    """Data side ``sum_leaves P (1/beta + beta S1) S2`` of the a priori bound, leaf by leaf.

    ``S1`` sums ``dA^2`` and ``S2`` sums ``E(atom time) f^2 dA`` along the
    leaf's path, with the weight rebuilt from the path's increments.
    """
    total = 0.0
    for leaf, path in leaf_paths(tree):
        s1 = s2 = 0.0
        for step, nid in enumerate(path[:-1]):
            da = float(tree.slot_dA[nid])
            s1 += da * da
            s2 += brute_doleans(tree, beta, path[step + 1]) * float(f_path[nid]) ** 2 * da
        total += float(tree.prob[leaf]) * (1.0 / beta + beta * s1) * s2
    return total


def brute_expectation_at_depth(tree, values, depth):
    """E[values] over the nodes of one depth, via per-node masses."""
    sl = tree.depth_slice(depth)
    return sum(float(tree.prob[i]) * float(values[i])
               for i in range(sl.start, sl.stop))


# -- scalar twins of the per-slot formulas -------------------------------------


def phi_sum(a, phi) -> float:
    """``sum(a * phi)`` of one row in Python floats, the marks added left to right."""
    a, phi = np.asarray(a, dtype=float).tolist(), np.asarray(phi, dtype=float).tolist()
    total = a[0] * phi[0]
    for x, p in zip(a[1:], phi[1:]):
        total += x * p
    return total


def scalar_hat_z(zeta, slot) -> float:
    """Projection of a mark vector on the slot's atomic compensator."""
    if slot.delta_A == 0.0:
        return 0.0
    return float(slot.delta_A) * phi_sum(zeta, slot.phi)


def scalar_moments(zeta, delta_A, phi):
    """Row moments ``(mean, spread)`` of one row by ``phi_sum``.

    ``mean = sum(zeta * phi)`` and ``spread = sum((zeta - delta_A*mean)^2 phi)``.
    """
    z = np.asarray(zeta, dtype=float)
    mean = phi_sum(z, phi)
    dev = z - float(delta_A) * mean
    return mean, phi_sum(dev * dev, phi)


def scalar_seminorm(dzeta, slot) -> float:
    """Seminorm on mark-vector increments used by generator Lipschitz bounds.

    ``sqrt( sum(|dz - dA*mean|^2 phi) + dA (1 - dA) mean**2 )`` with
    ``mean = sum(dz * phi)``.  Scaled by ``delta_A`` it reproduces the
    slot's Z-norm integrand; on ``delta_A = 0`` slots it reduces to the
    plain L2(phi) norm.
    """
    da = float(slot.delta_A)
    mean, spread = scalar_moments(dzeta, da, slot.phi)
    return math.sqrt(spread + da * (1.0 - da) * mean * mean)


def represent_martingale(values, slot):
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
    zh = scalar_hat_z(Z, slot)
    err = float(np.max(np.abs(vm - (mean + Z - zh))))
    if da < 1.0:
        err = max(err, abs(vn - (mean - zh)))
    return Z, err


def jump_second_moment(zeta, slot):
    """Conditional second moment of the compensated one-step integral.

    Equals ``dA * sum(phi * (zeta - hat)^2) + (1 - dA) * hat**2`` with
    ``hat = scalar_hat_z(zeta, slot)``, which is the same expression as the
    slot's Z-norm integrand.
    """
    z = np.asarray(zeta, dtype=float)
    da = slot.delta_A
    if da == 0.0:
        return 0.0
    zh = scalar_hat_z(z, slot)
    dev = z - zh
    return float(da * np.dot(dev * dev, slot.phi) + (1.0 - da) * zh * zh)


def proof_weights(beta, delta, slot, hat_lz_sq):
    """Explicit slot weights ``(c, d, a, b)`` of the contraction argument.

    ``c = (1-delta)/(2 hat_lz_sq)``, ``d = c + dA``,
    ``a = 2 hat_lz_sq * max(c, d - dA)`` (which equals ``1 - delta`` with
    this choice), and ``b = min(beta - 1/c, beta/(1+beta dA) - 1/d)``.
    ``slot`` is a slot view or its jump size.
    """
    if beta <= 0:
        raise ValueError("beta must be strictly positive")
    if hat_lz_sq <= 0:
        raise ValueError("hat_lz_sq must be strictly positive")
    da = float(getattr(slot, "delta_A", slot))
    c = (1.0 - delta) / (2.0 * hat_lz_sq)
    d = c + da
    a = 2.0 * hat_lz_sq * max(c, d - da)
    b = min(beta - 1.0 / c, beta / (1.0 + beta * da) - 1.0 / d)
    return c, d, a, b


def contraction_profile_H(delta, lip_y, delta_A):
    """The threshold function ``H`` of one slot with its inner ``h`` and its minimizer.

    ``h(l) = lip_y^2/l + 2l/(1-delta+2l*dA)`` and ``H = h/(1 - dA*h)``
    where the denominator is positive (``H`` returns ``inf`` outside that
    domain).  The minimizer is
    ``l* = (1-delta) lip_y / (sqrt(2(1-delta)) - 2 lip_y dA)``: the scalar
    twin of ``conditions._threshold``'s ``r / den`` and of ``hat_Lz``'s
    second branch.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError("delta must lie in [0, 1)")
    if 2.0 * lip_y ** 2 * delta_A ** 2 >= 1.0 - delta:
        raise ValueError("domain violation: need 2 lip_y^2 dA^2 < 1 - delta")

    def h(ell):
        return lip_y ** 2 / ell + 2.0 * ell / (1.0 - delta + 2.0 * ell * delta_A)

    def H(ell):
        v = h(ell)
        g = 1.0 - delta_A * v
        return v / g if g > 0 else np.inf

    ell_star = (1.0 - delta) * lip_y / (np.sqrt(2.0 * (1.0 - delta)) - 2.0 * lip_y * delta_A)
    return h, H, float(ell_star)


# -- random problem factories --------------------------------------------------


def random_generator(rng, tree, eps_floor=0.5, forms=(0, 1, 2)):
    """Seeded admissible generator with declared constants honoring eps_floor."""
    maxda = float(tree.slot_dA.max()) if tree.n_slots else 0.0
    cap = math.sqrt((1.0 - eps_floor) / 2.0) / max(maxda, 1e-9)
    lip_y = float(rng.uniform(0, min(cap, 2.0)))
    lip_z = float(rng.uniform(0, 1.5))
    c0 = float(rng.normal(0, 0.5))
    form = int(rng.choice(forms))

    def fn(slot, y, zeta):
        s = scalar_seminorm(zeta, slot)
        base = c0 + 0.3 * math.sin(2.0 * slot.step + scenarios.jump_count(slot.history))
        if form == 0:
            return base + lip_y * y + lip_z * s
        if form == 1:
            return base + lip_y * math.tanh(y) + lip_z * math.tanh(s)
        return base + lip_y * math.sin(y) + lip_z * s

    return per_slot(tree, fn, lip_y, lip_z)


def random_terminal(rng, m):
    """Seeded terminal on the leaf matrix: a jump count, a last-mark indicator, a constant."""
    a, b, c = (float(x) for x in rng.normal(0, 1.0, 3))
    ind = scenarios.xi_last_mark_indicator(int(rng.integers(m)), n_marks=m)
    return lambda H: a * scenarios.jump_counts(H) + b * ind(H) + c


def random_problem(rng, K=None, m=None, max_horizon=6, max_marks=3,
                   eps_floor=0.5, beta_factor=1.5, forms=(0, 1, 2)):
    """Random admissible problem with beta = beta_factor * beta_min(eps*/2).

    Returns (problem, delta).
    """
    model = scenarios.random_model(rng, K=K, m=m, max_horizon=max_horizon,
                                   max_marks=max_marks)
    tree = build_tree(model)
    gen = random_generator(rng, tree, eps_floor=eps_floor, forms=forms)
    eps = conditions.check_main_hypothesis(tree, gen.lip_y)
    delta = eps / 2.0
    beta_min = conditions.beta_threshold(tree, gen.lip_y, gen.lip_z, delta)
    beta = beta_factor * beta_min if beta_min > 0 else 1.0
    problem = BsdeProblem(model=model, beta=beta,
                          xi=random_terminal(rng, tree.n_marks), f=gen,
                          _tree=tree)
    return problem, delta


def random_linear_problem(rng, K=None, m=None, max_horizon=5, max_marks=3,
                          beta=None):
    """Random problem with a (y, zeta)-free generator path."""
    model = scenarios.random_model(rng, K=K, m=m, max_horizon=max_horizon,
                                   max_marks=max_marks)
    tree = build_tree(model)
    amp, freq = float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.5, 3.0))

    def path(slot):
        return amp * math.cos(freq * slot.step + scenarios.jump_count(slot.history))

    beta = float(rng.uniform(0.0, 4.0)) if beta is None else beta
    problem = BsdeProblem(model=model, beta=beta,
                          xi=random_terminal(rng, tree.n_marks),
                          f=per_slot(tree, lambda slot, y, zeta: path(slot), 0.0, 0.0),
                          _tree=tree)
    return problem


# -- fixtures -------------------------------------------------------------------


@pytest.fixture
def m1_problem():
    """K=1, one mark, jump size 1/2, terminal = jump indicator, zero driver."""
    model = scenarios.deterministic_grid(K=1, m=1, a=0.5)
    return BsdeProblem(model=model, beta=1.0, xi=scenarios.xi_jump_count(),
                       f=Generator.zero())


# -- scalar twins of the level-batch paths ----------------------------------------


def per_slot(tree, fn, lip_y, lip_z):
    """Generator of the per-slot driver ``fn(slot, y, zeta) -> float`` on ``tree``.

    The level form calls ``fn`` once per row, on the row's slot view
    ``tree.slot(i)``, its ``y`` and its ``zeta`` row: the scalar twin of a
    level driver, free to read the slot's history.
    """
    def level(block, y, zeta):
        return np.array([fn(tree.slot(i), a, z) for i, a, z in zip(block.index, y, zeta)],
                        dtype=float)

    return Generator(level, lip_y, lip_z)


def on_slots(gen, tree, ids, y, zeta):
    """Driver values of ``gen`` on the slots ``ids`` at ``y[n]``, ``zeta[n, m]``.

    ``ids`` is a slice or an array of slot ids; ``y`` and ``zeta`` are
    aligned with it.  Raises ``NonFinite`` on any non-finite value, as
    every solver route does.
    """
    return gen._checked(tree.block(ids), y, zeta)


def scalar_preset(name, params, tree):
    """Per-slot form of the CLI generator presets, one scalar call per slot."""
    p = params
    c0 = float(p.get("c0", 0.0))
    if name == "zero":
        return per_slot(tree, lambda slot, y, zeta: 0.0, 0.0, 0.0)
    if name == "constant":
        return per_slot(tree, lambda slot, y, zeta: c0, 0.0, 0.0)
    if name == "affine_y":
        c1 = float(p.get("c1", 0.0))
        return per_slot(tree, lambda slot, y, zeta: c0 + c1 * y, abs(c1), 0.0)
    if name == "affine_z":
        c1, c2 = float(p.get("c1", 0.0)), float(p.get("c2", 0.0))
        da = tree.slot_dA
        ratio = float(np.max(np.sqrt(da / (1.0 - da)))) if c2 != 0.0 and da.size else 0.0

        def fn(slot, y, zeta):
            val = c0 + c1 * scalar_seminorm(zeta, slot)
            if c2 != 0.0:
                val += c2 * scalar_hat_z(zeta, slot)
            return val

        return per_slot(tree, fn, 0.0, abs(c1) + abs(c2) * ratio)
    if name == "saturating":
        cy, cz = float(p.get("cy", 0.0)), float(p.get("cz", 0.0))
        return per_slot(
            tree, lambda slot, y, zeta: c0 + cy * np.tanh(y)
            + cz * np.tanh(scalar_seminorm(zeta, slot)), abs(cy), abs(cz))
    raise ValueError(name)


def zigzag(y, h):
    """Triangle wave of slope +-1 with a kink every ``h``: 1-Lipschitz, nowhere smooth at scale ``h``."""
    return h * np.abs(np.mod(y / h, 2.0) - 1.0)


def _singular_step(cond_mean, delta_A, slot, zeta, f, q):
    # the singular test and ``degenerate`` probe of ``solver._implicit_rows``
    r0 = cond_mean + delta_A * f(slot, 0.0, zeta)
    r1 = cond_mean + delta_A * f(slot, 1.0, zeta) - 1.0
    tol = 1e-12 * max(1.0, abs(cond_mean))
    return StepSingular(f"one-step map is not a contraction (dA * lip_y = {q})",
                        degenerate=abs(r0) <= tol and abs(r1) <= tol)


def scalar_implicit_step(cond_mean, delta_A, slot, zeta, f):
    """Root of ``y = cond_mean + delta_A * f(slot, y, zeta)`` by a scalar safeguarded secant.

    The one-slot twin of ``solver._implicit_rows``: the same first trial
    ``cond_mean``, fixed-point second trial, secant slope clipped to
    ``[1 - q, 1 + q]``, ``sqrt(q)`` acceptance test, stopping rule, budget,
    singular test and ``degenerate`` probe, with one one-slot driver call
    per trial.  Its value is within ``q / (1 - q) * max(STEP_TOL,
    ROUNDING * |y|)`` of the root.
    """
    q = delta_A * f.lip_y
    if q >= 1.0:
        raise _singular_step(cond_mean, delta_A, slot, zeta, f, q)
    if f.lip_y == 0.0:
        return cond_mean + delta_A * f(slot, cond_mean, zeta)
    lo, hi, sq = 1.0 - q, 1.0 + q, math.sqrt(q)
    t, it, budget = cond_mean, 0, STEP_FLOOR
    while it < budget:
        g = cond_mean + delta_A * f(slot, t, zeta)
        if not math.isfinite(g):
            raise NonFinite("implicit step iterates left the finite range")
        r = t - g
        if abs(r) <= max(STEP_TOL, ROUNDING * abs(g)):
            return g
        if it == 0:
            # every second trial at the latest cuts the kept residual by sqrt(q)
            need = math.ceil(math.log(STEP_TOL / abs(r)) / math.log(sq))
            budget = max(STEP_FLOOR, 2 * need + STEP_MARGIN)
            y, F, s, bound = t, r, 1.0, math.inf
        elif abs(r) <= bound:
            s = min(max((r - F) / (t - y), lo), hi)
            y, F, bound = t, r, sq * abs(r)
        else:
            s, bound = 1.0, math.inf
        t = y - F / s
        it += 1
    raise NoConvergence("implicit step did not reach tolerance")


def fixed_point_step(cond_mean, delta_A, slot, zeta, f):
    """Root of ``y = cond_mean + delta_A * f(slot, y, zeta)`` by plain fixed point.

    An independent reference for the secant of ``scalar_implicit_step``:
    iterates ``y <- cond_mean + delta_A * f(y)`` from ``cond_mean`` until a
    step is at most ``max(STEP_TOL, ROUNDING * |y|)``, so its value is
    within ``q / (1 - q)`` times that of the root.
    """
    q = delta_A * f.lip_y
    if q >= 1.0:
        raise _singular_step(cond_mean, delta_A, slot, zeta, f, q)
    y = cond_mean
    for _ in range(100_000):
        y_new = cond_mean + delta_A * f(slot, y, zeta)
        if not math.isfinite(y_new):
            raise NonFinite("implicit step iterates left the finite range")
        if abs(y_new - y) <= max(STEP_TOL, ROUNDING * abs(y_new)):
            return y_new
        y = y_new
    raise NoConvergence("implicit step did not reach tolerance")


def per_slot_oracle(problem):
    """Backward induction with one ``scalar_implicit_step`` call per slot.

    Shares the level arithmetic of ``backward_oracle`` (child values,
    conditional means, field rows) and differs only in solving the
    implicit step slot by slot, so both must agree to the bit.  Returns
    ``(Y, Z)``.
    """
    from treebsde.solver import _cond_means, _represent_block
    tree = problem.tree()
    Y = np.empty(tree.n_nodes)
    Y[tree.leaf_slice] = problem.terminal_values(tree)
    Z = np.zeros((tree.n_slots, tree.n_marks))
    for k in range(tree.horizon - 1, -1, -1):
        lv = tree._levels[k]
        sl = lv.slots
        V = tree._child_values(tree._node_values(Y), k)
        cm = _cond_means(lv, V)
        Z[sl] = _represent_block(lv, V)
        for off, s in enumerate(range(sl.start, sl.stop)):
            da = tree.slot_dA[s]
            Y[s] = cm[off] if da == 0.0 else scalar_implicit_step(
                cm[off], da, tree.slot(s), Z[s], problem.f)
    return Y, Z


# -- gather forms of the level kernels ---------------------------------------------


def gather_child_values(tree, Y, sl):
    """Children's values of the slots ``sl`` through ``node_children``, 0 where none.

    The one gather every slice takes; ``ScenarioTree._child_values``, which
    reads a level of one branch kind as a block of ``Y``, must match it to
    the bit.
    """
    ch = node_children(tree)[sl]
    V = Y[np.maximum(ch, 0)]
    V[ch < 0] = 0.0
    return V


def gather_parent_broadcast(tree, values, sl):
    """Each value of the slots ``sl`` at their children, gathered through ``node_parents``."""
    parent = node_parents(tree)
    kids = np.nonzero((parent >= sl.start) & (parent < sl.stop))[0]
    return values[parent[kids] - sl.start]


def gather_doleans(tree, beta):
    """``ScenarioTree.doleans`` by a gather of each level's parents."""
    parent = node_parents(tree)
    E = np.empty(tree.n_nodes)
    E[0] = 1.0
    for k in range(tree.horizon):
        ids = np.arange(tree.level_start[k + 1], tree.level_start[k + 2])
        par = parent[ids]
        E[ids] = E[par] * (1.0 + beta * tree.slot_dA[par])
    return E


def gather_accumulate(tree, slot_values):
    """Per-node sum of ``slot_values`` over the slots on the path from the root.

    The root gets 0 and each child its parent's sum plus the parent slot's
    value, by a gather of each level's parents; a full tree only, where
    every node has one path.
    """
    parent = node_parents(tree)
    out = np.zeros(tree.n_nodes)
    for k in range(tree.horizon):
        nodes = slice(int(tree.level_start[k + 1]), int(tree.level_start[k + 2]))
        par = parent[nodes]
        out[nodes] = out[par] + slot_values[par]
    return out


def masked_canonical_rows(Z, delta_A, phi):
    """``norms._canonical_rows`` by boolean gathers and scatters of the rows."""
    Z[delta_A == 0.0] = 0.0
    unit = delta_A == 1.0
    if np.any(unit):
        Z[unit] -= np.einsum("sm,sm->s", Z[unit], phi[unit])[:, None]
    return Z


def signed_values(rng, n):
    """``n`` values of mixed magnitudes with exact +0.0 and -0.0 entries:
    the sign of a zero is part of the bits."""
    v = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-4, 5, n)
    v[rng.random(n) < 0.05] = 0.0
    v[rng.random(n) < 0.05] = -0.0
    return v


def edge_child_values(tree, Y, sl):
    """Children's values of the slots of level ``sl`` of a merged tree, 0 where none.

    Each edge's node value placed in its slot's branch mask, edge by edge
    in slot and column order: a merged tree's ``node_children`` lacks the
    children whose first history is another's.
    """
    k = int(np.searchsorted(tree.level_start, sl.start, side="right")) - 1
    lv = tree._levels[k]
    V = np.zeros((sl.stop - sl.start, tree.n_marks + 1))
    V[lv.branches] = Y[lv.nodes][lv.edges[1]]
    return V


def gather_linear_sweep(tree, xi_leaf, f_path, child_values=gather_child_values):
    """The linear backward sweep on the gather forms above: ``(Y, Z, cm)``.

    Z is represented level by level, from ``child_values(tree, Y, slots)``
    (``edge_child_values`` on a merged tree).
    """
    from treebsde.solver import _cond_means
    Y = np.empty(tree.n_nodes)
    Y[tree.leaf_slice] = xi_leaf
    Z = np.zeros((tree.n_slots, tree.n_marks))
    cm = np.empty(tree.n_slots)
    for k in range(tree.horizon - 1, -1, -1):
        sl = tree.depth_slice(k)
        V = child_values(tree, Y, sl)
        Z[sl] = masked_canonical_rows(V[:, :-1] - V[:, -1][:, None],
                                      tree.slot_dA[sl], tree.slot_phi[sl])
        cm[sl] = _cond_means(tree._levels[k], V)
        Y[sl] = cm[sl] + f_path[sl] * tree.slot_dA[sl]
    return Y, Z, cm


def level_jump_identity(tree, Y, Z, f_path, child_values=gather_child_values):
    """Worst per-slot jump-identity residual, one level at a time, from
    ``child_values(tree, Y, slots)`` (``edge_child_values`` on a merged tree)."""
    from treebsde import norms
    zh = norms.hat_z_rows(Z, tree.block(slice(None)))
    worst = 0.0
    for k, lv in enumerate(tree._levels):
        sl = lv.slots
        g = np.concatenate([Z[sl] - zh[sl, None], -zh[sl, None]], axis=1)
        expected = Y[sl, None] + g - (f_path * tree.slot_dA)[sl, None]
        res = np.where(lv.branches, child_values(tree, Y, sl) - expected, 0.0)
        worst = np.max(np.abs(res), initial=worst)
    return float(worst)


# -- whole-tree forms of the level kernels -------------------------------------------


def conditional_means(tree, Y):
    """Per-slot conditional mean of the children's Y values, level by level."""
    from treebsde import solver
    cm, buf = np.empty(tree.n_slots), tree._node_values(Y)
    for k, lv in enumerate(tree._levels):
        cm[lv.slots] = solver._cond_means(lv, tree._child_values(buf, k))
    return cm


def bsde_residual(tree, Y, f_path):
    """Max slot residual of ``Y = cond_mean + dA * f`` over the tree."""
    from treebsde import solver
    return solver._residual(tree, Y, conditional_means(tree, Y), f_path)


def canonical_field(Z, tree):
    """Canonical copy of a field: ``norms._canonical_rows`` on every slot's row.

    Rows on ``delta_A = 0`` slots are zeroed (they carry no norm weight);
    rows on ``delta_A = 1`` slots are centered to ``sum(Z * phi) = 0``.
    """
    from treebsde import norms
    return norms._canonical_rows(np.array(Z, dtype=float, copy=True), tree._slot_rows)


# -- per-history twins of the level model and terminal forms -----------------------


def one_row(hist):
    """The ``(1, k)`` int8 history matrix of one history tuple."""
    return np.array(hist, dtype=np.int8).reshape(1, len(hist))


def per_leaf(xi):
    """Level form of a per-history terminal ``xi(history)``: one call per leaf row."""
    return lambda H: np.array([xi(hist) for hist in map(tuple, H.tolist())], dtype=float)


def scalar_path(model):
    """The same model evaluated one history at a time.

    Each level rule runs on one-row matrices, called per history through
    the per-history adapter of ``scenarios``.
    """
    def by_history(rule):
        return scenarios._per_history(lambda k, hist: rule(k, one_row(hist))[0])

    return dataclasses.replace(model, jump_size=by_history(model.jump_size),
                               mark_law=by_history(model.mark_law))


def scalar_random_model(rng, K=None, m=None, max_horizon=6, max_marks=3,
                        include_unit=True, include_zero=True):
    """Per-history form of ``scenarios.random_model``: same draws, per-history rules."""
    from treebsde import ScenarioModel
    K = int(rng.integers(1, max_horizon + 1)) if K is None else int(K)
    m = int(rng.integers(1, max_marks + 1)) if m is None else int(m)
    base = rng.uniform(0.05, 0.95, K)
    alt = rng.uniform(0.05, 0.95, K)
    unit = (rng.random(K) < 0.15) if include_unit else np.zeros(K, dtype=bool)
    zero = (rng.random(K) < 0.10) if include_zero else np.zeros(K, dtype=bool)
    zero &= ~unit
    history_dependent = bool(rng.random() < 0.5)

    def jump_size(k, hist):
        if unit[k]:
            return 1.0
        if zero[k]:
            return 0.0
        if history_dependent and scenarios.jump_count(hist) % 2 == 1:
            return float(alt[k])
        return float(base[k])

    raw = rng.uniform(0.2, 1.0, (2, m))
    laws = raw / raw.sum(axis=1, keepdims=True)
    law_dependent = bool(rng.random() < 0.5)

    def mark_law(k, hist):
        return laws[1 if (law_dependent and scenarios.jump_count(hist) % 2 == 1) else 0]

    return ScenarioModel(m=m, horizon=K,
                         jump_size=scenarios._per_history(jump_size),
                         mark_law=scenarios._per_history(mark_law))


def scalar_two_state_rule(K, m, a_after_jump, a_after_no_jump, phi=None):
    """Per-history form of the ``two_state_rule`` preset."""
    def rule(k, hist):
        return a_after_no_jump if k == 0 or hist[-1] == NO_JUMP else a_after_jump

    return scenarios.predictable_random_jumps(K=K, m=m, rule=rule, phi=phi)


def scalar_terminals(m):
    """Per-history forms of the three terminal factories on ``m`` marks, keyed by preset.

    Each entry is ``(factory's level terminal, per-history twin)``; run a
    twin on a leaf matrix through ``per_leaf``.
    """
    def last_mark(mark, scale):
        def xi(hist):
            for o in reversed(hist):
                if o != NO_JUMP:
                    return scale if o == mark else 0.0
            return 0.0
        return xi

    return {
        "constant": (scenarios.xi_constant(0.37), lambda hist: 0.37),
        "jump_count": (scenarios.xi_jump_count(0.53),
                       lambda hist: 0.53 * scenarios.jump_count(hist)),
        "last_mark": (scenarios.xi_last_mark_indicator(min(1, m - 1), 1.3, n_marks=m),
                      last_mark(min(1, m - 1), 1.3)),
    }


# -- per-item loop forms of the check suite ---------------------------------------


def loop_identity_lemma(problem, solution, t_index, beta=None):
    """``check_identity_lemma`` recomputing every integrand for one grid time."""
    from treebsde import norms, solver, verification
    tree = problem.tree()
    beta = problem.beta if beta is None else beta
    f_path = solver._path_values(problem, tree)
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
    return verification._identity("identity_lemma", lhs, rhs,
                                  detail={"t_index": j, "beta": beta})


def random_path(rng, max_steps=6):
    """One drift path ``((dAc, dA) rows, f)`` drawn one step vector at a time."""
    K = int(rng.integers(1, max_steps + 1))
    dAc = np.where(rng.random(K) < 0.5, rng.uniform(0.0, 0.5, K), 0.0)
    dA = rng.uniform(0.0, 1.0, K)
    dA[rng.random(K) < 0.15] = 1.0
    dA[rng.random(K) < 0.15] = 0.0
    return np.column_stack([dAc, dA]), rng.normal(0.0, 1.5, K)


def block_paths(dAc, dA, f_vals, steps):
    """The rows of a zero-padded path block, each cut to its length: ``[(path, f)]``."""
    return [(np.column_stack([dAc[i, :k], dA[i, :k]]), f_vals[i, :k])
            for i, k in enumerate(steps)]


def loop_integral_inequality(path, f_path, beta, t_index=0):
    """``check_integral_inequality`` on one path with Python-float sums."""
    from treebsde import verification
    from treebsde.measure_core import _as_path, doleans_exponential
    if beta <= 0:
        raise ValueError("beta must be strictly positive")
    dAc, dA = _as_path(path)
    f_vals = np.asarray(f_path, dtype=float)
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
    return verification._inequality("integral_inequality", lhs, rhs,
                                    detail={"t_index": j, "beta": beta})


def scan_worst(rows, gap):
    """The first row whose ``gap`` is NaN, else the first largest: one scalar scan."""
    worst = None
    for r in rows:
        if worst is None or math.isnan(gap(r)) > math.isnan(gap(worst)) or gap(r) > gap(worst):
            worst = r
    return worst


def loop_norm_sandwich(F, tree, slots):
    """``verification._sandwich_rows`` of the rows of ``F`` on ``slots``, one slot at a time.

    Returns the arrays ``(lo, sq, violation)``.
    """
    out = []
    for z, s in zip(np.asarray(F, dtype=float), slots):
        da, phi = float(tree.slot_dA[s]), tree.slot_phi[s]
        mean, spread = scalar_moments(z, da, phi)
        mid = spread + da * (1.0 - da) * mean * mean
        sq = phi_sum(z * z, phi)
        lo = (1.0 - da) * sq
        out.append((lo, sq, max(lo - mid, mid - sq) / max(sq, 1.0)))
    return np.array(out, dtype=float).reshape(-1, 3).T


def loop_run_sandwich(Z, tree, beta, take, stream):
    """The suite's norm sandwich row: one scan over every row of every field."""
    from treebsde import norms, verification as v
    n, m = tree.n_slots, tree.n_marks
    R = np.array([normal_draws(stream, m) for _ in range(n)]).reshape(n, m)
    centred = np.array([r - phi_sum(r, phi) for r, phi in zip(R, tree.slot_phi)]).reshape(n, m)
    samples = [np.array([normal_draws(stream, m) for _ in range(v.N_FIELDS)]).reshape(-1, m)
               for _ in take]
    rows = [s for s in take for _ in range(v.N_FIELDS)]
    fields = [("solution", Z, range(n)), ("constant", np.ones((n, m)), range(n)),
              ("normal", R, range(n)), ("centred", centred, range(n)),
              ("sampled", np.concatenate(samples or [np.zeros((0, m))]), rows)]
    scanned = []
    for name, F, slots in fields:
        lo, sq, viol = loop_norm_sandwich(F, tree, slots)
        if name == "solution":
            wd = tree.prob[:n] * tree.doleans_at_slot_end(beta) * tree.slot_dA
            sums = {"lower": float(np.sum(wd * lo)), "mid": norms.z_norm_sq(Z, tree, beta),
                    "upper": float(np.sum(wd * sq))}
        scanned += [(x, {"field": name, "slot": int(s)}) for x, s in zip(viol, slots)]
    worst, detail = scan_worst(scanned, lambda r: r[0]) or (0.0, {})
    return v._inequality("norm_equivalence", worst, 0.0, detail={**detail, **sums})


def _uniform(stream):
    # one uniform on [0, 1): the top 53 bits of 8 little-endian bytes
    return (int.from_bytes(stream.randbytes(8), "little") >> 11) * 2.0 ** -53


def normal_draws(stream, k, scale=1.0):
    """``k`` normal draws of a check stream, one Box-Muller pair at a time.

    Written without library code; it takes numpy's scalar ``log`` and
    ``cos``, since ``math.log`` differs from numpy's in the last bit on
    some inputs.
    """
    out = []
    for _ in range(k):
        u1, u2 = _uniform(stream), _uniform(stream)
        out.append(scale * np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2))
    return np.array(out)


def per_sample_draws(stream, samples, m):
    """Lipschitz samples ``(y, y2, z, z2)`` drawn one scalar or vector at a time."""
    return [(normal_draws(stream, 1, 2.0)[0], normal_draws(stream, 1, 2.0)[0],
             normal_draws(stream, m, 2.0), normal_draws(stream, m, 2.0))
            for _ in range(samples)]


def lipschitz_samples(f, slot, samples, hat_lz_sq=None):
    """``check_lipschitz`` on given ``(y, y2, z, z2)`` samples.

    ``verification._lipschitz_rows`` on a block of ``slot`` repeated once
    per sample.
    """
    from treebsde import verification
    from treebsde.measure_core import SlotBlock
    draws = np.array([np.hstack(d) for d in samples], dtype=float)
    block = SlotBlock.of_view(slot).take(np.zeros(len(draws), dtype=np.int64))
    return verification._lipschitz_rows(f, block, draws, hat_lz_sq, len(draws))


def _nan_max(a, b):
    # np.maximum on two floats: a NaN wins, else the first of equal values
    return a if math.isnan(a) or not b > a else b


def loop_lipschitz(f, slot, draws, hat_lz_sq=None):
    """``check_lipschitz`` with one driver call and Python-float margins per sample."""
    from treebsde import verification
    if hat_lz_sq is None:
        hat_lz_sq = f.lip_z ** 2 + 0.1
    da = float(slot.delta_A)
    rows = []
    for y, y2, z, z2 in draws:
        y, y2 = float(y), float(y2)
        z, z2 = [float(x) for x in z], [float(x) for x in z2]
        dz = [b - a for a, b in zip(z, z2)]
        s = scalar_seminorm(dz, slot)
        fbar = f(slot, y2, np.array(z2)) - f(slot, y, np.array(z))
        plain = abs(fbar) - (f.lip_y * abs(y2 - y) + f.lip_z * s)
        zh = scalar_hat_z(dz, slot)
        expanded = phi_sum([(d - zh) * (d - zh) for d in dz], slot.phi)
        if da != 0.0:
            expanded += (1.0 - da) / da * zh ** 2
        squared = fbar ** 2 - (2.0 * f.lip_y ** 2 * (y2 - y) ** 2 + 2.0 * hat_lz_sq * expanded)
        forms = abs(expanded - s ** 2) / _nan_max(s ** 2, 1.0) - 1e-12
        margin = _nan_max(_nan_max(plain, squared), forms)
        rows.append((margin, {"y": y, "y2": y2, "z": z, "z2": z2}))
    worst, witness = scan_worst(rows, lambda r: r[0])
    return verification._inequality("lipschitz_bound", worst, 0.0,
                                    detail={"hat_lz_sq": float(hat_lz_sq),
                                            "n_samples": len(draws), "witness": witness})


def full_matrix_jump_identity(solution, problem):
    """``check_solution_jump_identity`` on the full ``(n_slots, m+1)`` residual matrix."""
    from treebsde import norms, solver, verification
    tree = problem.tree()
    Y, Z = solution.Y, solution.Z
    n = tree.n_slots
    f_path = solver._eval_path(tree, problem.f, Y, Z)
    zh = norms.hat_z_rows(Z, tree.block(slice(None)))
    ch = node_children(tree)
    Yc = Y[np.maximum(ch, 0)]
    g = np.concatenate([Z - zh[:, None], -zh[:, None]], axis=1)
    expected = Y[:n, None] + g - (f_path * tree.slot_dA)[:, None]
    res = np.where(ch >= 0, Yc - expected, 0.0)
    worst = float(np.max(np.abs(res), initial=0.0))
    return verification._inequality("jump_identity", worst, 0.0,
                                    slack=verification.JUMP_SLACK)


def loop_run_suite(problem, solution, seed=0, c_scale=1.0):
    """``run_suite`` with one check call per grid time, path, field and sample.

    The drift paths are the library's block draw, each row cut to its length;
    the worst path is scanned among those with an increment, if any.
    """
    from treebsde import solver, verification as v
    tree = problem.tree()
    results = []
    beta = problem.beta

    Y, Z = solution.Y, solution.Z
    frozen_vals = solver._eval_path(tree, problem.f, Y, Z)
    frozen = solver.BsdeProblem(
        model=problem.model, beta=beta, xi=problem.xi,
        f=solver.Generator(lambda block, y, zeta: frozen_vals[block.index], 0.0, 0.0),
        _tree=tree,
    )

    results.append(scan_worst([loop_identity_lemma(frozen, solution, j)
                               for j in range(tree.horizon + 1)], lambda r: r.rel_gap))

    if beta > 0:
        paths = block_paths(*v._random_paths(v._stream("paths", seed), v.N_PATHS))
        live = [(path, f) for path, f in paths if path.any()]
        worst = scan_worst([loop_integral_inequality(path, f, beta) for path, f in live or paths],
                           lambda r: r.abs_gap)
        results.append(dataclasses.replace(worst, detail={
            **worst.detail, "trivial_paths": len(paths) - len(live)}))
        results.append(v.check_apriori_estimate(frozen, solution, c_scale=c_scale))
    else:
        results.append(v._skipped("integral_inequality", "needs beta > 0"))
        results.append(v._skipped("apriori_estimate", "needs beta > 0"))

    take = np.unique(np.linspace(0, tree.n_slots - 1,
                                 min(v.MAX_SLOTS, tree.n_slots)).astype(int))
    results.append(loop_run_sandwich(Z, tree, beta, take, v._stream("sandwich", seed)))
    if tree.n_slots:
        stream = v._stream("lipschitz", seed)
        results.append(scan_worst(
            [loop_lipschitz(problem.f, tree.slot(int(s)),
                            per_sample_draws(stream, v.N_SAMPLES, tree.n_marks))
             for s in take], lambda r: r.abs_gap))
    else:
        results.append(v._skipped("lipschitz_bound", "no slots"))

    results.append(full_matrix_jump_identity(solution, problem))
    return results
