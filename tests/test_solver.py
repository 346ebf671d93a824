import dataclasses
import sys

import numpy as np
import pytest

from treebsde import (BsdeProblem, ConditionViolated, Generator, NoConvergence, NonFinite,
                      StepSingular, backward_oracle, build_tree, cli, conditions,
                      implicit_step_solve, norms, picard_map, picard_solve, solve_linear)
from treebsde import scenarios
from treebsde.solver import (Solution, _cond_means,
                             _eval_path, _linear_sweep, _represent_block)
from treebsde import verification
from treebsde.verification import check_solution_jump_identity

from conftest import (bsde_residual, canonical_field, conditional_means, fixed_point_step,
                      full_matrix_jump_identity, gather_accumulate, gather_child_values,
                      gather_doleans, gather_linear_sweep, gather_parent_broadcast,
                      level_jump_identity, masked_canonical_rows, node_children, per_slot, random_linear_problem,
                      random_problem, random_terminal, represent_martingale, scalar_hat_z,
                      zigzag)
from conftest import signed_values as _signed_values


def slot_of(K=1, m=1, a=0.5, phi=None):
    return build_tree(scenarios.deterministic_grid(K=K, m=m, a=a, phi=phi)).slot(0)


# -- represent_martingale ---------------------------------------------------------


def test_represent_constant_values_have_null_field():
    Z, check = represent_martingale([3.0, 3.0, 3.0], slot_of(m=2, a=0.4))
    assert np.all(Z == 0.0)
    assert check == 0.0


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_represent_two_point_solve(p):
    slot = slot_of(m=1, a=p)
    Z, check = represent_martingale([1.0, 0.0], slot)
    assert Z == pytest.approx([1.0])
    assert scalar_hat_z(Z, slot) == pytest.approx(p)
    assert check < 1e-15


def test_represent_unit_jump_centering():
    slot = slot_of(m=2, a=1.0, phi=(0.5, 0.5))
    Z, check = represent_martingale([3.0, 1.0, 0.0], slot)   # no-jump entry ignored
    assert Z == pytest.approx([1.0, -1.0])
    assert check < 1e-15


def test_represent_zero_jump_slot_returns_null():
    Z, check = represent_martingale([7.0, 0.0], slot_of(m=1, a=0.0))
    assert np.all(Z == 0.0) and check == 0.0


def test_represent_reconstruction_error_is_rounding_level():
    rng = np.random.default_rng(3)
    tree = build_tree(scenarios.random_model(rng, K=3))
    for s in range(tree.n_slots):
        slot = tree.slot(s)
        vals = rng.normal(0, 2, tree.n_marks + 1)
        _, check = represent_martingale(vals, slot)
        assert check < 1e-13


def test_level_representation_matches_the_slot_oracle():
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(15):
        tree = build_tree(scenarios.random_model(rng, max_horizon=4))
        rows = tree._slot_rows
        Y = rng.normal(0, 2, tree.n_nodes)
        V = np.concatenate([tree._child_values(tree._node_values(Y), k)
                            for k in range(tree.horizon)])
        Z, cm = _represent_block(rows, V), _cond_means(rows, V)
        for s in range(tree.n_slots):
            slot = tree.slot(s)
            seen.add(slot.delta_A if slot.delta_A in (0.0, 1.0) else "inner")
            Zo, check = represent_martingale(V[s], slot)
            assert check < 1e-13
            assert np.max(np.abs(Z[s] - Zo)) <= 1e-13
            # every existing child is cond_mean + g(outcome) for the oracle's row
            zh = scalar_hat_z(Zo, slot)
            g = np.append(Zo - zh, -zh)
            exists = node_children(tree)[s] >= 0
            assert np.max(np.abs(V[s][exists] - (cm[s] + g[exists]))) <= 1e-13
    assert seen == {0.0, 1.0, "inner"}


# -- child layout: the child map, and the plans read as views ------------------------
#
# two_state_rule with a_after_jump 0 or 1 and an interior a_after_no_jump
# mixes dA = 0 or dA = 1 slots with interior ones on every level past the
# first; pdmp_like has unit jumps only, and the grid one kind per step


def _law(m):
    w = np.arange(1.0, m + 1.0)
    return w / w.sum()


def _mixed_model(m, a_jump, K=5):
    return scenarios.two_state_rule(K, m, a_jump, 0.35, phi=_law(m))


LAYOUT_MODELS = (
    [pytest.param(_mixed_model(m, a), id=f"mixed-m{m}-a{a:g}")
     for m in range(1, 5) for a in (0.0, 1.0)]
    + [pytest.param(scenarios.pdmp_like(4, m, phi=_law(m)), id=f"unit-m{m}") for m in (1, 3)]
    + [pytest.param(scenarios.deterministic_grid(4, 3, [0.4, 0.0, 1.0, 0.7], phi=_law(3)),
                    id="kinds-by-step")])


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


# LAYOUT_MODELS and seeded random models, K = 0 among them
OPERATOR_MODELS = (
    LAYOUT_MODELS
    + [pytest.param(scenarios.random_model(np.random.default_rng(seed), K=seed % 5),
                    id=f"random-{seed}-K{seed % 5}") for seed in range(15)])


@pytest.mark.parametrize("merged", [False, True], ids=["full", "merged"])
@pytest.mark.parametrize("model", OPERATOR_MODELS)
def test_a_plan_reads_a_view_or_one_gather_through_the_child_map(model, merged):
    if merged:
        model = dataclasses.replace(model, state=lambda k, H: scenarios.jump_counts(H))
    tree = build_tree(model)
    n, index = tree.n_nodes, tree._child_index
    # no map exactly on a full tree whose every slot has every child
    assert (index is None) == (not merged and bool(tree._branches.all()))
    if not merged and index is not None:
        # a full tree's children are the nodes after the root, in slot and column order
        assert np.array_equal(index[tree._branches], np.arange(1, n))
        assert np.array_equal(index, np.where(node_children(tree) >= 0, node_children(tree), n))
    buf = tree._node_values(_signed_values(np.random.default_rng(n), n))
    for k, lv in [*enumerate(tree._levels), (None, tree._slot_rows)]:
        # a view exactly on a full tree's plan whose every slot has every child
        view = not merged and bool(lv.branches.all())
        assert (lv.child_index is None) == view
        V = tree._child_values(buf, k)
        assert np.shares_memory(V, buf) == (view and V.size > 0)
        if not view:
            assert np.array_equal(lv.child_index, index[lv.slots])
        # the child count of each slot, one number when every slot has as many
        counts = np.count_nonzero(lv.branches, 1)
        assert np.array_equal(np.broadcast_to(lv.children, counts.shape), counts)
        assert isinstance(lv.children, int) == bool(np.all(counts == counts[:1].sum()))


@pytest.mark.parametrize("model", OPERATOR_MODELS)
def test_child_operators_and_forward_sweep_equal_the_gather_forms_to_the_bit(model):
    tree = build_tree(model)
    rng = np.random.default_rng(tree.n_nodes + 1)
    buf = _signed_values(rng, tree.n_nodes + 7)
    for off in (0, 1, 3, 7):     # views of Y at odd offsets
        Y = buf[off:off + tree.n_nodes]
        for k in range(tree.horizon):
            sl = tree.depth_slice(k)
            assert (_bits(tree._child_values(tree._node_values(Y), k))
                    == _bits(gather_child_values(tree, Y, sl)))
            assert (_bits(tree._forward(Y[sl], k))
                    == _bits(gather_parent_broadcast(tree, Y[sl], sl)))
    for beta in (0.0, 0.7, 8.0):
        assert _bits(tree.doleans(beta)) == _bits(gather_doleans(tree, beta))


@pytest.mark.parametrize("model", LAYOUT_MODELS)
def test_level_kernels_equal_the_gather_forms_to_the_bit(model):
    tree = build_tree(model)
    rng = np.random.default_rng(tree.n_nodes)
    buf = _signed_values(rng, tree.n_nodes + 7)
    for off in (0, 1, 3, 7):     # views of Y at odd offsets
        Y = buf[off:off + tree.n_nodes]
        for k, lv in enumerate(tree._levels):
            sl = lv.slots
            V, Vg = tree._child_values(tree._node_values(Y), k), gather_child_values(tree, Y, sl)
            assert _bits(V) == _bits(Vg)
            assert _bits(_cond_means(lv, V)) == _bits(_cond_means(lv, Vg))
            Zg = masked_canonical_rows(Vg[:, :-1] - Vg[:, -1][:, None],
                                       tree.slot_dA[sl], tree.slot_phi[sl])
            assert _bits(_represent_block(lv, V)) == _bits(Zg)
        whole = gather_child_values(tree, Y, slice(0, tree.n_slots))
        assert (_bits(conditional_means(tree, Y))
                == _bits(_cond_means(tree._slot_rows, whole)))
    Z = _signed_values(rng, tree.n_slots * tree.n_marks).reshape(tree.n_slots, -1)
    assert _bits(canonical_field(Z, tree)) == _bits(
        masked_canonical_rows(Z.copy(), tree.slot_dA, tree.slot_phi))
    xi_leaf = _signed_values(rng, tree.n_nodes - tree.n_slots)
    f_path = _signed_values(rng, tree.n_slots)
    cm = np.empty(tree.n_slots)
    Y, Z = _linear_sweep(tree, xi_leaf, f_path, cm)
    oracle = gather_linear_sweep(tree, xi_leaf, f_path)
    assert [_bits(a) for a in (Y, Z, cm)] == [_bits(a) for a in oracle]


# -- full trees: the whole-tree read, the two-phase sweep and the one-block identity ------


@pytest.mark.parametrize("model", OPERATOR_MODELS)
def test_the_whole_tree_read_is_the_level_reads_to_the_bit(model):
    tree = build_tree(model)
    n = tree.n_nodes
    buf = _signed_values(np.random.default_rng(n), n + 8)
    for off in (0, 1, 3, 7):     # views at odd offsets
        Y = buf[off:off + n]
        levels = [gather_child_values(tree, Y, lv.slots) for lv in tree._levels]
        for k, V in enumerate(levels):
            assert _bits(tree._child_values(tree._node_values(Y), k)) == _bits(V)
        whole = np.concatenate(levels) if levels else np.zeros((0, tree.n_marks + 1))
        assert _bits(tree._child_values(tree._node_values(Y))) == _bits(whole)
        assert np.array_equal(node_children(tree) >= 0, tree._slot_rows.branches)


@pytest.mark.parametrize("model", OPERATOR_MODELS)
def test_the_two_phase_linear_sweep_is_the_per_level_sweep_on_full_trees(model):
    tree = build_tree(model)
    leaves, n = tree.n_nodes - tree.n_slots, tree.n_slots
    buf = _signed_values(np.random.default_rng(tree.n_nodes + 1), leaves + n + 8)
    for off in (0, 1, 3, 7):     # views at odd offsets
        xi_leaf, f_path = buf[off:off + leaves], buf[off + leaves:off + leaves + n]
        cm = np.empty(n)
        Y, Z = _linear_sweep(tree, xi_leaf, f_path, cm)
        want = gather_linear_sweep(tree, xi_leaf, f_path)
        assert [_bits(a) for a in (Y, Z, cm)] == [_bits(a) for a in want]
        assert Y.shape == (tree.n_nodes,) and Z.shape == (n, tree.n_marks)


@pytest.mark.parametrize("model", OPERATOR_MODELS)
def test_the_one_block_jump_identity_is_the_level_loop_on_full_trees(model):
    tree = build_tree(model)
    rng = np.random.default_rng(tree.n_nodes + 2)
    Y, f_path = _signed_values(rng, tree.n_nodes), _signed_values(rng, tree.n_slots)
    Z = _signed_values(rng, tree.n_slots * tree.n_marks).reshape(tree.n_slots, tree.n_marks)
    for nan in (False, True):
        if nan:
            Y[-1] = np.nan       # a leaf: the worst residual is NaN both ways
        got = verification._jump_identity(tree, Y, Z, f_path).lhs
        want = level_jump_identity(tree, Y, Z, f_path)
        assert got.hex() == want.hex()
        assert np.isnan(got) == (nan and tree.n_slots > 0)


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("a_jump", [0.0, 1.0])
def test_routes_agree_on_levels_that_mix_branch_kinds(m, a_jump):
    model = _mixed_model(m, a_jump)
    tree = build_tree(model)
    xi = scenarios.xi_jump_count(0.8)

    def path(block, y, zeta):
        return 0.2 + 0.3 * np.cos(block.step + 2.0 * block.delta_A)

    linear = BsdeProblem(model=model, beta=2.0, xi=xi,
                         f=Generator(path, 0.0, 0.0), _tree=tree)
    routes = [solve_linear(linear), picard_solve(linear)[0], backward_oracle(linear)]
    for other in routes[1:]:
        assert np.max(np.abs(other.Y - routes[0].Y)) <= 1e-8
        assert np.max(np.abs(other.Z - routes[0].Z)) <= 1e-8

    def feedback(block, y, zeta):
        return (path(block, y, zeta) + 0.4 * np.tanh(y)
                + 0.5 * np.tanh(norms.lipschitz_seminorm_rows(zeta, block)))

    problem = BsdeProblem(model=model, beta=2.0, xi=xi,
                          f=Generator(feedback, 0.4, 0.5), _tree=tree)
    sol, rep = picard_solve(problem)
    oracle = backward_oracle(problem)
    assert rep.converged
    assert np.max(np.abs(sol.Y - oracle.Y)) <= 1e-8
    assert np.max(np.abs(sol.Z - oracle.Z)) <= 1e-8
    for case in (sol, oracle):
        r = check_solution_jump_identity(case, problem)
        full = full_matrix_jump_identity(case, problem)
        assert (r.lhs.hex(), r.passed) == (full.lhs.hex(), full.passed)


# -- solve_linear --------------------------------------------------------------------


def test_solve_linear_zero_data_is_zero_solution():
    model = scenarios.deterministic_grid(K=3, m=2, a=0.5)
    sol = solve_linear(BsdeProblem(model=model, beta=1.0,
                                   xi=scenarios.xi_constant(0.0),
                                   f=Generator.zero()))
    assert np.all(sol.Y == 0.0) and np.all(sol.Z == 0.0)


def test_solve_linear_m1_example(m1_problem):
    sol = solve_linear(m1_problem)
    assert sol.Y[0] == pytest.approx(0.5)
    assert sol.Z == pytest.approx(np.array([[1.0]]))


def test_solve_linear_constant_driver():
    c, p = 0.7, 0.3
    model = scenarios.deterministic_grid(K=1, m=1, a=p)
    sol = solve_linear(BsdeProblem(model=model, beta=0.0,
                                   xi=scenarios.xi_constant(0.0),
                                   f=Generator(lambda block, y, z: np.full(y.shape, c),
                                               0.0, 0.0)))
    assert sol.Y[0] == pytest.approx(c * p, rel=1e-15)
    assert np.all(sol.Z == 0.0)


# each field of a CLI-built problem, replaced; the CLI attaches its tree
REPLACED = {
    "model": lambda p: {"model": scenarios.deterministic_grid(K=3, m=2, a=0.6)},
    "xi": lambda p: {"xi": scenarios.xi_jump_count(1.5)},
    # replacing fn used to leave the batched copy of the old driver in charge
    "f": lambda p: {"f": dataclasses.replace(p.f, fn=lambda b, y, z: np.full(y.shape, 100.0))},
    "beta": lambda p: {"beta": 5.0},
}


@pytest.mark.parametrize("generator", [{"preset": "affine_z", "params": {"c0": 0.1, "c1": 0.5}},
                                       {"preset": "constant", "params": {"c0": 0.3}}],
                         ids=["affine_z", "constant"])
@pytest.mark.parametrize("name", REPLACED)
def test_a_replaced_field_is_the_one_solved(name, generator):
    # every route solves the replaced field: the bits of a fresh problem with the
    # same four fields; a stored tree or terminal used to outlive its field
    problem, diag = cli._build_problem(cli.RunConfig(
        model={"preset": "pdmp_like", "params": {"K": 4, "m": 2}}, generator=generator,
        beta=2.0))
    replaced = dataclasses.replace(problem, **REPLACED[name](problem))
    fresh = BsdeProblem(model=replaced.model, beta=replaced.beta, xi=replaced.xi, f=replaced.f)
    ref = backward_oracle(fresh)
    for route in (backward_oracle, lambda p: picard_map(p, ref.Y, ref.Z),
                  *([solve_linear] if fresh.f.is_path else [])):
        got, want = route(replaced), route(fresh)
        assert (_bits(got.Y), _bits(got.Z)) == (_bits(want.Y), _bits(want.Z))
    for kwargs in ({}, {"delta": diag["delta"]}):
        assert (_value_bits(*picard_solve(replaced, **kwargs))
                == _value_bits(*picard_solve(fresh, **kwargs)))
    if name != "beta":   # the case replaces what the solution reads
        old = backward_oracle(BsdeProblem(problem.model, problem.beta, problem.xi, problem.f))
        assert _bits(ref.Y) != _bits(old.Y)


def test_solve_linear_terminal_reproduced_and_residual_zero():
    rng = np.random.default_rng(0)
    problem = random_linear_problem(rng, K=4)
    tree = problem.tree()
    sol = solve_linear(problem)
    assert sol.Y[tree.leaf_slice] == pytest.approx(problem.terminal_values(tree))
    f_path = _eval_path(tree, problem.f, sol.Y, sol.Z)
    assert bsde_residual(tree, sol.Y, f_path) < 1e-12


def test_solve_linear_is_linear_in_data():
    rng = np.random.default_rng(1)
    model = scenarios.random_model(rng, K=3)
    tree = build_tree(model)
    xi1, xi2 = random_terminal(rng, model.m), random_terminal(rng, model.m)
    f1 = Generator(lambda block, y, z: 0.4 * block.step + 0.1, 0.0, 0.0)
    f2 = per_slot(tree, lambda slot, y, z: -0.3 + 0.2 * scenarios.jump_count(slot.history),
                  0.0, 0.0)
    lam = 1.7

    def combo_xi(h):
        return xi1(h) + lam * xi2(h)

    combo_f = per_slot(tree, lambda slot, y, z: f1(slot, y, z) + lam * f2(slot, y, z), 0.0, 0.0)
    s1 = solve_linear(BsdeProblem(model=model, beta=1.0, xi=xi1, f=f1, _tree=tree))
    s2 = solve_linear(BsdeProblem(model=model, beta=1.0, xi=xi2, f=f2, _tree=tree))
    s = solve_linear(BsdeProblem(model=model, beta=1.0, xi=combo_xi, f=combo_f, _tree=tree))
    assert s.Y == pytest.approx(s1.Y + lam * s2.Y, rel=1e-12, abs=1e-12)
    assert s.Z == pytest.approx(s1.Z + lam * s2.Z, rel=1e-12, abs=1e-12)


# -- implicit_step_solve ----------------------------------------------------------------


def test_implicit_zero_jump_returns_conditional_mean():
    f = Generator(lambda block, y, z: np.full(y.shape, 99.0), 0.0, 0.0)
    assert implicit_step_solve(0.25, 0.0, slot_of(), None, f) == 0.25


def test_implicit_affine_fixed_point():
    f = Generator(lambda block, y, z: y, 1.0, 0.0)
    got = implicit_step_solve(0.5, 0.5, slot_of(), np.zeros(1), f)
    assert got == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("delta_A", [0.0, 0.5])
def test_implicit_refuses_a_non_finite_path_driver(delta_A):
    # lip_y = 0 evaluates the driver once; its value must be finite, as on the oracle
    f = Generator(lambda b, y, z: np.full(y.shape, np.nan), 0.0, 0.0)
    with pytest.raises(NonFinite, match="generator value nan at slot 0"):
        implicit_step_solve(0.25, delta_A, slot_of(), np.zeros(1), f)


def test_implicit_blows_up_at_unit_contraction():
    p = 0.5
    f = Generator(lambda block, y, z: y / p, 1.0 / p, 0.0)
    with pytest.raises(StepSingular) as exc:
        implicit_step_solve(1.0, p, slot_of(a=p), np.zeros(1), f)
    assert not exc.value.degenerate


def test_implicit_degenerate_when_mean_vanishes():
    p = 0.5
    f = Generator(lambda block, y, z: y / p, 1.0 / p, 0.0)
    with pytest.raises(StepSingular) as exc:
        implicit_step_solve(0.0, p, slot_of(a=p), np.zeros(1), f)
    assert exc.value.degenerate


def test_implicit_degenerate_up_to_rounding():
    # the one-step map counts as the identity up to 1e-12 relative: a mean
    # of 1e-14 is within it, a mean of 1e-10 is not
    p = 0.5
    f = Generator(lambda block, y, z: y / p, 1.0 / p, 0.0)
    for mean, degenerate in [(1e-14, True), (1e-10, False)]:
        with pytest.raises(StepSingular) as exc:
            implicit_step_solve(mean, p, slot_of(a=p), np.zeros(1), f)
        assert exc.value.degenerate == degenerate


def test_implicit_step_agrees_with_the_fixed_point_reference():
    # each value is within q / (1 - q) * max(STEP_TOL, ROUNDING * |y|) of the root
    from treebsde.solver import ROUNDING, STEP_TOL
    rng = np.random.default_rng(34)
    tree = build_tree(scenarios.deterministic_grid(K=1, m=2, a=0.4, phi=[0.3, 0.7]))
    for _ in range(300):
        lip, dA = rng.uniform(0.1, 1.5), rng.uniform(0.0, 1.0)
        q = lip * dA
        if q >= 0.95:
            continue
        c0, h = rng.normal(0, 1), rng.uniform(0.01, 0.5)
        f = [Generator(lambda b, y, z: c0 + lip * np.sin(y), lip, 0.0),
             Generator(lambda b, y, z: c0 + lip * zigzag(y, h), lip, 0.0),
             cli._build_generator({"preset": "saturating",
                                   "params": {"c0": c0, "cy": -lip, "cz": 0.5}}, tree)
             ][rng.integers(3)]
        cm, zeta = rng.normal(0, 3), rng.normal(0, 1, 2)
        y = implicit_step_solve(cm, dA, tree.slot(0), zeta, f)
        ref = fixed_point_step(cm, dA, tree.slot(0), zeta, f)
        assert abs(y - ref) <= 2 * max(STEP_TOL, ROUNDING * max(abs(y), abs(ref))) / (1 - q)


# -- backward_oracle --------------------------------------------------------------------


def test_oracle_agrees_with_linear_solver():
    rng = np.random.default_rng(2)
    for _ in range(25):
        problem = random_linear_problem(rng, max_horizon=4)
        lin = solve_linear(problem)
        ora = backward_oracle(problem)
        assert np.max(np.abs(lin.Y - ora.Y)) < 1e-12
        assert np.max(np.abs(lin.Z - ora.Z)) < 1e-12


def test_oracle_constant_terminal_is_constant_solution():
    model = scenarios.deterministic_grid(K=3, m=2, a=0.6)
    sol = backward_oracle(BsdeProblem(model=model, beta=1.0,
                                      xi=scenarios.xi_constant(2.5),
                                      f=Generator.zero()))
    assert np.all(np.abs(sol.Y - 2.5) < 1e-14)
    assert np.all(sol.Z == 0.0)


def test_oracle_one_step_implicit_example(m1_problem):
    f = Generator(lambda block, y, z: y, 1.0, 0.0)
    problem = BsdeProblem(model=m1_problem.model, beta=1.0,
                          xi=m1_problem.xi, f=f)
    sol = backward_oracle(problem)
    assert sol.Y[0] == pytest.approx(1.0, abs=1e-12)   # y = 1/2 + y/2
    assert sol.Z == pytest.approx(np.array([[1.0]]))


def test_oracle_martingale_part_has_zero_conditional_increments():
    rng = np.random.default_rng(4)
    problem, _ = random_problem(rng, max_horizon=4)
    tree = problem.tree()
    sol = backward_oracle(problem)
    f_path = _eval_path(tree, problem.f, sol.Y, sol.Z)
    martingale = sol.Y + gather_accumulate(tree, f_path * tree.slot_dA)
    cm = conditional_means(tree, martingale)
    assert np.max(np.abs(cm - martingale[: tree.n_slots])) < 1e-10


def test_the_oracle_evaluates_the_driver_only_in_the_implicit_step(monkeypatch):
    # a dA = 0 slot is the q = 0 row of the level's implicit step, with no
    # driver evaluation of its own
    model = scenarios.two_state_rule(K=4, m=2, a_after_jump=0.0, a_after_no_jump=0.45)
    f = Generator(lambda block, y, zeta: 0.2 + 0.5 * np.tanh(y), 0.5, 0.0)
    problem = BsdeProblem(model=model, beta=1.0, xi=scenarios.xi_jump_count(1.0), f=f)
    assert np.any(problem.tree().slot_dA == 0.0)
    checked, callers = Generator._checked, []

    def counting(self, block, y, zeta):
        callers.append(sys._getframe(1).f_code.co_name)
        return checked(self, block, y, zeta)

    monkeypatch.setattr(Generator, "_checked", counting)
    backward_oracle(problem)
    assert "_implicit_rows" in callers
    assert [c for c in callers if c != "_implicit_rows"] == []


# -- picard -------------------------------------------------------------------------------


def test_picard_path_generator_converges_in_one_sweep():
    rng = np.random.default_rng(5)
    problem = random_linear_problem(rng, K=3)
    sol, rep = picard_solve(problem)
    assert rep.iterations == 1
    lin = solve_linear(problem)
    assert np.max(np.abs(sol.Y - lin.Y)) < 1e-14


def test_picard_zero_data_one_sweep():
    model = scenarios.deterministic_grid(K=2, m=1, a=0.5)
    sol, rep = picard_solve(BsdeProblem(model=model, beta=1.0,
                                        xi=scenarios.xi_constant(0.0),
                                        f=Generator.zero()))
    assert rep.iterations == 1
    assert np.all(sol.Y == 0.0)


def test_picard_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(15):
        problem, delta = random_problem(rng, max_horizon=4)
        sol, rep = picard_solve(problem, delta=delta)
        ora = backward_oracle(problem)
        tree = problem.tree()
        assert abs(sol.Y[0] - ora.Y[0]) < 1e-8
        dist = np.sqrt(norms.mixed_norm_sq(sol.Y - ora.Y, sol.Z - ora.Z,
                                           tree, problem.beta))
        assert dist < 1e-8
        assert rep.converged and rep.residual <= 1e-10


def test_picard_jump_identity_of_solution():
    rng = np.random.default_rng(7)
    problem, delta = random_problem(rng, max_horizon=4)
    tree = problem.tree()
    sol, _ = picard_solve(problem, delta=delta)
    f_path = _eval_path(tree, problem.f, sol.Y, sol.Z)
    zh = norms.hat_z_rows(sol.Z, tree.block(slice(None)))
    for s in range(tree.n_slots):
        ch = node_children(tree)[s]
        for j, c in enumerate(ch):
            if c < 0:
                continue
            g = (sol.Z[s, j] - zh[s]) if j < tree.n_marks else -zh[s]
            assert sol.Y[c] - sol.Y[s] == pytest.approx(
                g - f_path[s] * tree.slot_dA[s], abs=1e-9)


def test_picard_unique_limit_from_different_starts():
    rng = np.random.default_rng(8)
    problem, delta = random_problem(rng, max_horizon=4)
    tree = problem.tree()
    sol0, _ = picard_solve(problem, delta=delta, tol=1e-12)
    from treebsde.solver import Solution
    init = Solution(Y=rng.normal(0, 5, tree.n_nodes),
                    Z=rng.normal(0, 5, (tree.n_slots, tree.n_marks)))
    sol1, _ = picard_solve(problem, delta=delta, tol=1e-12, initial=init)
    dist = np.sqrt(norms.mixed_norm_sq(sol0.Y - sol1.Y, sol0.Z - sol1.Z,
                                       tree, problem.beta))
    assert dist < 1e-10


def test_picard_map_contraction_at_half_delta():
    # with delta = 1/2 the guaranteed factor 1 - delta equals delta, so the
    # squared ratio is provably below delta on any admissible pair
    rng = np.random.default_rng(9)
    from treebsde import conditions
    for _ in range(10):
        problem, _ = random_problem(rng, max_horizon=4, eps_floor=0.6)
        tree = problem.tree()
        delta = 0.5
        bmin = conditions.beta_threshold(tree, problem.f.lip_y, problem.f.lip_z, delta)
        problem.beta = max(bmin, 1e-6)
        prof = conditions.contraction_profile(tree, problem.f.lip_y,
                                              problem.f.lip_z, problem.beta, delta)
        b = np.maximum(prof.b, 0.0)
        U1, V1 = rng.normal(0, 1, tree.n_nodes), rng.normal(0, 1, (tree.n_slots, tree.n_marks))
        U2, V2 = rng.normal(0, 1, tree.n_nodes), rng.normal(0, 1, (tree.n_slots, tree.n_marks))
        s1, s2 = picard_map(problem, U1, V1), picard_map(problem, U2, V2)
        num = norms.mixed_norm_sq(s1.Y - s2.Y, s1.Z - s2.Z, tree, problem.beta, b)
        den = norms.mixed_norm_sq(U1 - U2, V1 - V2, tree, problem.beta, b)
        assert num <= delta * den + 1e-10


def test_picard_raises_on_violated_hypothesis():
    model, gen = scenarios.counterexample_model(0.5)
    problem = BsdeProblem(model=model, beta=1.0,
                          xi=scenarios.xi_constant(1.0), f=gen)
    with pytest.raises(ConditionViolated) as exc:
        picard_solve(problem)
    assert exc.value.flagged


def test_picard_unchecked_blowup_growth():
    model, gen = scenarios.counterexample_model(0.5)
    problem = BsdeProblem(model=model, beta=0.0,
                          xi=scenarios.xi_constant(5e4), f=gen)
    with pytest.raises(NoConvergence) as exc:
        picard_solve(problem, max_iter=50, check_hypothesis=False)
    rep = exc.value.report
    assert max(rep.y_sup) > 1e6
    assert rep.ratio_sq and min(rep.ratio_sq) >= 1.0 - 1e-12   # no contraction


def test_empty_horizon_end_to_end():
    from treebsde import ScenarioModel
    import numpy as _np
    model = ScenarioModel(m=2, horizon=0,
                          jump_size=lambda k, H: _np.full(H.shape[0], 0.5),
                          mark_law=lambda k, H: _np.full((H.shape[0], 2), 0.5))
    problem = BsdeProblem(model=model, beta=1.0,
                          xi=scenarios.xi_constant(3.0), f=Generator.zero())
    lin = solve_linear(problem)
    ora = backward_oracle(problem)
    sol, rep = picard_solve(problem)
    assert lin.Y[0] == ora.Y[0] == sol.Y[0] == 3.0
    assert rep.iterations == 1
    assert norms.mixed_norm_sq(sol.Y, sol.Z, problem.tree(), 1.0) == 0.0


def test_empty_tree_results_of_every_layer():
    # the K=0 model above: one node, no slots; every layer answers with
    # empty float arrays, exact zeros and passing checks
    from treebsde import ScenarioModel, conditions, run_suite
    from treebsde.verification import check_norm_equivalence
    model = ScenarioModel(m=2, horizon=0,
                          jump_size=lambda k, H: np.full(H.shape[0], 0.5),
                          mark_law=lambda k, H: np.full((H.shape[0], 2), 0.5))
    problem = BsdeProblem(model=model, beta=1.0,
                          xi=scenarios.xi_constant(3.0), f=Generator.zero())
    tree = problem.tree()
    assert (tree.n_nodes, tree.n_slots) == (1, 0)
    for arr, shape, dtype in [(tree.slot_dA, (0,), np.float64),
                              (tree.slot_phi, (0, 2), np.float64),
                              (node_children(tree), (0, 3), np.int64)]:
        assert arr.shape == shape and arr.dtype == dtype

    Y, Z = np.array([3.0]), norms.field_zeros(tree)
    for arr in (norms.hat_z_rows(Z, tree.block(slice(None))), norms.slot_z_contribution(Z, tree),
                conditional_means(tree, Y)):
        assert arr.shape == (0,) and arr.dtype == np.float64
    canon = canonical_field(Z, tree)
    assert canon.shape == (0, 2) and canon.dtype == np.float64 and canon is not Z
    for value in (norms.y_norm_sq(Y, tree, 1.0), norms.z_norm_sq(Z, tree, 1.0),
                  norms.mixed_norm_sq(Y, Z, tree, 1.0, np.ones(0))):
        assert type(value) is float and repr(value) == "0.0"
    assert conditions.detect_counterexample(tree, 5.0) == []

    r = check_norm_equivalence(Z, tree, 1.0, 0.5)
    assert r.passed and r.kind == "inequality"
    assert [repr(x) for x in (r.lhs, r.rhs, r.abs_gap, r.rel_gap)] == ["0.0"] * 4
    assert r.detail == {"gamma": 0.5, "lower": 0.0, "mid": 0.0, "upper": 0.0}

    sol = backward_oracle(problem)
    results = run_suite(problem, sol, seed=0)
    assert [(c.name, c.kind, c.passed) for c in results] == [
        ("identity_lemma", "identity", True),
        ("integral_inequality", "inequality", True),
        ("apriori_estimate", "inequality", True),
        ("norm_equivalence", "inequality", True),
        ("lipschitz_bound", "skipped", True),
        ("jump_identity", "inequality", True),
    ]


def test_oracle_step_budget_follows_the_contraction_factor():
    # q = dA * lip_y = 0.95: the 200-step cap stopped short of STEP_TOL
    model = scenarios.deterministic_grid(6, 2, 1.0)
    f = Generator(lambda block, y, zeta: 0.3 + 0.95 * np.sin(y), 0.95, 0.0)
    problem = BsdeProblem(model=model, beta=4.0, xi=scenarios.xi_jump_count(1.0), f=f)
    sol = backward_oracle(problem)
    tree = problem.tree()
    assert sol.Y[0] == pytest.approx(9.6031991564, abs=1e-9)
    assert bsde_residual(tree, sol.Y, _eval_path(tree, f, sol.Y, sol.Z)) <= 1e-12
    # the one-slot form: a root at pi, where the step map contracts by 0.95
    y = implicit_step_solve(2.84, 1.0, tree.slot(0), np.zeros(2), f)
    assert abs(y - 2.84 - (0.3 + 0.95 * np.sin(y))) <= 1e-12


def oracle_driver_calls(problem):
    """``backward_oracle(problem)`` and the number of its block driver calls."""
    calls = []
    checked = Generator._checked

    def counting(self, block, y, zeta):
        calls.append(y.size)
        return checked(self, block, y, zeta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Generator, "_checked", counting)
        return backward_oracle(problem), len(calls)


def test_oracle_driver_calls_at_contraction_factor_095():
    # the problem of the step-budget test: the plain fixed point took 1,809 calls
    model = scenarios.deterministic_grid(6, 2, 1.0)
    f = Generator(lambda block, y, zeta: 0.3 + 0.95 * np.sin(y), 0.95, 0.0)
    problem = BsdeProblem(model=model, beta=4.0, xi=scenarios.xi_jump_count(1.0), f=f)
    assert oracle_driver_calls(problem)[1] == 46


def test_oracle_converges_on_a_kinked_driver_near_the_boundary():
    # q = 0.9 * 0.95 = 0.855 on every slot of a full K=8 grid; a triangle wave
    # kinked every 0.07 defeats any slope model, and the plain fixed point took
    # 1,337 calls
    model = scenarios.deterministic_grid(8, 2, 0.9)
    f = Generator(lambda block, y, zeta: 0.3 + 0.95 * zigzag(y, 0.07), 0.95, 0.0)
    problem = BsdeProblem(model=model, beta=1.0, xi=scenarios.xi_jump_count(1.0), f=f)
    sol, calls = oracle_driver_calls(problem)
    tree = problem.tree()
    assert bsde_residual(tree, sol.Y, _eval_path(tree, f, sol.Y, sol.Z)) <= 1e-12
    assert calls < 100


@pytest.mark.parametrize("controls", [{"tol": float("nan")}, {"tol": -1.0}, {"tol": float("inf")},
                                      {"max_iter": 0}, {"max_iter": -3}],
                         ids=["tol-nan", "tol--1", "tol-inf", "max_iter-0", "max_iter--3"])
def test_picard_refuses_invalid_iteration_controls(controls):
    # each ran: NaN and -1 all sweeps to NoConvergence, inf one sweep to "converged",
    # max_iter < 1 no sweep to "no convergence after -3 sweeps"
    from treebsde.solver import _picard, _setup_of
    problem, delta = random_problem(np.random.default_rng(5), max_horizon=4)
    with pytest.raises(ValueError, match=next(iter(controls))):
        picard_solve(problem, **controls)
    tol, max_iter = controls.get("tol", 1e-10), controls.get("max_iter", 100)
    with pytest.raises(ValueError, match=next(iter(controls))):
        _picard(problem, [(problem.beta, _setup_of(problem, delta))], tol, max_iter, None, True)


def test_picard_takes_a_zero_tol_and_one_sweep():
    problem, _ = random_problem(np.random.default_rng(5), max_horizon=4)
    with pytest.raises(NoConvergence) as exc:
        picard_solve(problem, tol=0.0, max_iter=1)
    assert exc.value.report.iterations == 1


def test_picard_converges_only_on_the_residual():
    # beta far below beta_min: every b-weight is 0, so the weighted distance
    # vanishes after one sweep while the iterate is still far off
    model = scenarios.deterministic_grid(6, 2, 1.0)
    f = Generator(lambda block, y, zeta: 0.3 + 0.6 * np.sin(y), 0.6, 0.0)
    problem = BsdeProblem(model=model, beta=4.0, xi=scenarios.xi_jump_count(1.0), f=f)
    sol, rep = picard_solve(problem)
    assert rep.beta < rep.beta_min and rep.converged
    assert rep.residual <= 1e-10
    assert sol.Y[0] == pytest.approx(backward_oracle(problem).Y[0], abs=1e-8)



@pytest.mark.parametrize("seed", range(8))
def test_picard_diagnostics_are_those_of_the_returned_pair(seed):
    # the residual and the last distance, recomputed from the returned pair
    # and the iterate before it
    problem, delta = random_problem(np.random.default_rng(700 + seed), max_horizon=5)
    tree = problem.tree()
    sol, rep = picard_solve(problem, delta=delta)
    prev = Solution(np.zeros(tree.n_nodes), np.zeros((tree.n_slots, tree.n_marks)))
    if rep.iterations > 1:
        with pytest.raises(NoConvergence) as exc:
            picard_solve(problem, delta=delta, max_iter=rep.iterations - 1)
        prev = exc.value.last
    f_sol = _eval_path(tree, problem.f, sol.Y, sol.Z)
    assert rep.residual.hex() == bsde_residual(tree, sol.Y, f_sol).hex()
    f = problem.f
    b = np.maximum(conditions.contraction_profile(tree, f.lip_y, f.lip_z, problem.beta,
                                                  rep.delta).b, 0.0)
    dsq = norms.mixed_norm_sq(sol.Y - prev.Y, sol.Z - prev.Z, tree, problem.beta, b)
    assert rep.diff_norms[-1].hex() == float(np.sqrt(dsq)).hex()


# -- the beta-free set-up ------------------------------------------------------------------


def _value_bits(sol, rep):
    def hexes(xs):
        return [float(x).hex() for x in xs]

    return (_bits(sol.Y), _bits(sol.Z), rep.iterations, rep.converged, hexes(rep.diff_norms),
            hexes(rep.ratio_sq), hexes(rep.y_sup), rep.residual.hex(), rep.beta_min.hex(),
            rep.beta, rep.delta, rep.epsilon_star, [(s.index, v) for s, v in rep.flagged])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("max_iter", [100, 2])
def test_one_iteration_monitors_every_value_as_its_own_solve(seed, max_iter):
    # the iterates and the stop depend on neither beta nor delta: each value's
    # report of the shared iteration is that of picard_solve on it alone
    from dataclasses import replace
    from treebsde.solver import _picard, _setup_of
    problem, delta = random_problem(np.random.default_rng(1100 + seed), max_horizon=5)
    setups = [_setup_of(problem, d) for d in (delta, delta / 4.0)]
    values = [(problem.beta * f, setup) for setup in setups for f in (1.0, 3.0)]
    values.append((0.0, setups[0]))
    sol, reports = _picard(problem, values, 1e-10, max_iter, None, True)
    assert len({id(rep.y_sup) for rep in reports}) == len(values)
    for (beta, setup), rep in zip(values, reports):
        alone = replace(problem, beta=beta)
        if max_iter == 2:
            with pytest.raises(NoConvergence) as exc:
                picard_solve(alone, max_iter=max_iter, delta=setup.delta)
            expected = (exc.value.last, exc.value.report)
        else:
            expected = picard_solve(alone, max_iter=max_iter, delta=setup.delta)
        assert _value_bits(sol, rep) == _value_bits(*expected)
    assert len({tuple(rep.diff_norms) for rep in reports}) > 1
