"""The level-batch generator path against its per-slot twins in conftest."""

import collections

import numpy as np
import pytest

from treebsde import (BsdeProblem, Generator, NonFinite, StepSingular, backward_oracle,
                      build_tree, cli, picard_solve, scenarios, solve_linear)
from treebsde.measure_core import ScenarioTree

from conftest import (gather_accumulate, leaf_paths, node_histories, on_slots, per_history_model,
                      per_slot, per_slot_oracle, random_problem, scalar_preset, slot_view,
                      zigzag)

PRESETS = [
    ("zero", {}),
    ("constant", {"c0": 0.7}),
    ("affine_y", {"c0": 0.2, "c1": -0.6}),
    ("affine_z", {"c0": -0.1, "c1": 0.8}),
    ("affine_z", {"c0": 0.3, "c1": 0.5, "c2": -0.4}),
    ("saturating", {"c0": 0.2, "cy": 0.4, "cz": 0.8}),
]


def mixed_model(m, unit=True):
    """Jump sizes 0, 1 (or 0.45) and a history-dependent interior value by step."""
    top = 1.0 if unit else 0.45

    def rule(k, hist):
        return (0.0, top, 0.3 if sum(hist) % 2 else 0.7)[k % 3]

    return per_history_model(5, m, rule)


def trees_for(seed, unit):
    rng = np.random.default_rng(seed)
    random_tree = build_tree(scenarios.random_model(rng, K=4, include_unit=unit))
    return rng, [build_tree(mixed_model(1 + seed % 3, unit)), random_tree]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name,params", PRESETS)
def test_on_slots_matches_scalar_twin(seed, name, params):
    unit = not params.get("c2")
    rng, trees = trees_for(seed, unit)
    for tree in trees:
        gen = cli._build_generator({"preset": name, "params": params}, tree)
        twin = scalar_preset(name, params, tree)
        assert (gen.lip_y, gen.lip_z) == (twin.lip_y, twin.lip_z)
        n, m = tree.n_slots, tree.n_marks
        y, Z = rng.normal(0, 2, n), rng.normal(0, 2, (n, m))
        ref = np.array([twin(tree.block([s]), y[s], Z[s]) for s in range(n)])
        assert np.max(np.abs(on_slots(gen, tree, slice(0, n), y, Z) - ref)) <= 1e-12
        ids = rng.permutation(n)[: max(1, n // 3)]
        assert np.max(np.abs(on_slots(gen, tree, ids, y[ids], Z[ids]) - ref[ids])) <= 1e-12
        # the one-slot form of a level generator
        s = int(ids[0])
        assert abs(gen(tree.block([s]), y[s], Z[s]) - ref[s]) <= 1e-12
    if seed == 0:
        das = np.concatenate([t.slot_dA for t in trees])
        assert np.any(das == 0.0) and np.any((das > 0.0) & (das < 1.0))
        assert np.any(das == 1.0) == unit


def test_on_slots_scalar_adapter_and_shape_check():
    tree = build_tree(mixed_model(2))
    n = tree.n_slots
    scalar = per_slot(tree, lambda slot, y, zeta: slot.step + 10.0 * slot.index + y, 1.0, 0.0)
    y = np.arange(n, dtype=float)
    got = on_slots(scalar, tree, slice(0, n), y, np.zeros((n, 2)))
    assert np.array_equal(got, tree.slot_step + 10.0 * np.arange(n) + y)
    bad = Generator(lambda block, y, zeta: np.zeros(y.size + 1), 0.0, 0.0)
    with pytest.raises(ValueError, match="shape"):
        on_slots(bad, tree, slice(0, n), y, np.zeros((n, 2)))


# -- backward oracle -----------------------------------------------------------------


def counting(tree, gen):
    """Per-slot copy of ``gen`` on ``tree`` that counts its evaluations per slot."""
    calls = collections.Counter()

    def fn(slot, y, zeta):
        calls[slot.index] += 1
        return gen(slot.block, y, zeta)

    return per_slot(tree, fn, gen.lip_y, gen.lip_z), calls


def test_level_oracle_equals_per_slot_sweep():
    rng = np.random.default_rng(21)
    for _ in range(20):
        problem, _ = random_problem(rng, max_horizon=5)
        sol = backward_oracle(problem)
        Y, Z = per_slot_oracle(problem)
        assert np.array_equal(sol.Y, Y) and np.array_equal(sol.Z, Z)


def test_level_oracle_stops_each_slot_at_the_scalar_iterate():
    # the two slots of level 2 contract at rates 0.9 * dA with dA = 0.3 and
    # 0.7, and the driver is not affine, so they need different numbers of
    # secant trials (an affine driver takes three at any rate)
    model = mixed_model(2)
    tree = build_tree(model)
    base = Generator(lambda block, y, zeta: 0.2 + 0.9 * np.sin(y), 0.9, 0.0)
    problem = BsdeProblem(model=model, beta=1.0, xi=scenarios.xi_jump_count(2.0),
                          f=base, _tree=tree)
    sol = backward_oracle(problem)
    Y, Z = per_slot_oracle(problem)
    assert np.array_equal(sol.Y, Y) and np.array_equal(sol.Z, Z)

    level, by_level = counting(tree, base)
    backward_oracle(BsdeProblem(model=model, beta=1.0, xi=problem.xi, f=level, _tree=tree))
    scalar, single = counting(tree, base)
    per_slot_oracle(BsdeProblem(model=model, beta=1.0, xi=problem.xi, f=scalar, _tree=tree))
    for s in single:
        assert by_level[s] == single[s]
    sl = tree.depth_slice(2)
    assert len({single[s] for s in range(sl.start, sl.stop)}) > 1


def shrinking_level_problem(fn):
    """Level 1 holds slots 1 and 2 (dA = 0.05, after a jump) and slot 3 (dA = 0.9).

    With ``lip_y = 0.95`` slots 1 and 2 contract at 0.0475 and slot 3 at
    0.855; on ``zigpath``, a driver kinked every 0.07, slots 1 and 2 stop
    after three trials and slot 3 after eleven, so the level's live set
    shrinks from its front while slot 3 goes on.
    """
    model = scenarios.two_state_rule(K=2, m=2, a_after_jump=0.05, a_after_no_jump=0.9,
                                     phi=[0.3, 0.7])
    tree = build_tree(model)
    assert tree.slot_dA[1:4].tolist() == [0.05, 0.05, 0.9]
    return BsdeProblem(model=model, beta=1.0, xi=scenarios.xi_jump_count(1.0),
                       f=Generator(fn, 0.95, 0.0), _tree=tree)


def zigpath(y):
    return 0.5 + 0.95 * zigzag(y, 0.07)


def test_level_oracle_with_a_shrinking_live_set_equals_the_per_slot_oracle():
    problem = shrinking_level_problem(lambda block, y, zeta: zigpath(y))
    sol = backward_oracle(problem)
    Y, Z = per_slot_oracle(problem)
    assert sol.Y.tobytes() == Y.tobytes() and sol.Z.tobytes() == Z.tobytes()
    scalar, single = counting(problem.tree(), problem.f)
    per_slot_oracle(BsdeProblem(model=problem.model, beta=1.0, xi=problem.xi, f=scalar,
                                _tree=problem.tree()))
    assert max(single[1], single[2]) < 5 < 10 < single[3]


def test_level_oracle_names_a_slot_that_fails_after_another_left():
    def fn(block, y, zeta):
        # NaN at slot 3 once slot 1 has left level 1's live set
        left = bool(block.step.size) and block.step[0] == 1 and 1 not in block.index
        return np.where((block.index == 3) & left, np.nan, zigpath(y))

    with pytest.raises(NonFinite, match=r"generator value nan at slot 3 \(step 1\)"):
        backward_oracle(shrinking_level_problem(fn))


@pytest.mark.parametrize("scale,degenerate", [(0.0, True), (1.0, False)])
def test_level_oracle_step_singular_like_per_slot(scale, degenerate):
    # level 1: the slot after a jump contracts (dA = 0.2), the one after no
    # jump has dA * lip_y = 1; a zero terminal makes that step degenerate
    p = 0.5
    model = per_history_model(2, 1, lambda k, hist: 0.5 if k == 0 or hist[-1] == -1 else 0.2)
    problem = BsdeProblem(model=model, beta=0.0, xi=scenarios.xi_jump_count(scale),
                          f=Generator(lambda block, y, zeta: y / p, 1.0 / p, 0.0))
    with pytest.raises(StepSingular) as batch:
        backward_oracle(problem)
    with pytest.raises(StepSingular) as single:
        per_slot_oracle(problem)
    assert batch.value.degenerate == single.value.degenerate == degenerate


# -- finiteness guard ---------------------------------------------------------------


@pytest.mark.parametrize("gen", [
    Generator(lambda block, y, zeta: np.full(y.shape, np.nan), 0.0, 0.0),
    Generator(lambda block, y, zeta: np.where(block.step == 1, np.inf, 0.0), 0.0, 0.0),
])
def test_non_finite_driver_fails_alike_on_all_routes(gen):
    model = scenarios.deterministic_grid(K=3, m=2, a=0.4)
    problem = BsdeProblem(model=model, beta=1.0, xi=scenarios.xi_jump_count(), f=gen)
    for route in (solve_linear, backward_oracle, picard_solve):
        with pytest.raises(NonFinite):
            route(problem)


@pytest.mark.parametrize("lip_y", [0.0, 0.5])
def test_a_non_finite_driver_on_dA_zero_slots_fails_alike_on_all_routes(lip_y):
    # step 1 has dA = 0 on every slot: the oracle's value there is the
    # conditional mean, yet the driver must be finite there as on the other routes
    model = scenarios.deterministic_grid(K=3, m=2, a=[0.4, 0.0, 0.7])
    gen = Generator(lambda block, y, zeta: np.where(block.step == 1, np.nan, 0.3), lip_y, 0.0)
    problem = BsdeProblem(model=model, beta=1.0, xi=scenarios.xi_jump_count(), f=gen)
    routes = (backward_oracle, picard_solve) + (solve_linear,) * gen.is_path
    for route in routes:
        with pytest.raises(NonFinite, match=r"at slot 1 \(step 1\)"):
            route(problem)


# -- slot views and path sums --------------------------------------------------------


def test_slot_views_built_on_demand_only(monkeypatch):
    # no route builds the list of one-row blocks, each of which is tree.block([i])
    def refuse(self):
        raise AssertionError("slot_views list built")

    monkeypatch.setattr(ScenarioTree, "slot_views", property(refuse))
    rng = np.random.default_rng(5)
    problem, delta = random_problem(rng, K=3)
    tree = problem.tree()
    picard_solve(problem, delta=delta)
    backward_oracle(problem)
    monkeypatch.undo()
    blocks = tree.slot_views
    assert [b.index.tolist() for b in blocks] == [[i] for i in range(tree.n_slots)]
    for i, b in enumerate(blocks):
        one = tree.block([i])
        assert all(np.array_equal(getattr(b, key), getattr(one, key))
                   for key in ("index", "step", "delta_A", "phi"))
    hists = node_histories(tree)
    assert all(slot_view(tree, i).history == hists[i] for i in range(tree.n_slots))
    with pytest.raises(IndexError):
        slot_view(tree, tree.n_slots)


def test_accumulate_matches_path_sums():
    rng = np.random.default_rng(9)
    tree = build_tree(scenarios.random_model(rng, K=4))
    vals = rng.normal(0, 1, tree.n_slots)
    acc = gather_accumulate(tree, vals)
    for leaf, path in leaf_paths(tree):
        for depth, node in enumerate(path):
            assert acc[node] == pytest.approx(sum(vals[p] for p in path[:depth]),
                                              abs=1e-14)
