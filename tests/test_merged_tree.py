"""Merged trees: nodes of a depth that share a declared state are one node.

A merged tree must give the full tree's solution to the bit on every node
(the full tree's nodes of one state carry one value), and every tree sum
(norms, energy identity, a priori bound) within rounding.
"""

import copy
import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_apriori_data, edge_child_values, gather_accumulate,
                      gather_linear_sweep, is_merged, level_jump_identity, random_generator,
                      signed_values)
from treebsde import (BsdeProblem, Generator, backward_oracle, build_tree, cli, conditions,
                      norms, picard_solve, scenarios, solve_linear, solver, verification)
from treebsde.scenarios import jump_counts, preset_state

ROOT = Path(__file__).resolve().parent.parent
BETA = 5.0


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _rel_close(a, b, rtol=1e-12):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def node_map(full, merged, state):
    """Merged node of each full-tree node: the one whose state keys are equal."""
    out = np.zeros(full.n_nodes, dtype=np.int64)
    for k in range(1, full.horizon + 1):
        keys = [map(tuple, state(k, t.level_histories[k]).reshape(
            t.level_histories[k].shape[0], -1).tolist()) for t in (full, merged)]
        index = {key: i for i, key in enumerate(keys[1])}
        assert len(index) == merged.depth_slice(k).stop - merged.depth_slice(k).start
        out[full.depth_slice(k)] = [merged.level_start[k] + index[key] for key in keys[0]]
    return out


def assert_equivalent(full_problem, merged_problem, state, linear=False):
    """The merged problem's solutions and tree sums against the full tree's."""
    full, merged = full_problem.tree(), merged_problem.tree()
    assert is_merged(merged) and not is_merged(full)
    nodes = node_map(full, merged, state)
    slots = nodes[:full.n_slots]

    def same_solution(a, b):
        assert _bits(a.Y) == _bits(b.Y[nodes])
        assert _bits(a.Z) == _bits(b.Z[slots])

    (sol_f, rep_f), (sol_m, rep_m) = picard_solve(full_problem), picard_solve(merged_problem)
    same_solution(sol_f, sol_m)
    assert rep_f.iterations == rep_m.iterations
    assert _bits(rep_f.residual) == _bits(rep_m.residual)
    assert rep_f.y_sup == rep_m.y_sup
    same_solution(backward_oracle(full_problem), backward_oracle(merged_problem))
    if linear:
        same_solution(solve_linear(full_problem), solve_linear(merged_problem))

    beta = full_problem.beta
    f = full_problem.f
    b = (np.ones(full.n_slots), np.ones(merged.n_slots)) if np.isnan(rep_f.beta_min) else \
        [conditions.contraction_profile(t, f.lip_y, f.lip_z, beta, r.delta).b
         for t, r in ((full, rep_f), (merged, rep_m))]
    assert _bits(b[0]) == _bits(b[1][slots])
    sides = []
    for tree, sol, bw, problem in ((full, sol_f, b[0], full_problem),
                                   (merged, sol_m, b[1], merged_problem)):
        Y, Z = sol.Y, sol.Z
        f_path = solver._eval_path(tree, problem.f, Y, Z)
        E_end = tree.doleans_at_slot_end(beta)
        w = tree.prob[:tree.n_slots] * E_end
        z_part = w * norms.slot_z_contribution(Z, tree)
        rows = verification.check_identity_lemma(tree, Y, f_path, beta, w, z_part,
                                                 range(tree.horizon + 1))
        lhs = norms.y_norm_sq(Y, tree, beta) + norms.z_norm_sq(Z, tree, beta)
        apriori = verification.check_apriori_estimate(tree, Y, f_path, beta, E_end, lhs, 1.0)
        sides.append([norms.y_norm_sq(Y, tree, beta), norms.z_norm_sq(Z, tree, beta),
                      norms.mixed_norm_sq(Y, Z, tree, beta, bw),
                      *[v for r in rows for v in (r.lhs, r.rhs)], apriori.lhs, apriori.rhs])
    for a, c in zip(*sides):
        assert _rel_close(a, c), (a, c)


# -- every CLI model preset with every terminal preset ---------------------------------

MODELS = {
    "grid": ("deterministic_grid", {"K": 5, "m": 2, "a": [0.4, 0.7, 0.2, 0.5, 0.3]}),
    "two_state": ("two_state_rule", {"K": 5, "m": 3, "a_after_jump": 0.3,
                                     "a_after_no_jump": 0.6, "phi": [0.2, 0.3, 0.5]}),
    "mixed-a0": ("two_state_rule", {"K": 6, "m": 2, "a_after_jump": 0.0,
                                    "a_after_no_jump": 0.45, "phi": [0.3, 0.7]}),
    "mixed-a1": ("two_state_rule", {"K": 6, "m": 2, "a_after_jump": 1.0,
                                    "a_after_no_jump": 0.45, "phi": [0.3, 0.7]}),
    "unit": ("pdmp_like", {"K": 4, "m": 3, "phi": [0.2, 0.3, 0.5]}),
    "intensity": ("discretized_intensity", {"lam": 1.3, "K": 6, "m": 2}),
    "K0": ("deterministic_grid", {"K": 0, "m": 2, "a": 0.5}),
}
TERMINALS = {"constant": {"c": 0.7}, "jump_count": {"scale": 0.9},
             "last_mark": {"mark": 1, "scale": 1.3}}
# affine_z's hat term needs jumps below 1: the models with unit jumps take c2 = 0
GENERATORS = {"saturating": {"c0": 0.3, "cy": 0.5, "cz": 0.7},
              "affine_z": {"c0": 0.1, "c1": 0.6, "c2": 0.3},
              "constant": {"c0": 0.4}}
UNIT_JUMPS = ("mixed-a1", "unit")


def cli_pair(model, terminal, generator):
    """The CLI's (merged) problem of a preset triple and its full-tree twin."""
    name, params = MODELS[model]
    gparams = dict(GENERATORS[generator])
    if generator == "affine_z" and model in UNIT_JUMPS:
        gparams["c2"] = 0.0
    cfg = cli.RunConfig(model={"preset": name, "params": params},
                        generator={"preset": generator, "params": gparams},
                        terminal={"preset": terminal, "params": TERMINALS[terminal]},
                        beta=BETA)
    merged, _ = cli._build_problem(cfg)
    full = BsdeProblem(model=dataclasses.replace(merged.model, state=None), beta=merged.beta,
                       xi=merged.xi, f=merged.f)
    return full, merged, preset_state(name, terminal)


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("terminal", TERMINALS)
@pytest.mark.parametrize("model", MODELS)
def test_merged_presets_equal_the_full_tree(model, terminal, generator):
    full, merged, state = cli_pair(model, terminal, generator)
    assert merged.tree().n_nodes <= full.tree().n_nodes
    assert_equivalent(full, merged, state, linear=generator == "constant")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_random_models_merged_by_jump_count_equal_the_full_tree(seed):
    # random_model's rules read the parity of the jump count, random_generator
    # the step and the jump count, and the terminal the jump count
    def state(k, H):
        return jump_counts(H)

    rng = np.random.default_rng(seed)
    model = scenarios.random_model(rng, max_horizon=5)
    merged_model = dataclasses.replace(model, state=state)
    tree, merged_tree = build_tree(model), build_tree(merged_model)
    # the driver reads each tree's own slot views; the same draws give the
    # same driver (both trees have the same largest jump)
    gen_rng = copy.deepcopy(rng)
    gen = random_generator(rng, tree)
    merged_gen = random_generator(gen_rng, merged_tree)
    a, c = (float(x) for x in rng.normal(0.0, 1.0, 2))
    eps = conditions.check_main_hypothesis(tree, gen.lip_y)
    beta = 1.5 * conditions.beta_threshold(tree, gen.lip_y, gen.lip_z, eps / 2.0) or 1.0
    full = BsdeProblem(model=model, beta=beta, xi=lambda H: a * jump_counts(H) + c, f=gen,
                       _tree=tree)
    merged = dataclasses.replace(full, model=merged_model, f=merged_gen, _tree=merged_tree)
    assert (merged_gen.lip_y, merged_gen.lip_z) == (gen.lip_y, gen.lip_z)
    assert_equivalent(full, merged, state)


def test_workload_configs_build_the_merged_node_counts():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    counts = {}
    for name, (_, config_of, _, _) in workloads.WORKLOADS.items():
        _, tree = cli._build_tree(cli.RunConfig(**config_of(5)[0]))
        counts[name] = tree.n_nodes
    assert counts == {"solve_predictable": 91, "verify_intensity": 153, "sweep_unit_jumps": 28}


def test_merged_probabilities_are_the_summed_path_masses():
    model = scenarios.two_state_rule(K=5, m=2, a_after_jump=0.3, a_after_no_jump=0.6,
                                     phi=[0.4, 0.6])
    state = preset_state("two_state_rule", "jump_count")
    full, merged = build_tree(model), build_tree(dataclasses.replace(model, state=state))
    nodes = node_map(full, merged, state)
    mass = np.bincount(nodes, full.prob, merged.n_nodes)
    assert np.allclose(mass, merged.prob, rtol=1e-14, atol=0.0)
    for k in range(full.horizon + 1):
        assert math.isclose(float(np.sum(merged.prob[merged.depth_slice(k)])), 1.0,
                            rel_tol=1e-14)
    # nodes in order of their first history, which is the node's history
    first = [int(np.nonzero(nodes == i)[0][0]) for i in range(merged.n_nodes)]
    assert first == sorted(first)
    assert [merged.history(i) for i in range(merged.n_nodes)] == [full.history(j) for j in first]
    for beta in (0.0, 0.7, 8.0):
        E = merged.doleans(beta)
        mean = np.bincount(nodes, full.prob * full.doleans(beta), merged.n_nodes) / mass
        assert np.allclose(E, mean, rtol=1e-14, atol=0.0)


def test_a_node_of_zero_probability_takes_its_first_edge_weight():
    # phi = (1, 0): mark 1 never occurs, yet its children exist, with mass 0
    model = scenarios.deterministic_grid(3, 2, 0.5, phi=[1.0, 0.0])
    tree = build_tree(dataclasses.replace(model, state=preset_state("deterministic_grid",
                                                                    "last_mark")))
    E = tree.doleans(2.0)
    assert np.any(tree.prob == 0.0)
    # every path to depth k weighs (1 + 2 * 0.5)^k, the mean and the first edge alike
    depth = np.searchsorted(tree.level_start, np.arange(tree.n_nodes), side="right") - 1
    assert np.array_equal(E, 2.0 ** depth)
    assert np.isfinite(norms.y_norm_sq(np.ones(tree.n_nodes), tree, 2.0))


def _apriori_data(tree, f_path, beta):
    # the data side of check_apriori_estimate: with Y = 0 its terminal term is 0
    est = verification.check_apriori_estimate(tree, np.zeros(tree.n_nodes), f_path, beta,
                                              tree.doleans_at_slot_end(beta), 0.0, 1.0)
    return est.rhs / est.detail["c_beta"]


@pytest.mark.parametrize("seed", range(12))
def test_apriori_data_side_is_the_path_sum_form_on_a_full_tree(seed):
    # the forward recursion against the per-path sums S1, S2 of a full tree
    rng = np.random.default_rng(seed)
    tree = build_tree(scenarios.random_model(rng, max_horizon=5))
    f_path = rng.normal(0.0, 1.0, tree.n_slots)
    for beta in (0.3, 2.0, 9.0):
        S1 = gather_accumulate(tree, tree.slot_dA ** 2)
        S2 = gather_accumulate(tree, tree.doleans_at_slot_end(beta) * f_path ** 2 * tree.slot_dA)
        leaves = tree.leaf_slice
        path_sums = float(np.sum(tree.prob[leaves] * (1.0 / beta + beta * S1[leaves])
                                 * S2[leaves]))
        data = _apriori_data(tree, f_path, beta)
        assert _rel_close(data, path_sums, 1e-14)
        assert _rel_close(data, brute_apriori_data(tree, f_path, beta), 1e-13)


# -- refusals ------------------------------------------------------------------------


def _with_state(state, K=3):
    return dataclasses.replace(scenarios.deterministic_grid(K, 2, 0.5), state=state)


@pytest.mark.parametrize("state,message", [
    (lambda k, H: np.zeros(H.shape[0] + (k == 2), dtype=int),
     r"state keys must have shape \(\d+,\) or \(\d+, j\) at depth 2"),
    (lambda k, H: np.zeros((H.shape[0], 2, 1), dtype=int), r"shape .* at depth 1"),
    (lambda k, H: np.zeros((H.shape[0], 0), dtype=int), r"shape .* at depth 1"),
    (lambda k, H: 3, r"shape .* at depth 1"),
    (lambda k, H: np.zeros(H.shape[0]) if k == 3 else np.zeros(H.shape[0], dtype=int),
     r"state keys must be integers, not float64, at depth 3"),
    (lambda k, H: H[:, -1] != -1, r"integers, not bool, at depth 1"),
])
def test_a_bad_state_answer_names_the_depth(state, message):
    with pytest.raises(ValueError, match=message):
        build_tree(_with_state(state))


def test_a_state_of_unsigned_or_two_column_keys_is_accepted():
    for state in (lambda k, H: jump_counts(H).astype(np.uint8),
                  lambda k, H: np.column_stack([jump_counts(H), jump_counts(H) % 2])):
        assert build_tree(_with_state(state, K=4)).n_nodes == 15


def test_a_merged_tree_is_refused_over_the_node_budget(monkeypatch):
    # the budget counts the nodes built so far and the next level's children
    # before they merge: depth 7 holds 28 + 2 * 7 of them, depth 8 36 + 2 * 8
    from treebsde import measure_core
    model = dataclasses.replace(scenarios.discretized_intensity(1.0, 8, 1),
                                state=lambda k, H: jump_counts(H))
    monkeypatch.setattr(measure_core, "MAX_NODES", 52)
    assert build_tree(model).n_nodes == 45
    monkeypatch.setattr(measure_core, "MAX_NODES", 51)
    with pytest.raises(measure_core.TreeTooLarge) as exc:
        build_tree(model)
    assert (exc.value.depth, exc.value.nodes) == (8, 52)


# -- the convergence study of demo 07 ------------------------------------------------


@pytest.mark.parametrize("K", [64, 256])
def test_merged_intensity_tree_meets_the_closed_form(K):
    # xi = 0.5 N_K and f = 0.2 y on constant jumps dA: Y0 = 0.5 K dA / (1 - 0.2 dA)^K
    model = dataclasses.replace(scenarios.discretized_intensity(1.0, K, 1),
                                state=preset_state("discretized_intensity", "jump_count"))
    problem = BsdeProblem(model=model, beta=1.0, xi=scenarios.xi_jump_count(0.5),
                          f=Generator(lambda block, y, zeta: 0.2 * y, 0.2, 0.0))
    tree = problem.tree()
    assert tree.n_nodes == (K + 1) * (K + 2) // 2
    da = -math.expm1(-1.0 / K)
    closed = 0.5 * K * da / (1.0 - 0.2 * da) ** K
    assert _rel_close(float(backward_oracle(problem).Y[0]), closed)


# -- the child map: merged levels read by one gather, bit for bit ---------------------------


def _jump_count_state(k, H):
    return jump_counts(H)


# merged trees: seeded random models merged by jump count (K = 0 among them),
# every CLI preset pair (the mixed-kind two_state_rule and K = 0 among them),
# and five-mark two_state_rules of each branch kind after a jump
MAP_MODELS = (
    [pytest.param(dataclasses.replace(
        scenarios.random_model(np.random.default_rng(seed), K=seed % 5), state=_jump_count_state),
        id=f"random-{seed}-K{seed % 5}") for seed in range(10)]
    + [pytest.param(scenarios.ModelSpec(name, params, terminal).build(), id=f"{model}-{terminal}")
       for model, (name, params) in MODELS.items() for terminal in TERMINALS]
    + [pytest.param(scenarios.ModelSpec("two_state_rule", {
        "K": 6, "m": 5, "a_after_jump": a, "a_after_no_jump": 0.45,
        "phi": [0.1, 0.15, 0.2, 0.25, 0.3]}, "last_mark").build(), id=f"wide-a{a:g}")
       for a in (0.0, 0.3, 1.0)])


@pytest.mark.parametrize("model", MAP_MODELS)
def test_the_child_map_gathers_the_edges_to_the_bit(model):
    tree = build_tree(model)
    assert is_merged(tree)
    n, index = tree.n_nodes, tree._child_index
    assert index.shape == (tree.n_slots, tree.n_marks + 1) and index.base is None
    buf = signed_values(np.random.default_rng(n), n + 8)
    for off in (0, 1, 3, 7):     # views at odd offsets
        Y = buf[off:off + n + 1]
        Y[-1] = 0.0              # the node values, then the value of a missing child
        levels = []
        for k, lv in enumerate(tree._levels):
            levels.append(edge_child_values(tree, Y[:n], lv.slots))
            assert _bits(tree._child_values(Y, k)) == _bits(levels[-1])
            assert np.array_equal(index[lv.slots] < n, lv.branches)
        whole = np.concatenate(levels) if levels else np.zeros((0, tree.n_marks + 1))
        assert _bits(Y[index]) == _bits(whole)


@pytest.mark.parametrize("model", MAP_MODELS)
def test_the_two_phase_linear_sweep_is_the_per_level_sweep_to_the_bit(model):
    tree = build_tree(model)
    leaves, n = tree.n_nodes - tree.n_slots, tree.n_slots
    buf = signed_values(np.random.default_rng(tree.n_nodes + 1), leaves + n + 8)
    for off in (0, 1, 3, 7):     # views at odd offsets
        xi_leaf, f_path = buf[off:off + leaves], buf[off + leaves:off + leaves + n]
        cm = np.empty(n)
        Y, Z = solver._linear_sweep(tree, xi_leaf, f_path, cm)
        want = gather_linear_sweep(tree, xi_leaf, f_path, edge_child_values)
        assert [_bits(a) for a in (Y, Z, cm)] == [_bits(a) for a in want]
        assert Y.shape == (tree.n_nodes,) and Z.shape == (n, tree.n_marks)


@pytest.mark.parametrize("model", MAP_MODELS)
def test_the_one_block_jump_identity_is_the_level_loop(model):
    tree = build_tree(model)
    rng = np.random.default_rng(tree.n_nodes + 2)
    Y, f_path = signed_values(rng, tree.n_nodes), signed_values(rng, tree.n_slots)
    Z = signed_values(rng, tree.n_slots * tree.n_marks).reshape(tree.n_slots, tree.n_marks)
    for nan in (False, True):
        if nan:
            Y[-1] = np.nan       # a leaf: the worst residual is NaN both ways
        got = verification.check_solution_jump_identity(tree, Y, Z, f_path).lhs
        want = level_jump_identity(tree, Y, Z, f_path, edge_child_values)
        assert got.hex() == want.hex()
        assert math.isnan(got) == (nan and tree.n_slots > 0)


# -- the import the grouping avoids ------------------------------------------------------


def test_verify_does_not_import_numpy_ma(tmp_path):
    config = {"model": {"preset": "two_state_rule",
                        "params": {"K": 6, "m": 2, "a_after_jump": 0.3, "a_after_no_jump": 0.6}},
              "generator": {"preset": "saturating", "params": {"c0": 0.3, "cy": 0.5, "cz": 0.7}},
              "terminal": {"preset": "last_mark", "params": {"mark": 1}},
              "beta": 8.0}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    script = ("import sys; from treebsde import cli; "
              f"code = cli.main(['verify', '--config', {str(path)!r}, "
              f"'--out', {str(tmp_path / 'out')!r}]); "
              "print(code, 'numpy.ma' in sys.modules)")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.stdout.split()[-2:] == ["0", "False"], done.stderr[-2000:]
