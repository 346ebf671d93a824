"""
Exact scenario trees for finite-mark random measures
====================================================
A model specifies, per step, the probability delta_A that a point occurs
and the law phi of its mark, both as functions of the outcomes strictly
before the step.  Enumerating every history gives a finite tree whose
node masses are exact branch products, so expectations are sums, not
Monte Carlo estimates.
"""

import numpy as np

from treebsde import build_tree, scenarios

# deterministic step sizes: the classical regime
det = build_tree(scenarios.deterministic_grid(K=3, m=2, a=0.4))
print(f"deterministic a=0.4, K=3, m=2: {det.n_nodes} nodes, "
      f"{det.leaf_slice.stop - det.leaf_slice.start} leaves")
print("  leaf masses sum to", det.prob[det.leaf_slice].sum())

# forced unit jumps: every slot realizes a mark, no no-jump branch
pdmp = build_tree(scenarios.pdmp_like(K=3, m=2))
print(f"unit jumps, K=3, m=2: {pdmp.n_nodes} nodes, leaf masses "
      f"{np.unique(pdmp.prob[pdmp.leaf_slice])}")

# genuinely predictable step sizes: the size reacts to the previous outcome
# (0.3 right after a point, else 0.6).  This is the regime that breaks the
# deterministic-integrator theory.
pred = build_tree(scenarios.two_state_rule(3, 1, 0.3, 0.6))
print(f"predictable rule (0.6 after quiet, 0.3 after a point): "
      f"{pred.n_nodes} nodes")
print("  distinct step sizes used:", sorted({float(a) for a in pred.slot_dA}))

# the multiplicative weight is fixed by the parent history, so it varies
# across depth-3 nodes here, which can never happen for deterministic A
E = pred.doleans(1.0)
terminal_weights = np.unique(np.round(E[pred.depth_slice(3)], 12))
print("  distinct terminal weights across histories:", terminal_weights)
