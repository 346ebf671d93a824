"""
Explicit solve for drivers without feedback, and the energy identity
====================================================================
When the driver f does not look at (y, zeta) the backward equation is
solved by conditioning: Y is the conditional expectation of the terminal
value plus the remaining drift, and Z is read off the martingale
increments slot by slot.  The solution satisfies an exact energy identity
at every grid time, which the verification module evaluates as two tree
sums.
"""

import numpy as np

from treebsde import (BsdeProblem, Generator, check_apriori_estimate,
                      check_identity_lemma, check_solution_jump_identity,
                      norms, scenarios, solve_linear)

model = scenarios.deterministic_grid(K=4, m=2, a=[0.3, 1.0, 0.0, 0.7])
problem = BsdeProblem(
    model=model,
    beta=1.5,
    xi=scenarios.xi_jump_count(0.5),
    f=Generator(lambda block, y, zeta: 0.4 * np.cos(block.step), lip_y=0.0, lip_z=0.0),
)
sol = solve_linear(problem)
tree = problem.tree()
print(f"Y0 = {sol.Y[0]:.6f}  on a tree with {tree.n_nodes} nodes")
print(f"norms: |Y|^2 = {norms.y_norm_sq(sol.Y, tree, problem.beta):.6f}, "
      f"|Z|^2 = {norms.z_norm_sq(sol.Z, tree, problem.beta):.6f}")

print("\nenergy identity, every grid time:")
for j in range(tree.horizon + 1):
    r = check_identity_lemma(problem, sol, j)
    print(f"  t_{j}: lhs = {r.lhs:.12f}, rhs = {r.rhs:.12f}, "
          f"relative gap = {r.rel_gap:.2e}")

apriori = check_apriori_estimate(problem, sol)
print(f"\na priori bound: {apriori.lhs:.4f} <= {apriori.rhs:.4f} "
      f"(constant c(beta) = {apriori.detail['c_beta']:.3f})")

jumps = check_solution_jump_identity(sol, problem)
print(f"per-slot jump identity residual: {jumps.lhs:.2e}")
