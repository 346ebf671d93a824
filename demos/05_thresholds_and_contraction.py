"""
Hypothesis slack, auxiliary Lipschitz level, and the weight threshold
=====================================================================
The well-posedness condition 2 L_y^2 dA^2 <= 1 - eps fixes how much
feedback in y the equation tolerates; given a margin delta below the
slack, an auxiliary level hat_Lz and a threshold beta_min follow in
closed form.  Above the threshold the fixed-point map contracts, and the
per-slot weights (c, d, a, b) make the argument quantitative.
"""

import numpy as np

from treebsde import (BsdeProblem, Generator, build_tree, conditions, norms,
                      picard_map, picard_solve, scenarios)

model = scenarios.pdmp_like(K=3, m=2)
tree = build_tree(model)
lip_y, lip_z = 0.4, 1.0

eps = conditions.check_main_hypothesis(tree, lip_y)
print(f"unit jumps, lip_y = {lip_y}: slack eps* = {eps:.4f} "
      f"(forced marks need lip_y < 1/sqrt(2) ~ {1/np.sqrt(2):.4f})")

delta = 0.5
beta_min = conditions.beta_threshold(tree, lip_y, lip_z, delta)
print(f"delta = {delta}: beta_min = {beta_min:.6f}")

prof = conditions.contraction_profile(tree, lip_y, lip_z, beta_min, delta)
print(f"per-slot a = {prof.a[0]:.4f} (equals 1 - delta), "
      f"b - lip_y^2/hat^2 min = {np.min(prof.b - lip_y**2 / prof.hat_lz_sq):.2e}")

print(f"auxiliary level hat_Lz^2 = {prof.hat_lz_sq[0]:.6f} on every unit jump "
      f"(the larger of lip_z^2 + delta and the minimizer of the threshold function H), "
      f"beta_min = H(hat_Lz^2) = {prof.beta_min:.6f}")

driver = Generator(lambda block, y, zeta: 0.3 + lip_y * np.sin(y)
                   + lip_z * norms.lipschitz_seminorm_rows(zeta, block),
                   lip_y=lip_y, lip_z=lip_z)
rng = np.random.default_rng(1)
print("\nempirical squared contraction ratio of one map application:")
for mult in (1.0, 2.0, 4.0):
    beta = mult * beta_min
    problem = BsdeProblem(model=model, beta=beta,
                          xi=scenarios.xi_jump_count(), f=driver)
    prof = conditions.contraction_profile(tree, lip_y, lip_z, beta, delta)
    b = np.maximum(prof.b, 0.0)
    U1, V1 = rng.normal(0, 1, tree.n_nodes), rng.normal(0, 1, (tree.n_slots, 2))
    U2, V2 = rng.normal(0, 1, tree.n_nodes), rng.normal(0, 1, (tree.n_slots, 2))
    s1, s2 = picard_map(problem, U1, V1), picard_map(problem, U2, V2)
    num = norms.mixed_norm_sq(s1.Y - s2.Y, s1.Z - s2.Z, tree, beta, b)
    den = norms.mixed_norm_sq(U1 - U2, V1 - V2, tree, beta, b)
    _, rep = picard_solve(problem, delta=delta)
    worst = max(rep.ratio_sq) if rep.ratio_sq else float("nan")
    print(f"  beta = {mult:.0f} x beta_min: map ratio {num/den:.4f}, "
          f"worst iterate ratio {worst:.4f}  (delta = {delta})")
