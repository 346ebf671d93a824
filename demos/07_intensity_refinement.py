"""
Route to continuous compensators: discretized constant intensity
================================================================
A constant-rate arrival stream is approximated by per-step jump sizes
dA = 1 - exp(-lam * dt).  With the terminal 0.5 * (jump count) and the
driver 0.2 * y, the jump count is all a node needs to know, so the model
declares it as its state and the tree merges the histories that share it:
(K + 1)(K + 2) / 2 nodes instead of 2^(K + 1) - 1.  That makes the grid
refinement an exact convergence study: on every grid
Y0 = 0.5 K dA / (1 - 0.2 dA)^K, and as K grows Y0 tends to the
continuous-time value 0.5 e^0.2.
"""

import dataclasses
import math

from treebsde import BsdeProblem, Generator, backward_oracle, scenarios

driver = Generator(lambda block, y, zeta: 0.2 * y, lip_y=0.2, lip_z=0.0)
limit = 0.5 * math.exp(0.2)
state = scenarios.preset_state("discretized_intensity", "jump_count")

print("K      nodes    dA per step   Y0               gap to closed form   gap to limit")
for K in (2, 4, 8, 16, 32, 64, 128, 256):
    model = dataclasses.replace(scenarios.discretized_intensity(lam=1.0, K=K, m=1),
                                state=state)
    problem = BsdeProblem(model=model, beta=1.0, xi=scenarios.xi_jump_count(0.5), f=driver)
    y0 = float(backward_oracle(problem).Y[0])
    tree = problem.tree()
    da = float(tree.slot_dA[0])
    closed = 0.5 * K * da / (1.0 - 0.2 * da) ** K
    print(f"{K:<6d} {tree.n_nodes:<8d} {da:<13.6f} {y0:<16.12f} "
          f"{abs(y0 - closed):<20.2e} {abs(y0 - limit):.2e}")
print(f"limit 0.5 e^0.2 = {limit:.12f}")
