"""
The blow-up regime: why the main hypothesis is needed
=====================================================
A single predictable jump of size p with driver f(y) = y/p turns the
one-step equation into y = c + y: no solution when the conditional mean c
is nonzero, every y when it vanishes.  The violation value 2 L_y^2 dA^2
equals 2 exactly, the detector flags the slot, the backward oracle
refuses the step, and the unchecked fixed-point iteration grows without
bound.
"""

from treebsde import (BsdeProblem, NoConvergence, StepSingular,
                      backward_oracle, build_tree, conditions, picard_solve,
                      scenarios)

model, driver = scenarios.counterexample_model(p=0.5)
tree = build_tree(model)

flagged = conditions.detect_counterexample(tree, driver.lip_y)
for slot, value in flagged:
    print(f"flagged slot at step {tree.slot_step[slot]}: dA = {tree.slot_dA[slot]}, "
          f"violation value = {value}")

problem = BsdeProblem(model=model, beta=0.0,
                      xi=scenarios.xi_constant(5e4), f=driver)
try:
    backward_oracle(problem)
except StepSingular as exc:
    print(f"backward oracle: StepSingular (degenerate = {exc.degenerate})")

try:
    picard_solve(problem, max_iter=50, check_hypothesis=False)
except NoConvergence as exc:
    sup = exc.report.y_sup
    print("unchecked iteration grows linearly; |Y| sup by sweep:")
    for i in (0, 9, 19, 29, 39, 49):
        print(f"  sweep {i + 1:3d}: {sup[i]:.3e}")

# a terminal value with zero conditional mean at the jump instead makes
# the one-step equation degenerate (a continuum of solutions)
centered = BsdeProblem(model=model, beta=0.0,
                       xi=lambda H: scenarios.xi_jump_count(2.0)(H) - 1.0,
                       f=driver)
try:
    backward_oracle(centered)
except StepSingular as exc:
    print(f"zero-mean terminal value: StepSingular (degenerate = {exc.degenerate})")
