"""Backward equations driven by finite-mark random measures whose
compensator is predictable and discontinuous, solved and machine-verified
on exactly enumerated scenario trees."""

from .measure_core import (
    NO_JUMP,
    ScenarioModel,
    ScenarioTree,
    SlotBlock,
    SlotView,
    TreeTooLarge,
    build_tree,
    doleans_exponential,
    doleans_sqrt_factorization,
)
from .norms import (
    mixed_norm_sq,
    y_norm_sq,
    z_norm_sq,
)
from .conditions import (
    ContractionProfile,
    DenominatorNonpositive,
    beta_threshold,
    check_main_hypothesis,
    contraction_profile,
    detect_counterexample,
    hat_Lz,
)
from .solver import (
    BsdeProblem,
    ConditionViolated,
    Generator,
    NoConvergence,
    NonFinite,
    Solution,
    SolveReport,
    SolverError,
    StepSingular,
    backward_oracle,
    implicit_step_solve,
    picard_map,
    picard_solve,
    solve_linear,
)
from .verification import (
    CheckResult,
    check_apriori_estimate,
    check_identity_lemma,
    check_integral_inequality,
    check_lipschitz,
    check_norm_equivalence,
    check_solution_jump_identity,
    run_suite,
)
from . import scenarios

__version__ = "0.1.0"
