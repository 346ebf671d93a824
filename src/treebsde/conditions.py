"""Well-posedness hypothesis, auxiliary Lipschitz process, and contraction data.

Everything here is elementary arithmetic over the slots of a tree: the
slack of the main hypothesis ``2 L_y^2 dA^2 <= 1 - eps``, the auxiliary
squared Lipschitz level ``hat_Lz_sq`` (its second branch is the
minimizer of the threshold function ``H``, whose scalar form is an
oracle in ``tests/conftest.py``), the per-slot weights ``(c, d, a, b)``
entering the contraction functional, the weight threshold ``beta_min``
above which the fixed-point map contracts, and the detector for slots
that reproduce the known blow-up regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure_core import ScenarioTree

__all__ = [
    "DenominatorNonpositive",
    "ContractionProfile",
    "check_main_hypothesis",
    "hat_Lz",
    "beta_threshold",
    "detect_counterexample",
    "contraction_profile",
]


class DenominatorNonpositive(RuntimeError):
    """Threshold data failed a check: a denominator lost positivity, the dominated
    branch exceeded the threshold branch, or a value is not finite (rounding, overflow)."""


@dataclass(frozen=True)
class ContractionProfile:
    """Per-slot contraction data plus the global diagnostics.

    The jump sizes are the tree's ``slot_dA``; ``a`` holds ``1 - delta`` per slot.
    """

    hat_lz_sq: np.ndarray
    c: np.ndarray
    d: np.ndarray
    a: np.ndarray
    b: np.ndarray
    epsilon_star: float
    delta: float
    beta: float
    beta_min: float


def check_main_hypothesis(tree: ScenarioTree, lip_y: float) -> float:
    """Slack of the main hypothesis over every slot of the tree.

    Returns ``eps_star = 1 - max_slots 2 lip_y^2 dA^2``.  The hypothesis
    holds iff the result is strictly positive; nonpositive values signal
    the blow-up regime.  With unit jumps everywhere this reduces to
    ``lip_y < 1/sqrt(2)``.
    """
    return 1.0 - float(np.max(2.0 * lip_y ** 2 * tree.slot_dA ** 2, initial=0.0))


def hat_Lz(delta: float, lip_y: float, lip_z: float, delta_A):
    """Auxiliary squared Lipschitz level for one slot or an array of slots.

    ``max(lip_z^2 + delta, (1-delta) lip_y / (sqrt(2(1-delta)) - 2 lip_y dA))``;
    requires ``0 < delta < 1`` and ``2 lip_y^2 dA^2 <= 1 - delta`` on every
    slot so the second branch's denominator stays positive.  Returns a
    float for a scalar ``delta_A`` and an array for an array.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    da = np.asarray(delta_A, dtype=float)
    if np.any(2.0 * lip_y ** 2 * da ** 2 > 1.0 - delta):
        raise ValueError("delta out of range: 2 lip_y^2 dA^2 exceeds 1 - delta")
    second = (1.0 - delta) * lip_y / (np.sqrt(2.0 * (1.0 - delta)) - 2.0 * lip_y * da)
    hat = np.maximum(lip_z ** 2 + delta, second)
    return float(hat) if hat.ndim == 0 else hat


def _threshold(tree: ScenarioTree, lip_y: float, lip_z: float, delta: float,
               eps_star: float | None = None):
    """Hypothesis slack, per-slot ``hat`` and ``beta_min`` with their checks.

    The one home of the threshold data ``beta_threshold`` returns and
    ``contraction_profile`` builds on.  ``eps_star`` is the slack, if the
    caller has it.
    """
    if eps_star is None:
        eps_star = check_main_hypothesis(tree, lip_y)
    if not 0.0 < delta < eps_star:
        raise ValueError("delta must lie strictly between 0 and the hypothesis slack")
    da = tree.slot_dA
    hat = hat_Lz(delta, lip_y, lip_z, da)
    r = lip_y ** 2 / hat + 2.0 * hat / (1.0 - delta + 2.0 * hat * da)
    den = 1.0 - da * r
    if np.any(den <= 0):
        raise DenominatorNonpositive("threshold denominator lost positivity")
    vals = r / den
    if not np.isfinite(vals).all():
        raise DenominatorNonpositive("threshold value is not finite")
    simple = lip_y ** 2 / hat + 2.0 * hat / (1.0 - delta)
    if np.any(simple > vals * (1.0 + 1e-9) + 1e-15):
        raise DenominatorNonpositive("dominated branch exceeded the threshold branch")
    return eps_star, hat, float(np.max(vals, initial=0.0))


def beta_threshold(tree: ScenarioTree, lip_y: float, lip_z: float, delta: float) -> float:
    """Smallest weight exponent for which the contraction argument applies.

    Maximum over slots of ``r / (1 - dA * r)`` with
    ``r = lip_y^2/hat + 2 hat/(1-delta+2 hat dA)`` and ``hat`` from
    ``hat_Lz``.  Requires the hypothesis slack to exceed ``delta``; the
    denominators are then provably positive and ``DenominatorNonpositive``
    marks an internal inconsistency.  Also verifies that the simpler
    lower bound ``lip_y^2/hat + 2 hat/(1-delta)`` never exceeds the
    returned one (they coincide on ``dA = 0`` slots).
    """
    return _threshold(tree, lip_y, lip_z, delta)[2]


def detect_counterexample(tree: ScenarioTree, lip_y: float):
    """Slots violating the main hypothesis, with their ``2 lip_y^2 dA^2``.

    Returns ``[(slot_view, value), ...]`` for every slot whose value is
    >= 1 (the boundary is flagged: no strict slack exists there).  Empty
    iff the hypothesis can hold with some positive slack.
    """
    vals = 2.0 * lip_y ** 2 * tree.slot_dA ** 2
    idx = np.nonzero(vals >= 1.0)[0]
    return [(tree.slot(int(i)), float(vals[i])) for i in idx]


def contraction_profile(tree: ScenarioTree, lip_y: float, lip_z: float,
                        beta: float, delta: float) -> ContractionProfile:
    """Assemble the full per-slot contraction data for a problem.

    The slot weights of the contraction argument are
    ``c = (1-delta)/(2 hat)``, ``d = c + dA``, ``a = 2 hat * max(c, d - dA)``
    (which equals ``1 - delta`` with this choice) and
    ``b = min(beta - 1/c, beta/(1+beta dA) - 1/d)``, with ``hat`` from
    ``hat_Lz``.
    """
    return _profile(tree, *_threshold(tree, lip_y, lip_z, delta), beta, delta)


def _profile(tree: ScenarioTree, eps_star: float, hat: np.ndarray, beta_min: float,
             beta: float, delta: float) -> ContractionProfile:
    # contraction_profile from the threshold data of _threshold at delta;
    # of the slot weights only b depends on beta
    da = tree.slot_dA
    c = (1.0 - delta) / (2.0 * hat)
    d = c + da
    a = 2.0 * hat * np.maximum(c, d - da)
    b = np.minimum(beta - 1.0 / c, beta / (1.0 + beta * da) - 1.0 / d)
    return ContractionProfile(hat_lz_sq=hat, c=c, d=d, a=a, b=b, epsilon_star=eps_star,
                              delta=delta, beta=beta, beta_min=beta_min)
