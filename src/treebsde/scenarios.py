"""Named model constructors covering the regimes the solver must handle.

Deterministic step sizes, genuinely predictable (history-dependent) step
sizes, forced unit jumps, discretized constant-intensity arrivals, and
the single-slot blow-up configuration.  Every constructor returns a
:class:`treebsde.measure_core.ScenarioModel`; all randomness lives in the
caller-supplied generator of :func:`random_model`.  The constructors give
their models in level-batch form (``ScenarioModel.batched``) unless the
caller passes a scalar rule or mark law, and the terminal factories give
theirs on the leaf matrix (``solver.batched_terminal``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measure_core import LevelRules, MarkSpace, ScenarioModel, NO_JUMP
from .solver import Generator, batched_terminal

__all__ = [
    "ModelSpec",
    "deterministic_grid",
    "predictable_random_jumps",
    "two_state_rule",
    "pdmp_like",
    "discretized_intensity",
    "counterexample_model",
    "random_model",
    "jump_count",
    "jump_counts",
    "xi_constant",
    "xi_jump_count",
    "xi_last_mark_indicator",
]


def _uniform_grid(K: int, T: float = 1.0) -> np.ndarray:
    return np.linspace(0.0, float(T), int(K) + 1)


def _law_vector(phi, m) -> np.ndarray:
    return np.full(m, 1.0 / m) if phi is None else np.asarray(phi, dtype=float)


def _phi_fn(phi, m):
    """Scalar mark law ``(k, history) -> phi`` from None, a vector or a callable."""
    if callable(phi):
        return phi
    vec = _law_vector(phi, m)
    return lambda k, hist: vec


def _uniform_model(K: int, m: int, jump_size, jump_sizes, phi=None,
                   T: float = 1.0) -> ScenarioModel:
    """Model on a uniform grid with a history-free mark law ``phi``.

    ``jump_size`` and ``jump_sizes`` are the scalar and the level-batch
    form of one rule.  A callable ``phi`` is a scalar ``(k, history)``
    law, which keeps the whole model on the scalar path.
    """
    marks = MarkSpace.of_size(m)      # rejects m = 0 before the uniform law divides by it
    batch = None
    if not callable(phi):
        vec = _law_vector(phi, m)
        batch = LevelRules(jump_sizes,
                           lambda k, H: np.broadcast_to(vec, (H.shape[0],) + vec.shape))
    return ScenarioModel(marks, _uniform_grid(K, T), jump_size, _phi_fn(phi, m), batch=batch)


def jump_count(history) -> int:
    """Number of realized points in a history."""
    return sum(1 for o in history if o != NO_JUMP)


def jump_counts(H: np.ndarray) -> np.ndarray:
    """Number of realized points in each row of a history matrix."""
    return np.count_nonzero(H != NO_JUMP, axis=1)


# -- constructors ----------------------------------------------------------


def deterministic_grid(K: int, m: int, a, phi=None, T: float = 1.0) -> ScenarioModel:
    """Deterministic step sizes: ``a`` is a constant or per-step array in [0, 1]."""
    a_arr = np.broadcast_to(np.asarray(a, dtype=float), (int(K),)).copy()
    if np.any(a_arr < 0) or np.any(a_arr > 1):
        raise ValueError("jump sizes must lie in [0, 1]")
    return _uniform_model(K, m, lambda k, hist: float(a_arr[k]),
                          lambda k, H: np.full(H.shape[0], a_arr[k]), phi, T)


def predictable_random_jumps(K: int, m: int, rule, phi=None, T: float = 1.0) -> ScenarioModel:
    """Step sizes that depend on the past: ``rule(k, history) -> [0, 1]``.

    This is the regime the solver exists for; the integrator is
    predictable but not deterministic, so the weight paths differ across
    same-depth histories.  ``rule`` is scalar, so the tree is built row
    by row; the ``two_state_rule`` preset is the level-batch example.
    """
    return ScenarioModel(
        marks=MarkSpace.of_size(m),
        grid=_uniform_grid(K, T),
        jump_size=rule,
        mark_law=_phi_fn(phi, m),
    )


def two_state_rule(K: int, m: int, a_after_jump: float, a_after_no_jump: float,
                   phi=None, T: float = 1.0) -> ScenarioModel:
    """Jump size ``a_after_jump`` right after a point, else ``a_after_no_jump``.

    Step 0 has no previous outcome and uses ``a_after_no_jump``.
    """
    after_jump, after_none = float(a_after_jump), float(a_after_no_jump)

    def jump_size(k, hist):
        return after_none if k == 0 or hist[-1] == NO_JUMP else after_jump

    def jump_sizes(k, H):
        if k == 0:
            return np.full(H.shape[0], after_none)
        return np.where(H[:, -1] == NO_JUMP, after_none, after_jump)

    return _uniform_model(K, m, jump_size, jump_sizes, phi, T)


def pdmp_like(K: int, m: int, phi=None, T: float = 1.0) -> ScenarioModel:
    """Unit jump at every step: each slot forces a mark, no no-jump branch.

    In this regime the main hypothesis reduces to ``lip_y < 1/sqrt(2)``
    and is automatic for drivers that do not depend on y.
    """
    return deterministic_grid(K, m, 1.0, phi, T)


def discretized_intensity(lam: float, K: int, m: int, phi=None,
                          T: float = 1.0) -> ScenarioModel:
    """Constant-intensity arrivals discretized onto the grid.

    ``delta_A_k = 1 - exp(-lam * dt_k)`` per step; refining the grid sends
    the step sizes to zero, which is the route to continuous
    compensators.
    """
    if lam < 0:
        raise ValueError("intensity must be nonnegative")
    dt = np.diff(_uniform_grid(K, T))
    return deterministic_grid(K, m, 1.0 - np.exp(-lam * dt), phi, T)


def counterexample_model(p: float, t0_index: int = 0, K: int = 1,
                         m: int = 1, T: float = 1.0):
    """Single predictable jump of size p with the driver that breaks existence.

    The step map at the jump slot is ``y = c + dA * (y / p) = c + y``:
    with ``lip_y = 1/p`` the violation value ``2 lip_y^2 dA^2`` equals 2
    exactly, no contraction exists, and the equation has no solution
    unless the relevant conditional mean vanishes (then every y solves
    it).

    Returns:
        ``(model, generator)`` with the driver ``f(slot, y, zeta) = y/p``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if not 0 <= t0_index < K:
        raise ValueError("t0_index must address a step of the grid")
    model = deterministic_grid(K, m, np.where(np.arange(K) == t0_index, float(p), 0.0), T=T)
    gen = Generator.batched(lambda block, y, zeta: y / p, lip_y=1.0 / p, lip_z=0.0)
    return model, gen


def random_model(rng, K=None, m=None, max_horizon=6, max_marks=3,
                 include_unit=True, include_zero=True, T: float = 1.0) -> ScenarioModel:
    """Seeded random model mixing the regimes above.

    Draws per-step base sizes, optionally forces some slots to exact 0 or
    1, and with probability 1/2 makes the size rule genuinely predictable
    (it switches on the parity of the jump count so far).  The mark law
    is a random distribution that may also depend on that parity.  All
    draws happen up front; the returned rules are pure.
    """
    K = int(rng.integers(1, max_horizon + 1)) if K is None else int(K)
    m = int(rng.integers(1, max_marks + 1)) if m is None else int(m)
    base = rng.uniform(0.05, 0.95, K)
    alt = rng.uniform(0.05, 0.95, K)
    unit = (rng.random(K) < 0.15) if include_unit else np.zeros(K, dtype=bool)
    zero = (rng.random(K) < 0.10) if include_zero else np.zeros(K, dtype=bool)
    zero &= ~unit
    history_dependent = bool(rng.random() < 0.5)

    def jump_sizes(k, H):
        n = H.shape[0]
        if unit[k]:
            return np.ones(n)
        if zero[k]:
            return np.zeros(n)
        if history_dependent:
            return np.where(jump_counts(H) % 2 == 1, alt[k], base[k])
        return np.full(n, base[k])

    raw = rng.uniform(0.2, 1.0, (2, m))
    laws = raw / raw.sum(axis=1, keepdims=True)
    law_dependent = bool(rng.random() < 0.5)

    def mark_laws(k, H):
        odd = jump_counts(H) % 2 if law_dependent else np.zeros(H.shape[0], dtype=int)
        return laws[odd]

    return ScenarioModel.batched(MarkSpace.of_size(m), _uniform_grid(K, T),
                                 jump_sizes, mark_laws)


# -- terminal functionals ---------------------------------------------------
#
# Each factory returns a scalar ``xi(history) -> float`` carrying its
# level-batch form ``xi.batch(H) -> values`` on the leaf matrix.


def xi_constant(c: float):
    c = float(c)
    return batched_terminal(lambda H: np.full(H.shape[0], c), scalar=lambda hist: c)


def xi_jump_count(scale: float = 1.0):
    """Terminal value proportional to the number of realized points."""
    return batched_terminal(lambda H: scale * jump_counts(H),
                            scalar=lambda hist: scale * jump_count(hist))


def xi_last_mark_indicator(mark_index: int, scale: float = 1.0):
    """Indicator that the last realized point carried the given mark."""
    def xi(hist):
        for o in reversed(hist):
            if o != NO_JUMP:
                return scale if o == mark_index else 0.0
        return 0.0

    def xi_level(H):
        n, K = H.shape
        if K == 0:
            return np.zeros(n)
        # entry in the last column holding a point (NO_JUMP in a row without one)
        last = H[np.arange(n), K - 1 - np.argmax(H[:, ::-1] != NO_JUMP, axis=1)]
        return np.where((last == mark_index) & (last != NO_JUMP), float(scale), 0.0)

    return batched_terminal(xi_level, scalar=xi)


# -- named presets -----------------------------------------------------------

_CONSTRUCTORS = {
    "deterministic_grid": deterministic_grid,
    "predictable_random_jumps": predictable_random_jumps,
    "two_state_rule": two_state_rule,
    "pdmp_like": pdmp_like,
    "discretized_intensity": discretized_intensity,
}


@dataclass(frozen=True)
class ModelSpec:
    """Addressable model preset: constructor name plus keyword parameters."""

    name: str
    params: dict = field(default_factory=dict)

    def build(self) -> ScenarioModel:
        if self.name == "counterexample":
            model, _ = counterexample_model(**self.params)
            return model
        try:
            ctor = _CONSTRUCTORS[self.name]
        except KeyError:
            raise ValueError(f"unknown model preset {self.name!r}") from None
        return ctor(**self.params)
