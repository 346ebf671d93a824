"""Named model constructors covering the regimes the solver must handle.

Deterministic step sizes, genuinely predictable (history-dependent) step
sizes, forced unit jumps, discretized constant-intensity arrivals, and
the single-slot blow-up configuration.  Every constructor returns a
:class:`treebsde.measure_core.ScenarioModel`; all randomness lives in the
caller-supplied generator of :func:`random_model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measure_core import MarkSpace, ScenarioModel, NO_JUMP
from .solver import Generator

__all__ = [
    "ModelSpec",
    "deterministic_grid",
    "predictable_random_jumps",
    "pdmp_like",
    "discretized_intensity",
    "counterexample_model",
    "random_model",
    "jump_count",
    "xi_constant",
    "xi_jump_count",
    "xi_last_mark_indicator",
]


def _uniform_grid(K: int, T: float = 1.0) -> np.ndarray:
    return np.linspace(0.0, float(T), int(K) + 1)


def _phi_fn(phi, m):
    if phi is None:
        vec = np.full(m, 1.0 / m)
        return lambda k, hist: vec
    if callable(phi):
        return phi
    vec = np.asarray(phi, dtype=float)
    return lambda k, hist: vec


def jump_count(history) -> int:
    """Number of realized points in a history."""
    return sum(1 for o in history if o != NO_JUMP)


# -- constructors ----------------------------------------------------------


def deterministic_grid(K: int, m: int, a, phi=None, T: float = 1.0) -> ScenarioModel:
    """Deterministic step sizes: ``a`` is a constant or per-step array in [0, 1]."""
    a_arr = np.broadcast_to(np.asarray(a, dtype=float), (K,)).copy()
    if np.any(a_arr < 0) or np.any(a_arr > 1):
        raise ValueError("jump sizes must lie in [0, 1]")
    return ScenarioModel(
        marks=MarkSpace.of_size(m),
        grid=_uniform_grid(K, T),
        jump_size=lambda k, hist: float(a_arr[k]),
        mark_law=_phi_fn(phi, m),
    )


def predictable_random_jumps(K: int, m: int, rule, phi=None, T: float = 1.0) -> ScenarioModel:
    """Step sizes that depend on the past: ``rule(k, history) -> [0, 1]``.

    This is the regime the solver exists for; the integrator is
    predictable but not deterministic, so the weight paths differ across
    same-depth histories.
    """
    return ScenarioModel(
        marks=MarkSpace.of_size(m),
        grid=_uniform_grid(K, T),
        jump_size=rule,
        mark_law=_phi_fn(phi, m),
    )


def pdmp_like(K: int, m: int, phi=None, T: float = 1.0) -> ScenarioModel:
    """Unit jump at every step: each slot forces a mark, no no-jump branch.

    In this regime the main hypothesis reduces to ``lip_y < 1/sqrt(2)``
    and is automatic for drivers that do not depend on y.
    """
    return ScenarioModel(
        marks=MarkSpace.of_size(m),
        grid=_uniform_grid(K, T),
        jump_size=lambda k, hist: 1.0,
        mark_law=_phi_fn(phi, m),
    )


def discretized_intensity(lam: float, K: int, m: int, phi=None,
                          T: float = 1.0) -> ScenarioModel:
    """Constant-intensity arrivals discretized onto the grid.

    ``delta_A_k = 1 - exp(-lam * dt_k)`` per step; refining the grid sends
    the step sizes to zero, which is the route to continuous
    compensators.
    """
    if lam < 0:
        raise ValueError("intensity must be nonnegative")
    grid = _uniform_grid(K, T)
    a_arr = 1.0 - np.exp(-lam * np.diff(grid))
    return ScenarioModel(
        marks=MarkSpace.of_size(m),
        grid=grid,
        jump_size=lambda k, hist: float(a_arr[k]),
        mark_law=_phi_fn(phi, m),
    )


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
    model = ScenarioModel(
        marks=MarkSpace.of_size(m),
        grid=_uniform_grid(K, T),
        jump_size=lambda k, hist: float(p) if k == t0_index else 0.0,
        mark_law=_phi_fn(None, m),
    )
    gen = Generator.batched(lambda block, y, zeta: y / p, lip_y=1.0 / p, lip_z=0.0)
    return model, gen


def random_model(rng, K=None, m=None, max_horizon=6, max_marks=3,
                 include_unit=True, include_zero=True, T: float = 1.0) -> ScenarioModel:
    """Seeded random model mixing the regimes above.

    Draws per-step base sizes, optionally forces some slots to exact 0 or
    1, and with probability 1/2 makes the size rule genuinely predictable
    (it switches on the parity of the jump count so far).  The mark law
    is a random distribution that may also depend on that parity.  All
    draws happen up front; the returned callables are pure.
    """
    K = int(rng.integers(1, max_horizon + 1)) if K is None else int(K)
    m = int(rng.integers(1, max_marks + 1)) if m is None else int(m)
    base = rng.uniform(0.05, 0.95, K)
    alt = rng.uniform(0.05, 0.95, K)
    unit = (rng.random(K) < 0.15) if include_unit else np.zeros(K, dtype=bool)
    zero = (rng.random(K) < 0.10) if include_zero else np.zeros(K, dtype=bool)
    zero &= ~unit
    history_dependent = bool(rng.random() < 0.5)

    def jump_size(k, hist):
        if unit[k]:
            return 1.0
        if zero[k]:
            return 0.0
        if history_dependent and jump_count(hist) % 2 == 1:
            return float(alt[k])
        return float(base[k])

    raw = rng.uniform(0.2, 1.0, (2, m))
    laws = raw / raw.sum(axis=1, keepdims=True)
    law_dependent = bool(rng.random() < 0.5)

    def mark_law(k, hist):
        row = 1 if (law_dependent and jump_count(hist) % 2 == 1) else 0
        return laws[row]

    return ScenarioModel(
        marks=MarkSpace.of_size(m),
        grid=_uniform_grid(K, T),
        jump_size=jump_size,
        mark_law=mark_law,
    )


# -- terminal functionals ---------------------------------------------------


def xi_constant(c: float):
    return lambda hist: float(c)


def xi_jump_count(scale: float = 1.0):
    """Terminal value proportional to the number of realized points."""
    return lambda hist: scale * jump_count(hist)


def xi_last_mark_indicator(mark_index: int, scale: float = 1.0):
    """Indicator that the last realized point carried the given mark."""
    def xi(hist):
        for o in reversed(hist):
            if o != NO_JUMP:
                return scale if o == mark_index else 0.0
        return 0.0
    return xi


# -- named presets -----------------------------------------------------------

_CONSTRUCTORS = {
    "deterministic_grid": deterministic_grid,
    "predictable_random_jumps": predictable_random_jumps,
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
        if self.name == "two_state_rule":
            # convenience preset: jump size a_after_jump / a_after_no_jump
            # depending on the previous step's outcome
            p = dict(self.params)
            after_jump = float(p.pop("a_after_jump"))
            after_none = float(p.pop("a_after_no_jump"))

            def rule(k, hist):
                if k == 0 or hist[-1] == NO_JUMP:
                    return after_none
                return after_jump

            return predictable_random_jumps(rule=rule, **p)
        try:
            ctor = _CONSTRUCTORS[self.name]
        except KeyError:
            raise ValueError(f"unknown model preset {self.name!r}") from None
        return ctor(**self.params)
