"""Named model constructors covering the regimes the solver must handle.

Deterministic step sizes, genuinely predictable (history-dependent) step
sizes, forced unit jumps, discretized constant-intensity arrivals, and
the single-slot blow-up configuration.  Every constructor returns a
:class:`treebsde.measure_core.ScenarioModel`; all randomness lives in the
caller-supplied generator of :func:`random_model`.  Models and terminals
have one form: rules ``(k, H)`` on a level's history matrix and
terminals ``xi(H)`` on the leaf matrix.

``preset_state`` is what a model preset and a terminal preset read of a
history: the state (``ScenarioModel.state``) that merges their tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .measure_core import ScenarioModel, NO_JUMP, _whole
from .solver import Generator

__all__ = [
    "ModelSpec",
    "deterministic_grid",
    "two_state_rule",
    "pdmp_like",
    "discretized_intensity",
    "counterexample_model",
    "random_model",
    "jump_counts",
    "last_marks",
    "preset_state",
    "xi_constant",
    "xi_jump_count",
    "xi_last_mark_indicator",
]


def _uniform_model(K: int, m: int, jump_size, phi=None) -> ScenarioModel:
    """Model of K steps and m marks with the level rule ``jump_size`` and the mark law ``phi``.

    ``phi`` is None (uniform) or one probability vector for every slot;
    the uniform law is made after the model has checked K and m.
    """
    def mark_law(k, H):
        return np.repeat(vec[None], H.shape[0], axis=0)   # contiguous rows

    model = ScenarioModel(m, K, jump_size, mark_law)
    vec = np.full(model.m, 1.0 / model.m) if phi is None else np.asarray(phi, float)
    return model


def jump_counts(H: np.ndarray) -> np.ndarray:
    """Number of realized points in each row of a history matrix."""
    return (H != NO_JUMP).sum(axis=1)


def last_marks(H: np.ndarray) -> np.ndarray:
    """Last realized mark in each row of a history matrix; ``NO_JUMP`` in a row without one."""
    n, K = H.shape
    if K == 0:
        return np.full(n, NO_JUMP, dtype=H.dtype)
    # the entry in the last column holding a point (NO_JUMP in a row without one)
    return H[np.arange(n), K - 1 - np.argmax(H[:, ::-1] != NO_JUMP, axis=1)]


# -- constructors ----------------------------------------------------------


def _stepwise(K: int, m: int, sizes, phi=None) -> ScenarioModel:
    """Model whose step k jumps by ``a[k]``: ``a = sizes(K)`` in [0, 1], made once K is checked."""
    model = _uniform_model(K, m, lambda k, H: np.full(H.shape[0], a[k]), phi)
    a = np.broadcast_to(np.asarray(sizes(model.horizon), dtype=float), (model.horizon,)).copy()
    if np.any(a < 0) or np.any(a > 1):
        raise ValueError("jump sizes must lie in [0, 1]")
    return model


def deterministic_grid(K: int, m: int, a, phi=None) -> ScenarioModel:
    """Deterministic step sizes: ``a`` is a constant or per-step array in [0, 1]."""
    return _stepwise(K, m, lambda n: a, phi)


def two_state_rule(K: int, m: int, a_after_jump: float, a_after_no_jump: float,
                   phi=None) -> ScenarioModel:
    """Jump size ``a_after_jump`` right after a point, else ``a_after_no_jump``.

    Step 0 has no previous outcome and uses ``a_after_no_jump``.  The
    jump sizes depend on the past: the regime the solver exists for.
    """
    after_jump, after_none = float(a_after_jump), float(a_after_no_jump)

    def jump_size(k, H):
        if k == 0:
            return np.full(H.shape[0], after_none)
        return np.where(H[:, -1] == NO_JUMP, after_none, after_jump)

    return _uniform_model(K, m, jump_size, phi)


def pdmp_like(K: int, m: int, phi=None) -> ScenarioModel:
    """Unit jump at every step: each slot forces a mark, no no-jump branch.

    In this regime the main hypothesis reduces to ``lip_y < 1/sqrt(2)``
    and is automatic for drivers that do not depend on y.
    """
    return deterministic_grid(K, m, 1.0, phi)


def discretized_intensity(lam: float, K: int, m: int, phi=None,
                          T: float = 1.0) -> ScenarioModel:
    """Constant-intensity arrivals on ``[0, T]`` (the one preset with a ``T``) in K steps.

    ``delta_A_k = 1 - exp(-lam * dt_k)`` per step of length ``dt_k``; more
    steps send the jump sizes to zero, the route to continuous compensators.
    """
    if lam < 0:
        raise ValueError("intensity must be nonnegative")
    T = float(T)
    if not np.isfinite(T):      # refused before linspace spreads it over the steps
        raise ValueError(f"horizon T must be finite, not {T!r}")
    return _stepwise(K, m, lambda n: 1.0 - np.exp(-lam * np.diff(np.linspace(0.0, T, n + 1))),
                     phi)


def counterexample_model(p: float, t0_index: int = 0, K: int = 1, m: int = 1):
    """Single predictable jump of size p with the driver that breaks existence.

    The step map at the jump slot is ``y = c + dA * (y / p) = c + y``:
    with ``lip_y = 1/p`` the violation value ``2 lip_y^2 dA^2`` equals 2
    exactly, no contraction exists, and the equation has no solution
    unless the relevant conditional mean vanishes (then every y solves
    it).

    Returns:
        ``(model, generator)`` with the driver ``f(block, y, zeta) = y/p``.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    t0_index = _whole(t0_index)
    model = _stepwise(K, m, lambda n: np.where(np.arange(n) == t0_index, float(p), 0.0))
    if not 0 <= t0_index < model.horizon:
        raise ValueError("t0_index must address a step of the model")
    gen = Generator(lambda block, y, zeta: y / p, lip_y=1.0 / p, lip_z=0.0)
    return model, gen


def random_model(rng, K=None, m=None, max_horizon=6, max_marks=3,
                 include_unit=True, include_zero=True) -> ScenarioModel:
    """Seeded random model mixing the regimes above.

    Draws per-step base sizes, optionally forces some slots to exact 0 or
    1, and with probability 1/2 makes the size rule genuinely predictable
    (it switches on the parity of the jump count so far).  The mark law
    is a random distribution that may also depend on that parity.  All
    draws happen up front, once the model has checked K and m; the rules are pure.
    """
    def jump_size(k, H):
        n = H.shape[0]
        if unit[k]:
            return np.ones(n)
        if zero[k]:
            return np.zeros(n)
        if history_dependent:
            return np.where(jump_counts(H) % 2 == 1, alt[k], base[k])
        return np.full(n, base[k])

    def mark_law(k, H):
        odd = jump_counts(H) % 2 if law_dependent else np.zeros(H.shape[0], dtype=int)
        return laws[odd]

    K = int(rng.integers(1, max_horizon + 1)) if K is None else K
    m = int(rng.integers(1, max_marks + 1)) if m is None else m
    model = ScenarioModel(m, K, jump_size, mark_law)
    K, m = model.horizon, model.m
    base = rng.uniform(0.05, 0.95, K)
    alt = rng.uniform(0.05, 0.95, K)
    unit = (rng.random(K) < 0.15) if include_unit else np.zeros(K, dtype=bool)
    zero = (rng.random(K) < 0.10) if include_zero else np.zeros(K, dtype=bool)
    zero &= ~unit
    history_dependent = bool(rng.random() < 0.5)
    raw = rng.uniform(0.2, 1.0, (2, m))
    laws = raw / raw.sum(axis=1, keepdims=True)
    law_dependent = bool(rng.random() < 0.5)
    return model


# -- terminal functionals ---------------------------------------------------
#
# Each factory returns ``xi(H) -> values[n]`` on the leaf matrix ``H[n, K]``.


def xi_constant(c: float):
    c = float(c)
    return lambda H: np.full(H.shape[0], c)


def xi_jump_count(scale: float = 1.0):
    """Terminal value proportional to the number of realized points."""
    return lambda H: scale * jump_counts(H)


def xi_last_mark_indicator(mark_index: int, scale: float = 1.0, *, n_marks: int):
    """Indicator that the last realized point carried the given mark.

    ``mark_index`` must be a mark of the ``n_marks`` marks, ``0..m-1``:
    any other index is refused, since it could only match the no-jump
    code or nothing.
    """
    mark_index = _whole(mark_index)
    if not 0 <= mark_index < n_marks:
        raise ValueError(f"terminal mark {mark_index} outside 0..{n_marks - 1}")

    return lambda H: np.where(last_marks(H) == mark_index, float(scale), 0.0)


# -- preset states ------------------------------------------------------------
#
# What each preset reads of a history, as per-row keys: the deterministic
# models nothing, two_state_rule whether the last step carried a point.

_MODEL_READS = {"deterministic_grid": (), "pdmp_like": (), "discretized_intensity": (),
                "two_state_rule": (lambda H: (H[:, -1:] != NO_JUMP).any(axis=1),)}
_TERMINAL_READS = {"constant": (), "jump_count": (jump_counts,), "last_mark": (last_marks,)}


def preset_state(model: str, terminal: str):
    """State ``(k, H) -> keys[n, j]`` of a model preset solved with a terminal preset.

    The keys are what the rules and the terminal read of a history.  None
    for a pair without one (``counterexample``, an unknown name): its tree
    keeps every history.
    """
    if model not in _MODEL_READS or terminal not in _TERMINAL_READS:
        return None
    reads = _MODEL_READS[model] + _TERMINAL_READS[terminal]

    def state(k, H):
        keys = np.zeros((H.shape[0], len(reads) + 1), dtype=np.int64)   # a zero column first
        for j, read in enumerate(reads, 1):
            keys[:, j] = read(H)
        return keys

    return state


# -- named presets -----------------------------------------------------------

# the presets a JSON config can name
_CONSTRUCTORS = {
    "deterministic_grid": deterministic_grid,
    "two_state_rule": two_state_rule,
    "pdmp_like": pdmp_like,
    "discretized_intensity": discretized_intensity,
}


@dataclass(frozen=True)
class ModelSpec:
    """Addressable model preset: constructor name plus keyword parameters.

    With ``terminal``, the terminal preset it is solved with, ``build``
    declares the pair's ``preset_state``.
    """

    name: str
    params: dict = field(default_factory=dict)
    terminal: str | None = None

    def build(self) -> ScenarioModel:
        if self.name == "counterexample":
            model, _ = counterexample_model(**self.params)
            return model
        try:
            ctor = _CONSTRUCTORS[self.name]
        except KeyError:
            raise ValueError(f"unknown model preset {self.name!r}") from None
        model = ctor(**self.params)
        if self.terminal is None:
            return model
        return replace(model, state=preset_state(self.name, self.terminal))
