"""Weighted square norms for solution pairs on a scenario tree.

Conventions.  An adapted process ``Y`` is a plain float array with one
entry per tree node (the left limit at a slot's atom time is the parent
node's value).  A predictable field ``Z`` is a float array of shape
``(n_slots, n_marks)``; the row attached to a slot may only depend on the
parent history, which the layout enforces.  ``hat_z_rows`` is the
projection of each row against the atomic part of the compensator,
``delta_A * sum(zeta * phi)``, and is 0 by convention on slots with
``delta_A = 0``.

One mark sum (``_phi_dot``) gives each row's mean ``sum(zeta * phi)``,
all that ``hat_z_rows`` reads; one row kernel (``_moments``: that mean
and the spread about it) gives ``lipschitz_seminorm_rows`` and
``slot_z_contribution`` (``delta_A`` times the squared seminorm).  Each
takes a block of slots at a time; one slot is a one-row block
(``SlotBlock.of_view``).

On slots with ``delta_A = 1`` the squared norm cannot see an additive
constant in the row, so fields are only norm-unique there; the canonical
representative (``_canonical_rows``, which the solvers' fields follow)
centers those rows to ``sum(Z * phi) = 0`` and zeroes the weightless
``delta_A = 0`` rows.

All sums run in fixed node-index order so repeated evaluations are bit
identical.  A row's sum over marks (``_phi_dot``, and the spread in
``_moments``) adds the marks left to right, one elementwise pass per mark,
so a row's bits depend on its values only, not on its block, its length
or its alignment.
"""

from __future__ import annotations

import numpy as np

from .measure_core import ScenarioTree, SlotBlock

__all__ = [
    "hat_z_rows",
    "slot_z_contribution",
    "y_norm_sq",
    "z_norm_sq",
    "mixed_norm_sq",
    "lipschitz_seminorm_rows",
    "adapted_zeros",
    "field_zeros",
]


def adapted_zeros(tree: ScenarioTree) -> np.ndarray:
    return np.zeros(tree.n_nodes)


def field_zeros(tree: ScenarioTree) -> np.ndarray:
    return np.zeros((tree.n_slots, tree.n_marks))


def _phi_dot(a, phi) -> np.ndarray:
    """Per-row ``sum(a * phi)``: the marks added left to right, one elementwise pass each."""
    out = a[:, 0] * phi[:, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j] * phi[:, j]
    return out


def _moments(zeta, delta_A: np.ndarray, phi: np.ndarray):
    """Per-row ``mean = sum(zeta * phi)`` and ``spread = sum((zeta - delta_A*mean)^2 phi)``."""
    z = np.asarray(zeta, dtype=float)
    mean = _phi_dot(z, phi)
    shift = delta_A * mean
    m = z.shape[1]
    for j in range(m):
        # one mark at a time, without a 2-D deviation; the last mark's
        # deviation takes the buffer of the shift
        dev = np.subtract(z[:, j], shift, out=shift if j == m - 1 else None)
        dev *= dev
        dev *= phi[:, j]
        if j == 0:
            spread = dev
        else:
            spread += dev
    return mean, spread


def _seminorm_sq(zeta, delta_A: np.ndarray, phi: np.ndarray) -> np.ndarray:
    # squared seminorm per row
    mean, spread = _moments(zeta, delta_A, phi)
    return spread + delta_A * (1.0 - delta_A) * mean * mean


def hat_z_rows(zeta, block: SlotBlock) -> np.ndarray:
    """Projection ``delta_A * sum(zeta * phi)`` of each row; 0 where ``delta_A = 0``."""
    out = block.delta_A * _phi_dot(np.asarray(zeta, dtype=float), block.phi)
    out[block.delta_A == 0.0] = 0.0
    return out


def lipschitz_seminorm_rows(dzeta, block: SlotBlock) -> np.ndarray:
    """Seminorm of each row of ``dzeta[n, m]`` used by generator Lipschitz bounds.

    ``sqrt( sum(|dz - dA*mean|^2 phi) + dA (1 - dA) mean**2 )`` with
    ``mean = sum(dz * phi)``; on ``delta_A = 0`` slots the plain L2(phi) norm.
    """
    return np.sqrt(_seminorm_sq(dzeta, block.delta_A, block.phi))


def slot_z_contribution(Z: np.ndarray, tree: ScenarioTree) -> np.ndarray:
    """Per-slot integrand of the Z norm, without probability or weight.

    ``delta_A * seminorm**2``, which equals
    ``delta_A * sum(|Z - hat_z|^2 phi) + (1 - delta_A) * hat_z**2``.
    """
    return tree.slot_dA * _seminorm_sq(Z, tree.slot_dA, tree.slot_phi)


# The norms are slot sums against w = P(parent) * E_end, and the Y part of
# the contraction functional against P(parent) * b * E_end; a caller taking
# several norms at one beta builds w once for the _weighted_* forms.
def _slot_weights(tree: ScenarioTree, beta: float, b=1.0) -> np.ndarray:
    return tree.prob[:tree.n_slots] * b * tree.doleans_at_slot_end(beta)


def _weighted_y_sq(Y: np.ndarray, tree: ScenarioTree, w: np.ndarray) -> float:
    Ypar = Y[:tree.n_slots]
    return float(np.sum(w * Ypar * Ypar * tree.slot_dA))


def _weighted_z_sq(Z: np.ndarray, tree: ScenarioTree, w: np.ndarray) -> float:
    return float(np.sum(w * slot_z_contribution(Z, tree)))


def y_norm_sq(Y: np.ndarray, tree: ScenarioTree, beta: float) -> float:
    """Weighted square norm of the left limits of an adapted process.

    Exact sum over slots of
    ``P(parent) * weight(atom time) * Y_parent**2 * delta_A``.
    """
    return _weighted_y_sq(Y, tree, _slot_weights(tree, beta))


def z_norm_sq(Z: np.ndarray, tree: ScenarioTree, beta: float) -> float:
    """Weighted square norm of a predictable field."""
    return _weighted_z_sq(Z, tree, _slot_weights(tree, beta))


def mixed_norm_sq(Y: np.ndarray, Z: np.ndarray, tree: ScenarioTree,
                  beta: float, b=1.0) -> float:
    """Slot-weighted Y part plus the Z norm: the contraction functional.

    ``b`` is a per-slot weight array (or scalar).  With ``b = 1`` this
    is ``y_norm_sq + z_norm_sq``.  Both slot weights come from
    ``_slot_weights``.
    """
    b = np.broadcast_to(np.asarray(b, dtype=float), (tree.n_slots,))
    return (_weighted_y_sq(Y, tree, _slot_weights(tree, beta, b))
            + _weighted_z_sq(Z, tree, _slot_weights(tree, beta)))


def _canonical_rows(Z: np.ndarray, rows) -> np.ndarray:
    """Make the rows of ``Z`` canonical in place and return it.

    ``rows`` is the slots' plan (a ``measure_core._Level``, of a level or of
    every slot): rows with ``delta_A = 0`` are zeroed; rows with
    ``delta_A = 1`` are centered to ``sum(Z * phi) = 0``.
    """
    if rows.unit is not None:   # every row's mean, subtracted where ``unit`` holds
        np.subtract(Z, np.einsum("sm,sm->s", Z, rows.phi)[:, None], out=Z, where=rows.unit)
    if rows.zero is not None:
        Z[rows.zero] = 0.0
    return Z
