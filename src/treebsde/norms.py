"""Weighted square norms for solution pairs on a scenario tree.

Conventions.  An adapted process ``Y`` is a plain float array with one
entry per tree node (the left limit at a slot's atom time is the parent
node's value).  A predictable field ``Z`` is a float array of shape
``(n_slots, n_marks)``; the row attached to a slot may only depend on the
parent history, which the layout enforces.  ``hat_z`` is the projection
of a row against the atomic part of the compensator,
``delta_A * sum(zeta * phi)``, and is 0 by convention on slots with
``delta_A = 0``.

On slots with ``delta_A = 1`` the squared norm cannot see an additive
constant in the row, so fields are only norm-unique there; the canonical
representative (``canonical_field``) centers those rows to
``sum(Z * phi) = 0`` and zeroes the weightless ``delta_A = 0`` rows.

All sums run in fixed node-index order so repeated evaluations are bit
identical.
"""

from __future__ import annotations

import numpy as np

from .measure_core import ScenarioTree, SlotBlock, SlotView

__all__ = [
    "hat_z",
    "hat_z_all",
    "hat_z_rows",
    "slot_z_contribution",
    "y_norm_sq",
    "z_norm_sq",
    "mixed_norm_sq",
    "lipschitz_seminorm",
    "lipschitz_seminorm_rows",
    "jump_second_moment",
    "canonical_field",
    "adapted_zeros",
    "field_zeros",
]


def adapted_zeros(tree: ScenarioTree) -> np.ndarray:
    return np.zeros(tree.n_nodes)


def field_zeros(tree: ScenarioTree) -> np.ndarray:
    return np.zeros((tree.n_slots, tree.n_marks))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # row-wise np.dot through the same BLAS dot kernel, so each entry equals
    # the scalar form's np.dot to the bit (einsum sums in another order)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def hat_z(zeta, slot: SlotView) -> float:
    """Projection of a mark vector on the slot's atomic compensator."""
    if slot.delta_A == 0.0:
        return 0.0
    return float(slot.delta_A * np.dot(np.asarray(zeta, dtype=float), slot.phi))


def hat_z_rows(zeta, block: SlotBlock) -> np.ndarray:
    """Row-wise ``hat_z`` of ``zeta[n, m]`` over a block of slots."""
    out = block.delta_A * _row_dot(np.asarray(zeta, dtype=float), block.phi)
    out[block.delta_A == 0.0] = 0.0
    return out


def hat_z_all(Z: np.ndarray, tree: ScenarioTree) -> np.ndarray:
    """Vectorized ``hat_z`` over every slot."""
    return tree.slot_dA * np.einsum("sm,sm->s", Z, tree.slot_phi)


def slot_z_contribution(Z: np.ndarray, tree: ScenarioTree) -> np.ndarray:
    """Per-slot integrand of the Z norm, without probability or weight.

    ``delta_A * sum(|Z - hat_z|^2 phi) + (1 - delta_A) * hat_z**2``
    """
    zh = hat_z_all(Z, tree)
    dev = Z - zh[:, None]
    spread = np.einsum("sm,sm->s", dev * dev, tree.slot_phi)
    return tree.slot_dA * spread + (1.0 - tree.slot_dA) * zh * zh


def _cont_weight(beta: float, dAc: np.ndarray) -> np.ndarray:
    # exact integral of the weight against the continuous part over one step
    if beta == 0.0:
        return dAc
    return (np.exp(beta * dAc) - 1.0) / beta


def y_norm_sq(Y: np.ndarray, tree: ScenarioTree, beta: float) -> float:
    """Weighted square norm of the left limits of an adapted process.

    Exact sum over slots of
    ``P(parent) * weight(atom time) * Y_parent**2 * delta_A`` plus the
    closed-form continuous-part terms when the model carries any (zero
    for solver models).
    """
    n = tree.n_slots
    P = tree.prob[:n]
    Ypar = Y[:n]
    E_end = tree.doleans_at_slot_end(beta)
    total = float(np.sum(P * E_end * Ypar * Ypar * tree.slot_dA))
    if np.any(tree.slot_dAc > 0):
        E_start = tree.doleans(beta)[:n]
        total += float(np.sum(P * E_start * Ypar * Ypar * _cont_weight(beta, tree.slot_dAc)))
    return total


def z_norm_sq(Z: np.ndarray, tree: ScenarioTree, beta: float) -> float:
    """Weighted square norm of a predictable field (atomic slots only)."""
    P = tree.prob[:tree.n_slots]
    E_end = tree.doleans_at_slot_end(beta)
    return float(np.sum(P * E_end * slot_z_contribution(Z, tree)))


def mixed_norm_sq(Y: np.ndarray, Z: np.ndarray, tree: ScenarioTree,
                  beta: float, b=1.0) -> float:
    """Slot-weighted Y part plus the Z norm: the contraction functional.

    ``b`` is a per-slot weight array (or scalar).  With ``b = 1`` and a
    purely discrete model this is ``y_norm_sq + z_norm_sq``.
    """
    n = tree.n_slots
    P = tree.prob[:n]
    Ypar = Y[:n]
    E_end = tree.doleans_at_slot_end(beta)
    b = np.broadcast_to(np.asarray(b, dtype=float), (n,))
    y_part = float(np.sum(P * b * E_end * Ypar * Ypar * tree.slot_dA))
    return y_part + z_norm_sq(Z, tree, beta)


def lipschitz_seminorm(dzeta, slot: SlotView) -> float:
    """Seminorm on mark-vector increments used by generator Lipschitz bounds.

    ``sqrt( sum(|dz - dA*mean|^2 phi) + dA (1 - dA) mean**2 )`` with
    ``mean = sum(dz * phi)``.  Scaled by ``delta_A`` it reproduces the
    slot's Z-norm integrand; on ``delta_A = 0`` slots it reduces to the
    plain L2(phi) norm.
    """
    dz = np.asarray(dzeta, dtype=float)
    da = slot.delta_A
    mean = float(np.dot(dz, slot.phi))
    dev = dz - da * mean
    val = float(np.dot(dev * dev, slot.phi)) + da * (1.0 - da) * mean * mean
    return float(np.sqrt(val))


def lipschitz_seminorm_rows(dzeta, block: SlotBlock) -> np.ndarray:
    """Row-wise ``lipschitz_seminorm`` of ``dzeta[n, m]`` over a block of slots."""
    dz = np.asarray(dzeta, dtype=float)
    da = block.delta_A
    mean = _row_dot(dz, block.phi)
    dev = dz - (da * mean)[:, None]
    val = _row_dot(dev * dev, block.phi) + da * (1.0 - da) * mean * mean
    return np.sqrt(val)


def jump_second_moment(zeta, slot: SlotView) -> float:
    """Conditional second moment of the compensated one-step integral.

    Equals ``dA * sum(phi * (zeta - hat)^2) + (1 - dA) * hat**2`` with
    ``hat = hat_z(zeta, slot)``, which is the same expression as the
    slot's Z-norm integrand.
    """
    z = np.asarray(zeta, dtype=float)
    da = slot.delta_A
    if da == 0.0:
        return 0.0
    zh = hat_z(z, slot)
    dev = z - zh
    return float(da * np.dot(dev * dev, slot.phi) + (1.0 - da) * zh * zh)


def canonical_field(Z: np.ndarray, tree: ScenarioTree) -> np.ndarray:
    """Canonical norm-equivalent representative of a field.

    Rows on ``delta_A = 0`` slots are zeroed (they carry no norm weight);
    rows on ``delta_A = 1`` slots are centered to ``sum(Z * phi) = 0``.
    """
    out = np.array(Z, dtype=float, copy=True)
    zero = tree.slot_dA == 0.0
    out[zero] = 0.0
    unit = tree.slot_dA == 1.0
    if np.any(unit):
        mean = np.einsum("sm,sm->s", out[unit], tree.slot_phi[unit])
        out[unit] -= mean[:, None]
    return out
