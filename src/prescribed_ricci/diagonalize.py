"""Rotating a full symmetric tensor on SO3 into a descending diagonal frame.

Rotations of an SO3 Milnor frame preserve the bracket relations, so any
symmetric prescribed tensor can be handed to the solver after a plain 3x3
symmetric eigendecomposition.  LAPACK's symmetric solver (`np.linalg.eigh`)
is used instead of the characteristic polynomial: repeated-eigenvalue inputs
are the interesting ones here, and it keeps orthogonality at rounding level
on them.

No analogue is offered for the other groups; their frame-change families are
non-compact and a general diagonalizability decision procedure is not
available.  Callers supply diagonal input there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import DiagonalTensor

__all__ = ["DiagonalizationResult", "diagonalize_so3", "symmetric_from_upper"]


@dataclass(frozen=True)
class DiagonalizationResult:
    """rotation is orthogonal with det +1; rotation^T T rotation is diagonal
    with the entries of `diagonal`, sorted descending."""

    rotation: np.ndarray
    diagonal: DiagonalTensor


def symmetric_from_upper(entries) -> np.ndarray:
    """Build a symmetric 3x3 matrix from the six independent entries in
    row-major upper-triangle order (t11, t12, t13, t22, t23, t33)."""
    e = [float(t) for t in entries]
    if len(e) != 6:
        raise ValueError(f"expected 6 upper-triangle entries, got {len(e)}")
    t11, t12, t13, t22, t23, t33 = e
    return np.array([[t11, t12, t13], [t12, t22, t23], [t13, t23, t33]])


def diagonalize_so3(T_full) -> DiagonalizationResult:
    """Rotation taking a full symmetric tensor to descending diagonal form.

    Accepts a 3x3 symmetric matrix or the 6 upper-triangle entries.  The
    returned rotation R satisfies R^T T R = diag(d) with d descending and
    det(R) = +1 (a column is flipped if needed), so it is a bracket-preserving
    SO3 frame change.  Raises ValueError unless the input is a finite
    symmetric 3x3 matrix (symmetric relative to its largest entry).
    """
    T_full = np.asarray(T_full, dtype=float)
    if T_full.shape == (6,):
        T_full = symmetric_from_upper(T_full)
    if T_full.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got {T_full.shape}")
    if not np.isfinite(T_full).all():
        raise ValueError(f"non-finite tensor components {T_full.tolist()}")
    # eigh reads one triangle only, so an asymmetric input must fail here
    if np.max(np.abs(T_full - T_full.T)) > 1e-12 * np.max(np.abs(T_full)):
        raise ValueError("matrix must be symmetric")
    evals, V = np.linalg.eigh(T_full)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    V = V[:, order]
    if np.linalg.det(V) < 0.0:
        V[:, 2] = -V[:, 2]
    return DiagonalizationResult(rotation=V,
                                 diagonal=DiagonalTensor(tuple(evals)))
