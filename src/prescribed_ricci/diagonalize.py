"""Rotating a full symmetric tensor on SO3 into a descending diagonal frame.

Rotations of an SO3 Milnor frame preserve the bracket relations, so any
symmetric prescribed tensor can be handed to the solver after a plain 3x3
symmetric eigendecomposition.  Cyclic Jacobi sweeps are used instead of the
characteristic polynomial: repeated-eigenvalue inputs are the interesting
ones here and must not cost orthogonality.

No analogue is offered for the other groups; their frame-change families are
non-compact and a general diagonalizability decision procedure is not
available.  Callers supply diagonal input there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import DiagonalTensor

__all__ = ["DiagonalizationResult", "diagonalize_so3", "symmetric_from_upper",
           "jacobi_eigensystem"]


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


SWEEP_TOL = 1e-14
MAX_SWEEPS = 20


def jacobi_eigensystem(A):
    """Cyclic Jacobi eigendecomposition of a symmetric 3x3 matrix.

    Returns (eigenvalues, V) with A = V diag(eigenvalues) V^T, V orthogonal.
    Unsorted; at most MAX_SWEEPS sweeps, stopping when the off-diagonal norm
    drops below SWEEP_TOL * |A|_F.  Symmetry is checked relative to |A|_max.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got {A.shape}")
    if np.max(np.abs(A - A.T)) > 1e-12 * np.max(np.abs(A)):
        raise ValueError("matrix must be symmetric")
    a = A.copy()
    V = np.eye(3)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        return np.zeros(3), V
    for _ in range(MAX_SWEEPS):
        off = math.sqrt(2.0 * (a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2))
        if off <= SWEEP_TOL * norm:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = a[p, q]
            if abs(apq) <= 0.25 * SWEEP_TOL * norm:
                continue
            theta = 0.5 * (a[q, q] - a[p, p]) / apq
            t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(1.0 + theta * theta))
            cth = 1.0 / math.sqrt(1.0 + t * t)
            sth = t * cth
            J = np.eye(3)
            J[p, p] = J[q, q] = cth
            J[p, q] = sth
            J[q, p] = -sth
            a = J.T @ a @ J
            a[p, q] = a[q, p] = 0.0
            V = V @ J
    return np.diag(a).copy(), V


def diagonalize_so3(T_full) -> DiagonalizationResult:
    """Rotation taking a full symmetric tensor to descending diagonal form.

    Accepts a 3x3 symmetric matrix or the 6 upper-triangle entries.  The
    returned rotation R satisfies R^T T R = diag(d) with d descending and
    det(R) = +1 (a column is flipped if needed), so it is a bracket-preserving
    SO3 frame change.
    """
    T_full = np.asarray(T_full, dtype=float)
    if T_full.shape == (6,):
        T_full = symmetric_from_upper(T_full)
    evals, V = jacobi_eigensystem(T_full)
    order = np.argsort(-evals)
    evals = evals[order]
    V = V[:, order]
    if np.linalg.det(V) < 0.0:
        V[:, 2] = -V[:, 2]
    return DiagonalizationResult(rotation=V,
                                 diagonal=DiagonalTensor(tuple(evals)))
