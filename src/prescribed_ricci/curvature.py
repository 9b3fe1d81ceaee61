"""Ricci curvature of left-invariant metrics, two independent ways.

`ricci_diagonal` evaluates the closed-form diagonal expressions through the
auxiliary combinations x_i = (l_j v_j + l_k v_k - l_i v_i)/2:

    Ric_1 = 2 x_2 x_3 / (v_2 v_3)   (and cyclically).

`ricci_koszul` is a from-first-principles oracle: it takes the structure
constants and the full Gram matrix of the metric in the frame, builds the
Levi-Civita connection from the Koszul identity

    2 <D_i e_j, e_k> = <[e_i,e_j], e_k> - <[e_j,e_k], e_i> + <[e_k,e_i], e_j>,

forms the curvature R(e_i, e_j) e_k = D_i D_j e_k - D_j D_i e_k - D_[e_i,e_j] e_k
and traces it.  The two routes share no code path, so agreement is a real
cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import as_group, structure_constants

__all__ = ["DiagonalMetric", "x_coefficients", "ricci_diagonal", "ricci_koszul"]


@dataclass(frozen=True)
class DiagonalTensor:
    """Prescribed tensor components (T1, T2, T3) in a Milnor frame."""

    T: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "T", tensor_components(self.T))


def tensor_components(T) -> tuple[float, float, float]:
    """T (or a DiagonalTensor's T) as three finite floats; raises ValueError
    for anything else.  Every layer that takes a tensor reads it here."""
    if isinstance(T, DiagonalTensor):
        return T.T
    try:
        if isinstance(T, (str, bytes)):
            raise TypeError
        T = tuple(map(float, T))
    except TypeError:
        raise ValueError(f"tensor components must be numbers, got {T!r}"
                         ) from None
    except OverflowError:
        raise ValueError(f"non-finite tensor components {T!r}") from None
    if len(T) != 3:
        raise ValueError("diagonal tensor needs exactly three components")
    if not all(map(math.isfinite, T)):
        raise ValueError(f"non-finite tensor components {T}")
    return T


@dataclass(frozen=True)
class DiagonalMetric:
    """Metric components (v1, v2, v3) in a Milnor frame; all strictly positive."""

    v: tuple[float, float, float]

    def __post_init__(self):
        v = tuple(map(float, self.v))
        object.__setattr__(self, "v", v)
        if len(v) != 3:
            raise ValueError("diagonal metric needs exactly three components")
        if not all(map(math.isfinite, v)):
            raise ValueError(f"non-finite metric components {v}")
        if min(v) <= 0.0:
            raise ValueError(f"metric components must be positive, got {v}")


def _components(m) -> np.ndarray:
    v = np.asarray(getattr(m, "v", m), dtype=float)
    if v.shape[-1] != 3:
        raise ValueError(f"expected 3 components along the last axis, got {v.shape}")
    return v


def x_coefficients(group, m) -> np.ndarray:
    """Auxiliary triple x_i = (l_j v_j + l_k v_k - l_i v_i) / 2.

    Broadcasts over leading axes of `m`, so grids of metrics evaluate in one
    call.  Satisfies x1 + x2 + x3 = (l . v) / 2.
    """
    group = as_group(group)
    v = _components(m)
    lv = np.asarray(group.lambdas) * v
    return (lv.sum(axis=-1, keepdims=True) - 2.0 * lv) / 2.0


def ricci_diagonal(group, m) -> np.ndarray:
    """Diagonal Ricci components (Ric_1, Ric_2, Ric_3) of a diagonal metric.

    Scale-invariant: the x_i are degree-1 in v, so Ric is degree 0.
    """
    v = _components(m)
    x = x_coefficients(group, v)
    j, k = [1, 2, 0], [2, 0, 1]
    return 2.0 * x[..., j] * x[..., k] / (v[..., j] * v[..., k])


def _sum3(P: np.ndarray) -> np.ndarray:
    """Sum over the last axis of length 3 as (P0 + P1) + P2."""
    return (P[..., 0] + P[..., 1]) + P[..., 2]


def ricci_koszul(sc: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Ricci tensor of a left-invariant metric from its Gram matrix.

    `sc` are the frame's structure constants and `g` the symmetric
    positive-definite Gram matrix in the same frame, or a stack of them of
    shape (..., 3, 3), one Ricci tensor each.  Works directly with the
    non-orthonormal frame (no square roots), so a diagonal input exercises
    the claim that off-diagonal Ricci entries vanish.

    Every contraction is a broadcast product summed one index at a time,
    innermost summed index first, in a fixed order, so each Ricci tensor
    of a stack has the same bits as a call on its Gram matrix alone.

    Raises ValueError if any g is non-symmetric or non-positive-definite.
    """
    sc = np.asarray(sc, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.shape[-2:] != (3, 3):
        raise ValueError(f"metric Gram matrix must be 3x3, got {g.shape}")
    if (np.abs(g - g.swapaxes(-1, -2)).max(axis=(-2, -1))
            > 1e-12 * np.abs(g).max(axis=(-2, -1))).any():
        raise ValueError("metric Gram matrix must be symmetric")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise ValueError("metric Gram matrix must be positive-definite") from None
    ginv = np.linalg.inv(g)

    # B[i,j,k] = <[e_i, e_j], e_k>; the transposes give B[j,k,i] and B[k,i,j]
    B = _sum3(sc[:, :, None, :] * g.swapaxes(-1, -2)[..., None, None, :, :])
    lead = tuple(range(g.ndim - 2))
    i, j, k = len(lead), len(lead) + 1, len(lead) + 2
    K = 0.5 * (B - B.transpose(lead + (k, i, j)) + B.transpose(lead + (j, k, i)))
    # gamma[i,j,l]: coefficient of e_l in D_{e_i} e_j
    gamma = _sum3(K[..., None, :] * ginv.swapaxes(-1, -2)[..., None, None, :, :])

    # Ric_{jk} = sum_i coefficient of e_i in R(e_i, e_j) e_k; each term is
    # a product P[j,k,i,l] summed over l, then over i
    trace = np.diagonal(gamma, axis1=-3, axis2=-1).swapaxes(-1, -2)
    term1 = _sum3(_sum3(gamma[..., :, :, None, :] * trace[..., None, None, :, :]))
    term2 = _sum3(_sum3(gamma.swapaxes(-3, -2)[..., None, :, :, :]
                        * gamma.swapaxes(-2, -1)[..., :, None, :, :]))
    term3 = _sum3(_sum3(sc.transpose(1, 0, 2)[:, None, :, :]
                        * gamma.transpose(lead + (j, k, i))[..., None, :, :, :]))
    ric = term1 - term2 - term3
    return 0.5 * (ric + ric.swapaxes(-1, -2))
