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

    def __array__(self, dtype=None, copy=None):
        return np.array(self.v, dtype=dtype or float)

    def gram(self) -> np.ndarray:
        """The metric as a 3x3 Gram matrix in the frame."""
        return np.diag(np.asarray(self.v, dtype=float))


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


def ricci_koszul(sc: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Ricci tensor of a left-invariant metric from its Gram matrix.

    `sc` are the frame's structure constants and `g` the symmetric
    positive-definite Gram matrix in the same frame.  Works directly with the
    non-orthonormal frame (no square roots), so a diagonal input exercises the
    claim that off-diagonal Ricci entries vanish.

    Raises ValueError for a non-symmetric or non-positive-definite g.
    """
    sc = np.asarray(sc, dtype=float)
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3):
        raise ValueError(f"metric Gram matrix must be 3x3, got {g.shape}")
    if np.max(np.abs(g - g.T)) > 1e-12 * np.max(np.abs(g)):
        raise ValueError("metric Gram matrix must be symmetric")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise ValueError("metric Gram matrix must be positive-definite") from None
    ginv = np.linalg.inv(g)

    # B[i,j,k] = <[e_i, e_j], e_k>; the transposes give B[j,k,i] and B[k,i,j]
    B = np.einsum("ijm,mk->ijk", sc, g)
    K = 0.5 * (B - np.transpose(B, (2, 0, 1)) + np.transpose(B, (1, 2, 0)))
    # gamma[i,j,l]: coefficient of e_l in D_{e_i} e_j
    gamma = np.einsum("ijk,kl->ijl", K, ginv)

    # Ric_{jk} = sum_i coefficient of e_i in R(e_i, e_j) e_k
    term1 = np.einsum("jkl,ili->jk", gamma, gamma)
    term2 = np.einsum("ikl,jli->jk", gamma, gamma)
    term3 = np.einsum("ijl,lki->jk", sc, gamma)
    ric = term1 - term2 - term3
    return 0.5 * (ric + ric.T)
