"""Residuals and end-to-end certification of claimed solutions.

A claimed (metric, c) for a prescribed T is checked against both curvature
routes: the closed-form diagonal expressions and the Koszul-formula oracle.
The residual denominator 1 + |c| * |T|_inf keeps family and flat cases
(c*T = 0) well scaled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import ricci_diagonal, ricci_koszul
from .groups import as_group, structure_constants

__all__ = ["Certificate", "residual", "certify"]

PASS_THRESHOLD = 1e-9
NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class Certificate:
    """Outcome of checking one claimed solution.  `passed` iff both residuals
    are at or below the threshold; `normalized` records whether
    v1*v2*v3*c = 1 held within tolerance (informational)."""

    residual_closed_form: float
    residual_oracle: float
    normalized: bool
    passed: bool


def _unwrap(m) -> np.ndarray:
    v = np.asarray(getattr(m, "v", m), dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a diagonal metric triple, got shape {v.shape}")
    if min(v) <= 0:
        raise ValueError(f"metric components must be positive, got {tuple(v)}")
    return v


def _normalized_residual(ric, c: float, target, t) -> float:
    """max |ric - c * target| / (1 + |c| * |T|_inf), target being T in the
    shape of ric.  Once |c| * |T|_inf leaves the float range, numerator and
    denominator are both divided by it first, so the result stays finite."""
    m = float(np.max(np.abs(t)))
    scale = abs(float(c)) * m
    if scale != math.inf:
        return float(np.max(np.abs(ric - c * target)) / (1.0 + scale))
    s = 1.0 / abs(float(c)) / m
    return float(np.max(np.abs(ric * s - math.copysign(1.0, c) * (target / m)))
                 / (1.0 + s))


def residual(group, m, c: float, T) -> float:
    """max_i |Ric_i(v) - c*T_i| / (1 + |c| * |T|_inf) via the closed form."""
    group = as_group(group)
    v = _unwrap(m)
    t = np.asarray(getattr(T, "T", T), dtype=float)
    return _normalized_residual(ricci_diagonal(group, v), c, t, t)


def oracle_residual(group, gram: np.ndarray, c: float, T) -> float:
    """Same normalized residual, but from the Koszul oracle on a full Gram
    matrix; usable for non-diagonal pullbacks of diagonal solutions."""
    group = as_group(group)
    t = np.asarray(getattr(T, "T", T), dtype=float)
    ric = ricci_koszul(structure_constants(group), np.asarray(gram, dtype=float))
    return _normalized_residual(ric, c, np.diag(t), t)


def certify(group, m, c: float, T) -> Certificate:
    """Certify a claimed solution against both curvature implementations."""
    group = as_group(group)
    v = _unwrap(m)
    r_closed = residual(group, v, c, T)
    r_oracle = oracle_residual(group, np.diag(v), c, T)
    normalized = bool(abs(v[0] * v[1] * v[2] * c - 1.0) <= NORMALIZATION_TOL)
    return Certificate(residual_closed_form=r_closed,
                       residual_oracle=r_oracle,
                       normalized=normalized,
                       passed=bool(r_closed <= PASS_THRESHOLD
                                   and r_oracle <= PASS_THRESHOLD))
