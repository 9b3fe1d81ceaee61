"""Residuals and end-to-end certification of claimed solutions.

A claimed (metric, c) for a prescribed T is checked against both curvature
routes: the closed-form diagonal expressions and the Koszul-formula oracle.
The residual denominator 1 + |c| * |T|_inf keeps family and flat cases
(c*T = 0) well scaled.  A claim passes only with c > 0, the paper's
constant, and `certify` and `certify_arrays` answer with one `Certificate`.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .curvature import (_check_metrics, metric_components, ricci_diagonal,
                        ricci_koszul, tensor_components)
from .groups import as_group, structure_constants

__all__ = ["Certificate", "residual", "certify", "certify_arrays"]

PASS_THRESHOLD = 1e-9
NORMALIZATION_TOL = 1e-9


class Certificate(NamedTuple):
    """Outcome of checking one claimed solution.  `passed` iff both residuals
    are at or below the threshold and c > 0; `normalized` records whether
    v1*v2*v3*c = 1 held within tolerance (informational).  From
    `certify_arrays`, each field is an array with a lane per claim."""

    residual_closed_form: float
    residual_oracle: float
    normalized: bool
    passed: bool


def _constant(c) -> float:
    """The claimed c as a finite float; raises ValueError for anything else."""
    try:
        if math.isfinite(x := float(c)):
            return x
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"constant c must be a finite number, got {c!r}")


def _normalized_residuals(ric, c, target, t) -> np.ndarray:
    """Per lane, max |ric - c * target| / (1 + |c| * |T|_inf), target being
    T in the shape of ric: ric and target have shape (N, ...), c is (N,)
    and t (N, 3).  Once |c| * |T|_inf leaves the float range, numerator and
    denominator are both divided by it first, so the result stays finite."""
    n = len(c)
    m = abs(t).max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = abs(c) * m
        res = (abs(ric - c.reshape((n,) + (1,) * (ric.ndim - 1)) * target)
               .max(axis=tuple(range(1, ric.ndim))) / (1.0 + scale))
        over = scale == np.inf
        if over.any():
            s = 1.0 / abs(c[over]) / m[over]
            k = len(s)
            res[over] = (abs(ric[over].reshape(k, -1) * s[:, None]
                             - np.copysign(1.0, c[over])[:, None]
                             * (target[over].reshape(k, -1) / m[over][:, None]))
                         .max(axis=1) / (1.0 + s))
    return res


def residual(group, m, c: float, T) -> float:
    """max_i |Ric_i(v) - c*T_i| / (1 + |c| * |T|_inf) via the closed form."""
    v, c = metric_components(m), _constant(c)
    t = np.array([tensor_components(T)])
    # as in `certify_arrays`: a metric that overflows has residual inf or nan
    with np.errstate(all="ignore"):
        return float(_normalized_residuals(ricci_diagonal(group, v)[None],
                                           np.array([c]), t, t)[0])


def oracle_residual(group, gram: np.ndarray, c: float, T) -> float:
    """Same normalized residual, but from the Koszul oracle on a full Gram
    matrix; usable for non-diagonal pullbacks of diagonal solutions.
    `oracle_residual_many` on one lane."""
    return float(oracle_residual_many(group, [gram], [_constant(c)],
                                      [tensor_components(T)])[0])


def oracle_residual_many(group, grams, cs, Ts) -> np.ndarray:
    """`oracle_residual` of N claims at once: Gram matrices grams
    (N, 3, 3), constants cs (N,) and tensors Ts (N, 3) give N residuals,
    each equal to the one `oracle_residual` returns for that lane."""
    t = np.asarray(Ts, dtype=float)
    target = np.zeros(t.shape + (3,))
    target[:, range(3), range(3)] = t
    ric = ricci_koszul(structure_constants(as_group(group)), grams)
    return _normalized_residuals(ric, np.asarray(cs, dtype=float), target, t)


def certify_arrays(group, vs, cs, Ts) -> Certificate:
    """`certify` on N claims at once: metrics vs (N, 3), constants cs (N,)
    and tensors Ts (N, 3) give one `Certificate` of four arrays, lane i of
    each being the field `certify` gives claim i.  Both routes run on the
    whole stack: the closed form on (N, 3) arrays, the Koszul oracle on the
    N diagonal Gram matrices.  Unless all are plain good numbers, each claim
    is read as `certify` reads it: the first it refuses raises."""
    group = as_group(group)
    if not len(vs):
        return Certificate(*np.zeros((4, 0)))
    try:
        v, c, t = (np.asarray(x, dtype=float) for x in (vs, cs, Ts))
        plain = (v.ndim == 2 and v.shape == t.shape == c.shape + (3,)
                 and np.isfinite(c).all() and np.isfinite(t).all())
        if plain:
            _check_metrics(v)
    except (TypeError, ValueError, OverflowError):
        plain = False
    if not plain:
        if not len(vs) == len(cs) == len(Ts):
            raise ValueError(f"expected N metrics, constants and tensors, "
                             f"got {len(vs)}, {len(cs)} and {len(Ts)}")
        v, c, t = (np.array(col) for col in zip(*[
            (metric_components(m), _constant(k), tensor_components(T))
            for m, k, T in zip(vs, cs, Ts)]))
    gram = v[:, :, None] * np.eye(3)
    # a claimed metric far from any solution can overflow or underflow
    # either route: its residual is then inf or nan, and the claim fails
    with np.errstate(all="ignore"):
        r_closed = _normalized_residuals(ricci_diagonal(group, v), c, t, t)
        r_oracle = oracle_residual_many(group, gram, c, t)
        normalized = (np.abs(v[:, 0] * v[:, 1] * v[:, 2] * c - 1.0)
                      <= NORMALIZATION_TOL)
    passed = ((r_closed <= PASS_THRESHOLD) & (r_oracle <= PASS_THRESHOLD)
              & (c > 0.0))
    return Certificate(r_closed, r_oracle, normalized, passed)


def certify(group, m, c: float, T) -> Certificate:
    """Certify a claimed solution against both curvature implementations:
    `certify_arrays` on one lane, its fields as Python scalars."""
    return Certificate(*[col.tolist()[0] for col in certify_arrays(
        group, [m], [c], [T])])
