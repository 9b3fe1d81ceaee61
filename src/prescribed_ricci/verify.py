"""Residuals and end-to-end certification of claimed solutions.

A claimed (metric, c) for a prescribed T is checked against both curvature
routes: the closed-form diagonal expressions and the Koszul-formula oracle.
The residual denominator 1 + |c| * |T|_inf keeps family and flat cases
(c*T = 0) well scaled.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .curvature import (_check_metrics, ricci_diagonal, ricci_koszul,
                        tensor_components)
from .groups import as_group, structure_constants

__all__ = ["Certificate", "Certificates", "residual", "certify",
           "certify_many", "certify_arrays"]

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


# `certify_arrays`' answer: the fields of N certificates, an array each
Certificates = namedtuple("Certificates", "residual_closed_form "
                                          "residual_oracle normalized passed")


def _unwrap(m) -> np.ndarray:
    v = np.asarray(getattr(m, "v", m), dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a diagonal metric triple, got shape {v.shape}")
    _check_metrics(v[None])
    return v


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
               .reshape(n, -1).max(axis=1) / (1.0 + scale))
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
    v = _unwrap(m)
    t = np.array([tensor_components(T)])
    # as in `certify_many`: a metric that overflows has residual inf or nan
    with np.errstate(all="ignore"):
        (res,) = _normalized_residuals(ricci_diagonal(group, v)[None],
                                       np.array([float(c)]), t, t)
    return float(res)


def oracle_residual(group, gram: np.ndarray, c: float, T) -> float:
    """Same normalized residual, but from the Koszul oracle on a full Gram
    matrix; usable for non-diagonal pullbacks of diagonal solutions.
    `oracle_residual_many` on one lane."""
    (res,) = oracle_residual_many(group, [gram], [c], [tensor_components(T)])
    return float(res)


def oracle_residual_many(group, grams, cs, Ts) -> np.ndarray:
    """`oracle_residual` of N claims at once: Gram matrices grams
    (N, 3, 3), constants cs (N,) and tensors Ts (N, 3) give N residuals,
    each equal to the one `oracle_residual` returns for that lane."""
    t = np.asarray(Ts, dtype=float)
    target = np.zeros(t.shape + (3,))
    target[:, range(3), range(3)] = t
    ric = ricci_koszul(structure_constants(as_group(group)), grams)
    return _normalized_residuals(ric, np.asarray(cs, dtype=float), target, t)


def certify_many(group, vs, cs, Ts) -> list[Certificate]:
    """`certify` on N claims at once: metrics vs (N, 3), constants cs (N,)
    and tensors Ts (N, 3) give N certificates, each equal to the one
    `certify` returns for that lane; the list view of `certify_arrays`."""
    return [Certificate(*lane) for lane in zip(
        *[col.tolist() for col in certify_arrays(group, vs, cs, Ts)])]


def certify_arrays(group, vs, cs, Ts) -> Certificates:
    """The N certificates of `certify_many` as the four arrays of
    `Certificates`, lane i of each being a field of certificate i.

    Both routes run on the whole stack: the closed form on (N, 3) arrays,
    the Koszul oracle on the N diagonal Gram matrices.  Raises ValueError,
    as `certify` does, for the first lane whose metric is not positive and
    finite or whose tensor is not finite.
    """
    group = as_group(group)
    v = np.asarray(vs, dtype=float)
    if not v.size:
        return Certificates(*np.zeros((4, 0)))
    c = np.asarray(cs, dtype=float)
    t = np.asarray(Ts, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3 or t.shape != v.shape \
            or c.shape != v.shape[:1]:
        raise ValueError(f"expected N metric triples, N constants and N "
                         f"tensors, got shapes {v.shape}, {c.shape}, "
                         f"{t.shape}")
    finite = np.isfinite(t).all(axis=1)
    if not finite.all():
        # the first failing lane raises what `certify` raises for it
        first = int(np.argmin(finite))
        _check_metrics(v[:first + 1])
        tensor_components(t[first])
    _check_metrics(v)
    diag = np.arange(3)
    gram = np.zeros(v.shape + (3,))
    gram[:, diag, diag] = v
    # a claimed metric far from any solution can overflow or underflow
    # either route: its residual is then inf or nan, and the claim fails
    with np.errstate(all="ignore"):
        r_closed = _normalized_residuals(ricci_diagonal(group, v), c, t, t)
        r_oracle = oracle_residual_many(group, gram, c, t)
        normalized = (np.abs(v[:, 0] * v[:, 1] * v[:, 2] * c - 1.0)
                      <= NORMALIZATION_TOL)
    passed = (r_closed <= PASS_THRESHOLD) & (r_oracle <= PASS_THRESHOLD)
    return Certificates(r_closed, r_oracle, normalized, passed)


def certify(group, m, c: float, T) -> Certificate:
    """Certify a claimed solution against both curvature implementations:
    `certify_many` on one lane."""
    (cert,) = certify_many(group, [_unwrap(m)], [c], [tensor_components(T)])
    return cert
