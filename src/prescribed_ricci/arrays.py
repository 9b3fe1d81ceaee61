"""The cubic kernel: the roots of the reduction cubic of SO3 and SL2 lanes
and each root's metric, for one lane or a chunk of them, a row per root.

Root isolation (`cubic.roots_in_interval_many`) runs on arrays of lanes, the
cube-root reconstruction and the metric polish on (P, 3) arrays: metrics,
tensors, the residual and, as one (P, 3, 3) broadcast, the Jacobian.  A
lane's float operations never depend on the other lanes, so `solve` (one
lane) and `solve_many` (a chunk) give every lane the same bits.  It lays
out no slot: `solver._columns` lays the roots into their lanes' slots.
"""
from __future__ import annotations

import numpy as np

from .cubic import roots_in_interval_many

__all__ = ["cubic_roots"]

# the metric polish stops at a residual of POLISH_TOL * |T|_inf: five units
# in the last place
POLISH_TOL = 5.0 * 2.0 ** -52
# most Newton steps of the metric polish
POLISH_STEPS = 4

# the one sign that tells the SO3 and SL2 reductions apart: T3 enters the
# cubic, the denominators p +- T3 and v3 = +-(x1+x2)/2 with it
_T3_SIGN = {"SO3": 1.0, "SL2": -1.0}

# the two other indices j = i+1 and k = i+2 (mod 3) of each row i
_J, _K = [1, 2, 0], [2, 0, 1]


def _scaled_system(group, v, T):
    """Residuals F of the normalized system 2 v_i x_j x_k - T_i (the
    curvature equations with v1*v2*v3*c = 1 substituted in) and the
    x_i = (l.v - 2 l_i v_i) / 2, for the (P, 3) arrays v and T."""
    lam = np.asarray(group.lambdas)
    lv = lam * v
    x = ((lv[:, 0] + lv[:, 1] + lv[:, 2])[:, None] - 2.0 * lam * v) / 2.0
    return 2.0 * v * x[:, _J] * x[:, _K] - T, x


def _jacobian(group, v, x):
    """The Jacobian of `_scaled_system` in v, (P, 3, 3), from its x: row i
    is 2 v_i (dx_j x_k + x_j dx_k) with dx_m = l (1 - 2 e_m) / 2, plus
    2 x_j x_k on the diagonal."""
    lam = np.asarray(group.lambdas)
    dx = 0.5 * lam * (1.0 - 2.0 * np.eye(3))
    xj, xk = x[:, _J], x[:, _K]
    J = (2.0 * v)[:, :, None] * (dx[_J] * xk[:, :, None]
                                 + xj[:, :, None] * dx[_K])
    J[:, range(3), range(3)] += 2.0 * xj * xk
    return J


def cubic_roots(group, T, lo, hi, take) -> tuple:
    """The roots of the reduction cubic of C lanes, a row of T' (C, 3)
    each, in a lane's open interval (lo, hi) (or the one root lo == hi
    pins), of which the first `take` are reconstructed and polished: per
    root, its lane, slot (its place among its lane's roots, in ascending
    p), p, multiplicity, v (T' axes), c and q, and the ValueError of each
    inadmissible root, by its index."""
    T1, T2, T3 = T.T
    sgn = _T3_SIGN[group.name]
    # the reduction cubic 2 p^3 + (T1 + T2 +- T3) p^2 -+ T1 T2 T3
    roots, mults = roots_in_interval_many(
        (2.0, T1 + T2 + sgn * T3, 0.0, -sgn * T1 * T2 * T3), lo, hi)
    pinned = lo == hi
    roots[pinned, 0], mults[pinned, 0] = lo[pinned], 1
    taken = (mults > 0) & (np.cumsum(mults > 0, axis=1) <= take[:, None])
    lane, col = np.nonzero(taken)
    p = roots[lane, col]
    v, c, q, errors = _reconstruct_many(group, T[lane], p)
    slot = np.cumsum(taken, axis=1)[lane, col] - 1
    return lane, slot, p, mults[lane, col], v, c, q, errors


def _reconstruct_many(group, T, p):
    """(v, c, q, errors) of the cubic roots p (T of shape (P, 3)):
    the polished metrics v of shape (P, 3), their c = 1 / (v1 v2 v3) and the
    cube roots q, and the ValueError of each inadmissible root by index.

    q is the real (sign-preserving) cube root of p(p+T1)(p+T2)(p+-T3); the
    x_i = q/(p +- T_i) rebuild the metric, and `_polish_many` removes the
    sensitivity of that map near its poles."""
    sgn = _T3_SIGN[group.name]
    T1, T2, T3 = T.T
    with np.errstate(all="ignore"):
        d = (p + T1, p + T2, p + sgn * T3)
        q = np.cbrt(p * d[0] * d[1] * d[2])
        x1, x2, x3 = q / d[0], q / d[1], q / d[2]
        # admissibility is the sign pattern of the averaged forms
        # v1 = (x2+x3)/2, v2 = (x1+x3)/2, v3 = +-(x1+x2)/2; allow exact
        # cancellation to zero there, since thin case intervals make the
        # x_i huge with opposite signs
        v_avg = np.stack([(x2 + x3) / 2.0, (x1 + x3) / 2.0,
                          sgn * (x1 + x2) / 2.0], axis=1)
        slack = 1e-12 * np.stack([abs(x2) + abs(x3), abs(x1) + abs(x3),
                                  abs(x1) + abs(x2)], axis=1)
        averaged_bad = (v_avg + slack <= 0.0).any(axis=1)
        # v_i = T_i / (2 x_j x_k) is the system solved for v: unlike the
        # averaged forms it never cancels
        v = np.where(((T1 != 0.0) & (T2 != 0.0) & (T3 != 0.0))[:, None],
                     np.stack([T1 / (2.0 * x2 * x3), T2 / (2.0 * x3 * x1),
                               T3 / (2.0 * x1 * x2)], axis=1), v_avg)
        bad = averaged_bad | (v.min(axis=1) <= 0.0)
        shown = np.where(averaged_bad[:, None], v_avg, v)
        v = _polish_many(group, v, T, ~bad)
        c = 1.0 / (v[:, 0] * v[:, 1] * v[:, 2])
    errors = {r: ValueError(f"root p={float(p[r])} is inadmissible: metric "
                            f"{tuple(shown[r].tolist())} not positive")
              for r in np.flatnonzero(bad).tolist()}
    return v, c, q, errors


def _polish_many(group, v, T, live):
    """Newton-polish the metrics v on the normalized system, on the lanes
    where `live` holds; v and T are (P, 3) arrays.

    Reconstruction through the cubic variable p loses relative accuracy when
    a correspondence denominator p +- T_i is small (thin case intervals); up
    to POLISH_STEPS Newton steps directly in metric space restore residuals
    to rounding level, POLISH_TOL * |T|_inf.  Each lane keeps its best
    iterate and stops where a step is singular or would leave the positive
    octant.
    """
    done = POLISH_TOL * abs(T).max(axis=1)
    # F and x of each lane's iterate, evaluated once per iterate
    v = v.copy()
    F, x = _scaled_system(group, v, T)
    best, best_res = v.copy(), abs(F).max(axis=1)
    live = live.copy()
    for _ in range(POLISH_STEPS):
        live &= ~(best_res <= done)
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        w = v[idx]
        # solve for the relative step u = dv/v: the components of v can span
        # many decades and column scaling keeps the solve meaningful
        u = np.clip(_steps(_jacobian(group, w, x[idx]) * w[:, None, :],
                           F[idx]), -0.5, 0.5)
        vn = w * (1.0 - u)
        Fn, xn = _scaled_system(group, vn, T[idx])
        rn = abs(Fn).max(axis=1)
        step = vn.min(axis=1) > 0.0  # false where u is nan
        better = step & (rn < best_res[idx])
        best[idx[better]] = vn[better]
        best_res[idx[better]] = rn[better]
        moved = idx[step]
        v[moved], F[moved], x[moved] = vn[step], Fn[step], xn[step]
        live[idx[~step]] = False
    return best


def _steps(A, F):
    """The solutions u of A u = F, lane by lane (A of shape (P, 3, 3), F of
    shape (P, 3)); nan for a lane whose A is singular."""
    try:
        return np.linalg.solve(A, F[..., None])[..., 0]
    except np.linalg.LinAlgError:
        u = np.full(F.shape, np.nan)
        for i in range(len(A)):
            try:
                u[i] = np.linalg.solve(A[i], F[i])
            except np.linalg.LinAlgError:
                pass
        return u
