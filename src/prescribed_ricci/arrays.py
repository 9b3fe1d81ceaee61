"""The cubic kernel: every SO3 and SL2 case row that the reduction cubic
decides is answered here, for one lane or a chunk of them.

One lane per tensor: root isolation (`cubic.roots_in_interval_many`), the
cube-root reconstruction of each root's metric and its metric polish run on
numpy arrays of lanes.  A lane's float operations never depend on the other
lanes, so `solve` (one lane) and `solve_many` (a chunk) give every lane the
same bits.  A lane that would raise carries its ValueError in the columns.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .cubic import roots_in_interval_many

__all__ = ["Columns", "cubic_columns"]

# the metric polish stops at a residual of POLISH_TOL * |T|_inf: five units
# in the last place
POLISH_TOL = 5.0 * 2.0 ** -52
# most Newton steps of the metric polish
POLISH_STEPS = 4

# the one sign that tells the SO3 and SL2 reductions apart: T3 enters the
# cubic, the denominators p +- T3 and v3 = +-(x1+x2)/2 with it
_T3_SIGN = {"SO3": 1.0, "SL2": -1.0}

# a chunk's answers, a row per cubic lane: the root count n and, per root slot
# (ascending in c, nan-padded; 0 in mult), c, v (caller's axis order), p, q,
# mult for T / 8^k; and `error`, the ValueError of each row whose lane raises
Columns = namedtuple("Columns", "n c v p q mult error")


def _scaled_system(group, v, T):
    """Residual vector of the normalized system 2 v_i x_j x_k - T_i
    (the curvature equations with v1*v2*v3*c = 1 substituted in); v and T
    index to arrays of lanes."""
    lam = group.lambdas
    x = [(sum(lam[m] * v[m] for m in range(3)) - 2.0 * lam[i] * v[i]) / 2.0
         for i in range(3)]
    return [2.0 * v[i] * x[(i + 1) % 3] * x[(i + 2) % 3] - T[i]
            for i in range(3)], x


def _jacobian(group, v, x):
    """Rows of the Jacobian of `_scaled_system` in v."""
    lam = group.lambdas
    J = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        row = []
        for n in range(3):
            dxj = 0.5 * lam[n] * (-1.0 if j == n else 1.0)
            dxk = 0.5 * lam[n] * (-1.0 if k == n else 1.0)
            e = 2.0 * v[i] * (dxj * x[k] + x[j] * dxk)
            if i == n:
                e += 2.0 * x[j] * x[k]
            row.append(e)
        J.append(row)
    return J


def cubic_columns(group, T, lo, hi, take, order) -> Columns:
    """The `Columns` of C cubic lanes, a row of T (C, 3) each: the roots of
    a lane's cubic in its open interval (lo, hi) (or the one root an
    interval lo == hi pins), the first `take` of them reconstructed and
    polished, and each metric put in the caller's axes by `order` (C, 3),
    the axis of each position of T."""
    size = len(lo)
    c, p, q = np.full((3, size, 2), np.nan)
    cols = Columns(np.zeros(size, int), c, np.full((size, 2, 3), np.nan), p,
                   q, np.zeros((size, 2), int), {})
    if not size:
        return cols
    T = (T[:, 0], T[:, 1], T[:, 2])
    sgn = _T3_SIGN[group.name]
    # the reduction cubic 2 p^3 + (T1 + T2 +- T3) p^2 -+ T1 T2 T3
    roots, mults = roots_in_interval_many(
        (2.0, T[0] + T[1] + sgn * T[2], 0.0, -sgn * T[0] * T[1] * T[2]),
        lo, hi)
    pinned = lo == hi
    roots[pinned, 0], mults[pinned, 0] = lo[pinned], 1
    taken = (mults > 0) & (np.cumsum(mults > 0, axis=1) <= take[:, None])
    lane, slot = np.nonzero(taken)
    v, c, q, errors = _reconstruct_many(group, tuple(t[lane] for t in T),
                                        roots[lane, slot])
    # a lane raises for its first inadmissible root, as roots are taken
    for r, error in errors.items():
        cols.error.setdefault(int(lane[r]), error)
    # a lane's roots fill its slots in turn, back in the caller's axis order
    pos = np.cumsum(taken, axis=1)[lane, slot] - 1
    cols.c[lane, pos], cols.p[lane, pos] = c, roots[lane, slot]
    cols.q[lane, pos], cols.mult[lane, pos] = q, mults[lane, slot]
    cols.v[lane[:, None], pos[:, None], order[lane]] = v
    cols.n[:] = taken.sum(axis=1)
    # each lane in ascending c; equal c keep their order, as a stable sort
    swap = cols.c[:, 1] < cols.c[:, 0]
    for col in (cols.c, cols.v, cols.p, cols.q, cols.mult):
        col[swap] = col[swap][:, ::-1]
    return cols


def _reconstruct_many(group, T, p):
    """(v, c, q, errors) of the cubic roots p (T as three columns of lanes):
    the polished metrics v of shape (P, 3), their c = 1 / (v1 v2 v3) and the
    cube roots q, and the ValueError of each inadmissible root by index.

    q is the real (sign-preserving) cube root of p(p+T1)(p+T2)(p+-T3); the
    x_i = q/(p +- T_i) rebuild the metric, and `_polish_many` removes the
    sensitivity of that map near its poles."""
    sgn = _T3_SIGN[group.name]
    T1, T2, T3 = T
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
    """Newton-polish the metrics v, of shape (P, 3), on the normalized
    system, on the lanes where `live` holds (T as three columns).

    Reconstruction through the cubic variable p loses relative accuracy when
    a correspondence denominator p +- T_i is small (thin case intervals); up
    to POLISH_STEPS Newton steps directly in metric space restore residuals
    to rounding level, POLISH_TOL * |T|_inf.  Each lane keeps its best
    iterate and stops where a step is singular or would leave the positive
    octant.
    """
    done = POLISH_TOL * np.maximum(np.maximum(abs(T[0]), abs(T[1])),
                                   abs(T[2]))

    def res(w, T):
        F, _ = _scaled_system(group, w.T, T)
        return np.maximum(np.maximum(abs(F[0]), abs(F[1])), abs(F[2]))

    v = v.copy()
    best, best_res = v.copy(), res(v, T)
    live = live.copy()
    for _ in range(POLISH_STEPS):
        live &= ~(best_res <= done)
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        w, Tw = v[idx], tuple(t[idx] for t in T)
        F, x = _scaled_system(group, w.T, Tw)
        J = np.stack([np.stack(row, axis=-1)
                      for row in _jacobian(group, w.T, x)], axis=-2)
        # solve for the relative step u = dv/v: the components of v can span
        # many decades and column scaling keeps the solve meaningful
        u = np.clip(_steps(J * w[:, None, :], np.stack(F, axis=-1)), -0.5, 0.5)
        vn = w * (1.0 - u)
        rn = res(vn, Tw)
        step = vn.min(axis=1) > 0.0  # false where u is nan
        better = step & (rn < best_res[idx])
        best[idx[better]] = vn[better]
        best_res[idx[better]] = rn[better]
        v[idx[step]] = vn[step]
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
