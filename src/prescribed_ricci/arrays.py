"""Array forms of the cubic kernel, for `solve_many` and `solve_columns`.

One lane per tensor: the root isolation of `cubic.roots_in_interval`, the
cube-root reconstruction of `solver.reconstruct_from_p` and its metric
polish run on numpy arrays of lanes, each lane with the scalar code's float
operations in the scalar code's order, so every lane gets the scalar result
bit for bit.  A lane is left to the scalar `solve` wherever the scalar code
would raise or the lane meets a non-finite value.  `solve_many` loads this
module on first use, so code that only calls `solve` never does.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .cubic import ROOT_TOL
from .solver import (_T3_SIGN, POLISH_STEPS, POLISH_TOL, _averaged,
                     _correspondence, _cubic_coeffs, _CubicCase,
                     _from_system, _jacobian, _plan, _scaled_system)

__all__ = ["plan_chunk", "roots_in_interval_many"]

# a chunk's answers, a row per cubic lane (`row` maps a lane's tensor index
# to it): the root count n, and per root slot, ascending in c and padded with
# nan (0 in mult), c, v (caller's axis order), p, q, mult for T / 8^k
Columns = namedtuple("Columns", "row n c v p q mult")


def plan_chunk(group, Ts) -> tuple[list, Columns]:
    """Per tensor, its plan (k, raw) or None for a lane `solve` takes, and
    the `Columns` that answer the plans whose raw is a `_CubicCase`."""
    plans = []
    for T in Ts:
        try:
            plans.append(_plan(group, T))
        except Exception:
            plans.append(None)  # solve raises it again, in its place
    try:
        return plans, _cubic_many(group, plans)
    except np.linalg.LinAlgError:
        plans = [None] * len(plans)
        return plans, _cubic_many(group, plans)


def _cubic_many(group, plans: list) -> Columns:
    """The `Columns` of the `_CubicCase` lanes of a chunk's plans; clears
    the plan of each lane left to `solve`."""
    lanes = [i for i, plan in enumerate(plans)
             if plan is not None and type(plan[1]) is _CubicCase]
    cases = [plans[i][1] for i in lanes]
    size = len(cases)
    c, p, q = np.full((3, size, 2), np.nan)
    cols = Columns(dict(zip(lanes, range(size))), np.zeros(size, int), c,
                   np.full((size, 2, 3), np.nan), p, q, np.zeros((size, 2), int))
    if not cases:
        return cols
    T = np.array([case.T for case in cases])
    T = (T[:, 0], T[:, 1], T[:, 2])
    roots, mults, ok = roots_in_interval_many(
        _cubic_coeffs(_T3_SIGN[group.name], T),
        [case.lo for case in cases], [case.hi for case in cases])
    take = np.array([case.take for case in cases])
    taken = (mults > 0) & ok[:, None] & (
        np.cumsum(mults > 0, axis=1) <= take[:, None])
    lane, slot = np.nonzero(taken)
    v, c, q, good = _reconstruct_many(group, tuple(t[lane] for t in T),
                                      roots[lane, slot])
    ok[lane[~good]] = False
    # a lane's roots fill its slots in turn, back in the caller's axis order
    pos = np.cumsum(taken, axis=1)[lane, slot] - 1
    cols.c[lane, pos], cols.p[lane, pos] = c, roots[lane, slot]
    cols.q[lane, pos], cols.mult[lane, pos] = q, mults[lane, slot]
    cols.v[lane[:, None], pos[:, None],
           np.array([case.order for case in cases])[lane]] = v
    cols.n[:] = taken.sum(axis=1)
    # each lane in ascending c; equal c keep their order, as a stable sort
    swap = cols.c[:, 1] < cols.c[:, 0]
    for col in cols[2:]:
        col[swap] = col[swap][:, ::-1]
    for i, lane_ok in zip(lanes, ok.tolist()):
        if not lane_ok:
            plans[i] = None
    return cols


def _reconstruct_many(group, T, p):
    """`_reconstruct` on arrays of lanes (T as three columns): (v, c, q,
    ok), with v of shape (P, 3) and ok False where the scalar form would
    raise or meet a non-finite value.  Raises LinAlgError from the polish."""
    sgn = _T3_SIGN[group.name]
    with np.errstate(all="ignore"):
        d, q = _correspondence(sgn, T, p)
        x = (q / d[0], q / d[1], q / d[2])
        v_avg, slack = _averaged(sgn, x)
        v = np.where(((T[0] != 0.0) & (T[1] != 0.0) & (T[2] != 0.0))[:, None],
                     np.stack(_from_system(T, x), axis=1),
                     np.stack(v_avg, axis=1))
        ok = ((d[0] != 0.0) & (d[1] != 0.0) & (d[2] != 0.0)
              & np.isfinite(np.stack(x, axis=1)).all(axis=1)
              & ~((v_avg[0] + slack[0] <= 0.0) | (v_avg[1] + slack[1] <= 0.0)
                  | (v_avg[2] + slack[2] <= 0.0))
              & np.isfinite(v).all(axis=1) & (v.min(axis=1) > 0.0))
        v = _polish_many(group, v, T, ok)
        c = 1.0 / (v[:, 0] * v[:, 1] * v[:, 2])
        ok &= np.isfinite(c)
    return v, c, q, ok


def _polish_many(group, v, T, ok):
    """`_polish_metric` on the lanes where `ok` holds (v of shape (P, 3), T
    as three columns); clears `ok` where a residual or step is not finite.
    Raises LinAlgError when any step matrix is singular."""
    done = POLISH_TOL * np.maximum(np.maximum(abs(T[0]), abs(T[1])),
                                   abs(T[2]))

    def res(w, T):
        F, _ = _scaled_system(group, w.T, T)
        return np.maximum(np.maximum(abs(F[0]), abs(F[1])), abs(F[2]))

    v = v.copy()
    best, best_res = v.copy(), res(v, T)
    ok &= np.isfinite(best_res)
    live = ok.copy()
    for _ in range(POLISH_STEPS):
        live &= ~(best_res <= done)
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        w, Tw = v[idx], tuple(t[idx] for t in T)
        F, x = _scaled_system(group, w.T, Tw)
        J = np.stack([np.stack(row, axis=-1)
                      for row in _jacobian(group, w.T, x)], axis=-2)
        A, F = J * w[:, None, :], np.stack(F, axis=-1)
        finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(F).all(axis=1)
        u = np.full(F.shape, np.nan)
        u[finite] = np.linalg.solve(A[finite], F[finite][..., None])[..., 0]
        finite &= np.isfinite(u).all(axis=1)
        u = np.clip(u, -0.5, 0.5)
        vn = w * (1.0 - u)
        rn = res(vn, Tw)
        positive = vn.min(axis=1) > 0.0  # the scalar loop stops where not
        finite &= ~positive | np.isfinite(rn)
        ok[idx[~finite]] = False
        step = finite & positive
        better = step & (rn < best_res[idx])
        best[idx[better]] = vn[better]
        best_res[idx[better]] = rn[better]
        v[idx[step]] = vn[step]
        live[idx[~step]] = False
    return best


# the root isolation of `cubic.roots_in_interval`

def _refine_brackets(a3, a2, a1, a0, a, b, fb):
    """`_refine_bracket` on every lane at once (inside np.errstate(all=
    "ignore")); lanes leave as they return."""
    out = np.empty_like(a)
    lane = np.arange(len(a))
    x = 0.5 * (a + b)
    for _ in range(200):
        if not lane.size:
            return out
        fx = ((a3 * x + a2) * x + a1) * x + a0
        move_b = (fx > 0.0) == (fb > 0.0)
        a = np.where(move_b, a, x)
        b, fb = np.where(move_b, x, b), np.where(move_b, fx, fb)
        dfx = (3.0 * a3 * x + 2.0 * a2) * x + a1
        xn = x - fx / dfx
        xn = np.where((dfx != 0.0) & (a < xn) & (xn < b), xn, 0.5 * (a + b))
        hit = fx == 0.0
        done = ~hit & (np.abs(xn - x)
                       <= ROOT_TOL * np.maximum(1.0, np.abs(xn)))
        if not (hit.any() or done.any()):
            x = xn
            continue
        out[lane[hit]] = x[hit]
        # the converged lanes take one more Newton step if it stays inside
        x_end, c3, c2, c1, c0 = xn[done], a3[done], a2[done], a1[done], a0[done]
        dfe = (3.0 * c3 * x_end + 2.0 * c2) * x_end + c1
        xp = x_end - (((c3 * x_end + c2) * x_end + c1) * x_end + c0) / dfe
        out[lane[done]] = np.where((dfe != 0.0) & (a[done] <= xp)
                                   & (xp <= b[done]), xp, x_end)
        go = ~(hit | done)
        lane, x, a, b, fb = lane[go], xn[go], a[go], b[go], fb[go]
        a3, a2, a1, a0 = a3[go], a2[go], a1[go], a0[go]
    out[lane] = x
    return out


def roots_in_interval_many(coeffs, lo, hi):
    """`roots_in_interval` for N cubics, each on its own open interval.

    `coeffs` is (a3, a2, a1, a0), each an array of N lanes or a float, with
    a1 = 0 and |a3| >= 1e-290 as `roots_in_interval` requires, and `lo`,
    `hi` are arrays of N endpoints.  Returns (roots, mults, ok): roots and
    mults of shape (N, 2), a root in each slot where mults > 0, ascending,
    and ok (N,) False for the lanes left to the scalar function (those
    with a non-finite coefficient or node value, an empty interval or 0
    inside it); their rows are not meaningful.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a3, a2, a1, a0 = (np.broadcast_to(np.asarray(c, dtype=float), lo.shape)
                      for c in coeffs)
    with np.errstate(all="ignore"):
        ok = (np.isfinite(a3) & np.isfinite(a2) & np.isfinite(a1)
              & np.isfinite(a0) & (lo < hi) & ~((lo < 0.0) & (0.0 < hi)))

        bound = 1.0 + np.maximum(np.abs(a2), np.abs(a0)) / np.abs(a3)
        wlo = np.maximum(lo, -bound)
        whi = np.minimum(hi, bound)
        window = ok & (wlo < whi)

        def value(p):
            return ((a3 * p + a2) * p + a1) * p + a0

        # 0 is not inside, so -2*a2/(3*a3) is the one critical point that
        # can be; where poly is within rounding of zero there, it is the
        # lane's one root, a double root
        crit = -2.0 * a2 / (3.0 * a3)
        inner = window & (wlo < crit) & (crit < whi)
        f_crit, q = value(crit), np.abs(crit)
        double = inner & (np.abs(f_crit) <= ROOT_TOL * np.maximum(
            ((np.abs(a3) * q + np.abs(a2)) * q + np.abs(a1)) * q
            + np.abs(a0), 1e-30))

        # the nodes wlo, crit, whi; without an inner critical point the
        # middle node repeats wlo, whose empty bracket is skipped
        mid = np.where(inner, crit, wlo)
        nodes = np.stack([wlo, mid, whi], axis=1)
        v0 = value(wlo)
        vals = np.stack([v0, np.where(inner, np.where(double, 0.0, f_crit), v0),
                         value(whi)], axis=1)
        ok &= ~window | np.isfinite(vals).all(axis=1)

        fa, fb = vals[:, :-1], vals[:, 1:]
        bracket = (window[:, None] & (fa != 0.0) & (fb != 0.0)
                   & ((fa > 0.0) != (fb > 0.0)))
        rows, cols = np.nonzero(bracket)
        roots = np.full((len(lo), 2), np.nan)
        roots[rows, cols] = _refine_brackets(
            a3[rows], a2[rows], a1[rows], a0[rows], nodes[rows, cols],
            nodes[rows, cols + 1], fb[rows, cols])
        mults = ((lo[:, None] < roots) & (roots < hi[:, None])).astype(int)
        # a double root's brackets were skipped, so its slot is free
        roots[double, 0] = crit[double]
        mults[double, 0] = 2
    return roots, mults, ok
