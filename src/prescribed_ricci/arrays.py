"""Array forms of the cubic kernel, for `solver.solve_many`.

One lane per tensor: the root isolation of `cubic.roots_in_interval`, the
cube-root reconstruction of `solver.reconstruct_from_p` and its metric
polish run on numpy arrays of lanes, each lane with the scalar code's float
operations in the scalar code's order, so every lane gets the scalar result
bit for bit.  A lane is left to the scalar `solve` wherever the scalar code
would raise or the lane meets a non-finite value.  `solve_many` loads this
module on first use, so code that only calls `solve` never does.
"""
from __future__ import annotations

import numpy as np

from .cubic import _TINY, ROOT_TOL
from .solver import (_T3_SIGN, POLISH_TOL, _averaged, _correspondence,
                     _cubic_coeffs, _cubic_outcome, _CubicCase, _from_system,
                     _jacobian, _plan, _scaled_system)

__all__ = ["plan_chunk", "roots_in_interval_many"]


def plan_chunk(group, Ts) -> list:
    """Per tensor, (k, raw outcome), or None for a lane `solve` takes."""
    plans, cubic = [], []
    for i, T in enumerate(Ts):
        try:
            plan = _plan(group, T)
        except Exception:
            plan = None  # solve raises it again, in its place
        else:
            if type(plan[1]) is _CubicCase:
                cubic.append(i)
        plans.append(plan)
    if cubic:
        try:
            raws = _cubic_many(group, [plans[i][1] for i in cubic])
        except np.linalg.LinAlgError:
            return [None] * len(Ts)
        for i, raw in zip(cubic, raws):
            plans[i] = None if raw is None else (plans[i][0], raw)
    return plans


def _cubic_many(group, cases: list) -> list:
    """Raw outcome of each `_CubicCase`, or None for a lane left to
    `solve`."""
    T = np.array([case.T for case in cases])
    cols = (T[:, 0], T[:, 1], T[:, 2])
    roots, mults, ok = roots_in_interval_many(
        _cubic_coeffs(_T3_SIGN[group.name], cols),
        [case.lo for case in cases], [case.hi for case in cases])
    take = np.array([case.take for case in cases])
    lane, slot = np.nonzero((mults > 0) & (np.arange(mults.shape[1])
                                           < take[:, None]) & ok[:, None])
    p = roots[lane, slot]
    v, c, q, good = _reconstruct_many(group, tuple(t[lane] for t in cols), p)
    ok[lane[~good]] = False
    # `_unsorted` for every root at once
    v_axes = np.empty_like(v)
    v_axes[np.arange(len(lane))[:, None],
           np.array([case.order for case in cases])[lane]] = v
    found = [[] for _ in cases]
    for i, sol, trace in zip(lane.tolist(), zip(v_axes.tolist(), c.tolist()),
                             zip(p.tolist(), q.tolist(),
                                 mults[lane, slot].tolist())):
        found[i].append((sol, trace))
    return [_cubic_outcome(case, f) if lane_ok else None
            for case, f, lane_ok in zip(cases, found, ok.tolist())]


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


def _polish_many(group, v, T, ok, iterations: int = 4):
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
    for _ in range(iterations):
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

    `coeffs` is (a3, a2, a1, a0), each an array of N lanes or a float, and
    `lo`, `hi` are arrays of N endpoints.  Returns (roots, mults, ok):
    roots (N, 5) ascending with nan padding, mults (N, 5) with 0 padding,
    and ok (N,) False for the lanes left to the scalar function (those where
    it raises, whose cubic term underflows, or whose critical points
    coincide); their rows are not meaningful.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a3, a2, a1, a0 = (np.broadcast_to(np.asarray(c, dtype=float), lo.shape)
                      for c in coeffs)
    n = lo.shape[0]
    with np.errstate(all="ignore"):
        ok = (np.isfinite(a3) & np.isfinite(a2) & np.isfinite(a1)
              & np.isfinite(a0) & ~(np.abs(a3) < _TINY) & (lo < hi))

        bound = 1.0 + np.maximum(np.maximum(np.abs(a2), np.abs(a1)),
                                 np.abs(a0)) / np.abs(a3)
        wlo = np.maximum(lo, -bound)
        whi = np.minimum(hi, bound)
        window = ok & (wlo < whi)

        # _critical_points
        disc = a2 * a2 - 3.0 * a3 * a1
        disc_scale = np.maximum(a2 * a2, np.abs(3.0 * a3 * a1))
        small = disc <= ROOT_TOL * disc_scale
        coincident = small & ~(disc < -ROOT_TOL * disc_scale)
        sq = np.sqrt(disc)
        q = np.where(a2 != 0.0, -(a2 + np.copysign(sq, a2)), -sq)
        r1 = q / (3.0 * a3)
        r2 = a1 / q
        swap = r2 < r1
        c1 = np.where(coincident, -a2 / (3.0 * a3), np.where(swap, r2, r1))
        c2 = np.where(swap, r1, r2)
        in1 = window & (coincident | ~small) & (wlo < c1) & (c1 < whi)
        in2 = window & ~small & (wlo < c2) & (c2 < whi)
        ok &= ~(in1 & in2 & (c1 == c2))

        def value(p):
            return ((a3 * p + a2) * p + a1) * p + a0

        def value_scale(p):
            ap = np.abs(p)
            return (((np.abs(a3) * ap + np.abs(a2)) * ap + np.abs(a1)) * ap
                    + np.abs(a0))

        f1 = in1 & (np.abs(value(c1))
                    <= ROOT_TOL * np.maximum(value_scale(c1), 1e-30))
        f2 = in2 & (np.abs(value(c2))
                    <= ROOT_TOL * np.maximum(value_scale(c2), 1e-30))
        crit_mult = np.where(coincident, 3, 2)

        # the nodes wlo, inner critical points, whi; an absent critical point
        # repeats the node before it, whose empty bracket is skipped
        n1 = np.where(in1, c1, wlo)
        n2 = np.where(in2, c2, n1)
        nodes = np.stack([wlo, n1, n2, whi], axis=1)
        v0, v3 = value(wlo), value(whi)
        v1 = np.where(in1, np.where(f1, 0.0, value(c1)), v0)
        v2 = np.where(in2, np.where(f2, 0.0, value(c2)), v1)
        vals = np.stack([v0, v1, v2, v3], axis=1)
        ok &= ~window | np.isfinite(vals).all(axis=1)

        fa, fb = vals[:, :-1], vals[:, 1:]
        bracket = (window[:, None] & (fa != 0.0) & (fb != 0.0)
                   & ((fa > 0.0) != (fb > 0.0)))
        rows, cols = np.nonzero(bracket)
        r = np.full((n, 3), np.nan)
        r[rows, cols] = _refine_brackets(
            a3[rows], a2[rows], a1[rows], a0[rows], nodes[rows, cols],
            nodes[rows, cols + 1], fb[rows, cols])
        kept = bracket & (lo[:, None] < r) & (r < hi[:, None])

        # found, sorted by (root, multiplicity)
        cand = np.concatenate([c1[:, None], c2[:, None], r], axis=1)
        cand_mult = np.concatenate([crit_mult[:, None], crit_mult[:, None],
                                    np.ones((n, 3), dtype=int)], axis=1)
        valid = np.concatenate([f1[:, None], f2[:, None], kept], axis=1)
        cand = np.where(valid, cand, np.inf)
        order = np.lexsort((cand_mult, cand), axis=1)
        cand = np.take_along_axis(cand, order, axis=1)
        cand_mult = np.take_along_axis(cand_mult, order, axis=1)
        valid = np.take_along_axis(valid, order, axis=1)

        # merge anything that collapsed onto an already-reported root
        roots = np.full((n, 5), np.nan)
        mults = np.zeros((n, 5), dtype=int)
        count = np.zeros(n, dtype=int)
        lanes = np.arange(n)
        for j in range(5):
            r, m = cand[:, j], cand_mult[:, j]
            last = np.maximum(count - 1, 0)
            prev_r, prev_m = roots[lanes, last], mults[lanes, last]
            close = valid[:, j] & (count > 0) & (
                np.abs(r - prev_r)
                <= 16.0 * ROOT_TOL * np.maximum(1.0, np.abs(r)))
            roots[lanes[close], last[close]] = np.where(prev_m >= m, prev_r,
                                                        r)[close]
            mults[lanes[close], last[close]] = np.minimum(3, prev_m + m)[close]
            put = valid[:, j] & ~close
            roots[lanes[put], count[put]] = r[put]
            mults[lanes[put], count[put]] = m[put]
            count += put
    return roots, mults, ok
