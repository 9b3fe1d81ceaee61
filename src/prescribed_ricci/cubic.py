"""Certified real-root isolation for cubics on open intervals, on arrays.

The cubics are the solver's reductions a3*p^3 + a2*p^2 + a0, with no linear
term, so their critical points are exactly 0 and -2*a2/(3*a3); and every
interval the solver searches lies on one side of 0.  So at most one critical
point, -2*a2/(3*a3), falls inside the interval.  The method is deliberately
boring: split the interval there, bracket sign changes on the monotone
pieces, and polish each bracket with safeguarded Newton (bisection
fallback).  Double roots are the delicate case; they sit at the critical
point where the polynomial value is within rounding of zero, and are detected
there rather than by clustering.
Closed-form solvers were rejected: branch selection near a double root is
exactly where they cancel catastrophically, and the two-solution regime of the
curvature problem lives next to that boundary.

`roots_in_interval_many` isolates N cubics at once, one lane each, on numpy
arrays: it is the one isolation kernel, behind `solve` and `solve_many`.
`roots_in_interval` is its one-lane form for a `CubicPoly`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CubicPoly", "RootReport", "roots_in_interval",
           "roots_in_interval_many"]

_TINY = 1e-290
# roots are polished to |dp| <= ROOT_TOL * max(1, |p|)
ROOT_TOL = 1e-12


@dataclass(frozen=True)
class CubicPoly:
    """Polynomial a3*p^3 + a2*p^2 + a1*p + a0 with coeffs = (a3, a2, a1, a0)."""

    coeffs: tuple[float, float, float, float]

    def __post_init__(self):
        c = tuple(float(t) for t in self.coeffs)
        if len(c) != 4:
            raise ValueError("cubic needs four coefficients (a3, a2, a1, a0)")
        object.__setattr__(self, "coeffs", c)

    def __call__(self, p: float) -> float:
        a3, a2, a1, a0 = self.coeffs
        return ((a3 * p + a2) * p + a1) * p + a0


@dataclass(frozen=True)
class RootReport:
    """Roots inside the query interval, ascending, with multiplicities."""

    roots: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __len__(self):
        return len(self.roots)


def roots_in_interval(poly: CubicPoly, lo: float, hi: float) -> RootReport:
    """All real roots of `poly` strictly inside the open interval (lo, hi),
    which lies on one side of 0.

    Either endpoint may be +-inf, and 0 may be one.  Roots are polished to
    |dp| <= ROOT_TOL * max(1, |p|).  Where |poly| <= ROOT_TOL * scale at the
    critical point -2*a2/(3*a3), that point is reported as a double root,
    the interval's only root.
    Strict-inequality questions at interval endpoints are the caller's to
    adjudicate; endpoint roots are never reported.

    Raises ValueError for a nonzero linear coefficient, an underflowing
    cubic coefficient (|a3| < 1e-290), an empty interval or an interval
    with 0 inside; `roots_in_interval_many` on one lane otherwise.
    """
    a3, a2, a1, a0 = poly.coeffs
    if a1 != 0.0:
        raise ValueError(f"cubic has a linear term (a1 = {a1}); the isolator "
                         "takes a3*p^3 + a2*p^2 + a0")
    if abs(a3) < _TINY:
        raise ValueError(f"cubic term underflows (a3 = {a3})")
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    if lo < 0.0 < hi:
        raise ValueError(f"interval ({lo}, {hi}) contains 0; the isolator "
                         "takes one side of it")

    roots, mults = roots_in_interval_many(
        poly.coeffs, np.array([lo], dtype=float), np.array([hi], dtype=float))
    found = mults[0] > 0
    return RootReport(tuple(roots[0, found].tolist()),
                      tuple(mults[0, found].tolist()))


def _refine_brackets(a3, a2, a1, a0, a, b, fb):
    """Newton with a sign-change bracket (a, b) as safety net, on every lane
    at once (inside np.errstate(all="ignore")); fb is the value at b, and
    lanes leave as they converge."""
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
    `lo`, `hi` are arrays of N endpoints, each lane as `roots_in_interval`
    requires (not checked here).  Returns (roots, mults) of shape (N, 2): a
    root in each slot where mults > 0, ascending.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a3, a2, a1, a0 = (np.broadcast_to(np.asarray(c, dtype=float), lo.shape)
                      for c in coeffs)
    with np.errstate(all="ignore"):
        # all real roots lie within the Cauchy bound; clip infinite ends
        bound = 1.0 + np.maximum(np.abs(a2), np.abs(a0)) / np.abs(a3)
        wlo = np.maximum(lo, -bound)
        whi = np.minimum(hi, bound)
        window = wlo < whi

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
    return roots, mults
