"""Certified real-root isolation for cubics on open intervals, on arrays.

The cubics are the solver's reductions a3*p^3 + a2*p^2 + a0, with no linear
term, so their critical points are exactly 0 and crit = -2*a2/(3*a3), and
their inflection point is crit/2; every interval the solver searches lies on
one side of 0.  So only crit and crit/2 can fall inside, and on each piece
between them f' and f'' keep one sign.  On a piece with a sign change,
Newton from the end where f*f'' > 0 (Fourier's condition) moves
monotonically to the root and never leaves the piece: no bracket is kept
and nothing bisects.  A lane stops when its step is within ROOT_TOL or no
longer moves it forward (rounding level), within NEWTON_STEPS steps.
Double roots are the delicate case; they sit at the critical point where
the polynomial value is within rounding of zero, and are detected there
rather than by clustering.
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

from .groups import _floats

__all__ = ["CubicPoly", "RootReport", "roots_in_interval",
           "roots_in_interval_many"]

_TINY = 1e-290
# Newton stops at a step |dp| <= ROOT_TOL * max(1, |p|)
ROOT_TOL = 1e-12
# the cap on a root's Newton steps; the slowest measured take 31
NEWTON_STEPS = 64


@dataclass(frozen=True)
class CubicPoly:
    """Polynomial a3*p^3 + a2*p^2 + a1*p + a0 with coeffs = (a3, a2, a1, a0)."""

    coeffs: tuple[float, float, float, float]

    def __post_init__(self):
        c = _floats(self.coeffs, "cubic coefficients")
        if c.shape != (4,):
            raise ValueError("cubic needs four coefficients (a3, a2, a1, a0)")
        object.__setattr__(self, "coeffs", tuple(c.tolist()))

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

    Either endpoint may be +-inf, and 0 may be one.  Each root is Newton's
    iterate once a step falls to ROOT_TOL * max(1, |p|) or stops moving
    towards the root, plus one more step if that stays in its piece.  Where
    |poly| <= ROOT_TOL * scale at the critical point -2*a2/(3*a3), that
    point is reported as a double root, the interval's only root.
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


def _newton(a3, a2, a0, a, b, left):
    """The root of a3*p^3 + a2*p^2 + a0 on each piece [a, b], all lanes at
    once (inside np.errstate(all="ignore")), by Newton from a where `left`,
    else from b.  A lane stops once a step is at most ROOT_TOL * max(1, |x|)
    or does not move it away from its start (rounding level, or nan), and
    is frozen there, not compacted out; one more step is kept if it stays
    in [a, b].  A lane still moving after NEWTON_STEPS steps stops there
    and raises nothing."""
    c2 = 2.0 * a2

    def step(x):
        u = a3 * x
        return x - ((u + a2) * x * x + a0) / ((3.0 * u + c2) * x)

    x, d = np.where(left, a, b), np.where(left, 1.0, -1.0)
    live = np.ones(len(x), dtype=bool)
    for _ in range(NEWTON_STEPS):
        xn = step(x)
        x, live = np.where(live, xn, x), live & (
            (xn - x) * d > ROOT_TOL * np.maximum(1.0, np.abs(xn)))
        if not live.any():
            break
    xp = step(x)
    return np.where((a <= xp) & (xp <= b), xp, x)


def roots_in_interval_many(coeffs, lo, hi):
    """`roots_in_interval` for N cubics, each on its own open interval.

    `coeffs` is (a3, a2, a1, a0), each an array of N lanes or a float, and
    `lo`, `hi` are arrays of N endpoints, each lane as `roots_in_interval`
    requires (not checked here).  Returns (roots, mults) of shape (N, 2): a
    root in each slot where mults > 0, ascending.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a3, a2, _, a0 = (np.broadcast_to(np.asarray(c, dtype=float), lo.shape)
                     for c in coeffs)
    with np.errstate(all="ignore"):
        # all real roots lie within the Cauchy bound; clip infinite ends
        bound = 1.0 + np.maximum(np.abs(a2), np.abs(a0)) / np.abs(a3)
        wlo = np.maximum(lo, -bound)
        whi = np.minimum(hi, bound)

        # the nodes wlo, crit = -2*a2/(3*a3), the inflection point crit/2
        # and whi, the inner two in order (both on crit's side of 0) and
        # clipped into the window (an empty one clips all nodes to whi)
        crit = -2.0 * a2 / (3.0 * a3)
        neg, infl = crit < 0.0, 0.5 * crit
        nodes = np.stack([wlo, np.where(neg, crit, infl),
                          np.where(neg, infl, crit), whi], axis=1)
        nodes = np.minimum(np.maximum(nodes, wlo[:, None]), whi[:, None])
        vals = ((a3[:, None] * nodes + a2[:, None]) * nodes * nodes
                + a0[:, None])
        # 0 is not inside, so crit is the one critical point that can be;
        # where poly is within rounding of zero there, it is the lane's one
        # root, a double root
        f_crit, q = np.where(neg, vals[:, 1], vals[:, 2]), np.abs(crit)
        double = (wlo < crit) & (crit < whi) & (np.abs(f_crit) <= ROOT_TOL
                  * np.maximum((np.abs(a3) * q + np.abs(a2)) * q * q
                               + np.abs(a0), 1e-30))
        # f' and f'' keep one sign on each piece between the nodes; a root
        # is a sign change there, or a zero at the piece's right end (the
        # inflection node: an end of the interval is left out below)
        fa, fb = vals[:, :-1], vals[:, 1:]
        bracket = (~double)[:, None] & (fa != 0.0) & (
            ((fa > 0.0) != (fb > 0.0)) | (fb == 0.0))
        rows, cols = np.nonzero(bracket)
        roots = np.full((len(lo), 2), np.nan)
        if rows.size:
            a, b = nodes[rows, cols], nodes[rows, cols + 1]
            fa, fb = fa[rows, cols], fb[rows, cols]
            a3, a2, a0 = a3[rows], a2[rows], a0[rows]
            # Fourier's condition: from the end where f * f'' > 0 (f'' taken
            # at the midpoint), Newton moves monotonically to the root and
            # never leaves the piece; a zero end is its own root
            left = ((fa > 0.0) == (3.0 * a3 * (a + b) + 2.0 * a2 > 0.0)) & (
                fb != 0.0)
            # the pieces of the monotone run left of crit take slot 0
            slot = (cols + neg[rows] > 1).astype(int)
            roots[rows, slot] = _newton(a3, a2, a0, a, b, left)
        mults = ((lo[:, None] < roots) & (roots < hi[:, None])).astype(int)
        roots[double, 0] = crit[double]
        mults[double, 0] = 2
    return roots, mults
