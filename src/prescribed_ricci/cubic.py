"""Certified real-root isolation for cubics on open intervals.

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
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CubicPoly", "RootReport", "roots_in_interval"]

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

    def deriv(self, p: float) -> float:
        a3, a2, a1, _ = self.coeffs
        return (3.0 * a3 * p + 2.0 * a2) * p + a1

    def value_scale(self, p: float) -> float:
        """Magnitude scale of the evaluation at p (for relative tolerances)."""
        a3, a2, a1, a0 = self.coeffs
        q = abs(p)
        return ((abs(a3) * q + abs(a2)) * q + abs(a1)) * q + abs(a0)


@dataclass(frozen=True)
class RootReport:
    """Roots inside the query interval, ascending, with multiplicities."""

    roots: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __len__(self):
        return len(self.roots)


def _refine_bracket(poly: CubicPoly, a: float, b: float, fa: float,
                    fb: float) -> float:
    """Newton with a sign-change bracket as safety net.  fa*fb < 0 required."""
    x = 0.5 * (a + b)
    for _ in range(200):
        fx = poly(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fb > 0.0):
            b, fb = x, fx
        else:
            a, fa = x, fx
        dfx = poly.deriv(x)
        if dfx != 0.0:
            xn = x - fx / dfx
            if not (a < xn < b):
                xn = 0.5 * (a + b)
        else:
            xn = 0.5 * (a + b)
        if abs(xn - x) <= ROOT_TOL * max(1.0, abs(xn)):
            x = xn
            dfx = poly.deriv(x)
            if dfx != 0.0:
                xp = x - poly(x) / dfx
                if a <= xp <= b:
                    x = xp
            return x
        x = xn
    return x


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
    with 0 inside.
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

    # All real roots lie within the Cauchy bound; clip infinite endpoints.
    bound = 1.0 + max(abs(a2), abs(a0)) / abs(a3)
    wlo = max(lo, -bound)
    whi = min(hi, bound)
    if not wlo < whi:
        return RootReport((), ())

    # the derivative 3*a3*p^2 + 2*a2*p vanishes at 0, which is not inside,
    # and at -2*a2/(3*a3)
    crit = -2.0 * a2 / (3.0 * a3)
    nodes = [wlo, whi]
    if wlo < crit < whi:
        # where poly is within rounding of zero there, it is a double root
        # and the interval's only one: poly is monotone from it to the ends
        if abs(poly(crit)) <= ROOT_TOL * max(poly.value_scale(crit), 1e-30):
            return RootReport((crit,), (2,))
        nodes.insert(1, crit)

    vals = [poly(p) for p in nodes]
    roots = []
    for a, b, fa, fb in zip(nodes, nodes[1:], vals, vals[1:]):
        if fa == 0.0 or fb == 0.0 or (fa > 0.0) == (fb > 0.0):
            continue
        r = _refine_bracket(poly, a, b, fa, fb)
        if lo < r < hi:
            roots.append(r)
    return RootReport(tuple(roots), (1,) * len(roots))
