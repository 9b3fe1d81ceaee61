"""Certified real-root isolation for cubics on open intervals.

The method is deliberately boring: split the interval at the (at most two)
critical points, bracket sign changes on the monotone pieces, and polish each
bracket with safeguarded Newton (bisection fallback).  Double roots are the
delicate case; they sit at a critical point where the polynomial value is
within rounding of zero, and are detected there rather than by clustering.
Closed-form solvers were rejected: branch selection near a double root is
exactly where they cancel catastrophically, and the two-solution regime of the
curvature problem lives next to that boundary.
"""
from __future__ import annotations

import math
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


def _critical_points(a3: float, a2: float, a1: float):
    """Real roots of the derivative 3*a3*p^2 + 2*a2*p + a1, and whether the
    two coincide (within rounding, meaning an inflection-type critical point)."""
    disc = a2 * a2 - 3.0 * a3 * a1
    disc_scale = max(a2 * a2, abs(3.0 * a3 * a1))
    if disc <= ROOT_TOL * disc_scale:
        if disc < -ROOT_TOL * disc_scale:
            return [], False
        return [-a2 / (3.0 * a3)], True
    sq = math.sqrt(disc)
    q = -(a2 + math.copysign(sq, a2)) if a2 != 0.0 else -sq
    r1 = q / (3.0 * a3)
    r2 = a1 / q
    return sorted((r1, r2)), False


def _quadratic_roots(a2: float, a1: float, a0: float):
    """(root, multiplicity) pairs of a2*p^2 + a1*p + a0 with a2 != 0."""
    disc = a1 * a1 - 4.0 * a2 * a0
    scale = max(a1 * a1, abs(4.0 * a2 * a0))
    if abs(disc) <= ROOT_TOL * scale:
        return [(-a1 / (2.0 * a2), 2)]
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    q = -(a1 + math.copysign(sq, a1)) if a1 != 0.0 else -sq
    q *= 0.5
    return sorted([(q / a2, 1), (a0 / q, 1)])


def roots_in_interval(poly: CubicPoly, lo: float, hi: float) -> RootReport:
    """All real roots of `poly` strictly inside the open interval (lo, hi).

    Either endpoint may be +-inf.  Roots are polished to
    |dp| <= ROOT_TOL * max(1, |p|); a critical point where |poly| <=
    ROOT_TOL * scale is reported as a double root (triple when the critical
    points coincide).
    Strict-inequality questions at interval endpoints are the caller's to
    adjudicate; endpoint roots are never reported.

    Raises ValueError for a degenerate (identically ~0) polynomial or an
    empty interval.
    """
    a3, a2, a1, a0 = poly.coeffs
    if max(abs(a3), abs(a2), abs(a1), abs(a0)) < _TINY:
        raise ValueError("degenerate polynomial: all coefficients underflow")
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")

    found: list[tuple[float, int]] = []

    if abs(a3) < _TINY:
        if abs(a2) >= _TINY:
            candidates = _quadratic_roots(a2, a1, a0)
        elif abs(a1) >= _TINY:
            candidates = [(-a0 / a1, 1)]
        else:
            candidates = []
        for r, mult in candidates:
            if lo < r < hi:
                found.append((r, mult))
        return _report(found)

    # All real roots lie within the Cauchy bound; clip infinite endpoints.
    bound = 1.0 + max(abs(a2), abs(a1), abs(a0)) / abs(a3)
    wlo = max(lo, -bound)
    whi = min(hi, bound)
    if not wlo < whi:
        return _report([])

    crits, coincident = _critical_points(a3, a2, a1)
    inner = [c for c in crits if wlo < c < whi]

    flagged: set[float] = set()
    for c in inner:
        if abs(poly(c)) <= ROOT_TOL * max(poly.value_scale(c), 1e-30):
            mult = 3 if coincident else 2
            found.append((c, mult))
            flagged.add(c)

    nodes = [wlo] + inner + [whi]
    vals = [poly(p) for p in nodes]
    for idx, p in enumerate(nodes):
        if p in flagged:
            vals[idx] = 0.0

    for i in range(len(nodes) - 1):
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0 or fb == 0.0 or (fa > 0.0) == (fb > 0.0):
            continue
        r = _refine_bracket(poly, nodes[i], nodes[i + 1], fa, fb)
        if lo < r < hi:
            found.append((r, 1))

    # Merge anything that collapsed onto an already-reported multiple root.
    merged: list[tuple[float, int]] = []
    for r, mult in sorted(found):
        if merged and abs(r - merged[-1][0]) <= 16.0 * ROOT_TOL * max(1.0, abs(r)):
            prev_r, prev_m = merged[-1]
            merged[-1] = (prev_r if prev_m >= mult else r, min(3, prev_m + mult))
        else:
            merged.append((r, mult))
    return _report(merged)


def _report(pairs: list[tuple[float, int]]) -> RootReport:
    pairs = sorted(pairs)
    return RootReport(tuple(r for r, _ in pairs), tuple(m for _, m in pairs))
