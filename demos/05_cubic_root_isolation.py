#!/usr/bin/env python3
"""Certified cubic root isolation on open intervals.

The solver's hard cases reduce to locating roots of a cubic a3 p^3 + a2 p^2 +
a0 (no linear term) inside an open interval on one side of 0, including the
delicate double-root boundary between the two-solution and no-solution
regimes.  The cubic's critical points are 0 and -2 a2 / (3 a3), so only the
second can lie inside, as can the inflection point -a2 / (3 a3) halfway to
it.  The isolator splits the interval at both, so that f' and f'' keep one sign
on each piece, and runs Newton on each piece with a sign change from the
end where f f'' > 0 (Fourier's condition): the iterates move monotonically
to the root, with no bracket and no bisection.  Multiplicity is detected at
the critical point instead of trusting closed forms.  A cubic with a linear
term, or an interval with 0 inside, is refused with ValueError.
"""
import math

import numpy as np

from prescribed_ricci import CubicPoly, roots_in_interval


def whole_line(poly):
    """Roots and multiplicities on (-inf, 0), then on (0, inf)."""
    neg = roots_in_interval(poly, -math.inf, 0.0)
    pos = roots_in_interval(poly, 0.0, math.inf)
    return neg.roots + pos.roots, neg.multiplicities + pos.multiplicities


print("Two roots inside (-10, 0), from 2p^3 + 8p^2 - 10 = 2(p-1)(p^2+5p+5):")
rep = roots_in_interval(CubicPoly((2, 8, 0, -10)), -10.0, 0.0)
for r, m in zip(rep.roots, rep.multiplicities):
    print(f"  p = {r:.15f}  multiplicity {m}")
print(f"  exact: (-5 - sqrt5)/2 = {(-5 - math.sqrt(5)) / 2:.15f}")
print(f"         (-5 + sqrt5)/2 = {(-5 + math.sqrt(5)) / 2:.15f}")

print("\nHalf-line query (0, inf) on 2p^3 + 3p^2 - 1 = (p+1)^2 (2p-1):")
rep = roots_in_interval(CubicPoly((2, 3, 0, -1)), 0.0, math.inf)
print(f"  roots: {rep.roots}, multiplicities: {rep.multiplicities}")

print("\nDouble roots are reported with their multiplicity:")
roots, mults = whole_line(CubicPoly((2, -6, 0, 8)))
print(f"  2(p-2)^2(p+1) on (-inf, 0) and (0, inf):  roots {roots}, mult {mults}")

print("\nAn interval with 0 inside is refused (p^3's triple root 0 is never")
print("inside a one-sided interval):")
try:
    roots_in_interval(CubicPoly((1.0, 0.0, 0.0, 0.0)), -1.0, 1.0)
except ValueError as exc:
    print(f"  p^3 on (-1, 1): ValueError: {exc}")

print("\nRoots exactly on the boundary of the open interval are excluded:")
poly = CubicPoly((2, -14, 0, 72))
print(f"  roots of 2(p+2)(p-3)(p-6) in (3, 5.9):    {roots_in_interval(poly, 3.0, 5.9).roots}")
print(f"  roots of 2(p+2)(p-3)(p-6) in (-1.9, 0):   {roots_in_interval(poly, -1.9, 0.0).roots}")
print(f"  roots of 2(p+2)(p-3)(p-6) in (0, 5.9):    {roots_in_interval(poly, 0.0, 5.9).roots}")

print("\nA linear term is refused:")
try:
    roots_in_interval(CubicPoly((2, 0, -8, 0)), 0.0, math.inf)
except ValueError as exc:
    print(f"  2p^3 - 8p: ValueError: {exc}")

print("\nRecovery accuracy on 2000 random planted cubics 2(p-r1)(p-r2)(p-r3),")
print("r3 = -r1 r2 / (r1 + r2) so that the linear term vanishes:")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(2000):
    while True:
        r1, r2 = rng.uniform(-10, 10, size=2)
        r3 = -r1 * r2 / (r1 + r2)
        roots = np.sort([r1, r2, r3])
        if abs(r3) <= 10 and np.min(np.diff(roots)) > 1e-2:
            break
    coeffs = (2.0, -2.0 * (r1 + r2 + r3), 0.0, -2.0 * r1 * r2 * r3)
    found, _ = whole_line(CubicPoly(coeffs))
    worst = max(worst, float(np.max(np.abs(np.array(found) - roots))))
print(f"  worst absolute error: {worst:.2e}")
