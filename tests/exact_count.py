"""Exact root and solution counts, a reference for the tests only.

Every float is read as the exact rational it is (`fractions.Fraction`), and
no tolerance or case table of the solver is used.  The cubics are the
reductions f(p) = 2 p^3 + b p^2 + d, whose critical points 0 and -b/3 are
rational: they split the real line into monotone pieces, and a strict sign
change of f on a piece is exactly one root there.  Where a root r lies
against a rational z follows from the sign of f(z) alone.

On SO3 and SL2 (s = +1, -1) the reduction of Ric(g) = c T is

    f(p) = 2 p^3 + (T1 + T2 + s T3) p^2 - s T1 T2 T3,

and a root p gives a solution when the averaged forms v1 = (x2+x3)/2,
v2 = (x1+x3)/2, v3 = s(x1+x2)/2 of x_i = q / (p + T_i) (p + s T3 for i = 3,
q the real cube root of p (p+T1)(p+T2)(p+sT3)) are positive.  The sign of
each is a product of signs of linear factors in p:

    v1 ~ p (p + T1) (2p + T2 + s T3),   v2 ~ p (p + T2) (2p + T1 + s T3),
    v3 ~ s p (p + s T3) (2p + T1 + T2).

A root exactly on a factor's zero is no solution (a pole of the
correspondence, or a zero metric component).  T with a zero component is
a family or degenerate row and is not covered.
"""
from __future__ import annotations

import math
from fractions import Fraction

SIGN = {"SO3": 1, "SL2": -1}


def _sign(x) -> int:
    return (x > 0) - (x < 0)


class Cubic:
    """f(p) = 2 p^3 + b p^2 + d with exact rational b and d."""

    def __init__(self, b, d):
        self.b, self.d = Fraction(b), Fraction(d)

    def __call__(self, p):
        return (2 * p + self.b) * p * p + self.d

    def _sign_at(self, x) -> int:
        if isinstance(x, float) and math.isinf(x):
            return 1 if x > 0 else -1
        return _sign(self(Fraction(x)))

    def roots(self, lo=-math.inf, hi=math.inf) -> list[tuple]:
        """The distinct real roots strictly inside (lo, hi), ascending, each
        as (x0, x1, s0): a monotone piece (x0, x1) holding it, f having the
        sign s0 at x0; a root at a critical point comes as (r, r, 0)."""
        nodes = [lo, *sorted(z for z in {Fraction(0), -self.b / 3}
                             if lo < z < hi), hi]
        out = []
        for i, (x0, x1) in enumerate(zip(nodes, nodes[1:])):
            s0 = self._sign_at(x0)
            if i and s0 == 0:
                out.append((x0, x0, 0))
            if s0 * self._sign_at(x1) < 0:
                out.append((x0, x1, s0))
        return out

    def above(self, root: tuple, z: Fraction) -> int:
        """The sign of r - z for the root r that `root` describes."""
        x0, x1, s0 = root
        if x0 == x1:
            return _sign(x0 - z)
        if z <= x0:
            return 1
        if z >= x1:
            return -1
        fz = _sign(self(z))
        return 0 if fz == 0 else (1 if fz == s0 else -1)

    def double_root_ratio(self) -> Fraction:
        """|f| over its magnitude scale 2|p|^3 + |b| p^2 + |d|, at the
        critical point -b/3: how close f is to a double root."""
        p = -self.b / 3
        scale = 2 * abs(p) ** 3 + abs(self.b) * p * p + abs(self.d)
        return abs(self(p)) / scale if scale else Fraction(0)


def reduction(group: str, T) -> Cubic:
    s = SIGN[group]
    T1, T2, T3 = map(Fraction, T)
    return Cubic(T1 + T2 + s * T3, -s * T1 * T2 * T3)


def solution_count(group: str, T) -> int:
    """The number of solutions (g, c) with c > 0 of Ric(g) = c T on SO3 or
    SL2 ("SO3", "SL2") for T with no zero component, one per admissible
    root of the reduction cubic."""
    s = SIGN[group]
    T1, T2, T3 = map(Fraction, T)
    if not (T1 and T2 and T3):
        raise ValueError(f"T = {T} has a zero component")
    cubic = reduction(group, T)
    factors = [(1, (0, -T1, -(T2 + s * T3) / 2)),
               (1, (0, -T2, -(T1 + s * T3) / 2)),
               (s, (0, -s * T3, -(T1 + T2) / 2))]
    count = 0
    for root in cubic.roots():
        signs = [sign * math.prod(cubic.above(root, z) for z in zeros)
                 for sign, zeros in factors]
        count += all(v > 0 for v in signs)
    return count
