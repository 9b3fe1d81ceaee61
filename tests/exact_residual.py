"""Exact residual of a claimed solution, a reference for the tests only.

Every float is the exact rational it is (`fractions.Fraction`), so the
Milnor closed form over rationals gives the exact residual of a float claim
(v, c, T) on a diagonal metric:

    x_i = (l_j v_j + l_k v_k - l_i v_i) / 2,    Ric_i = 2 x_j x_k / (v_j v_k),

    max_i |Ric_i - c T_i| / (1 + |c| |T|_inf),

scaled by 1 + |c| |T|_inf as `verify._normalized_residuals` scales it.  It
shares the closed form's formula with `curvature.ricci_diagonal` and none of
its rounding: no operation here rounds.
"""
from __future__ import annotations

from fractions import Fraction

from prescribed_ricci.groups import as_group

# the two other indices j = i+1 and k = i+2 (mod 3) of each component i
_ROWS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def exact_residual(group, v, c, T) -> Fraction:
    """The normalized closed-form residual of the claim (v, c) for T."""
    lam = [Fraction(x) for x in as_group(group).lambdas]
    v, T, c = [Fraction(x) for x in v], [Fraction(t) for t in T], Fraction(c)
    x = [(lam[j] * v[j] + lam[k] * v[k] - lam[i] * v[i]) / 2
         for i, j, k in _ROWS]
    ric = [2 * x[j] * x[k] / (v[j] * v[k]) for _, j, k in _ROWS]
    size = max(abs(t) for t in T)
    return max(abs(r - c * t) for r, t in zip(ric, T)) / (1 + abs(c) * size)
