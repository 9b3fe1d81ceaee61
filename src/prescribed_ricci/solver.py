"""Case machine for the prescribed Ricci curvature problem Ric(g) = c T.

Given a group and the diagonal components (T1, T2, T3) of a prescribed
symmetric tensor in a Milnor frame, `solve` decides solvability, constructs
every solution class, and reports it:

    NoSolution     no pair (g, c) with c > 0 exists
    Unique         one metric up to scaling, one c
    TwoSolutions   exactly two (metric, c) pairs with distinct c (SO3 only)
    FamilyFixedC   infinitely many metrics on a linear constraint, one c
    FamilyAnyC     infinitely many metrics and c unconstrained

On SO3 and SL2 the non-degenerate cases reduce to a cubic

    SO3: 2 p^3 + (T1+T2+T3) p^2 - T1 T2 T3
    SL2: 2 p^3 + (T1+T2-T3) p^2 + T1 T2 T3

whose roots p in a case-specific open interval are pulled back to metrics via

    q^3 = p (p+T1)(p+T2)(p+-T3),   x_i = q / (p +- T_i),

with v1 = (x2+x3)/2, v2 = (x1+x3)/2, and v3 = +-(x1+x2)/2 (plus sign on SO3,
minus on SL2).  The remaining groups collapse to closed forms because their
third bracket coefficient vanishes.  Whenever c is determined, returned
metrics are scaled so that v1*v2*v3*c = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubic import CubicPoly, roots_in_interval
from .curvature import DiagonalMetric
from .groups import as_group
from .verify import residual

__all__ = [
    "DiagonalTensor", "Solution", "Family", "CubicSolveTrace", "SolveOutcome",
    "solve", "reconstruct_from_p", "classify_signature", "so3_cubic",
    "sl2_cubic",
]

# a component of T counts as zero, and two as equal, within ZERO_TOL * |T|_inf
ZERO_TOL = 1e-11
# the metric polish stops at a residual of POLISH_TOL * |T|_inf: five units
# in the last place
POLISH_TOL = 5.0 * 2.0 ** -52


@dataclass(frozen=True)
class DiagonalTensor:
    """Prescribed tensor components (T1, T2, T3) in a Milnor frame."""

    T: tuple[float, float, float]

    def __post_init__(self):
        if isinstance(self.T, (str, bytes)):
            raise ValueError(f"tensor components must be numbers, got {self.T!r}")
        T = tuple(float(t) for t in self.T)
        object.__setattr__(self, "T", T)
        if len(T) != 3:
            raise ValueError("diagonal tensor needs exactly three components")
        if not all(math.isfinite(t) for t in T):
            raise ValueError(f"non-finite tensor components {T}")


@dataclass(frozen=True)
class Solution:
    metric: DiagonalMetric
    c: float


@dataclass(frozen=True)
class Family:
    """An infinite solution family: one linear constraint on (v1, v2, v3).

    `constraint` is None only for the fully unconstrained flat case; `c` is
    None when the constant is unconstrained.  `sample` is one member,
    materialized for downstream verification (normalized when c is fixed).
    """

    constraint: str | None
    c: float | None
    sample: Solution


@dataclass(frozen=True)
class CubicSolveTrace:
    """Root p of the reduction cubic and the cube root q used to rebuild x."""

    p: float
    q: float
    multiplicity: int = 1


@dataclass(frozen=True)
class SolveOutcome:
    kind: str
    case_label: str
    solutions: tuple[Solution, ...] = ()
    family: Family | None = None
    traces: tuple[CubicSolveTrace, ...] = ()
    notes: tuple[str, ...] = ()

    def c_values(self) -> tuple[float, ...]:
        if self.solutions:
            return tuple(s.c for s in self.solutions)
        if self.family is not None and self.family.c is not None:
            return (self.family.c,)
        return ()


def _tensor(T) -> tuple[float, float, float]:
    return DiagonalTensor(getattr(T, "T", T)).T


# the one sign that tells the SO3 and SL2 reductions apart: T3 enters the
# cubic, the denominators p +- T3 and v3 = +-(x1+x2)/2 with it
_T3_SIGN = {"SO3": 1.0, "SL2": -1.0}


def _reduction_cubic(name: str, T) -> CubicPoly:
    """2 p^3 + (T1+T2+-T3) p^2 -+ T1 T2 T3 for an already validated T."""
    T1, T2, T3 = T
    sgn = _T3_SIGN[name]
    return CubicPoly((2.0, T1 + T2 + sgn * T3, 0.0, -sgn * T1 * T2 * T3))


def so3_cubic(T) -> CubicPoly:
    return _reduction_cubic("SO3", _tensor(T))


def sl2_cubic(T) -> CubicPoly:
    return _reduction_cubic("SL2", _tensor(T))


def _correspondence(name: str, T, p: float):
    """Denominators (p + T1, p + T2, p +- T3) and the real cube root q of
    p times their product."""
    d = (p + T[0], p + T[1], p + _T3_SIGN[name] * T[2])
    return d, float(np.cbrt(p * d[0] * d[1] * d[2]))


def _scaled_system(group, v, T):
    """Residual vector of the normalized system 2 v_i x_j x_k - T_i
    (the curvature equations with v1*v2*v3*c = 1 substituted in)."""
    lam = group.lambdas
    x = [(sum(lam[m] * v[m] for m in range(3)) - 2.0 * lam[i] * v[i]) / 2.0
         for i in range(3)]
    return [2.0 * v[i] * x[(i + 1) % 3] * x[(i + 2) % 3] - T[i]
            for i in range(3)], x


def _polish_metric(group, v, T, iterations: int = 4):
    """Newton-polish v on the normalized system.

    Reconstruction through the cubic variable p loses relative accuracy when
    a correspondence denominator p +- T_i is small (thin case intervals); a
    couple of Newton steps directly in metric space restore residuals to
    rounding level, POLISH_TOL * |T|_inf.  Keeps the best iterate; never
    leaves the positive octant.
    """
    lam = group.lambdas
    v = np.asarray(v, dtype=float).copy()
    done = POLISH_TOL * max(abs(t) for t in T)

    def res(w):
        F, _ = _scaled_system(group, w, T)
        return max(abs(f) for f in F)

    best, best_res = v.copy(), res(v)
    for _ in range(iterations):
        if best_res <= done:
            break
        F, x = _scaled_system(group, v, T)
        J = np.empty((3, 3))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            for n in range(3):
                dxj = 0.5 * lam[n] * (-1.0 if j == n else 1.0)
                dxk = 0.5 * lam[n] * (-1.0 if k == n else 1.0)
                J[i, n] = 2.0 * v[i] * (dxj * x[k] + x[j] * dxk)
                if i == n:
                    J[i, n] += 2.0 * x[j] * x[k]
        # solve for the relative step u = dv/v: the components of v can span
        # many decades and column scaling keeps the solve meaningful
        try:
            u = np.linalg.solve(J * v[None, :], np.asarray(F))
        except np.linalg.LinAlgError:
            break
        u = np.clip(u, -0.5, 0.5)
        vn = v * (1.0 - u)
        if min(vn) <= 0.0:
            break
        rn = res(vn)
        if rn < best_res:
            best, best_res = vn.copy(), rn
        v = vn
    return tuple(best)


def reconstruct_from_p(group, T, p: float) -> tuple[DiagonalMetric, float]:
    """Metric and constant from a verified cubic root p (SO3 and SL2 only).

    q is the real (sign-preserving) cube root of p(p+T1)(p+T2)(p+-T3); the
    x_i = q/(p +- T_i) rebuild the metric, and a short metric-space Newton
    polish removes the sensitivity of that map near its poles.  Raises
    ValueError if any v_i fails to come out positive, which signals an
    inadmissible p upstream.
    """
    group = as_group(group)
    T = _tensor(T)
    if group.name not in _T3_SIGN:
        raise ValueError(f"no cubic correspondence for group {group.name}")
    denoms, q = _correspondence(group.name, T, p)
    x = tuple(q / d for d in denoms)
    # admissibility is the sign pattern of the averaged forms; allow exact
    # cancellation to zero there, since thin case intervals make the x_i
    # huge with opposite signs
    v_avg = ((x[1] + x[2]) / 2.0, (x[0] + x[2]) / 2.0,
             _T3_SIGN[group.name] * (x[0] + x[1]) / 2.0)
    slack = (1e-12 * (abs(x[1]) + abs(x[2])), 1e-12 * (abs(x[0]) + abs(x[2])),
             1e-12 * (abs(x[0]) + abs(x[1])))
    if any(va + s <= 0.0 for va, s in zip(v_avg, slack)):
        raise ValueError(f"root p={p} is inadmissible: metric {v_avg} "
                         f"not positive")
    # v_i = T_i / (2 x_j x_k) is the system solved for v: unlike the
    # averaged forms it never cancels
    if all(t != 0.0 for t in T):
        v = tuple(T[i] / (2.0 * x[(i + 1) % 3] * x[(i + 2) % 3])
                  for i in range(3))
    else:
        v = v_avg
    if min(v) <= 0.0:
        raise ValueError(f"root p={p} is inadmissible: metric {v} not positive")
    v = _polish_metric(group, v, T)
    c = 1.0 / (v[0] * v[1] * v[2])
    return DiagonalMetric(v), c


def _normalized(v, c: float) -> tuple[float, float, float]:
    """Rescale v so that v1*v2*v3*c = 1 (c itself is scale-invariant)."""
    s = (v[0] * v[1] * v[2] * c) ** (-1.0 / 3.0)
    return (v[0] * s, v[1] * s, v[2] * s)


def solve(group, T) -> SolveOutcome:
    """Classify (group, T) and construct every solution of Ric(g) = c T.

    Every finite input maps to an outcome; NoSolution is an answer, not an
    error.  SO3 inputs are re-sorted descending internally (signed
    permutations of an SO3 frame preserve the brackets) and results are
    returned in the caller's component order.

    Ric(g) is unchanged by g -> lambda g, so only the ray of T matters: the
    case table runs on T / 8^k with |T / 8^k|_inf in [1, 8), where a
    component counts as zero within ZERO_TOL * |T|_inf, and `_outcome` maps
    the answer back.  Raises ValueError for a non-finite or malformed T, and
    for a c that leaves the float range (only possible for |T|_inf outside
    [1e-300, 1e300]).
    """
    group = as_group(group)
    T = _tensor(T)
    m = max(abs(T[0]), abs(T[1]), abs(T[2]))
    # m = f * 2^e with f in [0.5, 1), so m / 8^k is in [1, 8); T = 0 keeps k = 0
    k = (math.frexp(m or 1.0)[1] - 1) // 3
    if k:
        e = -3 * k
        T = (math.ldexp(T[0], e), math.ldexp(T[1], e), math.ldexp(T[2], e))
        m = math.ldexp(m, e)
    ztol = ZERO_TOL * m
    s = tuple([0 if abs(t) <= ztol else (1 if t > 0.0 else -1) for t in T])
    return _outcome(k, *_BRANCHES[group.name](group, T, s, ztol))


# Each branch below takes (group, normalized T, its signs, zero tolerance)
# and returns a raw outcome (kind, label, solutions, traces, constraint,
# notes): solutions are (v, c) pairs (a family's one pair is its sample, with
# c = 1 when c is free), traces are (p, q, multiplicity) and notes are
# `_sl2_note` arguments.
_NONE = ("NoSolution", "none")
_NO_SOLUTION = SolveOutcome(kind="NoSolution", case_label="none")


def _outcome(k: int, kind: str, label: str, sols=(), traces=(),
             constraint=None, notes=()) -> SolveOutcome:
    """Build the public records of a raw outcome for T / 8^k, mapped back
    to T: v * 2^k, c * 8^-k, p * 8^k and q * 16^k, each exact."""
    if not sols:
        return _NO_SOLUTION  # records are frozen, so one instance serves
    v_up, p_up = math.ldexp(1.0, k), math.ldexp(1.0, 3 * k)
    solutions = []
    for v, c in sols:
        c = float(c) / p_up
        if not 0.0 < c < math.inf:
            raise ValueError(f"c = {c} is outside the float range "
                             f"(|T|_inf ~ 8^{k})")
        solutions.append(Solution(
            DiagonalMetric((v[0] * v_up, v[1] * v_up, v[2] * v_up)), c))
    if kind.startswith("Family"):
        (sample,) = solutions
        c = sample.c if kind == "FamilyFixedC" else None
        return SolveOutcome(kind=kind, case_label=label,
                            family=Family(constraint, c, sample),
                            notes=tuple(_sl2_note(p_up, c, *n) for n in notes))
    # 16^k as two factors: from |T|_inf ~ 8^256 ~ 1.6e231 on, 16^k is no
    # float (ldexp would raise) and q * 16^k is inf
    q_up = math.ldexp(1.0, 2 * k)
    return SolveOutcome(
        kind=kind, case_label=label, solutions=tuple(solutions),
        traces=tuple(CubicSolveTrace(p * p_up, q * q_up * q_up, mult)
                     for p, q, mult in traces))


def _unsorted(order, v_sorted) -> list[float]:
    """Components given by sorted position, back in the caller's order."""
    v = [0.0, 0.0, 0.0]
    for pos, axis in enumerate(order):
        v[axis] = v_sorted[pos]
    return v


def _cubic_solutions(name: str, T, roots, order=(0, 1, 2)):
    """((v, c), trace) for each (root, multiplicity) of the reduction cubic,
    v in the caller's component order (`order` maps sorted positions to
    axes)."""
    found = []
    for p, mult in roots:
        metric, c = reconstruct_from_p(name, T, p)
        found.append(((_unsorted(order, metric.v), c),
                      (p, _correspondence(name, T, p)[1], mult)))
    return found


# ---------------------------------------------------------------------------
# SO3
# ---------------------------------------------------------------------------

def _solve_so3(group, T, s, ztol):
    order = sorted(range(3), key=lambda i: -T[i])
    Ts = tuple(T[i] for i in order)
    # sorting is monotone, so the signs of Ts are the sorted signs of T
    s = tuple(sorted(s, reverse=True))

    if s == (1, 0, 0):
        c = 8.0 / Ts[0]
        v = _normalized(_unsorted(order, (2.0, 1.0, 1.0)), c)
        j, k = sorted(order[1:])
        return ("FamilyFixedC", "SO3 (+,0,0)", ((v, c),), (),
                f"v{order[0] + 1}=v{j + 1}+v{k + 1}")
    if s == (1, 1, 1):
        lo, hi, label = 0.0, math.inf, "SO3 (+,+,+)"
    elif s == (1, -1, -1):
        lo, hi, label = -Ts[0], 0.0, "SO3 (+,-,-)"
    else:
        return _NONE
    rep = roots_in_interval(_reduction_cubic("SO3", Ts), lo, hi)
    found = _cubic_solutions("SO3", Ts, zip(rep.roots, rep.multiplicities),
                             order)
    if not found:
        return _NONE
    found.sort(key=lambda st: st[0][1])
    if s[1] == -1:
        label += (" unique subcase" if len(found) == 1
                  else " two-solution subcase")
    return ("Unique" if len(found) == 1 else "TwoSolutions", label,
            tuple(sol for sol, _ in found), tuple(t for _, t in found))


# ---------------------------------------------------------------------------
# SL2
# ---------------------------------------------------------------------------

def _sl2_unique(T, lo, hi, label):
    rep = roots_in_interval(_reduction_cubic("SL2", T), lo, hi)
    if len(rep) == 0:
        return _NONE
    ((sol, trace),) = _cubic_solutions(
        "SL2", T, [(rep.roots[0], rep.multiplicities[0])])
    return ("Unique", label, (sol,), (trace,))


# the two-zero families by negative index: constraint, raw sample, label
_SL2_ZERO_FAMILIES = (("v2=v1+v3", (1.0, 2.0, 1.0), "SL2 case (vi)"),
                      ("v1=v2+v3", (2.0, 1.0, 1.0), "SL2 case (vii)"))


def _sl2_zero_family(T, negative_index: int):
    """The two-zero families: T_i < 0 for i in {1, 2}, other components zero.

    The curvature equations force one x to vanish; the surviving equation
    reads -8 = c*T_i, so c = -8/T_i.  The sign convention matters: the other
    orientation, c = -T_i/8, is checked live against the residual and flagged
    (both residuals are taken on the normalized T, where neither overflows).
    """
    c = -8.0 / T[negative_index]
    constraint, raw_sample, label = _SL2_ZERO_FAMILIES[negative_index]
    sample = _normalized(raw_sample, c)
    res_c = residual("SL2", sample, c, T)
    res_alt = residual("SL2", sample, -T[negative_index] / 8.0, T)
    return ("FamilyFixedC", label, ((sample, c),), (), constraint,
            ((negative_index, -T[negative_index] / 8.0, res_c, res_alt),))


def _sl2_note(p_up: float, c: float, i: int, alt: float, res_c: float,
              res_alt: float) -> str:
    """The (vi)/(vii) note in the caller's units: alt ~ T_i scales as p."""
    return (f"family constant computed from the curvature equations: "
            f"c = -8/T{i + 1} = {c:.12g} (sample residual {res_c:.3g}); "
            f"the alternative reading -T{i + 1}/8 = {alt * p_up:.12g} is "
            f"inconsistent (sample residual {res_alt:.3g})")


def _solve_sl2(group, T, s, ztol):
    T1, T2, T3 = T

    if s == (1, -1, -1) and T1 + T3 > ztol:
        return _sl2_unique(T, -T1, T3, "SL2 case (i)")
    if s == (-1, 1, -1) and T2 + T3 > ztol:
        return _sl2_unique(T, -T2, T3, "SL2 case (ii)")

    if s == (-1, -1, 1):
        if abs(T1 - T2) <= ztol and abs(T1 + T3) <= ztol:
            c = 8.0 / T3
            return ("FamilyFixedC", "SL2 case (v)",
                    ((_normalized((1.0, 1.0, 2.0), c), c),), (), "v3=v1+v2")
        hi_gap = T3 - max(-T1, -T2)
        lo_gap = min(-T1, -T2) - T3
        if hi_gap > ztol:
            return _sl2_unique(T, max(-T1, -T2), T3, "SL2 case (iii)")
        if lo_gap > ztol:
            return _sl2_unique(T, T3, min(-T1, -T2), "SL2 case (iv)")
        return _NONE

    if s in ((-1, 0, 0), (0, -1, 0)):
        return _sl2_zero_family(T, s.index(-1))

    return _NONE


# ---------------------------------------------------------------------------
# E2 and E11: third bracket coefficient zero, so the system collapses.
# ---------------------------------------------------------------------------

def _solve_l3zero(group, T, s, ztol):
    T1, T2, T3 = T

    if group.name == "E2" and s == (0, 0, 0):
        return ("FamilyAnyC", "E2 (0,0,0)", (((1.0, 1.0, 1.0), 1.0),), (),
                "v1=v2")

    if group.name == "E11" and s[0] == 0 and s[1] == 0 and s[2] == -1:
        c = -8.0 / T3
        return ("FamilyFixedC", "E11 (0,0,-)",
                ((_normalized((1.0, 1.0, 1.0), c), c),), (), "v1=v2")

    if s[2] == -1 and T1 + T2 > ztol and s[0] * s[1] == -1:
        # Ratio of the first two equations pins v1/v2 = -T1/T2; the third
        # equation (independent of v3) pins c; the first recovers v3.
        # x-coefficients of the metric (v1, v2, .); none of them involve v3
        v1, v2 = -T1 / T2, 1.0
        l1, l2, _ = group.lambdas
        x = ((l2 * v2 - l1 * v1) / 2.0, (l1 * v1 - l2 * v2) / 2.0,
             (l1 * v1 + l2 * v2) / 2.0)
        c = (2.0 * x[0] * x[1] / (v1 * v2)) / T3
        if c <= 0.0:
            return _NONE
        v3 = 2.0 * x[1] * x[2] / (v2 * c * T1)
        if v3 <= 0.0:
            return _NONE
        pattern = "(+,-,-)" if s[0] == 1 else "(-,+,-)"
        return ("Unique", f"{group.name} {pattern}",
                ((_normalized((v1, v2, v3), c), c),))

    return _NONE


# ---------------------------------------------------------------------------
# H3 and the abelian group
# ---------------------------------------------------------------------------

def _solve_h3(group, T, s, ztol):
    T1, T2, T3 = T
    if s != (1, -1, -1):
        return _NONE
    c = 2.0 * T1 / (T2 * T3)
    return ("Unique", "H3 (+,-,-)",
            ((_normalized((1.0, -T2 / T1, -T3 / T1), c), c),))


def _solve_r3(group, T, s, ztol):
    if s == (0, 0, 0):
        return ("FamilyAnyC", "R3 (0,0,0)", (((1.0, 1.0, 1.0), 1.0),))
    return _NONE


_BRANCHES = {"SO3": _solve_so3, "SL2": _solve_sl2, "E2": _solve_l3zero,
             "E11": _solve_l3zero, "H3": _solve_h3, "R3": _solve_r3}


# ---------------------------------------------------------------------------
# Signature classification
# ---------------------------------------------------------------------------

def classify_signature(group, T) -> str:
    """Name the existence-condition row matched by (group, T), or "none".

    This is `solve`'s case label, so the two never disagree; it raises
    whatever `solve` raises.
    """
    return solve(group, T).case_label
