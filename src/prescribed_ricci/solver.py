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
    "SolverConfig", "solve", "reconstruct_from_p", "classify_signature",
    "so3_cubic", "sl2_cubic",
]

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

    def __array__(self, dtype=None, copy=None):
        return np.array(self.T, dtype=dtype or float)

    def matrix(self) -> np.ndarray:
        return np.diag(np.asarray(self.T, dtype=float))


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

    @property
    def c_unconstrained(self) -> bool:
        return self.c is None


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


@dataclass(frozen=True)
class SolverConfig:
    """Numerical policy.  zero_tol_rel decides when a component counts as
    zero or two components count as equal, relative to max(1, |T|_inf)."""

    zero_tol_rel: float = 1e-11
    root_tol: float = 1e-12


DEFAULT_CONFIG = SolverConfig()


def _tensor(T) -> tuple[float, float, float]:
    return DiagonalTensor(getattr(T, "T", T)).T


def _sign(x: float, ztol: float) -> int:
    if abs(x) <= ztol:
        return 0
    return 1 if x > 0.0 else -1


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
    rounding level.  Keeps the best iterate; never leaves the positive octant.
    """
    lam = group.lambdas
    v = np.asarray(v, dtype=float).copy()
    scale = 1.0 + max(abs(t) for t in T)

    def res(w):
        F, _ = _scaled_system(group, w, T)
        return max(abs(f) for f in F)

    best, best_res = v.copy(), res(v)
    for _ in range(iterations):
        if best_res <= 1e-15 * scale:
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


def _trace_for(name: str, T, p: float, mult: int) -> CubicSolveTrace:
    _, q = _correspondence(name, T, p)
    return CubicSolveTrace(p=p, q=q, multiplicity=mult)


def _normalized(v, c: float) -> DiagonalMetric:
    """Rescale v so that v1*v2*v3*c = 1 (c itself is scale-invariant)."""
    v = np.asarray(v, dtype=float)
    s = (v[0] * v[1] * v[2] * c) ** (-1.0 / 3.0)
    return DiagonalMetric(tuple(v * s))


def _constraint_string(i: int, j: int, k: int) -> str:
    j, k = sorted((j, k))
    return f"v{i + 1}=v{j + 1}+v{k + 1}"


def solve(group, T, cfg: SolverConfig | None = None) -> SolveOutcome:
    """Classify (group, T) and construct every solution of Ric(g) = c T.

    Every finite input maps to an outcome; NoSolution is an answer, not an
    error.  SO3 inputs are re-sorted descending internally (signed
    permutations of an SO3 frame preserve the brackets) and results are
    returned in the caller's component order.
    """
    group = as_group(group)
    cfg = cfg or DEFAULT_CONFIG
    T = _tensor(T)
    ztol = cfg.zero_tol_rel * max(1.0, max(abs(t) for t in T))
    s = tuple(_sign(t, ztol) for t in T)

    if group.name == "SO3":
        return _solve_so3(T, s, cfg)
    if group.name == "SL2":
        return _solve_sl2(T, s, cfg, ztol)
    if group.name in ("E2", "E11"):
        return _solve_l3zero(group, T, s, ztol)
    if group.name == "H3":
        return _solve_h3(T, s)
    return _solve_r3(s)


# ---------------------------------------------------------------------------
# SO3
# ---------------------------------------------------------------------------

def _solve_so3(T, s, cfg) -> SolveOutcome:
    order = sorted(range(3), key=lambda i: -T[i])
    Ts = tuple(T[i] for i in order)
    # sorting is monotone, so the signs of Ts are the sorted signs of T
    s = tuple(sorted(s, reverse=True))

    def unpermute(v_sorted) -> tuple[float, float, float]:
        v = [0.0, 0.0, 0.0]
        for pos, axis in enumerate(order):
            v[axis] = float(v_sorted[pos])
        return tuple(v)

    if s == (1, 1, 1):
        rep = roots_in_interval(_reduction_cubic("SO3", Ts), 0.0, math.inf,
                                cfg.root_tol)
        p = rep.roots[0]
        metric, c = reconstruct_from_p("SO3", Ts, p)
        return SolveOutcome(
            kind="Unique", case_label="SO3 (+,+,+)",
            solutions=(Solution(DiagonalMetric(unpermute(metric.v)), c),),
            traces=(_trace_for("SO3", Ts, p, rep.multiplicities[0]),))

    if s == (1, 0, 0):
        c = 8.0 / Ts[0]
        sample = _normalized(unpermute((2.0, 1.0, 1.0)), c)
        constraint = _constraint_string(order[0], order[1], order[2])
        return SolveOutcome(
            kind="FamilyFixedC", case_label="SO3 (+,0,0)",
            family=Family(constraint=constraint, c=c, sample=Solution(sample, c)))

    if s[0] == 1 and s[1] == -1 and s[2] == -1:
        rep = roots_in_interval(_reduction_cubic("SO3", Ts), -Ts[0], 0.0,
                                cfg.root_tol)
        if len(rep) == 0:
            return SolveOutcome(kind="NoSolution", case_label="none")
        found = []
        for p, mult in zip(rep.roots, rep.multiplicities):
            metric, c = reconstruct_from_p("SO3", Ts, p)
            found.append((Solution(DiagonalMetric(unpermute(metric.v)), c),
                          _trace_for("SO3", Ts, p, mult)))
        found.sort(key=lambda st: st[0].c)
        kind, sub = (("Unique", "unique") if len(found) == 1
                     else ("TwoSolutions", "two-solution"))
        return SolveOutcome(kind=kind, case_label=f"SO3 (+,-,-) {sub} subcase",
                            solutions=tuple(s for s, _ in found),
                            traces=tuple(t for _, t in found))

    return SolveOutcome(kind="NoSolution", case_label="none")


# ---------------------------------------------------------------------------
# SL2
# ---------------------------------------------------------------------------

def _sl2_unique(T, cfg, lo, hi, label) -> SolveOutcome:
    rep = roots_in_interval(_reduction_cubic("SL2", T), lo, hi, cfg.root_tol)
    if len(rep) == 0:
        return SolveOutcome(kind="NoSolution", case_label="none")
    p, mult = rep.roots[0], rep.multiplicities[0]
    metric, c = reconstruct_from_p("SL2", T, p)
    return SolveOutcome(kind="Unique", case_label=label,
                        solutions=(Solution(metric, c),),
                        traces=(_trace_for("SL2", T, p, mult),))


# the two-zero families by negative index: constraint, raw sample, label
_SL2_ZERO_FAMILIES = (("v2=v1+v3", (1.0, 2.0, 1.0), "SL2 case (vi)"),
                      ("v1=v2+v3", (2.0, 1.0, 1.0), "SL2 case (vii)"))


def _sl2_zero_family(T, negative_index: int) -> SolveOutcome:
    """The two-zero families: T_i < 0 for i in {1, 2}, other components zero.

    The curvature equations force one x to vanish; the surviving equation
    reads -8 = c*T_i, so c = -8/T_i.  The sign convention matters: the other
    orientation, c = -T_i/8, is checked live against the residual and flagged.
    """
    Ti = T[negative_index]
    c = -8.0 / Ti
    constraint, raw_sample, label = _SL2_ZERO_FAMILIES[negative_index]
    sample = _normalized(raw_sample, c)
    alt = -Ti / 8.0
    res_c = residual("SL2", sample, c, T)
    res_alt = residual("SL2", sample, alt, T)
    note = (f"family constant computed from the curvature equations: "
            f"c = -8/T{negative_index + 1} = {c:.12g} "
            f"(sample residual {res_c:.3g}); the alternative reading "
            f"-T{negative_index + 1}/8 = {alt:.12g} is inconsistent "
            f"(sample residual {res_alt:.3g})")
    return SolveOutcome(kind="FamilyFixedC", case_label=label,
                        family=Family(constraint=constraint, c=c,
                                      sample=Solution(sample, c)),
                        notes=(note,))


def _solve_sl2(T, s, cfg, ztol) -> SolveOutcome:
    T1, T2, T3 = T

    if s == (1, -1, -1) and T1 + T3 > ztol:
        return _sl2_unique(T, cfg, -T1, T3, "SL2 case (i)")
    if s == (-1, 1, -1) and T2 + T3 > ztol:
        return _sl2_unique(T, cfg, -T2, T3, "SL2 case (ii)")

    if s == (-1, -1, 1):
        if abs(T1 - T2) <= ztol and abs(T1 + T3) <= ztol:
            c = 8.0 / T3
            sample = _normalized((1.0, 1.0, 2.0), c)
            return SolveOutcome(
                kind="FamilyFixedC", case_label="SL2 case (v)",
                family=Family(constraint="v3=v1+v2", c=c,
                              sample=Solution(sample, c)))
        hi_gap = T3 - max(-T1, -T2)
        lo_gap = min(-T1, -T2) - T3
        if hi_gap > ztol:
            return _sl2_unique(T, cfg, max(-T1, -T2), T3, "SL2 case (iii)")
        if lo_gap > ztol:
            return _sl2_unique(T, cfg, T3, min(-T1, -T2), "SL2 case (iv)")
        return SolveOutcome(kind="NoSolution", case_label="none")

    if s in ((-1, 0, 0), (0, -1, 0)):
        return _sl2_zero_family(T, s.index(-1))

    return SolveOutcome(kind="NoSolution", case_label="none")


# ---------------------------------------------------------------------------
# E2 and E11: third bracket coefficient zero, so the system collapses.
# ---------------------------------------------------------------------------

def _solve_l3zero(group, T, s, ztol) -> SolveOutcome:
    T1, T2, T3 = T

    if group.name == "E2" and s == (0, 0, 0):
        sample = Solution(DiagonalMetric((1.0, 1.0, 1.0)), 1.0)
        return SolveOutcome(kind="FamilyAnyC", case_label="E2 (0,0,0)",
                            family=Family(constraint="v1=v2", c=None,
                                          sample=sample))

    if group.name == "E11" and s[0] == 0 and s[1] == 0 and s[2] == -1:
        c = -8.0 / T3
        sample = _normalized((1.0, 1.0, 1.0), c)
        return SolveOutcome(kind="FamilyFixedC", case_label="E11 (0,0,-)",
                            family=Family(constraint="v1=v2", c=c,
                                          sample=Solution(sample, c)))

    if s[2] == -1 and T1 + T2 > ztol and s[0] * s[1] == -1:
        # Ratio of the first two equations pins v1/v2 = -T1/T2; the third
        # equation (independent of v3) pins c; the first recovers v3.
        v1, v2 = -T1 / T2, 1.0
        x = _l3zero_x(group, v1, v2)
        c = (2.0 * x[0] * x[1] / (v1 * v2)) / T3
        if c <= 0.0:
            return SolveOutcome(kind="NoSolution", case_label="none")
        v3 = 2.0 * x[1] * x[2] / (v2 * c * T1)
        if v3 <= 0.0:
            return SolveOutcome(kind="NoSolution", case_label="none")
        metric = _normalized((v1, v2, v3), c)
        pattern = "(+,-,-)" if s[0] == 1 else "(-,+,-)"
        return SolveOutcome(kind="Unique",
                            case_label=f"{group.name} {pattern}",
                            solutions=(Solution(metric, c),))

    return SolveOutcome(kind="NoSolution", case_label="none")


def _l3zero_x(group, v1: float, v2: float) -> tuple[float, float, float]:
    """x-coefficients for the two groups with vanishing third bracket
    coefficient; none of them involve v3."""
    l1, l2, _ = group.lambdas
    x1 = (l2 * v2 - l1 * v1) / 2.0
    x2 = (l1 * v1 - l2 * v2) / 2.0
    x3 = (l1 * v1 + l2 * v2) / 2.0
    return x1, x2, x3


# ---------------------------------------------------------------------------
# H3 and the abelian group
# ---------------------------------------------------------------------------

def _solve_h3(T, s) -> SolveOutcome:
    T1, T2, T3 = T
    if s != (1, -1, -1):
        return SolveOutcome(kind="NoSolution", case_label="none")
    c = 2.0 * T1 / (T2 * T3)
    metric = _normalized((1.0, -T2 / T1, -T3 / T1), c)
    return SolveOutcome(kind="Unique", case_label="H3 (+,-,-)",
                        solutions=(Solution(metric, c),))


def _solve_r3(s) -> SolveOutcome:
    if s == (0, 0, 0):
        sample = Solution(DiagonalMetric((1.0, 1.0, 1.0)), 1.0)
        return SolveOutcome(kind="FamilyAnyC", case_label="R3 (0,0,0)",
                            family=Family(constraint=None, c=None,
                                          sample=sample))
    return SolveOutcome(kind="NoSolution", case_label="none")


# ---------------------------------------------------------------------------
# Signature classification
# ---------------------------------------------------------------------------

def classify_signature(group, T, cfg: SolverConfig | None = None) -> str:
    """Name the existence-condition row matched by (group, T), or "none".

    This is `solve`'s case label, so the two never disagree; it raises
    whatever `solve` raises.
    """
    return solve(group, T, cfg).case_label
