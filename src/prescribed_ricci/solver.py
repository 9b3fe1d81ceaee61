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

`solve_many` answers a sequence of tensors with the same outcomes as `solve`,
solving the cubic rows of CHUNK tensors at a time in numpy arrays.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cubic import CubicPoly, roots_in_interval
from .curvature import DiagonalMetric
from .groups import as_group
from .verify import residual

__all__ = [
    "DiagonalTensor", "Solution", "Family", "CubicSolveTrace", "SolveOutcome",
    "solve", "solve_many", "reconstruct_from_p", "classify_signature",
    "so3_cubic", "sl2_cubic",
]

# a component of T counts as zero, and two as equal, within ZERO_TOL * |T|_inf
ZERO_TOL = 1e-11
# the metric polish stops at a residual of POLISH_TOL * |T|_inf: five units
# in the last place
POLISH_TOL = 5.0 * 2.0 ** -52
# tensors `solve_many` takes into one array pass
CHUNK = 1024


@dataclass(frozen=True)
class DiagonalTensor:
    """Prescribed tensor components (T1, T2, T3) in a Milnor frame."""

    T: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "T", _components(self.T))


def _components(T) -> tuple[float, float, float]:
    """T as three finite floats; raises ValueError for anything else."""
    if isinstance(T, (str, bytes)):
        raise ValueError(f"tensor components must be numbers, got {T!r}")
    T = tuple(map(float, T))
    if len(T) != 3:
        raise ValueError("diagonal tensor needs exactly three components")
    if not all(map(math.isfinite, T)):
        raise ValueError(f"non-finite tensor components {T}")
    return T


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
    return _components(getattr(T, "T", T))


# the one sign that tells the SO3 and SL2 reductions apart: T3 enters the
# cubic, the denominators p +- T3 and v3 = +-(x1+x2)/2 with it
_T3_SIGN = {"SO3": 1.0, "SL2": -1.0}


def _cubic_coeffs(sgn: float, T):
    """(2, T1+T2+-T3, 0, -+T1 T2 T3): the reduction cubic's coefficients
    for floats or arrays of lanes."""
    T1, T2, T3 = T
    return (2.0, T1 + T2 + sgn * T3, 0.0, -sgn * T1 * T2 * T3)


def so3_cubic(T) -> CubicPoly:
    return CubicPoly(_cubic_coeffs(_T3_SIGN["SO3"], _tensor(T)))


def sl2_cubic(T) -> CubicPoly:
    return CubicPoly(_cubic_coeffs(_T3_SIGN["SL2"], _tensor(T)))


def _correspondence(sgn: float, T, p):
    """Denominators (p + T1, p + T2, p +- T3) and the real cube root q of
    p times their product (floats or arrays; q comes out of np.cbrt)."""
    d = (p + T[0], p + T[1], p + sgn * T[2])
    return d, np.cbrt(p * d[0] * d[1] * d[2])


def _averaged(sgn: float, x):
    """The averaged forms v1 = (x2+x3)/2, v2 = (x1+x3)/2, v3 = +-(x1+x2)/2
    and the slack their admissibility test allows each."""
    v_avg = ((x[1] + x[2]) / 2.0, (x[0] + x[2]) / 2.0,
             sgn * (x[0] + x[1]) / 2.0)
    slack = (1e-12 * (abs(x[1]) + abs(x[2])), 1e-12 * (abs(x[0]) + abs(x[2])),
             1e-12 * (abs(x[0]) + abs(x[1])))
    return v_avg, slack


def _from_system(T, x):
    """v_i = T_i / (2 x_j x_k), the system solved for v."""
    return tuple(T[i] / (2.0 * x[(i + 1) % 3] * x[(i + 2) % 3])
                 for i in range(3))


def _scaled_system(group, v, T):
    """Residual vector of the normalized system 2 v_i x_j x_k - T_i
    (the curvature equations with v1*v2*v3*c = 1 substituted in); v and T
    index to floats or to arrays of lanes."""
    lam = group.lambdas
    x = [(sum(lam[m] * v[m] for m in range(3)) - 2.0 * lam[i] * v[i]) / 2.0
         for i in range(3)]
    return [2.0 * v[i] * x[(i + 1) % 3] * x[(i + 2) % 3] - T[i]
            for i in range(3)], x


def _jacobian(group, v, x):
    """Rows of the Jacobian of `_scaled_system` in v (floats or arrays)."""
    lam = group.lambdas
    J = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        row = []
        for n in range(3):
            dxj = 0.5 * lam[n] * (-1.0 if j == n else 1.0)
            dxk = 0.5 * lam[n] * (-1.0 if k == n else 1.0)
            e = 2.0 * v[i] * (dxj * x[k] + x[j] * dxk)
            if i == n:
                e += 2.0 * x[j] * x[k]
            row.append(e)
        J.append(row)
    return J


def _polish_metric(group, v, T, iterations: int = 4):
    """Newton-polish v on the normalized system.

    Reconstruction through the cubic variable p loses relative accuracy when
    a correspondence denominator p +- T_i is small (thin case intervals); a
    couple of Newton steps directly in metric space restore residuals to
    rounding level, POLISH_TOL * |T|_inf.  Keeps the best iterate; never
    leaves the positive octant.
    """
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
        J = np.array(_jacobian(group, v, x))
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


def _reconstruct(group, T, p: float):
    """(v, c, q) from a cubic root p of a validated T; the body of
    `reconstruct_from_p`."""
    sgn = _T3_SIGN[group.name]
    denoms, q = _correspondence(sgn, T, p)
    q = float(q)
    x = tuple(q / d for d in denoms)
    # admissibility is the sign pattern of the averaged forms; allow exact
    # cancellation to zero there, since thin case intervals make the x_i
    # huge with opposite signs
    v_avg, slack = _averaged(sgn, x)
    if any(va + s <= 0.0 for va, s in zip(v_avg, slack)):
        raise ValueError(f"root p={p} is inadmissible: metric {v_avg} "
                         f"not positive")
    # v_i = T_i / (2 x_j x_k) is the system solved for v: unlike the
    # averaged forms it never cancels
    v = _from_system(T, x) if all(t != 0.0 for t in T) else v_avg
    if min(v) <= 0.0:
        raise ValueError(f"root p={p} is inadmissible: metric {v} not positive")
    v = _polish_metric(group, v, T)
    c = 1.0 / (v[0] * v[1] * v[2])
    return DiagonalMetric(v).v, c, q


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
    v, c, _ = _reconstruct(group, T, p)
    return DiagonalMetric(v), c


def _normalized(v, c: float) -> tuple[float, float, float]:
    """Rescale v so that v1*v2*v3*c = 1 (c itself is scale-invariant)."""
    s = (v[0] * v[1] * v[2] * c) ** (-1.0 / 3.0)
    return (v[0] * s, v[1] * s, v[2] * s)


def _plan(group, T):
    """(k, raw): T = 8^k T' with |T'|_inf in [1, 8), and the raw outcome of
    T', or its `_CubicCase` when the roots of the reduction cubic decide
    it.  `solve` and `solve_many` both start here."""
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
    return k, _BRANCHES[group.name](group, T, s, ztol)


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
    k, raw = _plan(group, T)
    if type(raw) is _CubicCase:
        raw = _solve_cubic(group, raw)
    return _outcome(k, *raw)


def solve_many(group, Ts):
    """Yield `solve(group, T)` for each T of the iterable Ts, in order.

    Takes CHUNK tensors at a time and plans each as `solve` does.  Lanes
    whose case needs the reduction cubic (SO3 and SL2) are solved together
    by an array form of the scalar kernel (root isolation, cube-root
    reconstruction, metric polish) that performs the same float operations
    in the same order, so each outcome equals the scalar one exactly; the
    other lanes are finished from their plan.  The scalar `solve` takes
    every lane where it would raise, where the array form meets a
    non-finite value or a case it does not cover, and the whole chunk when
    a batched linear solve finds a singular matrix; so errors are raised as
    `solve` raises them, at their place in the sequence.
    """
    # loaded here, not at import: code that only calls solve never needs it
    from .arrays import plan_chunk

    group = as_group(group)
    Ts = iter(Ts)
    while True:
        chunk = list(itertools.islice(Ts, CHUNK))
        if not chunk:
            return
        for T, plan in zip(chunk, plan_chunk(group, chunk)):
            if plan is None:
                yield solve(group, T)
            else:
                k, raw = plan
                yield _outcome(k, *raw)


# Each branch below takes (group, normalized T, its signs, zero tolerance)
# and returns a raw outcome (kind, label, solutions, traces, constraint,
# notes), or the `_CubicCase` of a row the reduction cubic decides: solutions
# are (v, c) pairs (a family's one pair is its sample, with c = 1 when c is
# free), traces are (p, q, multiplicity) and notes are `_sl2_note`
# arguments.
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


class _CubicCase(NamedTuple):
    """A case row decided by the roots of the reduction cubic of T in the
    open interval (lo, hi): the first `take` roots are reconstructed (root
    isolation reports at most three, so 3 takes them all).  For SO3, T is
    sorted descending and `order` maps its positions to the caller's
    axes."""

    T: tuple
    lo: float
    hi: float
    label: str
    take: int = 3
    order: tuple = (0, 1, 2)


def _solve_cubic(group, case: _CubicCase):
    """Raw outcome of a `_CubicCase`, one root at a time."""
    rep = roots_in_interval(CubicPoly(_cubic_coeffs(
        _T3_SIGN[group.name], case.T)), case.lo, case.hi)
    found = []
    for p, mult in itertools.islice(zip(rep.roots, rep.multiplicities),
                                    case.take):
        v, c, q = _reconstruct(group, case.T, p)
        found.append(((_unsorted(case.order, v), c), (p, q, mult)))
    return _cubic_outcome(case, found)


def _cubic_outcome(case: _CubicCase, found: list):
    """Raw outcome from the ((v, c), (p, q, multiplicity)) of each
    reconstructed root, v in the caller's component order."""
    if not found:
        return _NONE
    found.sort(key=lambda st: st[0][1])
    label = case.label
    if label == "SO3 (+,-,-)":
        label += (" unique subcase" if len(found) == 1
                  else " two-solution subcase")
    return ("Unique" if len(found) == 1 else "TwoSolutions", label,
            tuple(sol for sol, _ in found), tuple(t for _, t in found))


# ---------------------------------------------------------------------------
# SO3
# ---------------------------------------------------------------------------

def _solve_so3(group, T, s, ztol):
    # descending and stable, as the key -T_i sorts ascending
    order = sorted(range(3), key=T.__getitem__, reverse=True)
    Ts = (T[order[0]], T[order[1]], T[order[2]])
    # sorting is monotone, so the signs of Ts are the sorted signs of T
    s = tuple(sorted(s, reverse=True))

    if s == (1, 0, 0):
        c = 8.0 / Ts[0]
        v = _normalized(_unsorted(order, (2.0, 1.0, 1.0)), c)
        j, k = sorted(order[1:])
        return ("FamilyFixedC", "SO3 (+,0,0)", ((v, c),), (),
                f"v{order[0] + 1}=v{j + 1}+v{k + 1}")
    if s == (1, 1, 1):
        return _CubicCase(Ts, 0.0, math.inf, "SO3 (+,+,+)", order=order)
    if s == (1, -1, -1):
        return _CubicCase(Ts, -Ts[0], 0.0, "SO3 (+,-,-)", order=order)
    return _NONE


# ---------------------------------------------------------------------------
# SL2
# ---------------------------------------------------------------------------

def _sl2_unique(T, lo, hi, label):
    """The unique-solution rows: the first root in (lo, hi)."""
    return _CubicCase(T, lo, hi, label, take=1)


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
