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

`solve_many` answers a sequence of tensors, CHUNK at a time.  The roots of
the cubic and their metrics come from one kernel, `arrays.cubic_columns`,
which `solve` runs on one lane and `solve_many` on a chunk.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrays import _T3_SIGN, Columns, _reconstruct_many, cubic_columns
# roots_in_interval is imported only for bench/spans.py, which wraps it
# here by name; the solver isolates roots through `cubic_columns`
from .cubic import roots_in_interval  # noqa: F401
from .curvature import DiagonalMetric
from .groups import as_group
from .verify import residual

__all__ = [
    "DiagonalTensor", "Solution", "Family", "CubicSolveTrace", "SolveOutcome",
    "solve", "solve_many", "solve_columns", "reconstruct_from_p",
    "classify_signature",
]

# a component of T counts as zero, and two as equal, within ZERO_TOL * |T|_inf
ZERO_TOL = 1e-11
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


def reconstruct_from_p(group, T, p: float) -> tuple[DiagonalMetric, float]:
    """Metric and constant from a verified cubic root p (SO3 and SL2 only):
    the kernel's reconstruction and polish on one lane.

    q is the real (sign-preserving) cube root of p(p+T1)(p+T2)(p+-T3); the
    x_i = q/(p +- T_i) rebuild the metric, and a short metric-space Newton
    polish removes the sensitivity of that map near its poles.  Raises
    ValueError if any v_i fails to come out positive, which signals an
    inadmissible p upstream.  bench/spans.py wraps this name.
    """
    group = as_group(group)
    T = _tensor(T)
    if group.name not in _T3_SIGN:
        raise ValueError(f"no cubic correspondence for group {group.name}")
    v, c, _, errors = _reconstruct_many(
        group, tuple(np.array([t]) for t in T), np.array([float(p)]))
    if errors:
        raise errors[0]
    return DiagonalMetric(v[0]), float(c[0])


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
    [1e-300, 1e300]).  A row the reduction cubic decides is answered by
    the cubic kernel on one lane; the others straight from the case table.
    """
    group = as_group(group)
    k, raw = _plan(group, T)
    if type(raw) is _CubicCase:
        return next(_answers(group, [T]))
    return _outcome(k, *raw)


def solve_many(group, Ts):
    """Yield `solve(group, T)` for each T of the iterable Ts, in order.

    Takes CHUNK tensors at a time and plans each as `solve` does; the
    chunk's cubic rows go through the cubic kernel together, each lane
    with the bits it gets alone.  Errors are raised as `solve` raises them,
    at their place in the sequence.
    """
    group = as_group(group)
    Ts = iter(Ts)
    while chunk := list(itertools.islice(Ts, CHUNK)):
        yield from _answers(group, chunk)


def _plan_chunk(group, Ts) -> tuple[list, Columns]:
    """Per tensor of the list Ts, its plan (k, raw) or the exception to
    raise at its place (`_plan`'s, or the ValueError of its cubic lane),
    and the kernel's `Columns` for the plans whose raw is a `_CubicCase`."""
    plans = []
    for T in Ts:
        try:
            plans.append(_plan(group, T))
        except Exception as exc:
            plans.append(exc)
    cols = cubic_columns(group, {
        i: plan[1] for i, plan in enumerate(plans)
        if type(plan) is tuple and type(plan[1]) is _CubicCase})
    for i, error in cols.error.items():
        plans[i] = error
    return plans, cols


def _answers(group, Ts):
    """Yield the outcome of each T of the list Ts, raising its error at its
    place."""
    plans, cols = _plan_chunk(group, Ts)
    n = cols.n.tolist()
    sols = _slots(cols.v, cols.c)
    traces = _slots(cols.p, cols.q, cols.mult)
    for i, plan in enumerate(plans):
        if isinstance(plan, Exception):
            raise plan
        k, raw = plan
        if type(raw) is _CubicCase:
            j = cols.row[i]
            yield _outcome(k, *_cubic_kind(raw.label, n[j]),
                           sols[j][:n[j]], traces[j][:n[j]])
        else:
            yield _outcome(k, *raw)


def _slots(*cols) -> list:
    """Per row of the columns, the tuple of its two root slots, each the
    tuple of the columns' values there (zipped in C, not per row)."""
    return list(zip(*[zip(*[col[:, s].tolist() for col in cols])
                      for s in (0, 1)]))


def solve_columns(group, Ts):
    """Kinds, case labels and c values (ascending) of `solve(group, T)` for
    each T of the list Ts, as three lists, solved as one chunk of
    `solve_many`; a cubic lane's answer is read off the kernel's columns,
    with no outcome built.  Raises what `solve` raises for the first T at
    which it raises."""
    group = as_group(group)
    plans, cols = _plan_chunk(group, Ts)
    c, n = cols.c.tolist(), cols.n.tolist()
    kinds, labels, cs = [], [], []
    for i, plan in enumerate(plans):
        if isinstance(plan, Exception):
            raise plan
        k, raw = plan
        if type(raw) is _CubicCase:
            j = cols.row[i]
            kind, label = _cubic_kind(raw.label, n[j])
            c_T = [_c_back(x, k) for x in c[j][:n[j]]]
        else:
            out = _outcome(k, *raw)
            kind, label, c_T = out.kind, out.case_label, out.c_values()
        kinds.append(kind)
        labels.append(label)
        cs.append(c_T)
    return kinds, labels, cs


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
        c = _c_back(c, k)
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


def _c_back(c: float, k: int) -> float:
    """c * 8^-k, exact, the constant for T from the one for T / 8^k; raises
    ValueError where c leaves the float range (only for |T|_inf outside
    [1e-300, 1e300])."""
    c = float(c) / math.ldexp(1.0, 3 * k)
    if not 0.0 < c < math.inf:
        raise ValueError(f"c = {c} is outside the float range "
                         f"(|T|_inf ~ 8^{k})")
    return c


class _CubicCase(NamedTuple):
    """A case row decided by the roots of the reduction cubic of T in the
    open interval (lo, hi), which lies on one side of 0: the first `take`
    roots are reconstructed (root isolation reports at most two, so 2 takes
    them all).  An interval of one point, lo == hi, pins the one root there
    (the SL2 T1 = T2 row).  For SO3, T is sorted descending and `order`
    maps its positions to the caller's axes."""

    T: tuple
    lo: float
    hi: float
    label: str
    take: int = 2
    order: tuple = (0, 1, 2)


def _cubic_kind(label: str, n: int) -> tuple[str, str]:
    """Kind and label of a `_CubicCase` row with n reconstructed roots."""
    if not n:
        return _NONE
    if label == "SO3 (+,-,-)":
        label += " unique subcase" if n == 1 else " two-solution subcase"
    return "Unique" if n == 1 else "TwoSolutions", label


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
        v = [1.0, 1.0, 1.0]
        v[order[0]] = 2.0  # on the caller's axis of the positive component
        v = _normalized(v, c)
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
        return _CubicCase(T, -T1, T3, "SL2 case (i)", take=1)
    if s == (-1, 1, -1) and T2 + T3 > ztol:
        return _CubicCase(T, -T2, T3, "SL2 case (ii)", take=1)

    if s == (-1, -1, 1):
        if abs(T1 - T2) <= ztol and abs(T1 + T3) <= ztol:
            c = 8.0 / T3
            return ("FamilyFixedC", "SL2 case (v)",
                    ((_normalized((1.0, 1.0, 2.0), c), c),), (), "v3=v1+v2")
        hi_gap = T3 - max(-T1, -T2)
        lo_gap = min(-T1, -T2) - T3
        if abs(T1 - T2) <= ztol and max(hi_gap, lo_gap) > ztol:
            # T1 = T2: the cubic is (p + T1)(2p^2 - T3 p + T1 T3), and its
            # root -T1, a pole of the correspondence on the interval's end,
            # is no solution; the quadratic's positive root is the one
            p = (T3 + math.sqrt(T3 * T3 - 8.0 * T1 * T3)) / 4.0
            return _CubicCase(T, p, p, "SL2 case (iii)" if hi_gap > ztol
                              else "SL2 case (iv)", take=1)
        if hi_gap > ztol:
            return _CubicCase(T, max(-T1, -T2), T3, "SL2 case (iii)", take=1)
        if lo_gap > ztol:
            return _CubicCase(T, T3, min(-T1, -T2), "SL2 case (iv)", take=1)
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
        # with the guard, c = -2(v1 -+ v2)^2 / (v1 v2 T3) > 0 and v3 has the
        # sign of (v1 - 1)/T1 > 0 in both sign orders
        c = (2.0 * x[0] * x[1] / (v1 * v2)) / T3
        v3 = 2.0 * x[1] * x[2] / (v2 * c * T1)
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
