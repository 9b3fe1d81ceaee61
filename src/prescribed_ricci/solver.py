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

`solve_many` answers a sequence of tensors, CHUNK at a time: the case table
and the cubic kernel (`arrays.cubic_columns`) run on arrays of a chunk's
lanes, each lane with the bits it gets alone, and `solve` on one lane.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

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
    [1e-300, 1e300]).  `solve` is `solve_many` on one lane: the case table
    and the cubic kernel run on arrays of one tensor.
    """
    return next(_answers(as_group(group), [T]))


def solve_many(group, Ts):
    """Yield `solve(group, T)` for each T of the iterable Ts, in order.

    Takes CHUNK tensors at a time and plans them together; the chunk's
    cubic rows go through the cubic kernel together, each lane with the
    bits it gets alone.  Errors are raised as `solve` raises them, at their
    place in the sequence.
    """
    group = as_group(group)
    Ts = iter(Ts)
    while chunk := list(itertools.islice(Ts, CHUNK)):
        yield from _answers(group, chunk)


# a chunk's case rows on T' = T / 8^k, |T'|_inf in [1, 8): each lane's k; by
# lane, the raw outcome of each closed-form lane and the exception of each
# lane that raises; for the cubic `lanes`, in order, the row (an index of
# `_CUBIC_ROWS`), T' (SO3: descending), the interval (lo, hi) on one side of 0
# holding the roots (lo == hi pins one: the SL2 T1 = T2 row) and `order`.
_Plan = namedtuple("_Plan", "k closed errors lanes row T lo hi order")


def _plan_rows(group, Ts) -> _Plan:
    """The case table on the list Ts: scaling, sign patterns and the SO3 and
    SL2 rows run on arrays, each lane with the float operations of its own."""
    errors = {}
    try:
        A = np.array(Ts, dtype=float)
        valid = A.shape == (len(Ts), 3) and np.isfinite(A).all()
    except Exception:  # raised again below, at its tensor's place
        valid = False
    if not valid:
        A = np.zeros((len(Ts), 3))
        for i, T in enumerate(Ts):
            try:
                A[i] = _tensor(T)
            except Exception as exc:
                errors[i] = exc
    m = abs(A).max(axis=1)
    # m = f * 2^e with f in [0.5, 1), so m / 8^k is in [1, 8); T = 0 keeps k = 0
    k = (np.frexp(m)[1] - (m > 0.0)) // 3
    e = -3 * k
    T, ztol = np.ldexp(A, e[:, None]), ZERO_TOL * np.ldexp(m, e)
    s = np.where(abs(T) <= ztol[:, None], 0, np.where(T > 0.0, 1, -1))
    closed, row, *case = _ROWS[group.name](group, T, s, ztol)
    row[list(errors)] = -1
    closed = {i: raw for i, raw in closed.items() if i not in errors}
    lanes = (row >= 0).nonzero()[0]
    return _Plan(k, closed, errors, lanes, *[a[lanes] for a in (row, *case)])


def _plan_chunk(group, Ts) -> tuple[_Plan, Columns]:
    """The plan of the list Ts and the cubic kernel's `Columns` for its
    cubic lanes, a row each in the order of `lanes`; the ValueError of a
    cubic lane joins the plan's errors."""
    plan = _plan_rows(group, Ts)
    cols = cubic_columns(group, plan.T, plan.lo, plan.hi, _TAKE[plan.row],
                         plan.order)
    plan.errors.update({int(plan.lanes[j]): e for j, e in cols.error.items()})
    return plan, cols


def _answers(group, Ts):
    """Yield the outcome of each T of the list Ts, raising its error at its
    place."""
    plan, cols = _plan_chunk(group, Ts)
    cubic = dict(zip(plan.lanes.tolist(), zip(
        plan.row.tolist(), cols.n.tolist(), _slots(cols.v, cols.c),
        _slots(cols.p, cols.q, cols.mult))))
    for i, k in enumerate(plan.k.tolist()):
        if i in plan.errors:
            raise plan.errors[i]
        if i in cubic:
            row, n, sols, traces = cubic[i]
            yield _outcome(k, *_cubic_kind(_CUBIC_ROWS[row], n), sols[:n],
                           traces[:n])
        else:
            yield _outcome(k, *plan.closed.get(i, _NONE))


def _slots(*cols) -> list:
    """Per row of the columns, the tuple of its two root slots, each the
    tuple of the columns' values there (zipped in C, not per row)."""
    return list(zip(*[zip(*[col[:, s].tolist() for col in cols])
                      for s in (0, 1)]))


def solve_columns(group, Ts):
    """Kinds, case labels and c values (ascending) of `solve(group, T)` for
    each T of the list Ts, as three lists, solved as one chunk of
    `solve_many`; a cubic lane's answer is read off the kernel's columns,
    mapped back to T on arrays, with no outcome built.  Raises what `solve`
    raises for the first T at which it raises."""
    group = as_group(group)
    plan, cols = _plan_chunk(group, Ts)
    size = len(plan.k)
    row, n, c = np.full(size, -1), np.zeros(size, int), np.full((size, 2),
                                                                np.nan)
    row[plan.lanes], n[plan.lanes], c[plan.lanes] = plan.row, cols.n, cols.c
    k = plan.k.tolist()
    with np.errstate(over="ignore"):
        back = c / np.ldexp(1.0, 3 * plan.k)[:, None]  # as `_c_back`
    # a lane whose c leaves the float range: `_c_back` names it
    for i in np.flatnonzero(((np.arange(2) < n[:, None]) & ~(
            (back > 0.0) & (back < np.inf))).any(axis=1)).tolist():
        try:
            [_c_back(x, k[i]) for x in c[i, :n[i]].tolist()]
        except ValueError as exc:
            plan.errors.setdefault(i, exc)
    kinds = _CUBIC_KINDS[3 * row + 3 + n].tolist()
    labels = _CUBIC_LABELS[3 * row + 3 + n].tolist()
    cs = [lane[:j] for lane, j in zip(back.tolist(), n.tolist())]
    for i, raw in plan.closed.items():
        try:
            out = _outcome(k[i], *raw)
        except ValueError as exc:
            plan.errors[i] = exc
            continue
        kinds[i], labels[i], cs[i] = out.kind, out.case_label, out.c_values()
    if plan.errors:
        raise plan.errors[min(plan.errors)]
    return kinds, labels, cs


# The case rows below give a closed form's raw outcome (kind, label,
# solutions, traces, constraint, notes): solutions are (v, c) pairs (a
# family's one pair is its sample, with c = 1 when c is free), traces are
# (p, q, multiplicity) and notes are `_sl2_note` arguments.
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


# the rows the reduction cubic decides, and the roots each reconstructs
# (root isolation reports at most two, so 2 takes them all)
_CUBIC_ROWS = ("SO3 (+,+,+)", "SO3 (+,-,-)", "SL2 case (i)", "SL2 case (ii)",
               "SL2 case (iii)", "SL2 case (iv)")
_TAKE = np.array([2, 2, 1, 1, 1, 1])


def _cubic_kind(label: str, n: int) -> tuple[str, str]:
    """Kind and label of a cubic row with n reconstructed roots."""
    if not n:
        return _NONE
    if label == "SO3 (+,-,-)":
        label += " unique subcase" if n == 1 else " two-solution subcase"
    return "Unique" if n == 1 else "TwoSolutions", label


# `_cubic_kind` at 3 * (row + 1) + n, and NoSolution at 0
_CUBIC_KINDS, _CUBIC_LABELS = (np.array(col, dtype=object) for col in zip(*[
    _cubic_kind(label, n) for label in ("",) + _CUBIC_ROWS for n in range(3)]))


def _fixed_family(label: str, v, c: float, constraint: str):
    """The raw outcome of a FamilyFixedC row: its sample is v normalized."""
    return ("FamilyFixedC", label, ((_normalized(v, c), c),), (), constraint)


def _is(key, pattern):
    """Per lane, whether the signs s, with key 9 s1 + 3 s2 + s3, are
    `pattern`."""
    return key == 9 * pattern[0] + 3 * pattern[1] + pattern[2]


def _select(rows):
    """Per lane, the first cubic row (guard, label, lo, hi) whose guard
    holds: its index in `_CUBIC_ROWS` (or -1) and its interval ends."""
    *rows, (guard, label, lo, hi) = rows
    row = np.where(guard, _CUBIC_ROWS.index(label), -1)
    for guard, label, row_lo, row_hi in reversed(rows):
        row = np.where(guard, _CUBIC_ROWS.index(label), row)
        lo, hi = np.where(guard, row_lo, lo), np.where(guard, row_hi, hi)
    return row, lo, hi


# ---------------------------------------------------------------------------
# SO3
# ---------------------------------------------------------------------------

def _so3_rows(group, T, s, ztol):
    # descending and stable: equal components keep their order
    order = np.argsort(-T, axis=1, kind="stable")
    lane = np.arange(len(T))[:, None]
    T = T[lane, order]
    # sorting is monotone, so the signs of the sorted T are the sorted signs
    key = (s[lane, order] * (9, 3, 1)).sum(axis=1)
    closed = {}
    for i in _is(key, (1, 0, 0)).nonzero()[0].tolist():
        (a, j, k), v = order[i].tolist(), [1.0, 1.0, 1.0]
        v[a] = 2.0  # on the caller's axis of the positive component
        j, k = sorted((j, k))
        closed[i] = _fixed_family("SO3 (+,0,0)", v, 8.0 / float(T[i, 0]),
                                  f"v{a + 1}=v{j + 1}+v{k + 1}")
    row, lo, hi = _select((
        (_is(key, (1, 1, 1)), "SO3 (+,+,+)", 0.0, np.inf),
        (_is(key, (1, -1, -1)), "SO3 (+,-,-)", -T[:, 0], 0.0)))
    return closed, row, T, lo, hi, order


# ---------------------------------------------------------------------------
# SL2
# ---------------------------------------------------------------------------

def _sl2_rows(group, T, s, ztol):
    T1, T2, T3 = T.T
    key = (s * (9, 3, 1)).sum(axis=1)
    closed = {i: _sl2_zero_family(tuple(T[i].tolist()), index)
              for index, pattern in enumerate(((-1, 0, 0), (0, -1, 0)))
              for i in _is(key, pattern).nonzero()[0].tolist()}
    tie, mixed = abs(T1 - T2) <= ztol, _is(key, (-1, -1, 1))
    corner = mixed & tie & (abs(T1 + T3) <= ztol)
    for i in corner.nonzero()[0].tolist():
        closed[i] = _fixed_family("SL2 case (v)", (1.0, 1.0, 2.0),
                                  8.0 / float(T3[i]), "v3=v1+v2")
    mixed &= ~corner
    n1, n2 = -T1, -T2
    top, bottom = np.maximum(n1, n2), np.minimum(n1, n2)
    row, lo, hi = _select((
        (_is(key, (1, -1, -1)) & (T1 + T3 > ztol), "SL2 case (i)", n1, T3),
        (_is(key, (-1, 1, -1)) & (T2 + T3 > ztol), "SL2 case (ii)", n2, T3),
        (mixed & (T3 - top > ztol), "SL2 case (iii)", top, T3),
        (mixed & (bottom - T3 > ztol), "SL2 case (iv)", T3, bottom)))
    # T1 = T2: the cubic is (p + T1)(2p^2 - T3 p + T1 T3), and its root -T1,
    # a pole of the correspondence on the interval's end, is no solution;
    # the quadratic's positive root is the one, and it pins both ends
    pin = mixed & tie
    if pin.any():
        t1, t3 = T1[pin], T3[pin]
        lo[pin] = hi[pin] = (t3 + np.sqrt(t3 * t3 - 8.0 * t1 * t3)) / 4.0
    return closed, row, T, lo, hi, np.zeros(T.shape, int) + np.arange(3)


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


# ---------------------------------------------------------------------------
# E2, E11, H3 and the abelian group: no row of theirs needs the cubic, and
# each branch below takes (group, normalized T, its signs, zero tolerance)
# of one lane and returns its raw outcome.
# ---------------------------------------------------------------------------

def _solve_l3zero(group, T, s, ztol):
    # E2 and E11: third bracket coefficient zero, so the system collapses
    T1, T2, T3 = T

    if group.name == "E2" and s == (0, 0, 0):
        return ("FamilyAnyC", "E2 (0,0,0)", (((1.0, 1.0, 1.0), 1.0),), (),
                "v1=v2")

    if group.name == "E11" and s[0] == 0 and s[1] == 0 and s[2] == -1:
        return _fixed_family("E11 (0,0,-)", (1.0, 1.0, 1.0), -8.0 / T3,
                             "v1=v2")

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


def _lane_rows(group, T, s, ztol):
    """The rows of a group without a cubic row: its branch on each lane."""
    raws = (_BRANCHES[group.name](group, tuple(t), tuple(sign), tol)
            for t, sign, tol in zip(T.tolist(), s.tolist(), ztol.tolist()))
    closed = {i: raw for i, raw in enumerate(raws) if raw != _NONE}
    return (closed,) + (np.full(len(T), -1),) * 5  # and no cubic lane


_BRANCHES = {"E2": _solve_l3zero, "E11": _solve_l3zero, "H3": _solve_h3,
             "R3": _solve_r3}
_ROWS = dict.fromkeys(_BRANCHES, _lane_rows) | {"SO3": _so3_rows,
                                                "SL2": _sl2_rows}


# ---------------------------------------------------------------------------
# Signature classification
# ---------------------------------------------------------------------------

def classify_signature(group, T) -> str:
    """Name the existence-condition row matched by (group, T), or "none".

    This is `solve`'s case label, so the two never disagree; it raises
    whatever `solve` raises.
    """
    return solve(group, T).case_label
