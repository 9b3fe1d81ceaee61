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

Every existence condition is a sign pattern.  The case table `_TABLES`
writes each group's rows as data: a label, the three-way signs (0 within
ZERO_TOL * |T|_inf) that the row needs of seven linear forms of
T' = T / 8^k (sorted descending on SO3),

    T1  T2  T3  T1+T2  T1+T3  T2+T3  T1-T2

and an answer: a closed form, or the reduction cubic on an interval whose
ends are linear in T' (or the max or min of two such ends).  No sign vector
matches two rows of a group, so the order of the rows decides nothing.

`solve_many` answers a sequence of tensors, CHUNK at a time: the matcher
(`_match`) finds each lane's row on arrays and answers nothing, the cubic
kernel (`arrays.cubic_columns`) answers the cubic lanes together, each with
the bits it gets alone, and a closed-form lane is answered where its
outcome is made (`_closed`).  `solve` is the same on one lane.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from .arrays import _T3_SIGN, Columns, _reconstruct_many, cubic_columns
# roots_in_interval is imported only for bench/spans.py, which wraps it
# here by name; the solver isolates roots through `cubic_columns`
from .cubic import roots_in_interval  # noqa: F401
from .curvature import (DiagonalMetric, DiagonalTensor, ricci_diagonal,
                        tensor_components)
from .groups import GROUPS, as_group

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


def reconstruct_from_p(group, T, p: float) -> tuple[DiagonalMetric, float]:
    """Metric and constant from a verified cubic root p (SO3 and SL2 only):
    the kernel's reconstruction and polish (`arrays._reconstruct_many`) on
    one lane.  Raises ValueError if any v_i fails to come out positive,
    which signals an inadmissible p upstream.  bench/spans.py wraps this
    name.
    """
    group = as_group(group)
    T = tensor_components(T)
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


_Match = namedtuple("_Match", "k row errors T order signs")


def _match(group, Ts) -> _Match:
    """Match the list Ts against the case table on arrays of lanes, each
    lane with the float operations of its own, and answer nothing: each
    lane's k and `row` (-1: none, or it raises the exception in `errors`),
    T' = T / 8^k with |T'|_inf in [1, 8) (SO3: descending), the axis of T
    at each position of T' (`order`) and the forms' `signs`."""
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
                A[i] = tensor_components(T)
            except Exception as exc:
                errors[i] = exc
    m = abs(A).max(axis=1)
    # m = f * 2^e with f in [0.5, 1), so m / 8^k is in [1, 8); T = 0 keeps k = 0
    k = (np.frexp(m)[1] - (m > 0.0)) // 3
    e = -3 * k
    T, ztol = np.ldexp(A, e[:, None]), ZERO_TOL * np.ldexp(m, e)
    table = _TABLES[group.name]
    order = np.zeros(T.shape, int) + np.arange(3)
    if group.name == "SO3":
        # signed permutations of an SO3 frame preserve the brackets, so its
        # rows read T sorted descending, stably: equal components keep
        # their order
        order = np.argsort(-T, axis=1, kind="stable")
        T = T[np.arange(len(T))[:, None], order]
    T1, T2, T3 = T.T
    # a row per form, lanes along it: numpy runs along lanes many times
    # faster than across a lane's few forms
    forms = np.array((T1, T2, T3, T1 + T2, T1 + T3, T2 + T3,
                      T1 - T2)[:len(table.patterns)])
    # each form's sign, 0 where it is within ztol
    signs = np.sign(forms) * (abs(forms) > ztol)
    # at most one row matches a sign vector, so the sum is its index + 1
    hit = ((signs[:, None] == table.patterns) | table.free).all(axis=0)
    row = (hit * np.arange(1, len(table.rows) + 1)[:, None]).sum(axis=0) - 1
    if errors:
        row[list(errors)] = -1
    return _Match(k, row, errors, T, order, signs)


def _cubic_lanes(group, match) -> tuple:
    """The cubic lanes of a match and `cubic_columns`'s arguments for them:
    T', the interval (lo, hi) on one side of 0 that holds a lane's roots
    (lo == hi pins one: SL2 T1 = T2), the roots to take and `order`."""
    table = _TABLES[group.name]
    lanes = table.cubic[match.row].nonzero()[0]
    rows, T = match.row[lanes], match.T[lanes]
    lo = hi = np.zeros(len(lanes))
    for r in set(rows.tolist()):
        (_, _, cubic), here = table.rows[r], rows == r
        lo = np.where(here, _ENDS[cubic.lo](T), lo)
        hi = np.where(here, _ENDS[cubic.hi](T), hi)
        if cubic.pin:
            # T1 = T2: the cubic is (p + T1)(2p^2 - T3 p + T1 T3), and its
            # root -T1, a pole of the correspondence on the interval's end,
            # is no solution; the quadratic's positive root is the one
            pin = here & (match.signs[6, lanes] == 0)
            t1, t3 = T[pin, 0], T[pin, 2]
            lo[pin] = hi[pin] = (t3 + np.sqrt(t3 * t3 - 8.0 * t1 * t3)) / 4.0
    return lanes, T, lo, hi, table.take[rows], match.order[lanes]


def _plan_chunk(group, Ts) -> tuple[_Match, np.ndarray, Columns]:
    """The match of the list Ts, its cubic lanes and their `Columns`, in
    order; the ValueError of a cubic lane joins the match's errors."""
    match = _match(group, Ts)
    lanes, *cubic = _cubic_lanes(group, match)
    cols = cubic_columns(group, *cubic)
    match.errors.update({int(lanes[j]): e for j, e in cols.error.items()})
    return match, lanes, cols


def _closed(group, match) -> dict:
    """Each closed-form lane of a match and its row's answer on it, run when
    called; T' and order become Python numbers once for all the lanes."""
    table = _TABLES[group.name]
    at = table.closed[match.row].nonzero()[0]
    lanes = zip(at.tolist(), match.row[at].tolist(), match.T[at].tolist(),
                match.order[at].tolist())
    return {i: partial(table.rows[r][2], table.rows[r][0], tuple(t),
                       tuple(o)) for i, r, t, o in lanes}


def _answers(group, Ts):
    """Yield the outcome of each T of the list Ts, raising its error at its
    place; a closed-form lane is answered when it is reached."""
    match, lanes, cols = _plan_chunk(group, Ts)
    rows = _TABLES[group.name].rows
    cubic = dict(zip(lanes.tolist(), zip(
        match.row[lanes].tolist(), cols.n.tolist(),
        _slots(cols.v, cols.c), _slots(cols.p, cols.q, cols.mult))))
    closed = _closed(group, match)
    for i, k in enumerate(match.k.tolist()):
        if i in match.errors:
            raise match.errors[i]
        if i in cubic:
            row, n, sols, traces = cubic[i]
            yield _outcome(k, *_cubic_kind(rows[row][0], n), sols[:n],
                           traces[:n])
        else:
            yield _outcome(k, *closed[i]()) if i in closed else _NO_SOLUTION


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
    table = _TABLES[group.name]
    match, lanes, cols = _plan_chunk(group, Ts)
    n, c = np.zeros(len(Ts), int), np.full((len(Ts), 2), np.nan)
    n[lanes], c[lanes] = cols.n, cols.c
    k = match.k.tolist()
    with np.errstate(over="ignore"):
        back = c / np.ldexp(1.0, 3 * match.k)[:, None]  # as `_c_back`
    # a lane whose c leaves the float range: `_c_back` names it
    for i in np.flatnonzero(((np.arange(2) < n[:, None]) & ~(
            (back > 0.0) & (back < np.inf))).any(axis=1)).tolist():
        try:
            [_c_back(x, k[i]) for x in c[i, :n[i]].tolist()]
        except ValueError as exc:
            match.errors.setdefault(i, exc)
    # a closed-form lane reads NoSolution here (n = 0) and is set below
    kinds = table.kinds[3 * match.row + 3 + n].tolist()
    labels = table.labels[3 * match.row + 3 + n].tolist()
    cs = [lane[:j] for lane, j in zip(back.tolist(), n.tolist())]
    for i, answer in _closed(group, match).items():
        try:
            out = _outcome(k[i], *answer())
        except ValueError as exc:
            match.errors[i] = exc
            continue
        kinds[i], labels[i], cs[i] = out.kind, out.case_label, out.c_values()
    if match.errors:
        raise match.errors[min(match.errors)]
    return kinds, labels, cs


# A closed-form row's answer is a function of its label, one lane's T' as
# three floats (SO3: descending) and `order`, giving the raw outcome (kind,
# label, solutions, traces, constraint, notes): solutions are (v, c) pairs (a
# family's one pair is its sample, with c = 1 when c is free), traces are
# (p, q, multiplicity) and notes are `_sl2_note` arguments.
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


def _cubic_kind(label: str, n: int) -> tuple[str, str]:
    """Kind and label of a cubic row with n reconstructed roots."""
    if not n:
        return "NoSolution", "none"
    if label == "SO3 (+,-,-)":
        label += " unique subcase" if n == 1 else " two-solution subcase"
    return "Unique" if n == 1 else "TwoSolutions", label


def _family(i: int, num: float, v, constraint, label, T, order=None):
    """A FamilyFixedC row: c = num / T_i, and its sample is v normalized."""
    c = num / T[i]
    return ("FamilyFixedC", label, ((_normalized(v, c), c),), (), constraint)


def _any_c(constraint, label, T, order):
    """A FamilyAnyC row: every metric on the constraint, and c is free."""
    return ("FamilyAnyC", label, (((1.0, 1.0, 1.0), 1.0),), (), constraint)


def _so3_axis_family(label, T, order):
    """SO3 (+,0,0): c = 8/T1, and the constraint names the axes in the
    caller's order, the positive component's on the left."""
    (a, j, k), v = order, [1.0, 1.0, 1.0]
    v[a] = 2.0
    j, k = sorted((j, k))
    return _family(0, 8.0, v, f"v{a + 1}=v{j + 1}+v{k + 1}", label, T)


def _sl2_zero_family(i, v, constraint, label, T, order):
    """SL2 (vi)/(vii): T_i < 0 for i in {0, 1}, other components zero.

    The curvature equations force one x to vanish; the surviving equation
    reads -8 = c*T_i, so c = -8/T_i.  The sign convention matters: the other
    orientation, c = -T_i/8, is checked live against the residual and flagged
    (both residuals are taken on the normalized T, where neither overflows).
    """
    raw = _family(i, -8.0, v, constraint, label, T)
    ((sample, c),), alt = raw[2], -T[i] / 8.0
    ric, size = ricci_diagonal("SL2", sample).tolist(), max(map(abs, T))
    return raw + (((i, alt, *[
        max(abs(r - x * t) for r, t in zip(ric, T)) / (1.0 + abs(x) * size)
        for x in (c, alt)]),),)


def _sl2_note(p_up: float, c: float, i: int, alt: float, res_c: float,
              res_alt: float) -> str:
    """The (vi)/(vii) note in the caller's units: alt ~ T_i scales as p."""
    return (f"family constant computed from the curvature equations: "
            f"c = -8/T{i + 1} = {c:.12g} (sample residual {res_c:.3g}); "
            f"the alternative reading -T{i + 1}/8 = {alt * p_up:.12g} is "
            f"inconsistent (sample residual {res_alt:.3g})")


def _l3zero(lambdas, label, T, order):
    """E2 and E11 (+,-,-) and (-,+,-): the third bracket coefficient is zero,
    so the system collapses.  The ratio of the first two equations pins
    v1/v2 = -T1/T2; the third (independent of v3) pins c; the first
    recovers v3."""
    T1, T2, T3 = T
    v1, v2 = -T1 / T2, 1.0
    l1, l2, _ = lambdas
    # x-coefficients of the metric (v1, v2, .); none of them involve v3
    x = ((l2 * v2 - l1 * v1) / 2.0, (l1 * v1 - l2 * v2) / 2.0,
         (l1 * v1 + l2 * v2) / 2.0)
    # with T1 + T2 > 0, c = -2(v1 -+ v2)^2 / (v1 v2 T3) > 0 and v3 has the
    # sign of (v1 - 1)/T1 > 0 in both sign orders
    c = (2.0 * x[0] * x[1] / (v1 * v2)) / T3
    v3 = 2.0 * x[1] * x[2] / (v2 * c * T1)
    return ("Unique", label, ((_normalized((v1, v2, v3), c), c),))


def _h3(label, T, order):
    """H3 (+,-,-): the one metric and c in closed form."""
    T1, T2, T3 = T
    c = 2.0 * T1 / (T2 * T3)
    return ("Unique", label,
            ((_normalized((1.0, -T2 / T1, -T3 / T1), c), c),))


# ---------------------------------------------------------------------------
# The case table
# ---------------------------------------------------------------------------

# A cubic row's answer: the roots of the reduction cubic in the open interval
# between the ends named lo and hi (see `_ENDS`), of which the first `take`
# are reconstructed (root isolation reports at most two, so 2 takes them
# all); with `pin`, both ends are the one root where T1 - T2 is 0
_Cubic = namedtuple("_Cubic", "lo hi take pin", defaults=(False,))

# a group's rows (label, signs, answer); their sign `patterns` by form, row
# and a lane axis, and `free` where any sign matches; whether each row is a
# cubic or a closed-form row (False at row -1, no match) and its `take`;
# `_cubic_kind` at 3 * (row + 1) + n, NoSolution at 0
_Table = namedtuple("_Table",
                    "rows patterns free cubic closed take kinds labels")

_SIGNS = {"-": -1, "0": 0, "+": 1, ".": 2}


def _table(*rows) -> _Table:
    """A group's table from its rows (label, signs, answer): signs holds
    '+', '-', '0' or '.' (any sign) for the forms in order, and the forms
    past its end take any sign; the answer is a `_Cubic` or a closed form,
    a function of the label, one lane's T' as three floats and `order`."""
    width = max(len(signs) for _, signs, _ in rows)
    patterns = np.array([[_SIGNS[c] for c in signs.ljust(width, ".")]
                         for _, signs, _ in rows]).T[:, :, None]
    cubic = [isinstance(answer, _Cubic) for *_, answer in rows]
    kinds, labels = (np.array(col, dtype=object) for col in zip(*[
        _cubic_kind(label, n)
        for label in ("",) + tuple(r[0] for r in rows) for n in range(3)]))
    return _Table(
        rows, patterns, patterns == 2, np.array(cubic + [False]),
        np.array([not c for c in cubic] + [False]),
        np.array([r[2].take if c else 0 for r, c in zip(rows, cubic)]),
        kinds, labels)


# the interval ends that cubic rows name, on T of shape (N, 3)
_ENDS = {"0": lambda T: 0.0, "inf": lambda T: np.inf,
         "-T1": lambda T: -T[:, 0], "-T2": lambda T: -T[:, 1],
         "T3": lambda T: T[:, 2],
         "max(-T1,-T2)": lambda T: np.maximum(-T[:, 0], -T[:, 1]),
         "min(-T1,-T2)": lambda T: np.minimum(-T[:, 0], -T[:, 1])}


_E2, _E11 = (partial(_l3zero, GROUPS[name].lambdas) for name in ("E2", "E11"))

#   signs of the forms  T1 T2 T3 T1+T2 T1+T3 T2+T3 T1-T2
_TABLES = {
    "SO3": _table(
        ("SO3 (+,+,+)", "+++", _Cubic("0", "inf", 2)),
        ("SO3 (+,-,-)", "+--", _Cubic("-T1", "0", 2)),
        ("SO3 (+,0,0)", "+00", _so3_axis_family)),
    "SL2": _table(
        ("SL2 case (vi)", "-00",
         partial(_sl2_zero_family, 0, (1.0, 2.0, 1.0), "v2=v1+v3")),
        ("SL2 case (vii)", "0-0",
         partial(_sl2_zero_family, 1, (2.0, 1.0, 1.0), "v1=v2+v3")),
        ("SL2 case (v)", "--+.0.0",
         partial(_family, 2, 8.0, (1.0, 1.0, 2.0), "v3=v1+v2")),
        ("SL2 case (i)", "+--.+", _Cubic("-T1", "T3", 1)),
        ("SL2 case (ii)", "-+-..+", _Cubic("-T2", "T3", 1)),
        ("SL2 case (iii)", "--+.++", _Cubic("max(-T1,-T2)", "T3", 1, True)),
        ("SL2 case (iv)", "--+.--", _Cubic("T3", "min(-T1,-T2)", 1, True))),
    "E2": _table(
        ("E2 (0,0,0)", "000", partial(_any_c, "v1=v2")),
        ("E2 (+,-,-)", "+--+", _E2),
        ("E2 (-,+,-)", "-+-+", _E2)),
    "E11": _table(
        ("E11 (0,0,-)", "00-", partial(_family, 2, -8.0, (1.0, 1.0, 1.0),
                                       "v1=v2")),
        ("E11 (+,-,-)", "+--+", _E11),
        ("E11 (-,+,-)", "-+-+", _E11)),
    "H3": _table(("H3 (+,-,-)", "+--", _h3)),
    "R3": _table(("R3 (0,0,0)", "000", partial(_any_c, None))),
}


# ---------------------------------------------------------------------------
# Signature classification
# ---------------------------------------------------------------------------

def classify_signature(group, T) -> str:
    """Name the existence-condition row matched by (group, T), or "none".

    This is `solve`'s case label, so the two never disagree; it raises
    whatever `solve` raises.
    """
    return solve(group, T).case_label
