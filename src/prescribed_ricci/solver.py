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

A chunk of tensors has one columnar answer (`_columns`): the matcher
(`_match`) finds each lane's row on arrays and answers nothing, the cubic
kernel (`arrays.cubic_columns`) answers the cubic lanes together, each with
the bits it gets alone, each closed-form lane runs its row's answer once,
and every number is mapped back to the caller's units on arrays.
`solve_many` builds outcomes from it, CHUNK tensors at a time, and `solve`
is the same on one lane; `solve_columns`, `classify_signature`, `probe`
and every CLI command read it without building any.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from .arrays import _T3_SIGN, _reconstruct_many, cubic_columns
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
    v, c, _, errors = _reconstruct_many(group, np.array([T]),
                                        np.array([float(p)]))
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
    component counts as zero within ZERO_TOL * |T|_inf, and `_columns` maps
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


# a chunk's answers in the caller's units, a row per lane: the lists of
# kinds and case labels; `shape`, 3 * (row + 1) + n (0 where no row
# matches); n, the count of the lane's (v, c) slots (a family's one slot
# is its sample, whose c is 8^-k when c is free); per slot (nan-padded; 0
# in mult) c, v (caller's axis order) and the root's p, q and mult (a
# closed form's slot has none); by lane, each closed-form lane's family
# `constraint` (None if it has none) and the `_sl2_note` arguments of each
# lane that has a note; and `errors`, what each lane that raises raises
_Answers = namedtuple("_Answers", "kinds labels shape n c v p q mult "
                                  "constraint notes errors")


def _columns(group, Ts) -> _Answers:
    """The `_Answers` of the list Ts.  The case table is matched on arrays
    of lanes, the cubic lanes go through the cubic kernel together, and each
    closed-form lane runs its row's answer once, in Python floats.  Every
    answer, found for T / 8^k, is mapped back to T on arrays, each number
    exactly: v * 2^k, c * 8^-k, p * 8^k and q * 16^k.  A lane with a slot
    whose c leaves the float range (only for |T|_inf outside
    [1e-300, 1e300]) or whose v is not positive and finite raises the
    ValueError that `_outcomes` would raise building its records."""
    table = _TABLES[group.name]
    match = _match(group, Ts)
    n, c, v, p, q, mult, errors = cubic_columns(
        group, len(match.k), *_cubic_lanes(group, match))
    errors.update(match.errors)
    at = table.closed[match.row].nonzero()[0]
    n[at] = 1
    shape = 3 * match.row + 3 + n
    kinds, labels = table.kinds[shape].tolist(), table.labels[shape].tolist()
    constraint, notes, vs, cs = {}, {}, [], []
    for i, r, t, o in zip(at.tolist(), match.row[at].tolist(),
                          match.T[at].tolist(), match.order[at].tolist()):
        kinds[i], sv, sc, constraint[i], *note = table.rows[r][2](tuple(t),
                                                                 tuple(o))
        vs.append(sv)
        cs.append(sc)
        if note:
            notes[i] = (int(match.k[i]), *note[0])
    if vs:
        v[at, 0], c[at, 0] = vs, cs
    # back to T; 16^k as two factors: from |T|_inf ~ 8^256 ~ 1.6e231 on,
    # 16^k is no float and q * 16^k is inf
    k = match.k[:, None]
    p_up, q_up = np.ldexp(1.0, 3 * k), np.ldexp(1.0, 2 * k)
    with np.errstate(over="ignore"):
        v *= np.ldexp(1.0, k)[:, :, None]
        c /= p_up
        p *= p_up
        q *= q_up
        q *= q_up
    # per slot (written out: numpy reduces a 2- or 3-long axis slowly)
    pos = (v > 0.0) & (v < np.inf)
    good = ((c > 0.0) & (c < np.inf) & pos[:, :, 0] & pos[:, :, 1]
            & pos[:, :, 2])
    for i in np.flatnonzero(((n > 0) & ~good[:, 0])
                            | ((n > 1) & ~good[:, 1])).tolist():
        try:
            _check_slots(int(match.k[i]), c[i, :n[i]].tolist(),
                         v[i, :n[i]].tolist())
        except ValueError as exc:
            errors.setdefault(i, exc)
    return _Answers(kinds, labels, shape, n, c, v, p, q, mult, constraint,
                    notes, errors)


def _check_slots(k: int, cs, vs) -> None:
    """Raise ValueError for a lane's first (v, c) slot, in the caller's
    units, whose c leaves the float range or whose v is not positive and
    finite; c is checked first."""
    for c, v in zip(cs, vs):
        if not 0.0 < c < math.inf:
            raise ValueError(f"c = {c} is outside the float range "
                             f"(|T|_inf ~ 8^{k})")
        DiagonalMetric(v)


def _answers(group, Ts):
    """Yield the outcome of each T of the list Ts, raising its error at its
    place."""
    answers = _columns(group, Ts)
    first = min(answers.errors, default=len(answers.kinds))
    yield from _outcomes(answers, np.arange(first))
    if answers.errors:
        raise answers.errors[first]


def solve_columns(group, Ts):
    """Kinds, case labels and c values (ascending) of `solve(group, T)` for
    each T of the list Ts, as three lists, read off the chunk's `_columns`
    with no outcome built.  Raises what `solve` raises for the first T at
    which it raises."""
    answers = _columns(as_group(group), Ts)
    if answers.errors:
        raise answers.errors[min(answers.errors)]
    return _constants(answers)


def _constants(answers: _Answers):
    """`solve_columns`' three lists read off `answers`, none of whose lanes
    may raise."""
    count = answers.n.copy()
    for i in answers.constraint:
        if answers.kinds[i] == "FamilyAnyC":
            count[i] = 0  # the sample's c is no constant of the answer
    return answers.kinds, answers.labels, [
        lane[:j] for lane, j in zip(answers.c.tolist(), count.tolist())]


_NO_SOLUTION = SolveOutcome(kind="NoSolution", case_label="none")


def _outcomes(answers: _Answers, lanes: np.ndarray) -> list:
    """The public records of the lanes `lanes` (an index array) of
    `answers`, none of which may raise, each read as Python numbers."""
    outs = []
    for i, n, vs, cs, ps, qs, ms in zip(
            lanes.tolist(), *[col[lanes].tolist() for col in (
                answers.n, answers.v, answers.c, answers.p, answers.q,
                answers.mult)]):
        if not n:
            outs.append(_NO_SOLUTION)  # records are frozen: one serves all
            continue
        kind, label = answers.kinds[i], answers.labels[i]
        solutions = tuple([Solution(DiagonalMetric(v), c)
                           for v, c in zip(vs[:n], cs[:n])])
        if kind.startswith("Family"):
            note = answers.notes.get(i)
            outs.append(SolveOutcome(
                kind=kind, case_label=label,
                family=Family(answers.constraint[i],
                              cs[0] if kind == "FamilyFixedC" else None,
                              solutions[0]),
                notes=() if note is None else (_sl2_note(cs[0], *note),)))
        else:
            outs.append(SolveOutcome(
                kind=kind, case_label=label, solutions=solutions,
                traces=tuple([CubicSolveTrace(*t) for t in zip(ps, qs, ms)
                              if t[2]])))
    return outs


def _cubic_kind(label: str, n: int) -> tuple[str, str]:
    """Kind and label of a cubic row with n reconstructed roots."""
    if not n:
        return "NoSolution", "none"
    if label == "SO3 (+,-,-)":
        label += " unique subcase" if n == 1 else " two-solution subcase"
    return "Unique" if n == 1 else "TwoSolutions", label


# A closed-form row's answer is a function of one lane's T' as three floats
# (SO3: descending) and `order`, giving (kind, v, c, constraint) and, for a
# lane with a note, the note's arguments: (v, c) is the one solution (a
# family's sample, with c = 1 when c is free) in the caller's axes.

def _family(i: int, num: float, v, constraint, T, order=None):
    """A FamilyFixedC row: c = num / T_i, and its sample is v normalized."""
    c = num / T[i]
    return "FamilyFixedC", _normalized(v, c), c, constraint


def _any_c(constraint, T, order):
    """A FamilyAnyC row: every metric on the constraint, and c is free."""
    return "FamilyAnyC", (1.0, 1.0, 1.0), 1.0, constraint


def _so3_axis_family(T, order):
    """SO3 (+,0,0): c = 8/T1, and the constraint names the axes in the
    caller's order, the positive component's on the left."""
    (a, j, k), v = order, [1.0, 1.0, 1.0]
    v[a] = 2.0
    j, k = sorted((j, k))
    return _family(0, 8.0, v, f"v{a + 1}=v{j + 1}+v{k + 1}", T)


def _sl2_zero_family(i, v, constraint, T, order):
    """SL2 (vi)/(vii): T_i < 0 for i in {0, 1}, other components zero.

    The curvature equations force one x to vanish; the surviving equation
    reads -8 = c*T_i, so c = -8/T_i.  The sign convention matters: the other
    orientation, c = -T_i/8, is checked against the residual in the note
    (`_sl2_note`), which gets the sample, c and T here.
    """
    raw = _family(i, -8.0, v, constraint, T)
    return raw + ((i, -T[i] / 8.0, raw[1], raw[2], T),)


def _sl2_note(c_back: float, k: int, i: int, alt: float, sample, c: float,
              T) -> str:
    """The (vi)/(vii) note in the caller's units (c_back is c there, and
    alt ~ T_i scales as 8^k); both residuals are taken on the normalized
    sample, c and T, where neither overflows."""
    ric, size = ricci_diagonal("SL2", sample).tolist(), max(map(abs, T))
    res_c, res_alt = [
        max(abs(r - x * t) for r, t in zip(ric, T)) / (1.0 + abs(x) * size)
        for x in (c, alt)]
    return (f"family constant computed from the curvature equations: "
            f"c = -8/T{i + 1} = {c_back:.12g} (sample residual {res_c:.3g}); "
            f"the alternative reading -T{i + 1}/8 = "
            f"{alt * math.ldexp(1.0, 3 * k):.12g} is inconsistent (sample "
            f"residual {res_alt:.3g})")


def _l3zero(lambdas, T, order):
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
    return "Unique", _normalized((v1, v2, v3), c), c, None


def _h3(T, order):
    """H3 (+,-,-): the one metric and c in closed form."""
    T1, T2, T3 = T
    c = 2.0 * T1 / (T2 * T3)
    return "Unique", _normalized((1.0, -T2 / T1, -T3 / T1), c), c, None


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
    past its end take any sign; the answer is a `_Cubic` or a closed form
    (see `_family`)."""
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

    This is `solve`'s case label, read off the same `_columns`, so the two
    never disagree; it raises whatever `solve` raises.
    """
    answers = _columns(as_group(group), [T])
    if answers.errors:
        raise answers.errors[0]
    return answers.labels[0]
