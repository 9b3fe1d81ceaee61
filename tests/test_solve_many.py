"""`solve_many` is `solve` over a sequence: the same outcomes, compared with
`==`, so every float bit for bit, and the same exceptions at the same place.
Both run one cubic kernel, `solve` on one lane, so these tests check that a
lane's answer never depends on its chunk-mates."""
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prescribed_ricci import (E2, E11, H3, R3, SL2, SO3, reconstruct_from_p,
                              solve, solve_many)
from prescribed_ricci import arrays, cubic, solver

from conftest import ALL_GROUPS, singular_steps
from exact_count import Cubic


def _raised(exc):
    return (type(exc), str(exc))


def one_lane(group, Ts):
    """solve on each T, one lane at a time, up to and including the first
    exception."""
    out = []
    for T in Ts:
        try:
            out.append(solve(group, T))
        except Exception as exc:
            out.append(_raised(exc))
            break
    return out


def batched(group, Ts):
    out = []
    try:
        for outcome in solve_many(group, Ts):
            out.append(outcome)
    except Exception as exc:
        out.append(_raised(exc))
    return out


def assert_same(group, Ts):
    Ts = list(Ts)
    expected = one_lane(group, Ts)
    got = batched(group, iter(Ts))
    assert got == expected
    # == on floats hides the sign of zero; repr does not
    assert [repr(o) for o in got] == [repr(o) for o in expected]


def sweep_grid(t1, steps):
    """The points of `sweep so3 --T1 t1 --T2-range=-2..0 --T3-range=-2..0`."""
    axis = [-2.0 + k * (0.0 - -2.0) / steps for k in range(steps)]
    return [(t1, t2, t3) for t2 in axis for t3 in axis]


def test_full_sweep_grid():
    # the benchmark's 100x100 SO3 region map at its seed 1
    assert_same(SO3, sweep_grid(10.012468379325805, 100))


# values on both sides of every sign decision: zero and the zero tolerance
# 1e-11 * |T|_inf
EDGES = (-8.0, -2.0, -1.0, -0.5, -1e-11, -1e-12, 0.0, 1e-12, 1e-11, 0.5, 1.0,
         2.0, 8.0, 10.0)


@pytest.mark.parametrize("group", [SO3, SL2])
def test_case_boundaries(group):
    assert_same(group, itertools.product(EDGES, repeat=3))


def test_so3_double_root():
    # (8, -1, -1) puts an exact double root of the reduction cubic at p = -2:
    # the boundary of the SO3 two-solution band
    (trace,) = solve(SO3, (8.0, -1.0, -1.0)).traces
    assert (trace.p, trace.multiplicity) == (-2.0, 2)
    t1 = np.linspace(7.9, 8.1, 41).tolist() + [8.0]
    t3 = np.linspace(-1.1, -0.9, 21).tolist() + [-1.0]
    Ts = [(a, -1.0, b) for a in t1 for b in t3]
    Ts += [tuple(np.roll((8.0, -1.0, -1.0), i) * s)
           for i in range(3) for s in (1e-300, 1e-3, 1.0, 8.0 ** 5, 1e300)]
    assert_same(SO3, Ts)


def test_sl2_iii_iv_boundary():
    # SL2 (-,-,+): case (iii) above T3 = max(-T1, -T2), case (iv) below
    # min(-T1, -T2), nothing in between
    Ts = []
    for t1, t2 in itertools.product((-1.0, -0.5, -2.0), repeat=2):
        for edge in (max(-t1, -t2), min(-t1, -t2)):
            for d in (-1e-3, -1e-10, -1e-11, -1e-12, 0.0, 1e-12, 1e-11, 1e-10,
                      1e-3):
                Ts.append((t1, t2, edge + d))
    assert_same(SL2, Ts)


@pytest.mark.parametrize("group", [E2, E11, H3, R3])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_other_groups_fall_back(group, scale):
    assert_same(group, [tuple(t * scale for t in T)
                        for T in itertools.product(EDGES, repeat=3)])


def test_errors_at_their_place():
    # a malformed T, and a T whose c leaves the float range, raise where
    # solve raises them
    assert_same(SO3, [(10.0, -1.0, -1.0), (1.0, float("nan"), 0.0),
                      (1.0, 1.0, 1.0)])
    assert_same(SO3, [(1.0, 1.0, 1.0), "123"])
    assert_same(SL2, [(-1.0, -2.0, 3.0), (-1e-310, -2e-310, 3e-310),
                      (3.0, -1.0, -1.0)])


def test_sl2_ties():
    # T1 = T2: the cubic's root at the pole -T1 is no solution, in either
    # kernel
    Ts = [(-t, -t, r * t) for t in (0.1, 1.0, 3.0, 1e-200, 1e200)
          for r in (0.3, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 3.0)]
    assert_same(SL2, Ts)
    assert all(o.kind != "NoSolution" for o in solve_many(SL2, Ts))


def test_chunks_and_fallbacks(monkeypatch):
    # chunk edges fall between and inside cubic lanes, closed-form lanes
    # and family rows
    monkeypatch.setattr(solver, "CHUNK", 3)
    Ts = [(10.0, -1.0, -1.0), (0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 2.0, 3.0),
          (8.0, -1.0, -1.0), (-1.0, -1.0, -1.0), (10.0, -1.6, -0.8)]
    assert_same(SO3, Ts)
    assert list(solve_many(SO3, [])) == []


def test_singular_polish_falls_back_per_lane(monkeypatch):
    # a singular step stops only its own lane, at its best iterate
    Ts = sweep_grid(10.0, 8)
    polished = list(solve_many(SO3, Ts))
    monkeypatch.setattr(arrays, "POLISH_STEPS", 0)
    unpolished = list(solve_many(SO3, Ts))
    monkeypatch.undo()
    assert polished != unpolished
    # every first step singular: each lane keeps its unpolished metric
    singular_steps(monkeypatch, lambda A: np.ones(A.shape[:-2], bool))
    assert list(solve_many(SO3, Ts)) == unpolished
    # some steps singular: a lane stops or not whatever its chunk-mates,
    # and the other lanes are polished as before (each lane here converges
    # in one step, so a stopped lane keeps its unpolished metric)
    monkeypatch.undo()
    singular_steps(monkeypatch, lambda A: A[..., 0, 0] * 1e6 % 2 < 1)
    assert_same(SO3, Ts)
    outs = list(solve_many(SO3, Ts))
    stopped = [a != b for a, b in zip(outs, polished)]
    assert 0 < sum(stopped) < len(Ts)
    assert all(a in (b, c) for a, b, c in zip(outs, polished, unpolished))


# SL2 near-ties just past the zero tolerance whose one root is inadmissible,
# with their root, the metric that shows it and so the exact ValueError text
INADMISSIBLE = [
    ("SL2", (-1.0, -0.99999999998, 1.000001), 1.0000003333266667,
     (-0.3149613991729722, -0.3149991964338367, 1.2599211904993453)),
    ("SL2", (-1.0, -0.9999999999, 1.00000001), 1.0000000033,
     (-0.30569342020281765, -0.32450100629246226, 1.2601081844837352)),
    ("SL2", (-1.0, -0.99999999998, 0.9999999999), 0.99999999996,
     (-0.6057068642693038, -0.15142671606732594, 1.3628404446059337)),
]


@pytest.mark.parametrize("group, T, p, metric", INADMISSIBLE)
def test_inadmissible_root_messages(group, T, p, metric):
    message = f"root p={p} is inadmissible: metric {metric} not positive"
    for answer in (lambda: solve(group, T),
                   lambda: list(solve_many(group, [(1.0, 1.0, 1.0), T]))):
        with pytest.raises(ValueError) as err:
            answer()
        assert str(err.value) == message


def test_inadmissible_reconstruction_message():
    with pytest.raises(ValueError) as err:
        reconstruct_from_p(SO3, (10.0, -1.0, -1.0), 0.5)
    assert str(err.value) == (
        "root p=0.5 is inadmissible: metric (-2.1897595699439445, "
        "-1.0427426523542593, -1.0427426523542593) not positive")


# small integers draw the ties and zeros that uniform floats miss
COMPONENTS = st.floats(-10.0, 10.0) | st.integers(-3, 3)


@settings(max_examples=60, deadline=None)
@given(g=st.sampled_from(ALL_GROUPS),
       Ts=st.lists(st.tuples(COMPONENTS, COMPONENTS, COMPONENTS,
                             st.floats(-300.0, 300.0)),
                   min_size=1, max_size=40))
def test_equals_solve_at_every_scale(g, Ts):
    assert_same(g, [(a * 10.0 ** x, b * 10.0 ** x, c * 10.0 ** x)
                    for a, b, c, x in Ts])


def test_root_isolation_matches_scalar():
    # reduction cubics 2p^3 + b p^2 + d: random b and d of either sign over
    # 1e-3..1e3, the double-root family 2(p-a)^2(p+a/2) = 2p^3 - 3a p^2 +
    # a^3 and its neighbours at relative distances 1e-14..1e-4, 2p^3 (its
    # triple root 0 an interval end), small-integer b, d and interval ends,
    # and planted simple roots; each interval on one side of 0, as the
    # solver's are.  Against rational arithmetic (`exact_count.Cubic`): the
    # root count is exact outside the ROOT_TOL band of double roots, and
    # each root is within 1e-10 max(1, |p|) of an exact one; planted roots
    # are found to 1e-10.
    gen = np.random.default_rng(7)
    n = 3000

    def magnitudes():
        return gen.choice([-1.0, 1.0], n) * 10.0 ** gen.uniform(-3, 3, n)

    def one_side(lo, hi):
        """(lo, hi) with each interval that holds 0 inside cut at 0, keeping
        a random side."""
        cut = (lo < 0.0) & (0.0 < hi)
        left = gen.random(n) < 0.5
        return (np.where(cut & ~left, 0.0, lo), np.where(cut & left, 0.0, hi))

    def half_line(side):
        return (np.where(side > 0, 0.0, -np.inf), np.where(side > 0, np.inf, 0.0))

    a = gen.uniform(-2, 2, n)
    ends = np.sort(np.stack([magnitudes(), magnitudes()]), axis=0)
    lo = gen.uniform(-3, 0, n)
    negative = (np.full(n, -np.inf), np.zeros(n))
    positive = (np.zeros(n), np.full(n, np.inf))
    small_lo = gen.integers(-3, 3, n).astype(float)
    near = gen.choice([-1.0, 1.0], n) * 10.0 ** gen.uniform(-14, -4, n)
    # 2(p - r1)(p - r2)(p - r3), r3 = -r1 r2 / (r1 + r2), roots 0.1 apart
    r1 = gen.uniform(0.2, 10.0, n)
    r2 = r1 + gen.uniform(0.1, 10.0, n)
    r3 = -r1 * r2 / (r1 + r2)
    sides = gen.choice([-1.0, 1.0], n)
    families = [
        ((magnitudes(), magnitudes()), negative, None),
        ((magnitudes(), magnitudes()), positive, None),
        ((magnitudes(), magnitudes()), one_side(*ends), None),
        ((-3.0 * a, a ** 3), negative, None),
        ((-3.0 * a, a ** 3), positive, None),
        ((-3.0 * a, a ** 3), one_side(lo, lo + gen.uniform(0, 6, n)), None),
        ((-3.0 * a, a ** 3 * (1.0 + near)), half_line(a), None),
        ((np.zeros(n), np.zeros(n)), one_side(lo, lo + gen.uniform(0, 6, n)),
         None),
        (tuple(gen.integers(-3, 4, (2, n)).astype(float)),
         one_side(small_lo, small_lo + gen.integers(1, 4, n)), None),
        ((-2.0 * sides * (r1 + r2 + r3), -2.0 * sides ** 3 * r1 * r2 * r3),
         half_line(sides), np.sort(np.stack([r1, r2]) * sides, axis=0).T),
    ]
    for (b, d), (lo, hi), planted in families:
        roots, mults = cubic.roots_in_interval_many((2.0, b, 0.0, d), lo, hi)
        assert mults.shape == (n, 2)
        for i in range(n):
            exact = Cubic(b[i], d[i])
            found = roots[i, mults[i] > 0].tolist()
            if 2 in mults[i]:
                assert exact.double_root_ratio() <= 2 * cubic.ROOT_TOL
                assert found == [-2.0 * b[i] / 6.0]
                continue
            pieces = exact.roots(lo[i], hi[i])
            assert len(found) == len(pieces), (b[i], d[i], lo[i], hi[i])
            for r, piece in zip(found, pieces):
                tol = Fraction(max(1.0, abs(r))) / 10 ** 10
                assert exact.above(piece, Fraction(r) - tol) >= 0
                assert exact.above(piece, Fraction(r) + tol) <= 0
        if planted is not None:
            assert np.allclose(roots, planted, rtol=1e-10, atol=0.0)
