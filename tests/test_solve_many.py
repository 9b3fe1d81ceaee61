"""`solve_many` is `solve` over a sequence: the same outcomes, compared with
`==`, so every float bit for bit, and the same exceptions at the same place."""
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prescribed_ricci import (E2, E11, H3, R3, SL2, SO3, CubicPoly,
                              roots_in_interval, solve, solve_many)
from prescribed_ricci import arrays, cli, solver

from conftest import ALL_GROUPS


def _raised(exc):
    return (type(exc), str(exc))


def scalar(group, Ts):
    """solve on each T, up to and including the first exception."""
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
    expected = scalar(group, Ts)
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
    # chunk edges fall between and inside the lanes the scalar code takes
    monkeypatch.setattr(solver, "CHUNK", 3)
    Ts = [(10.0, -1.0, -1.0), (0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 2.0, 3.0),
          (8.0, -1.0, -1.0), (-1.0, -1.0, -1.0), (10.0, -1.6, -0.8)]
    assert_same(SO3, Ts)
    assert list(solve_many(SO3, [])) == []


def test_singular_polish_falls_back_per_lane(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(arrays, "_polish_many", singular)
    assert_same(SO3, sweep_grid(10.0, 8))


def test_cubic_sweep_never_calls_the_scalar_isolation(monkeypatch, tmp_path):
    # every point of this grid is an SO3 (+,-,-) cubic lane, so the array
    # kernel solves them all; a silent fallback would lose the speedup
    calls = []
    scalar_isolation = solver.roots_in_interval

    def counting(*args):
        calls.append(args)
        return scalar_isolation(*args)

    monkeypatch.setattr(solver, "roots_in_interval", counting)
    out = tmp_path / "sweep.jsonl"
    assert cli.main(["--format", "json-lines", "--out", str(out), "sweep",
                     "so3", "--T1", "10", "--T2-range=-2..0",
                     "--T3-range=-2..0", "--steps", "40"]) == 0
    assert calls == []
    assert out.read_text().count("sweep-point") == 1600
    solve(SO3, (10.0, -1.0, -1.0))
    assert len(calls) == 1


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
    # a^3, 2p^3 (its triple root 0 an interval end), and small-integer b, d
    # and interval ends; each interval on one side of 0, as the solver's are
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

    a = gen.uniform(-2, 2, n)
    ends = np.sort(np.stack([magnitudes(), magnitudes()]), axis=0)
    lo = gen.uniform(-3, 0, n)
    negative = (np.full(n, -np.inf), np.zeros(n))
    positive = (np.zeros(n), np.full(n, np.inf))
    small_lo = gen.integers(-3, 3, n).astype(float)
    families = [
        ((magnitudes(), magnitudes()), negative),
        ((magnitudes(), magnitudes()), positive),
        ((magnitudes(), magnitudes()), one_side(*ends)),
        ((-3.0 * a, a ** 3), negative),
        ((-3.0 * a, a ** 3), positive),
        ((-3.0 * a, a ** 3), one_side(lo, lo + gen.uniform(0, 6, n))),
        ((np.zeros(n), np.zeros(n)), one_side(lo, lo + gen.uniform(0, 6, n))),
        (tuple(gen.integers(-3, 4, (2, n)).astype(float)),
         one_side(small_lo, small_lo + gen.integers(1, 4, n))),
    ]
    for (b, d), (lo, hi) in families:
        coeffs = np.stack([np.full(n, 2.0), b, np.zeros(n), d], axis=1)
        roots, mults, ok = arrays.roots_in_interval_many(tuple(coeffs.T), lo,
                                                         hi)
        assert mults.shape == (n, 2)
        assert ok.all()
        for i in range(n):
            rep = roots_in_interval(CubicPoly(tuple(coeffs[i])), lo[i], hi[i])
            found = mults[i] > 0
            assert tuple(roots[i, found].tolist()) == rep.roots
            assert tuple(mults[i, found].tolist()) == rep.multiplicities


def test_solve_alone_never_loads_the_array_kernel():
    code = ("import sys; from prescribed_ricci import solve; "
            "solve('so3', (10, -1, -1)); "
            "print('prescribed_ricci.arrays' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout.strip() == "False"
