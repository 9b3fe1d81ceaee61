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
    # a malformed T, and a T the scalar kernel rejects (its cubic root sits
    # on the case interval's end), raise where solve raises them
    assert_same(SO3, [(10.0, -1.0, -1.0), (1.0, float("nan"), 0.0),
                      (1.0, 1.0, 1.0)])
    assert_same(SO3, [(1.0, 1.0, 1.0), "123"])
    assert_same(SL2, [(-1.0, -2.0, 3.0), (-0.1, -0.1, 0.3), (3.0, -1.0, -1.0)])


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


@settings(max_examples=60, deadline=None)
@given(g=st.sampled_from(ALL_GROUPS),
       Ts=st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
                             st.floats(-10.0, 10.0),
                             st.floats(-300.0, 300.0)),
                   min_size=1, max_size=40))
def test_equals_solve_at_every_scale(g, Ts):
    assert_same(g, [(a * 10.0 ** x, b * 10.0 ** x, c * 10.0 ** x)
                    for a, b, c, x in Ts])


def test_root_isolation_matches_scalar():
    # random cubics, cubics with an exact double root 2(p-a)^2(p-b) (a = b
    # every third lane: a triple root), on random and on unbounded intervals
    gen = np.random.default_rng(7)
    n = 3000
    a, b = gen.uniform(-2, 2, n), gen.uniform(-2, 2, n)
    b[::3] = a[::3]
    lo = gen.uniform(-3, 0, n)
    families = [
        (gen.standard_normal((n, 4)), lo, lo + gen.uniform(0, 6, n)),
        (np.stack([2.0 * np.ones(n), -2 * (2 * a + b), 2 * (a * a + 2 * a * b),
                   -2 * a * a * b], axis=1),
         np.full(n, -np.inf), np.full(n, np.inf)),
    ]
    for coeffs, lo, hi in families:
        roots, mults, ok = arrays.roots_in_interval_many(tuple(coeffs.T), lo,
                                                         hi)
        assert ok.all()
        for i in range(n):
            rep = roots_in_interval(CubicPoly(tuple(coeffs[i])), lo[i], hi[i])
            k = len(rep)
            assert tuple(roots[i, :k].tolist()) == rep.roots
            assert tuple(mults[i].tolist()) == (rep.multiplicities
                                                + (0,) * (5 - k))


def test_solve_alone_never_loads_the_array_kernel():
    code = ("import sys; from prescribed_ricci import solve; "
            "solve('so3', (10, -1, -1)); "
            "print('prescribed_ricci.arrays' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout.strip() == "False"
