"""`solve` against exact solution counts near every SO3 case guard and on
generic SL2 tensors, at scales 1e-300..1e300.

The reference (`exact_count`) counts the admissible roots of the reduction
cubic in rational arithmetic, with no case table and no tolerance, so it
checks the solver's case rows rather than restating them.  Two designed
tolerance bands give honest disagreements and are exempt:
- a component within ZERO_TOL * |T|_inf of 0 is snapped to 0;
- a double root within ROOT_TOL (relative) of the critical point is
  reported as one double root, where the exact count may be 0 or 2.
The SL2 guard families (cases (i)-(iv) near their interval ends, near-ties
T1 ~ T2) are not drawn: there `solve` still raises or miscounts.
"""
import numpy as np
import pytest

from prescribed_ricci import solve, solve_many
from prescribed_ricci.cubic import ROOT_TOL
from prescribed_ricci.solver import ZERO_TOL

from exact_count import reduction, solution_count

N = 300


def margins(gen):
    """Signed relative margins, log-uniform in 1e-13..1e-3."""
    return gen.choice([-1.0, 1.0], N) * 10.0 ** gen.uniform(-13.0, -3.0, N)


def families(gen):
    """(group, name, unit tensors) for each drawn family."""
    def u(lo, hi):
        return gen.uniform(lo, hi, N)

    one, m = np.ones(N), margins(gen)
    return [
        ("SO3", "(+,+,+) near a zero component", (u(.2, 1), u(.2, 1), m)),
        ("SO3", "(+,-,-) near a zero component", (one, -u(.05, 1), m)),
        ("SO3", "(+,-,-) near the double root (8, -1, -1)",
         (8.0 * (1.0 + margins(gen)), -one, -one)),
        ("SO3", "(+,-,-) with T2 = T3", (u(.5, 20), -one, -one)),
        ("SO3", "generic", tuple(gen.normal(size=(3, N)))),
        ("SL2", "generic", tuple(gen.normal(size=(3, N)))),
    ]


def exempt(group, T) -> bool:
    m = max(map(abs, T))
    return (any(abs(t) <= ZERO_TOL * m for t in T)
            # 2x: the solver decides the band in floats, on T / 8^k
            or reduction(group, T).double_root_ratio() <= 2 * ROOT_TOL)


def test_solution_counts_are_exact_outside_the_tolerance_bands():
    gen = np.random.default_rng(2026)
    for group, name, unit in families(gen):
        unit = np.stack(unit, axis=1)
        if group == "SO3":  # the solver sorts SO3 tensors itself
            unit = np.array([t[gen.permutation(3)] for t in unit])
        # |T|_inf = scale, log-uniform in 1e-300..1e300
        Ts = [tuple((t / np.abs(t).max() * 10.0 ** s).tolist())
              for t, s in zip(unit, gen.uniform(-300.0, 300.0, N))]
        try:
            outs = list(solve_many(group, Ts))
        except ValueError:
            for T in Ts:
                try:
                    solve(group, T)
                except ValueError as exc:
                    pytest.fail(f"{group} {name}: {T} raises {exc}")
        counted = 0
        for T, out in zip(Ts, outs):
            if exempt(group, T):
                continue
            counted += 1
            assert len(out.solutions) == solution_count(group, T), (
                f"{group} {name}: {T} gives {out.kind}")
        assert counted >= N // 2, (group, name, counted)
