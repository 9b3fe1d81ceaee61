import numpy as np
import pytest

from prescribed_ricci import E2, E11, GROUPS, H3, R3, SL2, SO3

ALL_GROUPS = (SO3, SL2, E2, E11, H3, R3)

# tensors that are not three finite numbers, by name: every entry point
# that takes a tensor raises ValueError for each
INVALID_TENSORS = {
    "string": "123", "none": [1.0, None, 2.0], "nested": [[1.0], 2.0, 3.0],
    "number": 7.0, "column": np.ones((3, 1)), "short": (1.0, 2.0),
    "huge-int": [10 ** 400, 1.0, 1.0], "nan": (1.0, float("nan"), 0.0),
    "inf": (1.0, float("inf"), 0.0)}


def singular_steps(monkeypatch, marked):
    """Make `np.linalg.solve` raise LinAlgError ("Singular matrix") for any
    stack holding a matrix A with marked(A) true, as LAPACK does for a
    singular one; marked maps (..., 3, 3) to (...) booleans."""
    solve = np.linalg.solve

    def singular(A, b):
        if np.any(marked(A)):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", singular)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_solvable(group, gen):
    """A random tensor in one of the group's solvable classes."""
    name = group.name
    if name == "SO3":
        kind = gen.integers(0, 3)
        if kind == 0:
            return tuple(gen.uniform(0.2, 5.0, size=3))
        if kind == 1:
            return (float(gen.uniform(0.5, 5.0)), 0.0, 0.0)
        # mixed signature inside the solvable band: scale of (10,-1,-1)
        t = float(gen.uniform(8.5, 30.0))
        return (t, -1.0, -1.0)
    if name == "SL2":
        kind = gen.integers(0, 6)
        if kind == 0:  # (+,-,-) with T1 + T3 > 0
            t3 = float(gen.uniform(-2.0, -0.1))
            t1 = float(-t3 + gen.uniform(0.1, 3.0))
            return (t1, float(gen.uniform(-4.0, -0.1)), t3)
        if kind == 1:  # (-,+,-) with T2 + T3 > 0
            t3 = float(gen.uniform(-2.0, -0.1))
            t2 = float(-t3 + gen.uniform(0.1, 3.0))
            return (float(gen.uniform(-4.0, -0.1)), t2, t3)
        if kind == 2:  # (-,-,+) with max(-T1,-T2) < T3
            t1, t2 = gen.uniform(-2.0, -0.1, size=2)
            t3 = float(max(-t1, -t2) + gen.uniform(0.1, 2.0))
            return (float(t1), float(t2), t3)
        if kind == 3:  # (-,-,+) with min(-T1,-T2) > T3
            t1, t2 = gen.uniform(-4.0, -1.0, size=2)
            t3 = float(min(-t1, -t2) - gen.uniform(0.1, 0.9))
            return (float(t1), float(t2), max(t3, 0.05))
        if kind == 4:  # family T1 = T2 = -T3
            t = float(gen.uniform(0.2, 4.0))
            return (-t, -t, t)
        sv = float(gen.uniform(-4.0, -0.2))
        return (sv, 0.0, 0.0) if gen.random() < 0.5 else (0.0, sv, 0.0)
    if name in ("E2", "E11"):
        if name == "E2" and gen.random() < 0.25:
            return (0.0, 0.0, 0.0)
        if name == "E11" and gen.random() < 0.25:
            return (0.0, 0.0, float(gen.uniform(-4.0, -0.2)))
        pos = float(gen.uniform(0.5, 4.0))
        neg = float(-gen.uniform(0.1, 0.9) * pos)
        t3 = float(gen.uniform(-4.0, -0.2))
        return (pos, neg, t3) if gen.random() < 0.5 else (neg, pos, t3)
    if name == "H3":
        return (float(gen.uniform(0.2, 4.0)), float(gen.uniform(-4.0, -0.2)),
                float(gen.uniform(-4.0, -0.2)))
    return (0.0, 0.0, 0.0)
