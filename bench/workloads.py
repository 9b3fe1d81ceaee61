"""Seeded input generators for the three benchmark workloads.

Everything here depends only on numpy and the seed; the library under test
never sees the seed, only the generated inputs.  Shapes are drawn at unit
scale from each group's solvable case rows and then multiplied by a
log-uniform scale, so the homogeneity of the problem (c -> c/s) is exercised
without leaving the range where the library is known to behave (see
README.md, "Why scales stop at 1e+-6").
"""
from __future__ import annotations

import json

import numpy as np

WORKLOADS = {
    "sweep-so3": "100x100 SO3 region map through the CLI; solver and cubic "
                 "dominate, certification is never called",
    "batch-mixed": "solve-and-certify jobs file over all six groups through "
                   "the CLI; certification and serialization dominate",
    "probe-frames": "frame-change uniqueness probes on solvable shapes; "
                    "bracket checks, frame sampling and the Koszul oracle "
                    "on non-diagonal Gram matrices dominate",
}

GROUP_NAMES = ("so3", "sl2", "e2", "e11", "h3", "r3")

SWEEP_STEPS = 100
BATCH_JOBS = 5000
PROBE_ITEMS = 360
PROBE_SAMPLES = 16
BATCH_SCALE_DECADES = 6
PROBE_SCALE_DECADES = 3


def _rng(seed: int, stream: str) -> np.random.Generator:
    """Independent stream per (seed, purpose), stable across numpy versions."""
    return np.random.default_rng([int(seed), sum(map(ord, stream))])


def _u(gen, lo, hi) -> float:
    return float(gen.uniform(lo, hi))


# ---------------------------------------------------------------------------
# Solvable case rows at unit scale.  Each entry draws one T in that row; the
# row name is the library's case label, so the mix can be reported against
# what the library returns.
# ---------------------------------------------------------------------------

def _so3_positive(g):
    return tuple(float(t) for t in g.uniform(0.2, 5.0, size=3))


def _so3_one_positive(g):
    return (_u(g, 0.5, 5.0), 0.0, 0.0)


def _so3_band(g):
    # (t, -a, -b) with t >= 10 max(a, b): inside the two-solution band,
    # whose lower edge is near t = 8 max(a, b)
    return (_u(g, 12.0, 30.0), -_u(g, 0.8, 1.2), -_u(g, 0.8, 1.2))


def _sl2_i(g):
    t3 = -_u(g, 0.1, 2.0)
    return (-t3 + _u(g, 0.1, 3.0), -_u(g, 0.1, 4.0), t3)


def _sl2_ii(g):
    t3 = -_u(g, 0.1, 2.0)
    return (-_u(g, 0.1, 4.0), -t3 + _u(g, 0.1, 3.0), t3)


def _sl2_iii(g):
    t1, t2 = -_u(g, 0.1, 2.0), -_u(g, 0.1, 2.0)
    return (t1, t2, max(-t1, -t2) + _u(g, 0.1, 2.0))


def _sl2_iv(g):
    t1, t2 = -_u(g, 1.0, 4.0), -_u(g, 1.0, 4.0)
    return (t1, t2, min(-t1, -t2) * _u(g, 0.1, 0.9))


def _sl2_v(g):
    t = _u(g, 0.2, 4.0)
    return (-t, -t, t)


def _sl2_vi(g):
    return (-_u(g, 0.2, 4.0), 0.0, 0.0)


def _sl2_vii(g):
    return (0.0, -_u(g, 0.2, 4.0), 0.0)


def _zero(g):
    return (0.0, 0.0, 0.0)


def _e11_zero_zero_neg(g):
    return (0.0, 0.0, -_u(g, 0.2, 4.0))


def _l3zero_pos_neg(g):
    pos = _u(g, 0.5, 4.0)
    return (pos, -_u(g, 0.1, 0.9) * pos, -_u(g, 0.2, 4.0))


def _l3zero_neg_pos(g):
    pos = _u(g, 0.5, 4.0)
    return (-_u(g, 0.1, 0.9) * pos, pos, -_u(g, 0.2, 4.0))


def _h3(g):
    return (_u(g, 0.2, 4.0), -_u(g, 0.2, 4.0), -_u(g, 0.2, 4.0))


CASE_ROWS = {
    "so3": {"SO3 (+,+,+)": _so3_positive,
            "SO3 (+,0,0)": _so3_one_positive,
            "SO3 (+,-,-) two-solution subcase": _so3_band},
    "sl2": {"SL2 case (i)": _sl2_i, "SL2 case (ii)": _sl2_ii,
            "SL2 case (iii)": _sl2_iii, "SL2 case (iv)": _sl2_iv,
            "SL2 case (v)": _sl2_v, "SL2 case (vi)": _sl2_vi,
            "SL2 case (vii)": _sl2_vii},
    "e2": {"E2 (0,0,0)": _zero, "E2 (+,-,-)": _l3zero_pos_neg,
           "E2 (-,+,-)": _l3zero_neg_pos},
    "e11": {"E11 (0,0,-)": _e11_zero_zero_neg, "E11 (+,-,-)": _l3zero_pos_neg,
            "E11 (-,+,-)": _l3zero_neg_pos},
    "h3": {"H3 (+,-,-)": _h3},
    "r3": {"R3 (0,0,0)": _zero},
}


def solvable_shape(group: str, k: int, g: np.random.Generator):
    """(row label, unit-scale T) for the group's k-th shape.  Rows are taken
    in turn, not drawn, so every seed gets the same case mix and only the
    values within each row change."""
    rows = CASE_ROWS[group]
    label = list(rows)[k % len(rows)]
    T = rows[label](g)
    if group == "so3":
        # SO3 frames may be permuted freely; solve re-sorts internally
        T = tuple(T[i] for i in g.permutation(3))
    return label, T


def _log_scale(g, decades: int) -> float:
    return float(10.0 ** g.uniform(-decades, decades))


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------

def sweep_argv(seed: int, steps: int = SWEEP_STEPS) -> list[str]:
    """CLI arguments of the SO3 region map.  The seed moves T1 within
    [9.95, 10.05], which keeps about three quarters of the grid in the
    two-solution band."""
    t1 = 10.0 + _u(_rng(seed, "sweep"), -0.05, 0.05)
    return ["sweep", "so3", "--T1", format(t1, ".17g"),
            "--T2-range=-2..0", "--T3-range=-2..0", "--steps", str(steps)]


def sweep_points(argv: list[str]) -> list[tuple[float, float, float]]:
    """The grid the CLI walks for `argv`, in emission order (half-open axes,
    lo + k*(hi-lo)/steps, exactly as the CLI computes them)."""
    t1 = float(argv[argv.index("--T1") + 1])
    steps = int(argv[argv.index("--steps") + 1])
    axis = [-2.0 + k * (0.0 - -2.0) / steps for k in range(steps)]
    return [(t1, t2, t3) for t2 in axis for t3 in axis]


def batch_jobs(seed: int, n: int = BATCH_JOBS) -> list[dict]:
    """Round-robin over the six groups; of each group's jobs every fourth is
    a Gaussian shape and the rest take its solvable rows in turn; every T
    scaled log-uniform in 1e+-6; every fifth job is `classify`, the rest
    `solve`."""
    g = _rng(seed, "batch")
    jobs = []
    solvable = dict.fromkeys(GROUP_NAMES, 0)
    for i in range(n):
        group = GROUP_NAMES[i % len(GROUP_NAMES)]
        if (i // len(GROUP_NAMES)) % 4 == 3:
            row, T = "gaussian", tuple(float(t) for t in g.normal(size=3))
        else:
            row, T = solvable_shape(group, solvable[group], g)
            solvable[group] += 1
        s = _log_scale(g, BATCH_SCALE_DECADES)
        command = "classify" if i % 5 == 4 else "solve"
        jobs.append({"command": command, "group": group,
                     "T": [t * s for t in T], "row": row})
    return jobs


def write_jobs(jobs: list[dict], path) -> None:
    """The jobs file handed to `batch`; the generator's row tag stays out."""
    with open(path, "w", encoding="utf-8") as fh:
        for job in jobs:
            fh.write(json.dumps({k: job[k] for k in ("command", "group", "T")})
                     + "\n")


def _rotation(g) -> np.ndarray:
    q, r = np.linalg.qr(g.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def probe_items(seed: int, n: int = PROBE_ITEMS) -> list[dict]:
    """Solvable shapes round-robin over the six groups, scaled log-uniform
    in 1e+-3.  SO3 items carry a full symmetric matrix R diag(T) R^T, which
    the workload diagonalizes before probing; the others carry T."""
    g = _rng(seed, "probe")
    items = []
    for i in range(n):
        group = GROUP_NAMES[i % len(GROUP_NAMES)]
        row, T = solvable_shape(group, i // len(GROUP_NAMES), g)
        s = _log_scale(g, PROBE_SCALE_DECADES)
        T = [t * s for t in T]
        item = {"group": group, "row": row, "rng": int(g.integers(2**31))}
        if group == "so3":
            R = _rotation(g)
            item["T_full"] = (R @ np.diag(T) @ R.T).tolist()
        else:
            item["T"] = T
        items.append(item)
    return items


def subsample(seed: int, population: int, k: int) -> list[int]:
    """Sorted seeded sample of k indices out of range(population)."""
    g = _rng(seed, "subsample")
    k = min(k, population)
    return sorted(int(i) for i in g.choice(population, size=k, replace=False))
