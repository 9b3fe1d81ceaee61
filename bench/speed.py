"""Machine-speed references used to normalize timings.

On a shared VM the same work can take anywhere from 1x to 2x as long,
depending on what neighbouring machines do, and the slow episodes last
seconds.  A fixed kernel, timed right before and after each measured pass,
slows down with the pass.  Timings are reported scaled to the speed at
which this kernel takes NOMINAL_S.  The kernel mimics the library's cost
profile (scalar float Python, small frozen dataclasses, numpy calls on
3-element arrays, a 3x3 solve, float formatting) and never imports the
library, so a change to the library cannot move it.

Set-up time, which is interpreter start-up and imports rather than
compute, is scaled by a reference of its own kind instead: a fresh
interpreter that imports numpy and nothing else (STARTUP_CODE), launched
right after each measured start and scaled to the speed at which it takes
STARTUP_NOMINAL_S.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

NOMINAL_S = 0.1
STARTUP_CODE = "import numpy"
STARTUP_NOMINAL_S = 0.2


@dataclass(frozen=True)
class _Point:
    v: tuple


def kernel(n: int = 5000) -> float:
    acc = 0.0
    A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    for i in range(n):
        # scalar Newton on a cubic, as in root isolation
        a, b, c = 2.0, -1.0 - i * 1e-6, 0.5
        x = 1.0
        for _ in range(6):
            f = ((a * x + b) * x + c) * x - 1.0
            d = (3.0 * a * x + 2.0 * b) * x + c
            x = x - f / d if d else x + 0.1
        # numpy on 3-element arrays and a 3x3 solve, as in the metric polish
        q = float(np.cbrt(x * (x + a) * (x - b)))
        u = np.linalg.solve(A, np.array((a, b + q, x)))
        p = _Point(tuple(float(t) for t in u))
        acc += max(abs(t) for t in p.v)
        # float formatting, as in record serialization
        acc += len(",".join(format(t, ".17g") for t in p.v))
    return acc


def ref_seconds() -> float:
    """Wall time of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(ref_s: float) -> float:
    """Multiply a wall time measured next to a kernel run that took ref_s
    by this to get the time at nominal machine speed."""
    return NOMINAL_S / ref_s


def startup_factor(ref_s: float) -> float:
    """Multiply the wall time of an interpreter start measured next to a
    STARTUP_CODE launch that took ref_s by this to get it at nominal
    machine speed."""
    return STARTUP_NOMINAL_S / ref_s
