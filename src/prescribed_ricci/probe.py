"""Empirical uniqueness probe: re-solve in transformed frames and compare.

For a solvable (group, T) the probe samples bracket-preserving basis changes
under which T stays diagonal, re-solves in each new frame, pulls the
solutions back, and aggregates how well the c values and (where uniqueness is
claimed) the metrics agree.  The sampler is the one place that checks each
change against the brackets and T's diagonality; `probe` re-solves only
changes that passed there.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import tensor_components
# check_milnor_frame and oracle_residual are the one-lane forms of the
# stacked checks used here; bench/spans.py wraps them under these names
from .groups import (as_group, check_milnor_frame, check_milnor_frame_many,
                     e2_frame_change, e11_frame_change, h3_frame_change,
                     random_rotation, sl2_frame_change)
# solve is imported only for bench/spans.py, which wraps it here by name:
# the base tensor is solved as lane 0 of the frames' solve_many call
from .solver import _match, solve, solve_many  # noqa: F401
from .verify import oracle_residual, oracle_residual_many

__all__ = ["ProbeReport", "sample_diagonal_preserving_changes", "probe"]

# every tolerance here is relative to the size of the tensor it tests
EQUAL_TOL = 1e-10
DIAG_TOL = 1e-10
# agreement required of c, the pulled-back metrics and the oracle residual
PROBE_TOL = 1e-8


@dataclass(frozen=True)
class ProbeReport:
    samples: int
    base_kind: str
    c_spread: float
    metric_match: bool
    c_unconstrained: bool
    violations: tuple = ()


def _equal_blocks(values) -> list[list[int]]:
    """Partition indices into runs of equal values (relative tolerance)."""
    scale = float(np.max(np.abs(values)))
    blocks: list[list[int]] = []
    for i, t in enumerate(values):
        if blocks and abs(t - values[blocks[-1][-1]]) <= EQUAL_TOL * scale:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return blocks


def _so3_block_change(T, rng) -> np.ndarray:
    """Random frame change with entries only inside equal-T blocks, det +1.

    With pairwise distinct components this degenerates to the four diagonal
    sign matrices of determinant +1; an equal pair admits a circle of
    rotations (and reflections, compensated by the remaining sign); an
    isotropic T admits all rotations.
    """
    order = sorted(range(3), key=lambda i: -T[i])
    Ts = [T[i] for i in order]
    blocks = _equal_blocks(Ts)
    M = np.zeros((3, 3))
    dets = []
    for block in blocks:
        axes = [order[i] for i in block]
        n = len(block)
        if n == 1:
            s = rng.choice([-1.0, 1.0])
            M[axes[0], axes[0]] = s
            dets.append(s)
        elif n == 2:
            th = rng.uniform(0.0, 2.0 * np.pi)
            reflect = rng.random() < 0.5
            c, s = np.cos(th), np.sin(th)
            B = np.array([[c, -s], [s, c]]) if not reflect else np.array([[c, s], [s, -c]])
            for a, ra in enumerate(axes):
                for b, rb in enumerate(axes):
                    M[ra, rb] = B[a, b]
            dets.append(-1.0 if reflect else 1.0)
        else:
            M[:, :] = random_rotation(rng)
            dets.append(1.0)
    if np.prod(dets) < 0:
        # flip one size-1 block sign; a lone reflecting 2-block cannot occur
        # with det -1 unless a 1-block exists to absorb it
        for block in blocks:
            if len(block) == 1:
                axis = order[block[0]]
                M[axis, axis] = -M[axis, axis]
                break
    return M


def _sl2_change(T, rng, ztol) -> np.ndarray:
    T1, T2, T3 = T
    t12_equal = abs(T1 - T2) <= ztol
    full_family = t12_equal and abs(T1 + T3) <= ztol
    if full_family:
        theta = rng.uniform(0.0, 2.0 * np.pi)
        phi = rng.normal()
        s = rng.normal()
    else:
        k = rng.integers(0, 4)
        theta = rng.uniform(0.0, 2.0 * np.pi) if t12_equal else 0.5 * np.pi * k
        # a boost of the (2,3) or (1,3) plane keeps T diagonal only when the
        # matching component sum vanishes
        boost_ok = (abs(T1 * np.sin(theta) ** 2 + T2 * np.cos(theta) ** 2 + T3)
                    <= ztol)
        phi = rng.normal() if boost_ok else 0.0
        s = 0.0
    a12_sign = int(rng.choice([-1, 1]))
    branch = int(rng.choice([-1, 1]))
    return sl2_frame_change(theta, phi, s, a12_sign, branch)


def _planar_change(name, T, rng, ztol) -> np.ndarray:
    """E2 (rotation-scaling) or E11 (hyperbolic) planar frame change; the
    whole family when T1 = T2 = 0 (and T3 = 0 on E2), else a pure scaling."""
    build, sign = ((e2_frame_change, 1.0) if name == "E2"
                   else (e11_frame_change, -1.0))
    upper = bool(rng.random() < 0.5)
    if (abs(T[0]) <= ztol and abs(T[1]) <= ztol
            and (name == "E11" or abs(T[2]) <= ztol)):
        while True:
            a11, a12 = rng.normal(size=2)
            if abs(a11 * a11 + sign * a12 * a12) > 0.01:
                break
        a13, a23 = rng.normal(size=2)
        return build(a11, a12, a13, a23, upper)
    scale = float(np.exp(rng.normal() * 0.5)) * float(rng.choice([-1.0, 1.0]))
    if rng.random() < 0.5:
        return build(scale, 0.0, 0.0, 0.0, upper)
    return build(0.0, scale, 0.0, 0.0, upper)


def _h3_change(T, rng) -> np.ndarray:
    # a12 and a13 preserve the brackets but couple the first direction into
    # T's off-diagonal, so diagonality forces them to zero here
    if rng.random() < 0.3:
        # swap the two degenerate directions, with scales
        a23 = float(np.exp(rng.normal() * 0.4)) * float(rng.choice([-1.0, 1.0]))
        a32 = float(np.exp(rng.normal() * 0.4)) * float(rng.choice([-1.0, 1.0]))
        return h3_frame_change(0.0, a23, a32, 0.0)
    a22 = float(np.exp(rng.normal() * 0.4)) * float(rng.choice([-1.0, 1.0]))
    a33 = float(np.exp(rng.normal() * 0.4)) * float(rng.choice([-1.0, 1.0]))
    a23 = rng.normal() * 0.5
    # T-diagonality needs T2*a22*a23 + T3*a32*a33 = 0
    a32 = -T[1] * a22 * a23 / (T[2] * a33)
    return h3_frame_change(a22, a23, a32, a33)


def _r3_change(rng) -> np.ndarray:
    while True:
        M = rng.normal(size=(3, 3))
        if abs(np.linalg.det(M)) > 0.1:
            return M


def sample_diagonal_preserving_changes(group, T, n: int, rng=0):
    """n bracket-preserving basis changes under which T remains diagonal.

    Each returned matrix passes check_milnor_frame and keeps M^T diag(T) M
    diagonal to 1e-10 (relative); a candidate failing either is redrawn.
    Candidates are drawn in rounds as many as are still missing and each
    round is checked as one stack; a candidate's draws never depend on the
    checks, so the frames and the generator's final state are those of
    drawing and checking one candidate at a time.
    """
    group = as_group(group)
    T = tensor_components(T)
    if n < 1:
        raise ValueError("need at least one sample")
    gen = np.random.default_rng(rng)  # a Generator passes through as is
    ztol = EQUAL_TOL * float(np.max(np.abs(T)))
    draw = {"SO3": lambda: _so3_block_change(T, gen),
            "SL2": lambda: _sl2_change(T, gen, ztol),
            "E2": lambda: _planar_change("E2", T, gen, ztol),
            "E11": lambda: _planar_change("E11", T, gen, ztol),
            "H3": lambda: _h3_change(T, gen)}.get(group.name,
                                                   lambda: _r3_change(gen))
    out = []
    attempts = 0
    while len(out) < n:
        k = min(n - len(out), 200 * n - attempts)
        if k == 0:
            raise RuntimeError(f"sampler failed to produce {n} admissible "
                               f"changes for {group.name}, T={T}")
        attempts += k
        cands = [draw() for _ in range(k)]
        Ms = np.array(cands)
        keep = check_milnor_frame_many(group, Ms) & _keeps_diagonal(Ms, T)
        out += [M for M, ok in zip(cands, keep) if ok]
    return out


def _transformed(Ms: np.ndarray, T) -> np.ndarray:
    """M^T diag(T) M for each M of the stack Ms."""
    return Ms.swapaxes(-1, -2) @ np.diag(T) @ Ms


def _keeps_diagonal(Ms: np.ndarray, T) -> np.ndarray:
    """Whether each M^T diag(T) M is diagonal to DIAG_TOL relative."""
    Tp = _transformed(Ms, T)
    off = Tp.copy()
    off[:, range(3), range(3)] = 0.0
    return (np.abs(off).max(axis=(1, 2))
            <= DIAG_TOL * np.abs(Tp).max(axis=(1, 2)))


def _pullbacks(Minv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gram matrices in the original frame of metrics diagonal in the new
    ones: Minv^T diag(v) Minv lane by lane, Minv the inverse changes."""
    D = np.zeros(v.shape + (3,))
    D[:, range(3), range(3)] = v
    return Minv.swapaxes(-1, -2) @ D @ Minv


def _proportional(G: np.ndarray, v_base: np.ndarray) -> np.ndarray:
    """Whether each G is proportional to diag(v_base), to PROBE_TOL."""
    D = np.zeros(v_base.shape + (3,))
    D[:, range(3), range(3)] = v_base / v_base.max(axis=1, keepdims=True)
    return (np.abs(G / np.abs(G).max(axis=(1, 2), keepdims=True) - D)
            .max(axis=(1, 2)) <= PROBE_TOL)


def probe(group, T, n: int = 16, rng=0) -> ProbeReport:
    """Re-solve (group, T) across n admissible frame changes and compare.

    c_spread is the worst relative deviation of the constant across frames
    (branch-matched by nearest c in the two-solution case, 0.0 when c is
    unconstrained).  metric_match reports pulled-back metrics proportional to
    the base metric wherever the outcome claims metric uniqueness; for family
    outcomes the pulled-back family sample is instead certified against the
    original tensor through the curvature oracle.

    T and the n transformed tensors are solved by one `solve_many` call,
    and every pullback, oracle residual and proportionality test runs on
    one stack; each lane has the bits of the frame-by-frame computation.

    Raises ValueError when (group, T) has no solution: before sampling
    where the case table alone says so, after it where the reduction
    cubic has no admissible root.
    """
    group = as_group(group)
    T = tensor_components(T)
    nothing = ValueError(f"nothing to probe: no solution for {group.name}, "
                         f"T={T}")
    if _match(group, [T]).row[0] < 0:
        raise nothing
    changes = sample_diagonal_preserving_changes(group, T, n, rng)
    Ms = np.array(changes)
    base, *outs = solve_many(group, np.concatenate(
        [[T], np.diagonal(_transformed(Ms, T), axis1=1, axis2=2)]))
    if base.kind == "NoSolution":
        raise nothing

    # one lane per solution pulled back: (frame, solution, the base solution
    # its metric must be proportional to or None for a family sample,
    # relative deviation of c); a frame without a matching outcome fails
    unique = base.kind in ("Unique", "TwoSolutions")
    lanes = []
    bad = [False] * len(changes)
    for f, out in enumerate(outs):
        if out.kind != base.kind or (unique and not out.solutions):
            bad[f] = True
        elif unique:
            for b in base.solutions:
                sol = min(out.solutions, key=lambda s: abs(s.c - b.c))
                rel = abs(sol.c - b.c) / max(abs(b.c), 1e-300)
                lanes.append((f, sol, b, rel))
        else:
            rel = (abs(out.family.c - base.family.c) / abs(base.family.c)
                   if base.kind == "FamilyFixedC" else 0.0)
            lanes.append((f, out.family.sample, None, rel))

    c_spread = 0.0
    metric_match = True
    checks = _lane_checks(group, T, Ms, lanes)
    for (f, _, _, rel), res, prop in zip(lanes, *checks):
        c_spread = max(c_spread, rel)
        metric_match = metric_match and prop
        bad[f] = bad[f] or not (prop and rel <= PROBE_TOL and res <= PROBE_TOL)

    return ProbeReport(samples=len(changes), base_kind=base.kind,
                       c_spread=c_spread, metric_match=metric_match,
                       c_unconstrained=base.kind == "FamilyAnyC",
                       violations=tuple(M for M, b in zip(changes, bad) if b))


def _lane_checks(group, T, Ms: np.ndarray, lanes: list) -> tuple:
    """Oracle residuals and proportionality tests of `probe`'s lanes, as
    two lists; every lane is pulled back and checked in one stack, and a
    family sample, which claims no metric uniqueness, is never tested for
    proportionality."""
    if not lanes:
        return [], []
    G = _pullbacks(np.linalg.inv(Ms)[[f for f, *_ in lanes]],
                   np.array([sol.metric.v for _, sol, _, _ in lanes]))
    res = oracle_residual_many(group, G, [sol.c for _, sol, _, _ in lanes],
                               np.broadcast_to(T, (len(lanes), 3)))
    if lanes[0][2] is None:
        return res.tolist(), [True] * len(lanes)
    prop = _proportional(G, np.array([b.metric.v for _, _, b, _ in lanes]))
    return res.tolist(), prop.tolist()
