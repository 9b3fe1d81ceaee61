"""Empirical uniqueness probe: re-solve in transformed frames and compare.

For a solvable (group, T) the probe samples bracket-preserving basis changes
under which T stays diagonal, re-solves in each new frame, pulls the
solutions back, and aggregates how well the c values and (where uniqueness is
claimed) the metrics agree.  Every sampled change is asserted, not assumed,
to pass the bracket check and to keep T diagonal.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import (as_group, check_milnor_frame, e2_frame_change,
                     e11_frame_change, h3_frame_change, random_rotation,
                     sl2_frame_change, structure_constants)
from .solver import SolveOutcome, solve
from .verify import oracle_residual

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


def _tensor(T) -> np.ndarray:
    return np.asarray(getattr(T, "T", T), dtype=float)


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
    diagonal to 1e-10 (relative); both are asserted before returning.
    """
    group = as_group(group)
    T = _tensor(T)
    if n < 1:
        raise ValueError("need at least one sample")
    gen = np.random.default_rng(rng)  # a Generator passes through as is
    ztol = EQUAL_TOL * float(np.max(np.abs(T)))
    out = []
    attempts = 0
    while len(out) < n:
        attempts += 1
        if attempts > 200 * n:
            raise RuntimeError(f"sampler failed to produce {n} admissible "
                               f"changes for {group.name}, T={tuple(T)}")
        if group.name == "SO3":
            M = _so3_block_change(T, gen)
        elif group.name == "SL2":
            M = _sl2_change(T, gen, ztol)
        elif group.name in ("E2", "E11"):
            M = _planar_change(group.name, T, gen, ztol)
        elif group.name == "H3":
            M = _h3_change(T, gen)
        else:
            M = _r3_change(gen)
        if check_milnor_frame(group, M) and _keeps_diagonal(M, T):
            out.append(M)
    return out


def _keeps_diagonal(M: np.ndarray, T) -> bool:
    """Whether M^T diag(T) M is diagonal to DIAG_TOL relative."""
    Tp = M.T @ np.diag(T) @ M
    off = Tp - np.diag(np.diag(Tp))
    return bool(np.max(np.abs(off)) <= DIAG_TOL * np.max(np.abs(Tp)))


def _pullback(M: np.ndarray, v) -> np.ndarray:
    """Gram matrix in the original frame of a metric diagonal in the new one."""
    Minv = np.linalg.inv(M)
    return Minv.T @ np.diag(np.asarray(v, dtype=float)) @ Minv


def _proportional(G: np.ndarray, v_base) -> bool:
    D = np.diag(np.asarray(v_base, dtype=float))
    return bool(np.max(np.abs(G / np.max(np.abs(G)) - D / np.max(D)))
                <= PROBE_TOL)


def probe(group, T, n: int = 16, rng=0) -> ProbeReport:
    """Re-solve (group, T) across n admissible frame changes and compare.

    c_spread is the worst relative deviation of the constant across frames
    (branch-matched by nearest c in the two-solution case, 0.0 when c is
    unconstrained).  metric_match reports pulled-back metrics proportional to
    the base metric wherever the outcome claims metric uniqueness; for family
    outcomes the pulled-back family sample is instead certified against the
    original tensor through the curvature oracle.

    Raises ValueError when (group, T) has no solution.
    """
    group = as_group(group)
    T = _tensor(T)
    base = solve(group, T)
    if base.kind == "NoSolution":
        raise ValueError(f"nothing to probe: no solution for {group.name}, "
                         f"T={tuple(T)}")
    changes = sample_diagonal_preserving_changes(group, T, n, rng)
    c_spread = 0.0
    metric_match = True
    c_unconstrained = base.kind == "FamilyAnyC"
    violations = []

    for M in changes:
        assert check_milnor_frame(group, M), "sampler returned a bad frame"
        assert _keeps_diagonal(M, T), "sampler broke diagonality"
        out = solve(group, tuple(np.diag(M.T @ np.diag(T) @ M)))
        ok = out.kind == base.kind

        if ok and base.kind in ("Unique", "TwoSolutions"):
            for sol in base.solutions:
                others = min(out.solutions,
                             key=lambda s: abs(s.c - sol.c)) if out.solutions else None
                if others is None:
                    ok = False
                    break
                rel = abs(others.c - sol.c) / max(abs(sol.c), 1e-300)
                c_spread = max(c_spread, rel)
                G = _pullback(M, others.metric.v)
                prop = _proportional(G, sol.metric.v)
                res = oracle_residual(group, G, others.c, T)
                metric_match = metric_match and prop
                ok = ok and prop and rel <= PROBE_TOL and res <= PROBE_TOL
        elif ok and base.kind == "FamilyFixedC":
            rel = abs(out.family.c - base.family.c) / abs(base.family.c)
            c_spread = max(c_spread, rel)
            G = _pullback(M, out.family.sample.metric.v)
            res = oracle_residual(group, G, out.family.sample.c, T)
            ok = rel <= PROBE_TOL and res <= PROBE_TOL
        elif ok and base.kind == "FamilyAnyC":
            G = _pullback(M, out.family.sample.metric.v)
            res = oracle_residual(group, G, out.family.sample.c, T)
            ok = res <= PROBE_TOL

        if not ok:
            violations.append(M)

    return ProbeReport(samples=len(changes), base_kind=base.kind,
                       c_spread=c_spread, metric_match=metric_match,
                       c_unconstrained=c_unconstrained,
                       violations=tuple(violations))
