"""Empirical uniqueness probe: re-solve in transformed frames and compare.

For a solvable (group, T) the probe samples bracket-preserving basis changes
under which T stays diagonal, re-solves in each new frame, pulls the
solutions back, and aggregates how well the c values and (where uniqueness is
claimed) the metrics agree.  The sampler is the one place that checks each
change against the brackets and T's diagonality; `probe` re-solves only
changes that passed there.

Every random sign is `_sign`, which draws the value and generator state
that `rng.choice([-1.0, 1.0])` draws, at a fraction of its cost; what a
draw needs of T alone (SO3's equal-value blocks) is computed once per
sampler call, not once per candidate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .curvature import tensor_components
# check_milnor_frame and oracle_residual are the one-lane forms of the
# stacked checks used here; bench/spans.py wraps them under these names
from .groups import (as_group, check_milnor_frame, check_milnor_frame_many,
                     e2_frame_change, e11_frame_change, h3_frame_change,
                     random_rotation, sl2_frame_change)
# solve is imported only for bench/spans.py, which wraps it here by name:
# the base tensor is answered as lane 0 of the frames' `_columns`
from .solver import _columns, _match, solve  # noqa: F401
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


def _sign(rng) -> float:
    """-1.0 or 1.0 with equal odds: the value and generator state of
    `rng.choice([-1.0, 1.0])`, which draws `rng.integers(0, 2)` as its
    index, without `choice`'s argument handling."""
    return (-1.0, 1.0)[rng.integers(2)]


def _so3_blocks(T) -> list[list[int]]:
    """The axes of T's blocks of equal values (relative tolerance), blocks
    in descending T."""
    scale = float(np.max(np.abs(T)))
    blocks: list[list[int]] = []
    for i in sorted(range(3), key=lambda i: -T[i]):
        if blocks and abs(T[i] - T[blocks[-1][-1]]) <= EQUAL_TOL * scale:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return blocks


def _so3_block_change(blocks, rng) -> np.ndarray:
    """Random frame change with entries only inside equal-T blocks, det +1;
    `blocks` is `_so3_blocks(T)`.

    With pairwise distinct components this degenerates to the four diagonal
    sign matrices of determinant +1; an equal pair admits a circle of
    rotations (and reflections, compensated by the remaining sign); an
    isotropic T admits all rotations.
    """
    M = np.zeros((3, 3))
    dets = []
    for axes in blocks:
        n = len(axes)
        if n == 1:
            s = _sign(rng)
            M[axes[0], axes[0]] = s
            dets.append(s)
        elif n == 2:
            th = rng.uniform(0.0, 2.0 * np.pi)
            reflect = rng.random() < 0.5
            c, s = np.cos(th), np.sin(th)
            B = np.array([[c, -s], [s, c]]) if not reflect else np.array([[c, s], [s, -c]])
            M[np.ix_(axes, axes)] = B
            dets.append(-1.0 if reflect else 1.0)
        else:
            M[:, :] = random_rotation(rng)
            dets.append(1.0)
    if np.prod(dets) < 0:
        # flip one size-1 block sign; a lone reflecting 2-block cannot occur
        # with det -1 unless a 1-block exists to absorb it
        for axes in blocks:
            if len(axes) == 1:
                M[axes[0], axes[0]] = -M[axes[0], axes[0]]
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
    a12_sign = int(_sign(rng))
    branch = int(_sign(rng))
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
    scale = float(np.exp(rng.normal() * 0.5)) * _sign(rng)
    if rng.random() < 0.5:
        return build(scale, 0.0, 0.0, 0.0, upper)
    return build(0.0, scale, 0.0, 0.0, upper)


def _h3_change(T, rng) -> np.ndarray:
    # a12 and a13 preserve the brackets but couple the first direction into
    # T's off-diagonal, so diagonality forces them to zero here
    if rng.random() < 0.3:
        # swap the two degenerate directions, with scales
        a23 = float(np.exp(rng.normal() * 0.4)) * _sign(rng)
        a32 = float(np.exp(rng.normal() * 0.4)) * _sign(rng)
        return h3_frame_change(0.0, a23, a32, 0.0)
    a22 = float(np.exp(rng.normal() * 0.4)) * _sign(rng)
    a33 = float(np.exp(rng.normal() * 0.4)) * _sign(rng)
    # T-diagonality needs T2*a22*a23 + T3*a32*a33 = 0; dividing by the
    # larger of |T2|, |T3| keeps the solved entry of order 1
    if T[2] != 0.0:
        x = rng.normal() * 0.5
        if abs(T[2]) < abs(T[1]):
            a23, a32 = -T[2] * x * a33 / (T[1] * a22), x
        else:
            a23, a32 = x, -T[1] * a22 * x / (T[2] * a33)
    elif T[1] != 0.0:
        a23, a32 = 0.0, rng.normal() * 0.5
    else:
        # both free: a32 takes the sign that keeps the lower block's
        # determinant a22*a33 - a23*a32 at least |a22*a33|
        a23 = rng.normal() * 0.5
        a32 = -math.copysign(rng.normal() * 0.5, a22 * a23 * a33)
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
    drawing and checking one candidate at a time.  On H3 with T3 = 0 the
    (2,3) diagonality condition T2 a22 a23 = 0 forces a23 = 0 when T2 != 0
    and leaves a23 and a32 free when T2 = 0.
    """
    group = as_group(group)
    T = tensor_components(T)
    if n < 1:
        raise ValueError("need at least one sample")
    gen = np.random.default_rng(rng)  # a Generator passes through as is
    ztol = EQUAL_TOL * float(np.max(np.abs(T)))
    blocks = _so3_blocks(T) if group.name == "SO3" else None
    draw = {"SO3": lambda: _so3_block_change(blocks, gen),
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


# flat indices of the six off-diagonal entries of a 3x3 matrix
_OFF_DIAGONAL = [1, 2, 3, 5, 6, 7]


def _keeps_diagonal(Ms: np.ndarray, T) -> np.ndarray:
    """Whether each M^T diag(T) M is diagonal to DIAG_TOL relative."""
    Tp = _transformed(Ms, T)
    off = Tp.reshape(-1, 9)[:, _OFF_DIAGONAL]
    return (np.abs(off).max(axis=1)
            <= DIAG_TOL * np.abs(Tp).max(axis=(1, 2)))


def _pullbacks(Minv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gram matrices in the original frame of metrics diagonal in the new
    ones: Minv^T diag(v) Minv lane by lane, Minv the inverse changes."""
    return Minv.swapaxes(-1, -2) @ (v[:, :, None] * np.eye(3)) @ Minv


def _proportional(G: np.ndarray, v_base: np.ndarray) -> np.ndarray:
    """Whether each G is proportional to diag(v_base), to PROBE_TOL."""
    D = (v_base / v_base.max(axis=1, keepdims=True))[:, :, None] * np.eye(3)
    return (np.abs(G / np.abs(G).max(axis=(1, 2), keepdims=True) - D)
            .max(axis=(1, 2)) <= PROBE_TOL)


def probe(group, T, n: int = 16, rng=0) -> ProbeReport:
    """Re-solve (group, T) across n admissible frame changes and compare.

    c_spread is the worst relative deviation of the constant across frames
    (0.0 when c is unconstrained).  metric_match reports pulled-back
    metrics proportional to the base metric wherever the outcome claims
    metric uniqueness; every pulled-back solution, a family's sample
    included, is certified against the original tensor through the
    curvature oracle.

    T and the n transformed tensors are answered by one `_columns` call,
    read with no outcome built.  Every kind takes one slot path: a frame
    of the base's kind has the base's count of (v, c) slots (one for a
    family, its sample), and each base slot is matched to the frame's slot
    of nearest c.  A frame of another kind fails.  The matched slots are
    pulled back and checked in one stack, each lane with the bits of the
    frame-by-frame computation.

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
    answers = _columns(group, np.concatenate(
        [[T], np.diagonal(_transformed(Ms, T), axis1=1, axis2=2)]))
    if answers.errors:
        raise answers.errors[min(answers.errors)]
    kind = answers.kinds[0]
    if kind == "NoSolution":
        raise nothing

    # one row per frame of the base's kind and one column per base slot:
    # the frame's slot of nearest c is 1 only where slot 1 is strictly
    # nearer (a dead slot is nan, which compares false)
    bad = np.array(answers.kinds[1:]) != kind
    frames = np.flatnonzero(~bad)
    k = answers.n[0]
    b = answers.c[0, :k]
    c, v = answers.c[frames + 1], answers.v[frames + 1]
    slot = (abs(c[:, 1:] - b) < abs(c[:, :1] - b)).astype(int)
    rows = np.arange(len(frames))[:, None]
    c, v = c[rows, slot], v[rows, slot].reshape(-1, 3)
    rel = (np.zeros(c.size) if kind == "FamilyAnyC"
           else (abs(c - b) / np.maximum(abs(b), 1e-300)).ravel())
    c = c.ravel()
    frames = np.repeat(frames, k)
    G = _pullbacks(np.linalg.inv(Ms)[frames], v)
    res = oracle_residual_many(group, G, c, np.broadcast_to(T, (len(c), 3)))
    # a family sample claims no metric uniqueness: no proportionality test
    prop = (np.ones(len(c), bool) if kind.startswith("Family")
            else _proportional(G, np.resize(answers.v[0, :k], (len(c), 3))))
    bad[frames[~(prop & (rel <= PROBE_TOL) & (res <= PROBE_TOL))]] = True
    return ProbeReport(samples=len(changes), base_kind=kind,
                       c_spread=max([0.0, *rel.tolist()]),
                       metric_match=bool(prop.all()),
                       c_unconstrained=kind == "FamilyAnyC",
                       violations=tuple(compress(changes, bad)))
