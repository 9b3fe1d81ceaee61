import functools
import importlib
import itertools

import numpy as np
import pytest

from prescribed_ricci import (E2, E11, H3, R3, SL2, SO3, check_milnor_frame,
                              probe, sample_diagonal_preserving_changes, solve,
                              solver)
from prescribed_ricci.groups import (e2_frame_change, e11_frame_change,
                                     h3_frame_change, sl2_frame_change)

from conftest import ALL_GROUPS, INVALID_TENSORS, random_solvable

# the package re-exports the function `probe` under the module's name
probe_module = importlib.import_module("prescribed_ricci.probe")


def _is_signed_diagonal(M):
    return (np.allclose(np.abs(M), np.eye(3), atol=1e-12)
            and abs(np.linalg.det(M) - 1.0) <= 1e-12)


def test_so3_distinct_entries_only_sign_flips():
    for M in sample_diagonal_preserving_changes(SO3, (3.0, 2.0, 1.0), 12, rng=3):
        assert _is_signed_diagonal(M)


def test_so3_isotropic_admits_rotations():
    out = sample_diagonal_preserving_changes(SO3, (1.0, 1.0, 1.0), 8, rng=5)
    assert any(not _is_signed_diagonal(M) for M in out)
    for M in out:
        assert np.max(np.abs(M.T @ M - np.eye(3))) <= 1e-10


def test_so3_equal_pair_rotates_inside_block():
    for M in sample_diagonal_preserving_changes(SO3, (3.0, 1.0, 1.0), 20, rng=7):
        # first axis may only pick up a sign
        assert abs(abs(M[0, 0]) - 1.0) <= 1e-12
        assert np.max(np.abs(M[0, 1:])) <= 1e-12
        assert np.max(np.abs(M[1:, 0])) <= 1e-12


def test_sl2_family_case_samples_continuous_changes():
    out = sample_diagonal_preserving_changes(SL2, (-1.0, -1.0, 1.0), 10, rng=11)
    assert any(np.max(np.abs(np.abs(M) - np.eye(3))) > 1e-6 for M in out)


def test_sampler_contract_everywhere(rng):
    for g in ALL_GROUPS:
        for _ in range(6):
            T = random_solvable(g, rng)
            for M in sample_diagonal_preserving_changes(g, T, 6, rng=rng):
                assert check_milnor_frame(g, M)
                Tp = M.T @ np.diag(T) @ M
                off = Tp - np.diag(np.diag(Tp))
                assert np.max(np.abs(off)) <= 1e-10 * max(1.0, np.max(np.abs(Tp)))


def test_probe_checks_each_frame_once(monkeypatch):
    # the sampler is the one place that checks a frame; probe re-solves
    # only.  The checks run on stacks, so count the frames (lanes) each
    # check sees, by their bytes.
    lanes = {}

    def counting(name, stack_arg):
        original = getattr(probe_module, name)

        def wrapper(*args):
            lanes.setdefault(name, []).extend(M.tobytes()
                                              for M in args[stack_arg])
            return original(*args)
        monkeypatch.setattr(probe_module, name, wrapper)

    counting("check_milnor_frame_many", 1)
    counting("_keeps_diagonal", 0)
    frames = sample_diagonal_preserving_changes(SO3, (10.0, -1.0, -1.0), 16,
                                                rng=0)
    sampled = dict(lanes)
    lanes.clear()
    probe(SO3, (10.0, -1.0, -1.0), n=16, rng=0)
    checked = sampled["check_milnor_frame_many"]
    assert len(checked) >= 16
    # every returned frame was checked, by both checks, exactly once
    assert sampled["_keeps_diagonal"] == checked
    for M in frames:
        assert checked.count(M.tobytes()) == 1
    assert lanes == sampled


# The reference sampler draws with its own copy of the draw code, in its
# plainest form: `rng.choice` for every sign, T's blocks found per draw.  A
# change to any library draw shows here by name, not only in the golden.

def _ref_equal_blocks(values):
    scale = float(np.max(np.abs(values)))
    blocks = []
    for i, t in enumerate(values):
        if blocks and (abs(t - values[blocks[-1][-1]])
                       <= probe_module.EQUAL_TOL * scale):
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return blocks


def _ref_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def _ref_so3(T, rng):
    order = sorted(range(3), key=lambda i: -T[i])
    blocks = _ref_equal_blocks([T[i] for i in order])
    M = np.zeros((3, 3))
    dets = []
    for block in blocks:
        axes = [order[i] for i in block]
        if len(block) == 1:
            s = rng.choice([-1.0, 1.0])
            M[axes[0], axes[0]] = s
            dets.append(s)
        elif len(block) == 2:
            th = rng.uniform(0.0, 2.0 * np.pi)
            reflect = rng.random() < 0.5
            c, s = np.cos(th), np.sin(th)
            B = (np.array([[c, s], [s, -c]]) if reflect
                 else np.array([[c, -s], [s, c]]))
            for a, ra in enumerate(axes):
                for b, rb in enumerate(axes):
                    M[ra, rb] = B[a, b]
            dets.append(-1.0 if reflect else 1.0)
        else:
            M[:, :] = _ref_rotation(rng)
            dets.append(1.0)
    if np.prod(dets) < 0:
        for block in blocks:
            if len(block) == 1:
                axis = order[block[0]]
                M[axis, axis] = -M[axis, axis]
                break
    return M


def _ref_sl2(T, rng, ztol):
    T1, T2, T3 = T
    t12_equal = abs(T1 - T2) <= ztol
    if t12_equal and abs(T1 + T3) <= ztol:
        theta = rng.uniform(0.0, 2.0 * np.pi)
        phi = rng.normal()
        s = rng.normal()
    else:
        k = rng.integers(0, 4)
        theta = rng.uniform(0.0, 2.0 * np.pi) if t12_equal else 0.5 * np.pi * k
        boost_ok = (abs(T1 * np.sin(theta) ** 2 + T2 * np.cos(theta) ** 2 + T3)
                    <= ztol)
        phi = rng.normal() if boost_ok else 0.0
        s = 0.0
    a12_sign = int(rng.choice([-1, 1]))
    branch = int(rng.choice([-1, 1]))
    return sl2_frame_change(theta, phi, s, a12_sign, branch)


def _ref_planar(name, T, rng, ztol):
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


def _ref_h3(T, rng):
    # T3 != 0 only; test_h3_sampler_small_t3 checks the T3 = 0 draws
    if rng.random() < 0.3:
        a23 = float(np.exp(rng.normal() * 0.4)) * float(rng.choice([-1.0, 1.0]))
        a32 = float(np.exp(rng.normal() * 0.4)) * float(rng.choice([-1.0, 1.0]))
        return h3_frame_change(0.0, a23, a32, 0.0)
    a22 = float(np.exp(rng.normal() * 0.4)) * float(rng.choice([-1.0, 1.0]))
    a33 = float(np.exp(rng.normal() * 0.4)) * float(rng.choice([-1.0, 1.0]))
    if abs(T[2]) < abs(T[1]):
        a32 = rng.normal() * 0.5
        a23 = -T[2] * a32 * a33 / (T[1] * a22)
    else:
        a23 = rng.normal() * 0.5
        a32 = -T[1] * a22 * a23 / (T[2] * a33)
    return h3_frame_change(a22, a23, a32, a33)


def _ref_r3(rng):
    while True:
        M = rng.normal(size=(3, 3))
        if abs(np.linalg.det(M)) > 0.1:
            return M


def _reference_sampler(group, T, n, gen):
    """The one-candidate-at-a-time sampler: draw, check, keep or redraw."""
    T = tuple(float(t) for t in T)
    ztol = probe_module.EQUAL_TOL * float(np.max(np.abs(T)))
    out, attempts = [], 0
    while len(out) < n:
        attempts += 1
        if attempts > 200 * n:
            raise RuntimeError("attempt cap")
        if group.name == "SO3":
            M = _ref_so3(T, gen)
        elif group.name == "SL2":
            M = _ref_sl2(T, gen, ztol)
        elif group.name in ("E2", "E11"):
            M = _ref_planar(group.name, T, gen, ztol)
        elif group.name == "H3":
            M = _ref_h3(T, gen)
        else:
            M = _ref_r3(gen)
        Tp = M.T @ np.diag(T) @ M
        off = Tp - np.diag(np.diag(Tp))
        if (check_milnor_frame(group, M) and np.max(np.abs(off))
                <= probe_module.DIAG_TOL * np.max(np.abs(Tp))):
            out.append(M)
    return out


SAMPLER_ROWS = [
    (SO3, (3.0, 2.0, 1.0)), (SO3, (1.0, 1.0, 1.0)), (SO3, (3.0, 1.0, 1.0)),
    (SO3, (10.0, -1.0, -1.0)), (SL2, (-1.0, -1.0, 1.0)),
    (SL2, (3.0, -1.0, -1.0)), (SL2, (-2.0, 0.0, 0.0)),
    (SL2, (-1.0, -2.0, 3.0)), (E2, (0.0, 0.0, 0.0)), (E2, (2.0, -1.0, -1.0)),
    (E11, (0.0, 0.0, -2.0)), (E11, (-1.0, 2.0, -1.0)),
    (H3, (1.0, -1.0, -2.0)), (H3, (1.0, -2.0, -0.5)), (R3, (0.0, 0.0, 0.0)),
]


@pytest.mark.parametrize("group, T", SAMPLER_ROWS,
                         ids=lambda x: getattr(x, "name", str(x)))
def test_sampler_matches_one_at_a_time(group, T):
    # drawing in rounds keeps the rng calls of the one-candidate loop: the
    # same frames, bit for bit, and the same generator state afterwards
    for seed in range(5):
        for n in (1, 5, 16):
            ref_gen = np.random.default_rng(seed)
            ref = _reference_sampler(group, T, n, ref_gen)
            gen = np.random.default_rng(seed)
            got = sample_diagonal_preserving_changes(group, T, n, rng=gen)
            assert [M.tobytes() for M in got] == [M.tobytes() for M in ref]
            assert gen.bit_generator.state == ref_gen.bit_generator.state


def test_sign_draw_is_choice():
    # `_sign` must keep `rng.choice([-1.0, 1.0])`'s values and generator
    # state, interleaved with other draws, or every probe frame moves
    for seed in range(20):
        ref, gen = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(64):
            assert probe_module._sign(gen) == ref.choice([-1.0, 1.0])
            assert gen.normal() == ref.normal()
        assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("T", [(1.0, -1.0, 0.0), (0.0, 0.0, 0.0),
                               (-2.0, 0.0, 0.0), (1.0, -1.0, -1e-9),
                               (1.0, -1.0, -1e-12)])
def test_h3_sampler_small_t3(T):
    # T3 = 0 used to divide by zero: T2 != 0 forces a23 = 0, and T2 = 0
    # leaves a23 and a32 free.  0 < |T3| < |T2| used to solve a32 by
    # dividing by T3, so frames grew as T2/T3 (up to 1.4e9 at T3 = -1e-9)
    # and at T3 = -1e-12 a candidate overflowed into a singular matrix;
    # (1, -1, -1e-12) is NoSolution, only its frames are tested
    for seed in range(5):
        frames = sample_diagonal_preserving_changes(H3, T, 16, rng=seed)
        assert len(frames) == 16
        for M in frames:
            assert check_milnor_frame(H3, M)
            assert np.max(np.abs(M)) < 10.0
            Tp = M.T @ np.diag(T) @ M
            off = Tp - np.diag(np.diag(Tp))
            assert np.max(np.abs(off)) <= 1e-10 * np.max(np.abs(Tp))
    free = sample_diagonal_preserving_changes(H3, (0.0, 0.0, 0.0), 64, rng=0)
    assert any(M[1, 2] != 0.0 and M[2, 1] != 0.0 for M in free)


def test_sampler_raises_on_a_singular_candidate(monkeypatch):
    draws = iter([np.eye(3), np.eye(3), np.zeros((3, 3))] + [np.eye(3)] * 9)
    monkeypatch.setattr(probe_module, "_r3_change", lambda gen: next(draws))
    with pytest.raises(ValueError, match="singular"):
        sample_diagonal_preserving_changes(R3, (0.0, 0.0, 0.0), 5)


def test_sampler_attempt_cap(monkeypatch):
    # 2 I scales every bracket by 4 but each frame vector by 2: never a
    # Milnor frame, so the sampler gives up after exactly 200 n draws
    draws = []
    monkeypatch.setattr(probe_module, "_so3_block_change",
                        lambda blocks, gen: draws.append(1) or 2.0 * np.eye(3))
    with pytest.raises(RuntimeError, match="failed to produce 3") as info:
        sample_diagonal_preserving_changes(SO3, (3.0, 2.0, 1.0), 3)
    assert len(draws) == 600
    assert str(info.value).endswith("T=(3.0, 2.0, 1.0)")


def test_sampler_needs_positive_count():
    with pytest.raises(ValueError):
        sample_diagonal_preserving_changes(SO3, (1.0, 1.0, 1.0), 0)


def test_probe_requires_solvable_input():
    with pytest.raises(ValueError):
        probe(SO3, (0.0, 0.0, 0.0), n=4)
    # the case table says so before sampling: the sampler cannot keep an
    # R3 tensor other than 0 diagonal, and would raise RuntimeError
    for g in (H3, R3):
        with pytest.raises(ValueError, match="nothing to probe") as info:
            probe(g, (1, 0, 0), n=4)
        assert str(info.value).endswith(f"{g.name}, T=(1.0, 0.0, 0.0)")
    # the row matches, but the cubic has no root in (-1, 0): the only
    # `nothing to probe` raised after sampling
    with pytest.raises(ValueError, match="nothing to probe") as info:
        probe(SO3, (1, -1, -1), n=4)
    assert str(info.value).endswith("SO3, T=(1.0, -1.0, -1.0)")


@pytest.mark.parametrize("T", INVALID_TENSORS.values(),
                         ids=list(INVALID_TENSORS))
def test_invalid_tensor_rejected(T):
    with pytest.raises(ValueError):
        probe(SO3, T, n=4)
    with pytest.raises(ValueError):
        sample_diagonal_preserving_changes(SO3, T, 4)


def test_probe_answers_each_tensor_once(monkeypatch):
    # the check before sampling only matches T; T is answered once, as lane
    # 0 of the frames' solve_many, and each frame once (a frame may swap
    # the first two axes, which takes case (vi) to case (vii))
    calls = []

    def counted(answer, *args):
        calls.append(args)
        return answer(*args)

    rows = [(label, signs, answer._replace(
                answer=functools.partial(counted, answer.answer))
             if label in ("SL2 case (vi)", "SL2 case (vii)") else answer)
            for label, signs, answer in solver._TABLES["SL2"].rows]
    monkeypatch.setitem(solver._TABLES, "SL2", solver._table(*rows))
    rep = probe(SL2, (-2.0, 0.0, 0.0), n=4)
    assert rep.base_kind == "FamilyFixedC" and rep.samples == 4
    assert len(calls) == 5


# the probe's tolerances are relative, so every verdict holds at any scale;
# the unit-scale pass comes first and draws the same frames as it always did
SCALES = (1.0, 1e-12, 1e100)


def test_probe_unique_rows(rng):
    for s, (g, T) in itertools.product(SCALES, (
            (SO3, (3.0, 2.0, 1.0)), (SO3, (1.0, 1.0, 1.0)),
            (SL2, (2.0, -1.0, -1.0)), (SL2, (-3.0, -2.0, 1.0)),
            (E2, (2.0, -1.0, -1.0)), (E11, (1.0, -0.5, -1.0)),
            (H3, (1.0, -1.0, -2.0)))):
        rep = probe(g, tuple(s * np.asarray(T)), n=16, rng=rng)
        assert rep.samples == 16
        assert rep.base_kind in ("Unique",)
        assert rep.c_spread <= 1e-9, (g.name, T, s)
        assert rep.metric_match
        assert rep.violations == ()


def test_probe_two_solution_branches_stable(rng):
    for s in SCALES:
        rep = probe(SO3, (10.0 * s, -s, -s), n=16, rng=rng)
        assert rep.base_kind == "TwoSolutions"
        assert rep.c_spread <= 1e-9, s
        assert rep.metric_match
        assert rep.violations == ()


def test_probe_families_fixed_c(rng):
    for s, (g, T) in itertools.product(SCALES, (
            (SO3, (1.0, 0.0, 0.0)), (SL2, (-1.0, -1.0, 1.0)),
            (SL2, (-2.0, 0.0, 0.0)), (E11, (0.0, 0.0, -2.0)))):
        rep = probe(g, tuple(s * np.asarray(T)), n=16, rng=rng)
        assert rep.base_kind == "FamilyFixedC"
        assert rep.c_spread <= 1e-8, (g.name, T, s)
        assert not rep.c_unconstrained
        assert rep.violations == ()


def test_probe_flags_unconstrained_c(rng):
    for g, T in ((E2, (0.0, 0.0, 0.0)), (R3, (0.0, 0.0, 0.0))):
        rep = probe(g, T, n=12, rng=rng)
        assert rep.base_kind == "FamilyAnyC"
        assert rep.c_unconstrained
        assert rep.violations == ()


def test_probe_report_consistency(rng):
    # empty violations must match the aggregate numbers it reports
    for g in ALL_GROUPS:
        T = random_solvable(g, rng)
        rep = probe(g, T, n=8, rng=rng)
        if rep.violations == ():
            assert rep.c_spread <= 1e-8
            assert rep.metric_match


KINDS = ("Unique", "TwoSolutions", "FamilyFixedC", "FamilyAnyC")
# one tensor of each base kind, in the order of KINDS
BASES = [(SO3, (3.0, 2.0, 1.0)), (SO3, (10.0, -1.0, -1.0)),
         (SL2, (-1.0, -1.0, 1.0)), (E2, (0.0, 0.0, 0.0))]


@pytest.mark.parametrize("step", (1, 2), ids=("every", "every-other"))
@pytest.mark.parametrize("kind, group, T",
                         [(k, g, T) for k, (g, T) in zip(KINDS, BASES)],
                         ids=KINDS)
def test_frames_of_another_kind_are_the_violations(monkeypatch, kind, group,
                                                   T, step):
    # every step-th frame lane, from the first, is told it has the next
    # kind: those frames, and only those, are the violations, as the very
    # arrays the sampler returned and in their order.  The frames left agree
    # with the base; with every frame refused none is left, so the spread
    # is 0.0 and the metrics match
    sampled = []

    def sampler(*args):
        sampled.extend(sample_diagonal_preserving_changes(*args))
        return sampled

    def columns(group, Ts):
        answers = solver._columns(group, Ts)
        other = KINDS[(KINDS.index(kind) + 1) % len(KINDS)]
        kinds = list(answers.kinds)
        kinds[1::step] = [other] * len(kinds[1::step])
        return answers._replace(kinds=kinds)

    monkeypatch.setattr(probe_module, "sample_diagonal_preserving_changes",
                        sampler)
    monkeypatch.setattr(probe_module, "_columns", columns)
    rep = probe(group, T, n=8, rng=3)
    assert rep.base_kind == kind and rep.samples == 8
    assert len(rep.violations) == len(sampled[::step])
    assert all(M is F for M, F in zip(rep.violations, sampled[::step]))
    assert (rep.c_spread == 0.0) if step == 1 else (rep.c_spread <= 1e-9)
    assert rep.metric_match is True


def test_report_fields_are_python_scalars():
    # c_spread and metric_match are read off arrays, but reported as a
    # Python float and bool
    golden = importlib.import_module("test_probe_golden")
    for group, T, rng in golden.inputs():
        rep = probe(group, tuple(T), n=golden.SAMPLES, rng=rng)
        assert type(rep.c_spread) is float
        assert type(rep.metric_match) is bool
