import importlib
import itertools

import numpy as np
import pytest

from prescribed_ricci import (E2, E11, H3, R3, SL2, SO3, check_milnor_frame,
                              probe, sample_diagonal_preserving_changes, solve)

from conftest import ALL_GROUPS, random_solvable

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


def _reference_sampler(group, T, n, gen):
    """The one-candidate-at-a-time sampler: draw, check, keep or redraw."""
    T = np.asarray(T, dtype=float)
    ztol = probe_module.EQUAL_TOL * float(np.max(np.abs(T)))
    out, attempts = [], 0
    while len(out) < n:
        attempts += 1
        if attempts > 200 * n:
            raise RuntimeError("attempt cap")
        if group.name == "SO3":
            M = probe_module._so3_block_change(T, gen)
        elif group.name == "SL2":
            M = probe_module._sl2_change(T, gen, ztol)
        elif group.name in ("E2", "E11"):
            M = probe_module._planar_change(group.name, T, gen, ztol)
        elif group.name == "H3":
            M = probe_module._h3_change(T, gen)
        else:
            M = probe_module._r3_change(gen)
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
    (H3, (1.0, -1.0, -2.0)), (R3, (0.0, 0.0, 0.0)),
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
                        lambda T, gen: draws.append(1) or 2.0 * np.eye(3))
    with pytest.raises(RuntimeError, match="failed to produce 3"):
        sample_diagonal_preserving_changes(SO3, (3.0, 2.0, 1.0), 3)
    assert len(draws) == 600


def test_sampler_needs_positive_count():
    with pytest.raises(ValueError):
        sample_diagonal_preserving_changes(SO3, (1.0, 1.0, 1.0), 0)


def test_probe_requires_solvable_input():
    with pytest.raises(ValueError):
        probe(SO3, (0.0, 0.0, 0.0), n=4)


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
