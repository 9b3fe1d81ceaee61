import ast
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prescribed_ricci import (E2, E11, H3, R3, SL2, SO3, DiagonalTensor,
                              certify, classify_signature, reconstruct_from_p,
                              ricci_diagonal, ricci_koszul, residual, solve,
                              solver, structure_constants)

from conftest import ALL_GROUPS, INVALID_TENSORS, random_solvable

GOLDEN = math.sqrt(5.0)


def check_sound(group, outcome, T, tol=1e-9):
    """Every returned (v, c) satisfies the curvature equations both ways."""
    sols = list(outcome.solutions)
    if outcome.family is not None:
        sols.append(outcome.family.sample)
    for sol in sols:
        assert sol.c > 0.0
        assert min(sol.metric.v) > 0.0
        v = np.asarray(sol.metric.v)
        cT = sol.c * np.asarray(T, dtype=float)
        scale = 1.0 + np.max(np.abs(cT))
        assert np.max(np.abs(ricci_diagonal(group, v) - cT)) <= tol * scale
        rk = ricci_koszul(structure_constants(group), np.diag(v))
        assert np.max(np.abs(rk - np.diag(cT))) <= tol * scale
    for tr in outcome.traces:
        # q is the real cube root, so it carries the sign of its cube
        assert tr.q == 0.0 or (tr.q > 0.0) == (tr.p != 0.0 and _q_cube(group, T, tr.p) > 0.0)


def _q_cube(group, T, p):
    T1, T2, T3 = (float(t) for t in np.asarray(T, dtype=float))
    sgn = 1.0 if group.name == "SO3" else -1.0
    return p * (p + T1) * (p + T2) * (p + sgn * T3)


# ---------------------------------------------------------------------------
# SO3
# ---------------------------------------------------------------------------

def test_so3_isotropic_golden():
    out = solve(SO3, (1, 1, 1))
    assert out.kind == "Unique"
    (sol,) = out.solutions
    assert abs(sol.c - 2.0) <= 1e-12
    v = np.asarray(sol.metric.v)
    assert np.max(np.abs(v - 2.0 ** (-1.0 / 3.0))) <= 1e-12
    assert abs(out.traces[0].p - 0.5) <= 1e-12
    check_sound(SO3, out, (1, 1, 1))


def test_so3_two_solution_worked_case():
    T = (10.0, -1.0, -1.0)
    out = solve(SO3, T)
    assert out.kind == "TwoSolutions"
    ps = sorted(t.p for t in out.traces)
    assert abs(ps[0] - (-5.0 - GOLDEN) / 2.0) <= 1e-10
    assert abs(ps[1] - (-5.0 + GOLDEN) / 2.0) <= 1e-10
    cs = sorted(s.c for s in out.solutions)
    assert abs(cs[0] - 8.0 * ps[1] ** 2 / 10.0) <= 1e-9
    assert abs(cs[1] - 8.0 * ps[0] ** 2 / 10.0) <= 1e-9
    assert cs[0] != cs[1]
    for sol in out.solutions:  # T2 = T3 forces v2 = v3
        assert abs(sol.metric.v[1] - sol.metric.v[2]) <= 1e-12
    check_sound(SO3, out, T)


def test_so3_two_solution_c_relation():
    # multiplying the curvature equations by x_i/v_i gives 8 p^2 = c T1 T2 T3
    T = (12.0, -0.7, -2.3)
    out = solve(SO3, T)
    prod = T[0] * T[1] * T[2]
    for sol, tr in zip(out.solutions, out.traces):
        assert abs(sol.c - 8.0 * tr.p ** 2 / prod) <= 1e-9 * abs(sol.c)


def test_so3_family_fixed_c():
    out = solve(SO3, (1.0, 0.0, 0.0))
    assert out.kind == "FamilyFixedC"
    assert out.family.constraint == "v1=v2+v3"
    assert abs(out.family.c - 8.0) <= 1e-12
    v = out.family.sample.metric.v
    assert abs(v[0] - v[1] - v[2]) <= 1e-12
    check_sound(SO3, out, (1.0, 0.0, 0.0))


def test_so3_family_unsorted_input_constraint_follows_permutation():
    out = solve(SO3, (0.0, 2.0, 0.0))
    assert out.kind == "FamilyFixedC"
    assert out.family.constraint == "v2=v1+v3"
    assert abs(out.family.c - 4.0) <= 1e-12
    check_sound(SO3, out, (0.0, 2.0, 0.0))


def test_so3_boundary_double_root_is_unique():
    # 2p^3 + 6p^2 - 8 = 2 (p+2)^2 (p-1): double root at the critical point
    out = solve(SO3, (8.0, -1.0, -1.0))
    assert out.kind == "Unique"
    assert out.traces[0].multiplicity == 2
    assert abs(out.traces[0].p + 2.0) <= 1e-6
    assert abs(out.solutions[0].c - 4.0) <= 1e-9
    check_sound(SO3, out, (8.0, -1.0, -1.0), tol=2e-7)


def test_so3_mixed_signature_transition_on_segment():
    # on T = (t, -1, -1) existence flips where the cubic's interior maximum
    # crosses zero, which happens exactly at t = 8
    for t, kind in ((4.0, "NoSolution"), (7.9, "NoSolution"),
                    (8.1, "TwoSolutions"), (30.0, "TwoSolutions")):
        assert solve(SO3, (t, -1.0, -1.0)).kind == kind, t


def test_so3_positive_definite_always_unique(rng):
    for _ in range(1000):
        T = tuple(np.exp(rng.uniform(-2.0, 2.0, size=3)))
        out = solve(SO3, T)
        assert out.kind == "Unique"
    check_sound(SO3, solve(SO3, (3.0, 2.0, 1.0)), (3.0, 2.0, 1.0))


def test_so3_input_order_irrelevant(rng):
    for _ in range(50):
        T = np.exp(rng.uniform(-1.0, 1.0, size=3))
        base = solve(SO3, tuple(T))
        perm = rng.permutation(3)
        out = solve(SO3, tuple(T[perm]))
        assert out.kind == base.kind
        # same c, permuted metric
        assert abs(out.solutions[0].c - base.solutions[0].c) <= 1e-9
        v_base = np.asarray(base.solutions[0].metric.v)
        v_perm = np.asarray(out.solutions[0].metric.v)
        assert np.max(np.abs(v_perm - v_base[perm])) <= 1e-9


def test_so3_rejected_signatures():
    for T in ((1.0, 1.0, 0.0), (1.0, 0.0, -1.0), (0.0, 0.0, 0.0),
              (0.0, 0.0, -1.0), (-1.0, -2.0, -3.0), (1.0, 1.0, -1.0)):
        out = solve(SO3, T)
        assert out.kind == "NoSolution", T
        assert out.case_label == "none"


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_from_p_closed_form():
    m, c = reconstruct_from_p(SO3, (1.0, 1.0, 1.0), 0.5)
    # q^3 = (1/2)(3/2)^3 = 27/16, x_i = q / (3/2) = 2^(-1/3)
    assert abs(c - 2.0) <= 1e-12
    assert np.max(np.abs(np.asarray(m.v) - 2.0 ** (-1.0 / 3.0))) <= 1e-12


def test_reconstruct_rejects_inadmissible_p():
    with pytest.raises(ValueError):
        reconstruct_from_p(SO3, (10.0, -1.0, -1.0), 0.5)
    with pytest.raises(ValueError):
        reconstruct_from_p(E2, (1.0, -1.0, -1.0), 0.5)


def test_sl2_worked_case():
    T = (2.0, -1.0, -1.0)
    out = solve(SL2, T)
    assert out.kind == "Unique"
    assert out.case_label == "SL2 case (i)"
    p = out.traces[0].p
    assert -2.0 < p < -1.0
    # p is the real root of p^3 + p^2 + 1
    assert abs(p ** 3 + p ** 2 + 1.0) <= 1e-12
    assert abs(p - (-1.4655712318767682)) <= 1e-10
    check_sound(SL2, out, T)


def test_sl2_case_ii_mirrors_case_i():
    out1 = solve(SL2, (2.0, -1.0, -1.0))
    out2 = solve(SL2, (-1.0, 2.0, -1.0))
    assert out2.case_label == "SL2 case (ii)"
    assert abs(out1.solutions[0].c - out2.solutions[0].c) <= 1e-10
    v1 = out1.solutions[0].metric.v
    v2 = out2.solutions[0].metric.v
    assert np.allclose((v1[1], v1[0], v1[2]), v2, rtol=1e-10)


def test_sl2_cases_iii_iv():
    out = solve(SL2, (-1.0, -2.0, 3.0))
    assert out.kind == "Unique" and out.case_label == "SL2 case (iii)"
    check_sound(SL2, out, (-1.0, -2.0, 3.0))

    out = solve(SL2, (-3.0, -2.0, 1.0))
    assert out.kind == "Unique" and out.case_label == "SL2 case (iv)"
    check_sound(SL2, out, (-3.0, -2.0, 1.0))


# T1 = T2 on SL2 (-,-,+): the reduction cubic has the exact root p = -T1, a
# pole of the correspondence on the end of the case (iii) or (iv) interval
SL2_TIES = [(-0.1, -0.1, 0.3), (-1.0, -1.0, 3.0), (-1.0, -1.0, 0.5),
            (-3.0, -3.0, 1.0), (-2.0, -2.0, 3.0), (-1.0, -1.0, 1.0 + 1e-9),
            (-1.0, -1.0, 1.0 - 1e-9)]


@pytest.mark.parametrize("T", SL2_TIES)
def test_sl2_tie_slice_solves_at_every_scale(T):
    label = "SL2 case (iii)" if T[2] > -T[0] else "SL2 case (iv)"
    base = solve(SL2, T)
    assert (base.kind, base.case_label) == ("Unique", label)
    check_sound(SL2, base, T)
    (trace,) = base.traces
    lo, hi = sorted((-T[0], T[2]))
    assert lo < trace.p < hi
    for s in (1e-300, 1e-8, 10.0 / 3.0, 1e8, 1e300):
        sT = tuple(s * t for t in T)
        out = solve(SL2, sT)
        assert (out.kind, out.case_label) == ("Unique", label), s
        (c,) = out.c_values()
        assert abs(c - base.solutions[0].c / s) <= 1e-12 * c, s
        (sol,) = out.solutions
        assert certify(SL2, sol.metric.v, sol.c, sT).passed, s


def test_sl2_tie_slice_random():
    # T = (-t, -t, r t) with t log-uniform: before the tie had its own row,
    # about one in six of these raised
    gen = np.random.default_rng(1607)
    for _ in range(2000):
        t, r = 10.0 ** gen.uniform(-6, 6), gen.uniform(0.05, 5.0)
        T = (-t, -t, r * t)
        out = solve(SL2, T)
        assert out.case_label in ("SL2 case (iii)", "SL2 case (iv)"), T
        (sol,) = out.solutions
        assert certify(SL2, sol.metric.v, sol.c, T).passed, T


def test_sl2_family_equal_components():
    T = (-1.0, -1.0, 1.0)
    out = solve(SL2, T)
    assert out.kind == "FamilyFixedC"
    assert out.case_label == "SL2 case (v)"
    assert out.family.constraint == "v3=v1+v2"
    assert abs(out.family.c - 8.0) <= 1e-12
    v = out.family.sample.metric.v
    assert abs(v[2] - v[0] - v[1]) <= 1e-12
    check_sound(SL2, out, T)


def test_sl2_zero_families_and_discrepancy_note():
    out = solve(SL2, (-2.0, 0.0, 0.0))
    assert out.kind == "FamilyFixedC"
    assert out.case_label == "SL2 case (vi)"
    assert out.family.constraint == "v2=v1+v3"
    assert abs(out.family.c - 4.0) <= 1e-12
    assert any("-T1/8" in n and "inconsistent" in n for n in out.notes)
    check_sound(SL2, out, (-2.0, 0.0, 0.0))

    out = solve(SL2, (0.0, -2.0, 0.0))
    assert out.case_label == "SL2 case (vii)"
    assert out.family.constraint == "v1=v2+v3"
    assert abs(out.family.c - 4.0) <= 1e-12
    check_sound(SL2, out, (0.0, -2.0, 0.0))


def test_sl2_thin_case_interval_still_certifies():
    # the case interval (-T1, T3) shrinks to width eps; reconstruction must
    # not lose the solution to cancellation in the correspondence map
    for eps in (1e-3, 1e-5, 1e-6):
        T = (2.0, -1.0, -2.0 + eps)
        out = solve(SL2, T)
        assert out.kind == "Unique", eps
        check_sound(SL2, out, T)


def test_sl2_rejected_signatures():
    for T in ((1.0, 1.0, -1.0), (1.0, 1.0, 1.0), (-1.0, -1.0, -1.0),
              (0.0, 0.0, -1.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
              (0.0, 0.0, 1.0), (-1.0, -2.0, 1.5),   # T3 strictly between
              (2.0, -1.0, -3.0),                    # T1 + T3 < 0
              (-1.0, -2.0, 1.0),                    # T3 = min boundary
              (-1.0, -2.0, 2.0)):                   # T3 = max boundary
        assert solve(SL2, T).kind == "NoSolution", T


# ---------------------------------------------------------------------------
# E2, E11, H3, R3
# ---------------------------------------------------------------------------

def test_e2_flat_family():
    out = solve(E2, (0.0, 0.0, 0.0))
    assert out.kind == "FamilyAnyC"
    assert out.family.constraint == "v1=v2"
    assert out.family.c is None
    check_sound(E2, out, (0.0, 0.0, 0.0))


def test_e2_unique_closed_form():
    T = (2.0, -1.0, -1.0)
    out = solve(E2, T)
    assert out.kind == "Unique" and out.case_label == "E2 (+,-,-)"
    # hand solution: v = (2, 1, 3) up to scale with c = 1
    v = np.asarray(out.solutions[0].metric.v)
    assert abs(out.solutions[0].c - 1.0) <= 1e-12
    assert np.max(np.abs(v / v[1] - np.array([2.0, 1.0, 3.0]))) <= 1e-12
    check_sound(E2, out, T)

    out = solve(E2, (-1.0, 2.0, -1.0))
    assert out.kind == "Unique" and out.case_label == "E2 (-,+,-)"
    check_sound(E2, out, (-1.0, 2.0, -1.0))


def test_e2_rejected():
    for T in ((1.0, -2.0, -1.0),   # T1 + T2 <= 0
              (1.0, 1.0, -1.0),    # T1 T2 > 0
              (2.0, -1.0, 0.0),    # T3 = 0
              (2.0, -1.0, 1.0),    # T3 > 0
              (0.0, 1.0, -1.0)):   # T1 T2 = 0
        assert solve(E2, T).kind == "NoSolution", T
    assert classify_signature(E2, (1.0, -2.0, -1.0)) == "none"


def test_e11_family():
    out = solve(E11, (0.0, 0.0, -2.0))
    assert out.kind == "FamilyFixedC"
    assert out.case_label == "E11 (0,0,-)"
    assert out.family.constraint == "v1=v2"
    assert abs(out.family.c - 4.0) <= 1e-12
    check_sound(E11, out, (0.0, 0.0, -2.0))


def test_e11_unique_closed_form():
    T = (1.0, -0.5, -1.0)
    out = solve(E11, T)
    assert out.kind == "Unique"
    (sol,) = out.solutions
    # hand solution: v proportional to (2, 1, 2/3) with c = 9
    assert abs(sol.c - 9.0) <= 1e-12
    v = np.asarray(sol.metric.v)
    assert np.max(np.abs(v / v[1] - np.array([2.0, 1.0, 2.0 / 3.0]))) <= 1e-12
    check_sound(E11, out, T)


def test_e11_rejected():
    for T in ((0.0, 0.0, 2.0), (0.0, 0.0, 0.0), (1.0, -2.0, -1.0),
              (1.0, 1.0, -1.0), (2.0, -1.0, 0.0)):
        assert solve(E11, T).kind == "NoSolution", T


@pytest.mark.parametrize("group", [E2, E11])
@pytest.mark.parametrize("positive_first", [True, False])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_l3zero_guard_edge_is_unique(group, positive_first, scale):
    # T1 + T2 > ztol is the row's one decision: just past it, c and v3
    # still come out positive in both sign orders
    for gap in (2.0, 3.0, 5.0):
        big = 1.0 + gap * solver.ZERO_TOL
        T1, T2 = (big, -1.0) if positive_first else (-1.0, big)
        T = (T1 * scale, T2 * scale, -0.5 * scale)
        out = solve(group, T)
        pattern = "(+,-,-)" if positive_first else "(-,+,-)"
        assert (out.kind, out.case_label) == ("Unique",
                                              f"{group.name} {pattern}"), T
        (sol,) = out.solutions
        assert sol.c > 0.0 and min(sol.metric.v) > 0.0


def test_h3_unique():
    out = solve(H3, (1.0, -1.0, -1.0))
    assert out.kind == "Unique"
    (sol,) = out.solutions
    assert abs(sol.c - 2.0) <= 1e-12
    v = np.asarray(sol.metric.v)
    assert np.max(np.abs(v - v[0])) <= 1e-12
    check_sound(H3, out, (1.0, -1.0, -1.0))

    out = solve(H3, (2.0, -3.0, -6.0))
    assert abs(out.solutions[0].c - 2.0 * 2.0 / 18.0) <= 1e-12
    check_sound(H3, out, (2.0, -3.0, -6.0))


def test_h3_rejected():
    for T in ((1.0, 1.0, -1.0), (-1.0, -1.0, -1.0), (1.0, -1.0, 0.0),
              (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)):
        assert solve(H3, T).kind == "NoSolution", T


def test_r3_cases():
    out = solve(R3, (0.0, 0.0, 0.0))
    assert out.kind == "FamilyAnyC"
    assert out.family.constraint is None and out.family.c is None
    assert solve(R3, (0.0, 0.0, 1.0)).kind == "NoSolution"


# ---------------------------------------------------------------------------
# Cross-cutting properties
# ---------------------------------------------------------------------------

def test_soundness_and_normalization_random(rng):
    for g in ALL_GROUPS:
        for _ in range(120):
            T = random_solvable(g, rng)
            out = solve(g, T)
            assert out.kind != "NoSolution", (g.name, T)
            check_sound(g, out, T)
            for sol in out.solutions:
                v = sol.metric.v
                assert abs(v[0] * v[1] * v[2] * sol.c - 1.0) <= 1e-10
            if out.family is not None and out.family.c is not None:
                v = out.family.sample.metric.v
                assert abs(v[0] * v[1] * v[2] * out.family.c - 1.0) <= 1e-10


def _all_solutions(outcome):
    sols = sorted(outcome.solutions, key=lambda x: x.c)
    return sols + ([outcome.family.sample] if outcome.family else [])


# small integers: ties and zeros, which random solvable shapes never draw
SMALL_INTEGERS = st.tuples(*[st.integers(-3, 3)] * 3)


@settings(max_examples=300, deadline=None)
@given(g=st.sampled_from(ALL_GROUPS), seed=st.integers(0, 2 ** 32 - 1),
       integers=st.none() | SMALL_INTEGERS,
       exponent=st.floats(-300.0, 300.0))
def test_scaling_law(g, seed, integers, exponent):
    # Ric(g) = c T holds exactly when Ric(g) = (c/s)(sT): the label, c/s and
    # the metric class carry over to every scale in [1e-300, 1e300]
    s = 10.0 ** exponent
    T = np.asarray(random_solvable(g, np.random.default_rng(seed))
                   if integers is None else integers, dtype=float)
    sT = tuple(s * T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base = solve(g, tuple(T))
        out = solve(g, sT)
        assert out.case_label == base.case_label
        assert classify_signature(g, sT) == out.case_label
        assert out.kind == base.kind
        cb, co = sorted(base.c_values()), sorted(out.c_values())
        assert len(cb) == len(co)
        for b, o in zip(cb, co):
            assert abs(o - b / s) <= 1e-12 * (b / s)
        # metrics match up to scaling
        for b_sol, o_sol in zip(_all_solutions(base), _all_solutions(out)):
            ratio = np.asarray(o_sol.metric.v) / np.asarray(b_sol.metric.v)
            assert np.max(np.abs(ratio - ratio[0])) <= 1e-12 * ratio[0]
        for sol in _all_solutions(out):
            assert certify(g, sol.metric.v, sol.c, sT).passed


@settings(max_examples=400, deadline=None)
@given(g=st.sampled_from([SO3, SL2]), seed=st.integers(0, 2 ** 32 - 1),
       integers=st.none() | SMALL_INTEGERS, shrunk=st.integers(-1, 2),
       shrink=st.floats(-15.0, 0.0), exponent=st.floats(-300.0, 300.0))
def test_cubic_intervals_lie_on_one_side_of_zero(g, seed, integers, shrunk,
                                                  shrink, exponent):
    # root isolation takes intervals on one side of 0; every case row that
    # hands it one must keep to that
    T = (np.random.default_rng(seed).normal(size=3) if integers is None
         else np.asarray(integers, dtype=float))
    if shrunk >= 0:
        T[shrunk] *= 10.0 ** shrink
    _, _, lo, hi, _, _ = solver._cubic_lanes(
        g, solver._match(g, [tuple(10.0 ** exponent * T)]))
    inside = (lo < 0.0) & (0.0 < hi)
    assert not inside.any(), (lo, hi)


def test_c_uniqueness_taxonomy(rng):
    # the constant is unique per tensor except in the SO3 mixed-signature
    # two-solution subcase and for the unconstrained flat families
    for g in ALL_GROUPS:
        for _ in range(80):
            T = random_solvable(g, rng)
            out = solve(g, T)
            cs = out.c_values()
            if out.kind == "TwoSolutions":
                assert g.name == "SO3"
                assert "two-solution" in out.case_label
                assert cs[0] != cs[1]
            elif out.kind == "FamilyAnyC":
                assert out.case_label in ("E2 (0,0,0)", "R3 (0,0,0)")
                assert cs == ()
            else:
                assert len(set(cs)) == 1


def test_classify_examples():
    assert classify_signature(SO3, (10, -1, -1)) == "SO3 (+,-,-) two-solution subcase"
    assert classify_signature(SO3, (8.0, -1, -1)) == "SO3 (+,-,-) unique subcase"
    assert classify_signature(SO3, (4.0, -1, -1)) == "none"
    assert classify_signature(SL2, (-3, -2, 1)) == "SL2 case (iv)"
    assert classify_signature(E2, (1, -2, -1)) == "none"
    assert classify_signature(H3, (1, -1, -1)) == "H3 (+,-,-)"
    assert classify_signature(R3, (0, 0, 0)) == "R3 (0,0,0)"
    # small-scale input near the SO3 two-solution boundary
    assert (classify_signature(SO3, (2.4431595e-4, -1.6630743e-5,
                                     -5.8849653e-6))
            == "SO3 (+,-,-) two-solution subcase")
    # far from unit scale: the label and c of the unit-scale copy, c / s
    for g, T, label, c in (
            (SO3, (1e200,) * 3, "SO3 (+,+,+)", 2e-200),
            (SL2, (-1e150, -1e150, 2e150), "SL2 case (iii)", 1.0472135955e-149),
            (H3, (1e300, -1e300, -1e300), "H3 (+,-,-)", 2e-300),
            (SO3, (2e-12, 1e-12, 1e-12), "SO3 (+,+,+)", 1.527864045e12),
            (E11, (0.0, 0.0, -1e-12), "E11 (0,0,-)", 8e12),
            (R3, (1e-12, 0.0, 0.0), "none", None),
            (E2, (1e-12, -1e-12, 1e-12), "none", None),
            (SO3, (1e301, -1e300, -1e300), "SO3 (+,-,-) two-solution subcase",
             None),
            (SO3, (1e-299, -1e-300, -1e-300),
             "SO3 (+,-,-) two-solution subcase", None),
            (SL2, (-1e300, 0.0, 0.0), "SL2 case (vi)", 8e-300)):
        assert classify_signature(g, T) == label, (g.name, T)
        if c is not None:
            (got,) = solve(g, T).c_values()
            assert abs(got - c) <= 1e-10 * c, (g.name, T)
    (note,) = solve(SL2, (-1e300, 0.0, 0.0)).notes
    assert "nan" not in note and "inf" not in note


def test_classify_agrees_with_solve(rng):
    for g in ALL_GROUPS:
        for _ in range(60):
            T = (random_solvable(g, rng) if rng.random() < 0.5
                 else tuple(rng.uniform(-3, 3, size=3)))
            T = tuple(10.0 ** rng.uniform(-6, 6) * np.asarray(T))
            out = solve(g, T)
            assert classify_signature(g, T) == out.case_label, (g.name, T)
            assert (out.case_label == "none") == (out.kind == "NoSolution"), (g.name, T)


def test_invalid_tensor_rejected():
    with pytest.raises(ValueError):
        DiagonalTensor((1.0, float("nan"), 0.0))
    with pytest.raises(ValueError):
        solve(SO3, (1.0, float("inf"), 0.0))
    # numbers that are not three floats, including a column of three
    for T in INVALID_TENSORS.values():
        with pytest.raises(ValueError):
            solve(SO3, T)
        with pytest.raises(ValueError):
            DiagonalTensor(T)


def test_solver_does_not_import_verify():
    # `verify` checks the solver, so the solver must not depend on it
    path = Path(solver.__file__)
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    assert names and not any("verify" in name for name in names), names


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_case_table_rows_match_disjoint_sign_vectors(group):
    # every row of a group's case table is a sign pattern over the seven
    # forms; each of the 3^7 sign vectors matches at most one row, so the
    # row order decides nothing, and every row matches some vector
    rows = solver._TABLES[group.name].rows
    matched = set()
    for vector in itertools.product("-0+", repeat=7):
        hits = [label for label, signs, _ in rows
                if all(s in (".", v) for s, v in zip(signs, vector))]
        assert len(hits) <= 1, (vector, hits)
        matched.update(hits)
    assert matched == {label for label, *_ in rows}
