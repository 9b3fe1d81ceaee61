import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prescribed_ricci import (E2, E11, H3, R3, SL2, SO3, UnimodularGroup,
                              bracket, check_milnor_frame, group_from_name,
                              structure_constants)
from prescribed_ricci.groups import (e2_frame_change, e11_frame_change,
                                     h3_frame_change, random_rotation,
                                     rotation_so3, sl2_frame_change)

from conftest import ALL_GROUPS


def test_group_lambdas_table():
    assert SO3.lambdas == (2, 2, 2)
    assert SL2.lambdas == (2, 2, -2)
    assert E2.lambdas == (2, 2, 0)
    assert E11.lambdas == (2, -2, 0)
    assert H3.lambdas == (2, 0, 0)
    assert R3.lambdas == (0, 0, 0)


def test_group_from_name_case_insensitive():
    for name in ("so3", "SL2", "e2", "E11", "h3", "R3"):
        assert group_from_name(name).name == name.upper()
    with pytest.raises(ValueError):
        group_from_name("su2")


def test_bad_lambda_triple_rejected():
    with pytest.raises(ValueError):
        UnimodularGroup("SO3", (2.0, 2.0, -2.0))


def test_structure_constants_so3():
    C = structure_constants(SO3)
    assert C[0][1][2] == 2.0
    assert C[1][0][2] == -2.0
    for i in range(3):
        for k in range(3):
            assert C[i][i][k] == 0.0


def test_structure_constants_r3_zero():
    assert not structure_constants(R3).any()


def test_structure_constants_h3_support():
    C = structure_constants(H3)
    nz = {(i, j, k) for i in range(3) for j in range(3) for k in range(3)
          if C[i][j][k] != 0.0}
    assert nz == {(1, 2, 0), (2, 1, 0)}
    assert C[1][2][0] == 2.0 and C[2][1][0] == -2.0


def test_antisymmetry_and_jacobi_exact():
    basis = np.eye(3)
    for g in ALL_GROUPS:
        C = structure_constants(g)
        assert np.array_equal(C, -np.transpose(C, (1, 0, 2)))
        for u in basis:
            for v in basis:
                for w in basis:
                    total = (bracket(C, bracket(C, u, v), w)
                             + bracket(C, bracket(C, v, w), u)
                             + bracket(C, bracket(C, w, u), v))
                    assert np.array_equal(total, np.zeros(3))


def test_bracket_examples():
    assert np.array_equal(bracket(structure_constants(SO3), [1, 0, 0], [0, 1, 0]),
                          [0, 0, 2])
    # expanding the Levi-Civita sum by hand: w_2 = C[0][2][1] = -lam_2 = -2
    assert np.array_equal(bracket(structure_constants(SL2), [1, 0, 0], [0, 0, 1]),
                          [0, -2, 0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
def test_bracket_of_vector_with_itself_vanishes(u):
    for g in ALL_GROUPS:
        assert np.allclose(bracket(structure_constants(g), u, u), 0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       st.floats(-2, 2), st.floats(-2, 2))
def test_bracket_bilinear(u, v, a, b):
    C = structure_constants(SL2)
    u, v = np.array(u), np.array(v)
    lhs = bracket(C, a * u + b * v, v)
    rhs = a * bracket(C, u, v) + b * bracket(C, v, v)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_check_milnor_frame_so3_rotations(rng):
    for _ in range(60):
        assert check_milnor_frame(SO3, random_rotation(rng))
    # axis-angle rotations as well
    assert check_milnor_frame(SO3, rotation_so3([1, 1, 0], 0.3))


def test_check_milnor_frame_so3_rejects_non_rotations(rng):
    assert not check_milnor_frame(SO3, np.diag([2.0, 1.0, 1.0]))
    # reflections have determinant -1 and flip a bracket sign
    assert not check_milnor_frame(SO3, np.diag([1.0, 1.0, -1.0]))
    for _ in range(40):
        M = rng.normal(size=(3, 3))
        if abs(np.linalg.det(M)) < 0.05:
            continue
        orthogonal = np.allclose(M.T @ M, np.eye(3), atol=1e-10)
        special = orthogonal and np.linalg.det(M) > 0
        assert check_milnor_frame(SO3, M) == special
    # perturbed rotations fail
    for _ in range(10):
        M = random_rotation(rng) + rng.normal(scale=1e-3, size=(3, 3))
        assert not check_milnor_frame(SO3, M)


def test_check_milnor_frame_singular_raises():
    with pytest.raises(ValueError):
        check_milnor_frame(SO3, np.zeros((3, 3)))
    # singularity is relative to the size of M: a small basis is a basis
    assert not check_milnor_frame(SO3, 1e-5 * np.eye(3))


def test_sl2_family_passes(rng):
    for _ in range(100):
        M = sl2_frame_change(theta=rng.uniform(0, 2 * np.pi),
                             phi=rng.normal(), s=rng.normal(),
                             a12_sign=int(rng.choice([-1, 1])),
                             branch=int(rng.choice([-1, 1])))
        assert check_milnor_frame(SL2, M)


def test_sl2_family_violations_fail(rng):
    # breaking a12^2 - a13^2 = 1 must break the brackets
    for _ in range(20):
        M = sl2_frame_change(rng.uniform(0, 2 * np.pi), rng.normal(), 0.0)
        M[0, 1] *= 1.01
        assert not check_milnor_frame(SL2, M)


def test_e2cb_families_pass(rng):
    for _ in range(60):
        upper = bool(rng.random() < 0.5)
        a11, a12, a13, a23 = rng.normal(size=4)
        if a11 * a11 + a12 * a12 > 1e-2:
            assert check_milnor_frame(E2, e2_frame_change(a11, a12, a13, a23, upper))
        if abs(a11 * a11 - a12 * a12) > 1e-2:
            assert check_milnor_frame(E11, e11_frame_change(a11, a12, a13, a23, upper))
        a22, a23_, a32, a33 = rng.normal(size=4)
        M = h3_frame_change(a22, a23_, a32, a33,
                            a12=rng.normal(), a13=rng.normal())
        if abs(a22 * a33 - a23_ * a32) > 1e-2:
            assert check_milnor_frame(H3, M)


def test_e2cb_violations_fail(rng):
    for _ in range(20):
        M = e2_frame_change(*rng.normal(size=4), upper=True)
        M[2, 0] = 0.5  # third row must stay (0, 0, +-1)
        if abs(np.linalg.det(M)) > 1e-6:
            assert not check_milnor_frame(E2, M)
        N = h3_frame_change(*rng.normal(size=4))
        N[0, 0] *= 1.5  # breaks the determinant condition on the first column
        if abs(np.linalg.det(N)) > 1e-6:
            assert not check_milnor_frame(H3, N)


def test_r3_any_basis_passes(rng):
    for _ in range(20):
        M = rng.normal(size=(3, 3))
        if abs(np.linalg.det(M)) > 0.05:
            assert check_milnor_frame(R3, M)
