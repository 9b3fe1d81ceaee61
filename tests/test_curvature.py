import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prescribed_ricci import (E2, E11, H3, R3, SL2, SO3, DiagonalMetric,
                              ricci_diagonal, ricci_koszul,
                              structure_constants, x_coefficients)
from prescribed_ricci.groups import (e2_frame_change, random_rotation,
                                     sl2_frame_change)

from conftest import ALL_GROUPS


def test_diagonal_metric_validation():
    with pytest.raises(ValueError):
        DiagonalMetric((1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        DiagonalMetric((1.0, 0.0, 1.0))
    m = DiagonalMetric((1.0, 2.0, 3.0))
    assert np.array_equal(m.gram(), np.diag([1.0, 2.0, 3.0]))


def test_x_coefficients_examples():
    assert np.allclose(x_coefficients(SO3, (1, 1, 1)), (1, 1, 1))
    assert np.allclose(x_coefficients(SL2, (1, 1, 1)), (-1, -1, 3))
    assert np.allclose(x_coefficients(H3, (1, 2, 3)), (-1, 1, 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3))
def test_x_sum_identity(v):
    for g in ALL_GROUPS:
        x = x_coefficients(g, v)
        lv = np.dot(g.lambdas, v)
        assert abs(x.sum() - lv / 2.0) <= 1e-10 * (1.0 + abs(lv))


def test_ricci_diagonal_examples():
    assert np.allclose(ricci_diagonal(SO3, (1, 1, 1)), (2, 2, 2))
    assert np.allclose(ricci_diagonal(E2, (1, 1, 1)), (0, 0, 0))
    assert np.allclose(ricci_diagonal(H3, (1, 1, 1)), (2, -2, -2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3),
       st.floats(0.001, 1000.0))
def test_ricci_scale_invariance(v, s):
    # the identity is exact; float error is driven by cancellation in the
    # x_i sums, so compare relative to that conditioning scale
    v = np.asarray(v)
    j, k = [1, 2, 0], [2, 0, 1]
    for g in ALL_GROUPS:
        r1 = ricci_diagonal(g, v)
        r2 = ricci_diagonal(g, s * v)
        x = np.abs(x_coefficients(g, v))
        big = np.abs(np.asarray(g.lambdas) * v).sum()
        cond = np.max(2.0 * big * (x[j] + x[k]) / (v[j] * v[k]))
        assert np.max(np.abs(r1 - r2)) <= 1e-12 * (cond + 1.0)


def test_ricci_diagonal_broadcasts(rng):
    vs = np.exp(rng.uniform(-2, 2, size=(50, 3)))
    batch = ricci_diagonal(SL2, vs)
    for i in range(50):
        assert np.allclose(batch[i], ricci_diagonal(SL2, vs[i]))


def test_koszul_frozen_examples():
    assert np.allclose(ricci_koszul(structure_constants(SO3), np.eye(3)),
                       np.diag([2.0, 2.0, 2.0]), atol=1e-14)
    # derived from the closed form at v = (1,1,1) for bracket triple (2,-2,0)
    assert np.allclose(ricci_koszul(structure_constants(E11), np.eye(3)),
                       np.diag([0.0, 0.0, -8.0]), atol=1e-13)


def test_koszul_flat_r3(rng):
    sc = structure_constants(R3)
    for _ in range(10):
        A = rng.normal(size=(3, 3))
        g = A @ A.T + 0.5 * np.eye(3)
        assert np.max(np.abs(ricci_koszul(sc, g))) == 0.0


def test_koszul_rejects_bad_metrics():
    sc = structure_constants(SO3)
    with pytest.raises(ValueError):
        ricci_koszul(sc, np.diag([1.0, -1.0, 1.0]))
    # symmetry is relative to the size of g, so the check holds at any scale
    for s in (1.0, 1e-20):
        with pytest.raises(ValueError):
            ricci_koszul(sc, s * np.array([[1, 0.5, 0], [0, 1, 0], [0, 0, 1.0]]))


def test_oracle_equivalence_log_uniform(rng):
    for g in ALL_GROUPS:
        sc = structure_constants(g)
        for _ in range(200):
            v = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=3))
            rk = ricci_koszul(sc, np.diag(v))
            rd = ricci_diagonal(g, v)
            scale = np.max(np.abs(rd)) + 1.0
            assert np.max(np.abs(np.diag(rk) - rd)) <= 1e-9 * scale
            off = rk - np.diag(np.diag(rk))
            assert np.max(np.abs(off)) <= 1e-10 * scale


def test_koszul_frame_covariance(rng):
    cases = {
        "SO3": lambda: random_rotation(rng),
        "SL2": lambda: sl2_frame_change(rng.uniform(0, 2 * np.pi),
                                        rng.normal(scale=0.5),
                                        rng.normal(scale=0.5)),
        "E2": lambda: e2_frame_change(*rng.normal(size=4)),
    }
    for name, make in cases.items():
        from prescribed_ricci import group_from_name
        g = group_from_name(name)
        sc = structure_constants(g)
        for _ in range(20):
            M = make()
            if abs(np.linalg.det(M)) < 0.05:
                continue
            A = rng.normal(size=(3, 3))
            gram = A @ A.T + 0.5 * np.eye(3)
            lhs = ricci_koszul(sc, M.T @ gram @ M)
            rhs = M.T @ ricci_koszul(sc, gram) @ M
            scale = np.max(np.abs(rhs)) + 1.0
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale
