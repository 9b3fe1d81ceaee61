import numpy as np
import pytest

from prescribed_ricci import (SO3, check_milnor_frame, diagonalize_so3, solve,
                              symmetric_from_upper)
from prescribed_ricci.groups import random_rotation


def test_identity_tensor():
    res = diagonalize_so3(np.eye(3))
    assert np.allclose(res.rotation, np.eye(3))
    assert np.allclose(res.diagonal.T, (1.0, 1.0, 1.0))


def test_reordering_only():
    res = diagonalize_so3(np.diag([1.0, 3.0, 2.0]))
    assert res.diagonal.T == (3.0, 2.0, 1.0)
    R = res.rotation
    assert np.allclose(R.T @ np.diag([1.0, 3.0, 2.0]) @ R, np.diag([3.0, 2.0, 1.0]),
                       atol=1e-12)
    assert abs(np.linalg.det(R) - 1.0) <= 1e-12


def test_block_example():
    T = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
    res = diagonalize_so3(T)
    assert np.allclose(res.diagonal.T, (5.0, 3.0, 1.0), atol=1e-12)
    # eigenvectors (e3, (e1+e2)/sqrt2, (e1-e2)/sqrt2) up to sign
    R = np.abs(res.rotation)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(R[:, 0], (0, 0, 1), atol=1e-12)
    assert np.allclose(R[:, 1], (s, s, 0), atol=1e-12)
    assert np.allclose(R[:, 2], (s, s, 0), atol=1e-12)


def test_upper_triangle_input():
    res = diagonalize_so3((2.0, 1.0, 0.0, 2.0, 0.0, 5.0))
    assert np.allclose(res.diagonal.T, (5.0, 3.0, 1.0), atol=1e-12)
    with pytest.raises(ValueError):
        symmetric_from_upper((1.0, 2.0))


def test_reconstruction_random(rng):
    for _ in range(1000):
        A = rng.normal(size=(3, 3))
        T = (A + A.T) / 2.0
        res = diagonalize_so3(T)
        R, d = res.rotation, np.asarray(res.diagonal.T)
        scale = max(1.0, np.max(np.abs(T)))
        assert np.max(np.abs(R @ np.diag(d) @ R.T - T)) <= 1e-12 * scale
        assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-12
        assert np.linalg.det(R) > 0.0
        assert d[0] >= d[1] >= d[2]
        assert check_milnor_frame(SO3, R)


def test_tied_spectra_at_every_scale(rng):
    # integer spectra in [-3, 3] tie often; the scale spans twelve decades
    for _ in range(2000):
        d = rng.integers(-3, 4, size=3) * 10.0 ** rng.uniform(-6.0, 6.0)
        Q = random_rotation(rng)
        T = Q @ np.diag(d) @ Q.T
        res = diagonalize_so3(T)
        R, e = res.rotation, np.asarray(res.diagonal.T)
        assert np.max(np.abs(R @ np.diag(e) @ R.T - T)) <= 1e-12 * np.max(np.abs(T))
        assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-12
        assert np.linalg.det(R) > 0.0
        assert e[0] >= e[1] >= e[2]


@pytest.mark.parametrize("s", [1e-300, 1e-160, 1e160, 1e300])
def test_extreme_scales(rng, s):
    # the Frobenius norm of these under- or overflows; the spectrum must not
    Q = random_rotation(rng)
    T = Q @ np.diag([3.0, 2.0, 1.0]) @ Q.T * s
    res = diagonalize_so3(T)
    assert np.allclose(np.asarray(res.diagonal.T) / s, (3.0, 2.0, 1.0),
                       rtol=1e-12, atol=0.0)
    assert np.max(np.abs(res.rotation.T @ res.rotation - np.eye(3))) <= 1e-12


def test_rejects_non_symmetric_input():
    T = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        diagonalize_so3(T)


@pytest.mark.parametrize("T", [np.eye(2), np.eye(4), np.ones(5), np.ones((3, 3, 3))])
def test_rejects_non_3x3_input(T):
    with pytest.raises(ValueError):
        diagonalize_so3(T)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_input(bad):
    T = np.eye(3)
    T[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        diagonalize_so3(T)


def test_repeated_eigenvalues_keep_orthogonality(rng):
    for _ in range(50):
        R = random_rotation(rng)
        T = R @ np.diag([2.0, 2.0, 1.0]) @ R.T
        res = diagonalize_so3(T)
        assert np.max(np.abs(res.rotation.T @ res.rotation - np.eye(3))) <= 1e-12
        assert np.allclose(res.diagonal.T, (2.0, 2.0, 1.0), atol=1e-10)


def test_solve_invariant_under_rotation(rng):
    base_T = np.diag([3.0, 2.0, 1.0])
    base = solve(SO3, (3.0, 2.0, 1.0))
    for _ in range(50):
        R = random_rotation(rng)
        T_rot = R @ base_T @ R.T
        res = diagonalize_so3(T_rot)
        out = solve(SO3, res.diagonal.T)
        assert out.kind == base.kind
        assert abs(out.solutions[0].c - base.solutions[0].c) <= 1e-9
