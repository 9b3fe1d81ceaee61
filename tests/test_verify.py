import math
import warnings

import numpy as np
import pytest

from prescribed_ricci import (SL2, SO3, H3, DiagonalTensor, certify, residual,
                              solve)
from prescribed_ricci.verify import oracle_residual

from conftest import ALL_GROUPS, INVALID_TENSORS, random_solvable


def test_residual_exact_solutions():
    assert residual(SO3, (1, 1, 1), 2.0, (1, 1, 1)) <= 1e-15
    assert residual(H3, (1, 1, 1), 2.0, (1, -1, -1)) <= 1e-15


def test_residual_wrong_constant():
    # Ric = (2,2,2), cT = (1,1,1): max gap 1 over denominator 1 + 1
    assert abs(residual(SO3, (1, 1, 1), 1.0, (1, 1, 1)) - 0.5) <= 1e-15


def test_residual_of_overflowing_metric_is_inf_without_warnings():
    # Ric of this metric overflows the closed form; the residual says the
    # claim fails by an unbounded amount, as certify's closed-form route does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = residual("so3", (1e200, 1e-100, 1e-100), 1.0, (1, 1, 1))
        cert = certify("so3", (1e200, 1e-100, 1e-100), 1.0, (1, 1, 1))
    assert res == cert.residual_closed_form == math.inf


def test_certify_solver_output_passes():
    out = solve(SO3, (1, 1, 1))
    sol = out.solutions[0]
    cert = certify(SO3, sol.metric.v, sol.c, (1, 1, 1))
    assert cert.passed and cert.normalized
    assert cert.residual_closed_form <= 1e-9
    assert cert.residual_oracle <= 1e-9


def test_certify_catches_corruption():
    out = solve(SO3, (1, 1, 1))
    sol = out.solutions[0]
    v = np.asarray(sol.metric.v).copy()
    v[0] *= 1.1
    cert = certify(SO3, v, sol.c, (1, 1, 1))
    assert not cert.passed
    assert cert.residual_closed_form > 1e-3


def test_certify_family_sample():
    cert = certify(SL2, (1.0, 1.0, 2.0), 8.0, (-1.0, -1.0, 1.0))
    assert cert.passed
    assert not cert.normalized  # v1 v2 v3 c = 16


def test_certify_rescale_invariance(rng):
    for g in ALL_GROUPS:
        for _ in range(20):
            T = random_solvable(g, rng)
            out = solve(g, T)
            sols = list(out.solutions)
            if out.family is not None:
                sols.append(out.family.sample)
            for sol in sols:
                for s in (0.01, 1.0, 250.0):
                    v = s * np.asarray(sol.metric.v)
                    cert = certify(g, v, sol.c, T)
                    assert cert.passed, (g.name, T, s)


def test_two_residual_routes_agree(rng):
    for g in ALL_GROUPS:
        for _ in range(30):
            T = random_solvable(g, rng)
            out = solve(g, T)
            sols = list(out.solutions)
            if out.family is not None:
                sols.append(out.family.sample)
            for sol in sols:
                cert = certify(g, sol.metric.v, sol.c, T)
                assert abs(cert.residual_closed_form
                           - cert.residual_oracle) <= 1e-9


def test_certify_rejects_bad_metric():
    with pytest.raises(ValueError):
        certify(SO3, (1.0, -1.0, 1.0), 1.0, (1, 1, 1))


@pytest.mark.parametrize("T", INVALID_TENSORS.values(),
                         ids=list(INVALID_TENSORS))
def test_invalid_tensor_rejected(T):
    # every entry point reads T as the solver does, never transposed
    for check in (lambda: residual(SO3, (1, 1, 1), 2.0, T),
                  lambda: oracle_residual(SO3, np.eye(3), 2.0, T),
                  lambda: certify(SO3, (1, 1, 1), 2.0, T)):
        with pytest.raises(ValueError):
            check()


def test_tensor_read_as_given():
    # a DiagonalTensor and an array give the residual of their components
    T = np.array([1.0, 1.0, 1.0])
    for given in (T, DiagonalTensor(T), tuple(T)):
        assert residual(SO3, (1, 1, 1), 2.0, given) <= 1e-15
        assert certify(SO3, (1, 1, 1), 2.0, given).passed
