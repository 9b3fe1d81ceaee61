import math
import warnings

import numpy as np
import pytest

from prescribed_ricci import (SL2, SO3, H3, DiagonalMetric, DiagonalTensor,
                              certify, cli, residual, solve)
from prescribed_ricci.verify import (certify_arrays, oracle_residual,
                                     oracle_residual_many)

from conftest import ALL_GROUPS, INVALID_TENSORS, random_solvable


def test_residual_exact_solutions():
    assert residual(SO3, (1, 1, 1), 2.0, (1, 1, 1)) <= 1e-15
    assert residual(H3, (1, 1, 1), 2.0, (1, -1, -1)) <= 1e-15


def test_residual_wrong_constant():
    # Ric = (2,2,2), cT = (1,1,1): max gap 1 over denominator 1 + 1
    assert abs(residual(SO3, (1, 1, 1), 1.0, (1, 1, 1)) - 0.5) <= 1e-15


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_oracle_residual_many_of_no_claims_is_empty(group):
    # `probe` checks a stack that is empty when no frame has the base's kind
    out = oracle_residual_many(group, np.zeros((0, 3, 3)), np.zeros(0),
                               np.zeros((0, 3)))
    assert out.dtype == float and out.shape == (0,)


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
    with pytest.raises(ValueError, match=r"^diagonal metric needs exactly "
                       r"three components$"):
        certify("so3", (1, 1), 1.0, (1, 1, 1))


@pytest.mark.parametrize("group, T, v, c", [
    ("so3", (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), -2.0),
    ("r3", (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), -5.0),
    ("r3", (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0.0)], ids=["so3", "r3", "r3-zero"])
def test_claim_with_non_positive_c_fails(group, T, v, c, capsys):
    # Ric = c T holds exactly here, but the paper's constant is positive
    cert = certify(group, v, c, T)
    assert (cert.residual_closed_form, cert.residual_oracle) == (0.0, 0.0)
    assert not cert.passed
    assert not certify_arrays(group, [v], [c], [T]).passed[0]
    T_flag, v_flag = (",".join(map(str, x)) for x in (T, v))
    assert cli.main(["certify", group, "--T", T_flag, "--v", v_flag,
                     "--c", str(c)]) == 3
    assert "pass: false\n" in capsys.readouterr().out


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



def test_metric_read_as_given():
    # a DiagonalMetric, an array and ints give the certificate of their
    # components, in `certify_arrays` too, which reads such claims one at a
    # time as `certify` reads one
    T = (1, 1, 1)
    expected = certify(SO3, (1.0, 1.0, 1.0), 2.0, T)
    assert expected.passed
    for given in (np.ones(3), DiagonalMetric((1, 1, 1)), [1, 1, 1]):
        assert certify(SO3, given, 2.0, T) == expected
        assert residual(SO3, given, 2.0, T) == expected.residual_closed_form
        certs = certify_arrays(SO3, [given, given], [2.0, 2.0],
                               [T, DiagonalTensor(T)])
        assert certs.passed.tolist() == [True, True]
