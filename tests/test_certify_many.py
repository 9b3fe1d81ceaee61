"""`certify_arrays` is `certify` over N claims: lane by lane the same
certificates, compared with `==` and `repr`, so every residual bit for bit,
and the same errors."""
import warnings

import numpy as np
import pytest

from prescribed_ricci import (SO3, Certificate, certify, ricci_koszul, solve,
                              structure_constants)
from prescribed_ricci.verify import certify_arrays, oracle_residual, residual

from conftest import ALL_GROUPS, random_solvable


def mixed_claims(group, gen, n=150):
    """(vs, cs, Ts): the solutions and family samples of solvable and
    random tensors at scales 1e-8..1e8, and random claims, some with
    |c| * |T|_inf past the float range."""
    vs, cs, Ts = [], [], []
    for _ in range(n):
        T = (random_solvable(group, gen) if gen.random() < 0.7
             else tuple(gen.normal(size=3)))
        T = tuple(float(t) * 10.0 ** gen.uniform(-8, 8) for t in T)
        out = solve(group, T)
        claims = list(out.solutions)
        if out.family is not None:
            claims.append(out.family.sample)
        for sol in claims:
            vs.append(sol.metric.v)
            cs.append(sol.c)
            Ts.append(T)
        vs.append(tuple(10.0 ** gen.uniform(-5, 5, size=3)))
        cs.append(float(gen.choice([-1.0, 1.0]) * 10.0 ** gen.uniform(-300, 300)))
        Ts.append(T)
    return vs, cs, Ts


def lanes(certs):
    """The certificate of each lane of `certify_arrays`' arrays, its fields
    as Python scalars, as `certify` gives them."""
    return [Certificate(*lane) for lane in zip(*[col.tolist() for col in certs])]


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_equals_certify(group):
    vs, cs, Ts = mixed_claims(group, np.random.default_rng(233))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        certs = certify_arrays(group, vs, cs, Ts)
    assert type(certs) is Certificate
    many = lanes(certs)
    scalar = [certify(group, v, c, T) for v, c, T in zip(vs, cs, Ts)]
    assert all(type(c) is Certificate for c in scalar)
    assert many == scalar
    # == on floats hides the sign of zero; repr does not
    assert [repr(c) for c in many] == [repr(c) for c in scalar]
    assert any(c.passed for c in many) and not all(c.passed for c in many)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_routes_equal_the_residual_functions(group):
    # the certificate's residuals are `residual` and `oracle_residual` on
    # the diagonal Gram matrix, exactly
    vs, cs, Ts = mixed_claims(group, np.random.default_rng(1607), n=40)
    for v, c, T, cert in zip(vs, cs, Ts,
                             lanes(certify_arrays(group, vs, cs, Ts))):
        assert cert.residual_closed_form == residual(group, v, c, T)
        assert cert.residual_oracle == oracle_residual(group, np.diag(v), c, T)


def test_no_claims():
    for certs in (certify_arrays(SO3, [], [], []),
                  certify_arrays(SO3, np.empty((0, 3)), np.empty(0),
                                 np.empty((0, 3)))):
        assert type(certs) is Certificate
        assert [len(col) for col in certs] == [0] * 4
        assert lanes(certs) == []


def test_overflowing_lane_stays_finite():
    # |c| * |T|_inf ~ 1e600: Ric is 2 against c*T ~ 1e600, so the normalized
    # residual is 1; the lane next to it is an exact solution
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        over, exact = lanes(certify_arrays(
            SO3, [(1.0, 1.0, 1.0), (1.0, 1.0, 1.0)], [1e300, 2.0],
            [(1e300,) * 3, (1.0,) * 3]))
    assert over == certify(SO3, (1.0, 1.0, 1.0), 1e300, (1e300,) * 3)
    assert over.residual_closed_form == pytest.approx(1.0, rel=1e-12)
    assert over.residual_oracle == pytest.approx(1.0, rel=1e-12)
    assert not over.passed
    assert exact.passed


@pytest.mark.parametrize("bad", [(1.0, -1.0, 1.0), (1.0, 0.0, 1.0),
                                 (1.0, -0.0, 1.0), (float("nan"), 1.0, 1.0),
                                 (1.0, float("inf"), 1.0),
                                 (-float("inf"), 1.0, 1.0)])
def test_bad_metric_raises_as_certify_does(bad):
    with pytest.raises(ValueError) as scalar:
        certify(SO3, bad, 1.0, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError) as many:
        certify_arrays(SO3, [(1.0, 1.0, 1.0), bad, (1.0, -1.0, 1.0)],
                       [1.0] * 3, [(1.0, 1.0, 1.0)] * 3)
    assert str(many.value) == str(scalar.value)


@pytest.mark.parametrize("bad", [(1.0, float("nan"), 0.0),
                                 (float("inf"), 1.0, 1.0),
                                 (1.0, 1.0, -float("inf"))])
def test_non_finite_tensor_raises_as_certify_does(bad):
    with pytest.raises(ValueError) as scalar:
        certify(SO3, (1.0, 1.0, 1.0), 2.0, bad)
    assert "non-finite tensor components" in str(scalar.value)
    # the first failing lane raises, whether its metric or its T is bad
    for vs, Ts, first in (
            ([(1.0,) * 3, (1.0,) * 3, (1.0, -1.0, 1.0)],
             [(1.0,) * 3, bad, bad], ((1.0,) * 3, bad)),
            ([(1.0,) * 3, (1.0, -1.0, 1.0), (1.0,) * 3],
             [(1.0,) * 3, bad, (1.0,) * 3], ((1.0, -1.0, 1.0), bad)),
            ([(1.0,) * 3, (1.0,) * 3, (1.0, -1.0, 1.0)],
             [(1.0,) * 3, (1.0,) * 3, bad], ((1.0, -1.0, 1.0), bad))):
        with pytest.raises(ValueError) as scalar:
            certify(SO3, first[0], 2.0, first[1])
        with pytest.raises(ValueError) as many:
            certify_arrays(SO3, vs, [2.0] * 3, Ts)
        assert str(many.value) == str(scalar.value)


def test_mismatched_shapes_raise():
    with pytest.raises(ValueError):
        certify_arrays(SO3, [(1.0, 1.0, 1.0)], [1.0, 2.0], [(1.0, 1.0, 1.0)])
    with pytest.raises(ValueError):
        certify_arrays(SO3, [(1.0, 1.0)], [1.0], [(1.0, 1.0, 1.0)])


def gram_stack(gen, n):
    A = gen.normal(size=(n, 3, 3))
    return A @ np.swapaxes(A, 1, 2) + 0.1 * np.eye(3)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_stacked_koszul(group):
    sc = structure_constants(group)
    gen = np.random.default_rng(7)
    # diagonal Gram matrices, as certify_arrays stacks them: bit for bit
    diag = np.zeros((200, 3, 3))
    diag[:, [0, 1, 2], [0, 1, 2]] = 10.0 ** gen.uniform(-6, 6, size=(200, 3))
    stacked = ricci_koszul(sc, diag)
    assert stacked.shape == (200, 3, 3)
    for g, ric in zip(diag, stacked):
        assert np.array_equal(ricci_koszul(sc, g), ric)
    # full Gram matrices: equal to rounding
    full = gram_stack(gen, 200)
    for g, ric in zip(full, ricci_koszul(sc, full)):
        single = ricci_koszul(sc, g)
        assert np.max(np.abs(single - ric)) <= 1e-12 * (1.0 + np.max(np.abs(single)))


def test_stacked_koszul_checks_every_lane():
    sc = structure_constants(SO3)
    stack = np.stack([np.eye(3)] * 4)
    nonsymmetric = stack.copy()
    nonsymmetric[2, 0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        ricci_koszul(sc, nonsymmetric)
    indefinite = stack.copy()
    indefinite[3] = np.diag([1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="positive-definite"):
        ricci_koszul(sc, indefinite)
    with pytest.raises(ValueError, match="3x3"):
        ricci_koszul(sc, np.ones((4, 2, 2)))
