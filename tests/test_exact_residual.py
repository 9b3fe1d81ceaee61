"""The float closed-form residual and `solve`'s answers against the exact
residual (`exact_residual`), which reads every float as the rational it is.

Errors are measured in units of eps (1 + cond), cond being the ratio of a
metric's largest component to its smallest: summing x_i = (l.v - 2 l_i v_i)/2
in float loses about eps * cond of it.
"""
import numpy as np
import pytest

from prescribed_ricci import certify, residual, solve_many

from conftest import ALL_GROUPS, random_solvable
from exact_residual import exact_residual

EPS = 2.0 ** -52
N = 400


def cond(v) -> float:
    return max(v) / min(v)


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_float_residual_is_within_rounding_of_the_exact_one(group):
    gen = np.random.default_rng([20240817, len(group.name)])
    worst = 0.0
    for _ in range(N):
        # cond(v) <= 1e4 at a scale of 1e+-3; c and T of either sign
        v = 10.0 ** gen.uniform(0.0, 4.0, 3)
        v = tuple((v / v.min() * 10.0 ** gen.uniform(-3.0, 3.0)).tolist())
        c = float(gen.choice([-1.0, 1.0]) * 10.0 ** gen.uniform(-3.0, 3.0))
        T = tuple((gen.normal(size=3) * 10.0 ** gen.uniform(-3.0, 3.0))
                  .tolist())
        exact = float(exact_residual(group, v, c, T))
        worst = max(worst, abs(residual(group, v, c, T) - exact)
                    / (EPS * (1.0 + cond(v)) * max(1.0, exact)))
    assert worst <= 8.0, worst


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_solve_answers_have_rounding_level_exact_residuals(group, rng):
    Ts = [random_solvable(group, rng) for _ in range(300)]
    worst = 0.0
    for T, out in zip(Ts, solve_many(group, Ts)):
        claims = out.solutions + ((out.family.sample,) if out.family else ())
        for s in claims:
            worst = max(worst, float(exact_residual(group, s.metric.v, s.c, T))
                        / (EPS * (1.0 + cond(s.metric.v))))
    assert worst <= 8.0, worst


# SL2 claims near the guards of cases (i), (ii) and (iii)/(iv), with metrics
# of cond up to 1e9: (T, v, c)
PINNED_SL2 = [
    ((1, -1.5, -(1 - 1e-8)),
     (396.8502627903495, 1.1905508019195998e-06, 396.85026001239765),
     5.333333333333333),
    ((1, -1.5, -(1 - 1e-9)),
     (854.9879814983343, 2.564963617473354e-07, 854.9879808998428),
     5.333333333333333),
    ((1, -1.5, -(1 - 1e-7)),
     (184.20157711335628, 5.526047507885741e-06, 184.2015642192458),
     5.333333333333338),
    ((-1, -0.5, 1 + 1e-8),
     (232.07944157059237, 1.1603971963670106e-06, 232.07944505178398), 16.0),
    ((-1, -1.5, 1 - 1e-8),
     (232.079441098525, 3.48119159666768e-06, 232.07944225892217),
     5.333333333333333),
    ((-3.8945e28, 1.38375213507e28, -1.38375211835e28),
     (4590.502942686817, 1029794871240.1061, 1029794863387.5062),
     2.054178970342791e-28),
]


@pytest.mark.parametrize("T, v, c", PINNED_SL2)
def test_pinned_sl2_claims_are_right_to_rounding(T, v, c):
    # exact residuals 5.0e-17 to 1.01e-16
    assert exact_residual("sl2", v, c, T) <= 2.2e-16


@pytest.mark.xfail(strict=True, reason=(
    "float certify fails all six.  Its closed form reads 6.9e-10 to 2.8e-8 "
    "(only the third claim passes that half): x_i sums two large components "
    "that nearly cancel, keeping about eps * cond correct digits.  Its "
    "Koszul oracle reads 2.6e-9 to 1.4e-7 on these metrics of cond 3e7 to "
    "3e9.  The mark goes once both routes are accurate"))
def test_pinned_sl2_claims_certify():
    assert all(certify("sl2", v, c, T).passed for T, v, c in PINNED_SL2)
