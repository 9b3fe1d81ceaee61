import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_solve_many
from exact_count import Cubic
from prescribed_ricci import (SO3, CubicPoly, cubic, roots_in_interval,
                              solve_many)
from prescribed_ricci.cubic import roots_in_interval_many

GOLDEN = math.sqrt(5.0)


def whole_line(poly: CubicPoly) -> tuple[tuple, tuple]:
    """Roots and multiplicities on (-inf, 0) and then on (0, inf): the
    real roots other than 0, ascending."""
    neg = roots_in_interval(poly, -math.inf, 0.0)
    pos = roots_in_interval(poly, 0.0, math.inf)
    return neg.roots + pos.roots, neg.multiplicities + pos.multiplicities


def whole_line_many(polys: list) -> list[tuple[tuple, tuple]]:
    """`whole_line` of each poly, from one `roots_in_interval_many` call
    per half-line."""
    coeffs = tuple(np.array([poly.coeffs for poly in polys]).T)
    n = len(polys)
    halves = [roots_in_interval_many(coeffs, np.full(n, lo), np.full(n, hi))
              for lo, hi in ((-math.inf, 0.0), (0.0, math.inf))]
    out = []
    for i in range(n):
        found, mults = (), ()
        for roots, m in halves:
            found += tuple(roots[i, m[i] > 0].tolist())
            mults += tuple(m[i, m[i] > 0].tolist())
        out.append((found, mults))
    return out


def test_two_roots_in_interval():
    # 2p^3 + 8p^2 - 10 = 2(p - 1)(p^2 + 5p + 5)
    rep = roots_in_interval(CubicPoly((2, 8, 0, -10)), -10.0, 0.0)
    assert rep.multiplicities == (1, 1)
    assert abs(rep.roots[0] - (-5.0 - GOLDEN) / 2.0) < 1e-10
    assert abs(rep.roots[1] - (-5.0 + GOLDEN) / 2.0) < 1e-10


def test_single_root_on_half_line():
    rep = roots_in_interval(CubicPoly((2, 3, 0, -1)), 0.0, math.inf)
    assert rep.multiplicities == (1,)
    assert abs(rep.roots[0] - 0.5) < 1e-12


def test_interval_with_zero_inside_raises():
    # the isolator takes intervals on one side of 0, with 0 allowed as an
    # end: p^3's triple root 0 is never inside one
    poly = CubicPoly((1.0, 0.0, 0.0, 0.0))
    for lo, hi in ((-1.0, 1.0), (-math.inf, math.inf), (-1e-300, 5e-324)):
        with pytest.raises(ValueError, match="contains 0"):
            roots_in_interval(poly, lo, hi)
    assert roots_in_interval(poly, -1.0, 0.0).roots == ()
    assert roots_in_interval(poly, 0.0, 1.0).roots == ()


def test_root_outside_interval_not_reported():
    rep = roots_in_interval(CubicPoly((2, 8, 0, -10)), 0.0, 10.0)
    assert rep.roots == (1.0,)
    rep = roots_in_interval(CubicPoly((2, 8, 0, -10)), 2.0, 10.0)
    assert rep.roots == ()


def test_boundary_root_excluded():
    # 2p^3 - 14p^2 + 72 = 2(p + 2)(p - 3)(p - 6); intervals with a root
    # exactly on the boundary
    poly = CubicPoly((2, -14, 0, 72))
    rep = roots_in_interval(poly, 3.0, 5.9)
    assert rep.roots == ()
    assert roots_in_interval(poly, -2.0, 0.0).roots == ()
    assert roots_in_interval(poly, 0.0, 3.0).roots == ()
    assert roots_in_interval(poly, -1.9, 0.0).roots == ()
    assert roots_in_interval(poly, 0.0, 5.9).roots == (3.0,)


def test_degenerate_polynomial_raises():
    with pytest.raises(ValueError):
        roots_in_interval(CubicPoly((0.0, 0.0, 0.0, 0.0)), -1.0, 1.0)
    with pytest.raises(ValueError):
        roots_in_interval(CubicPoly((1.0, 0.0, 0.0, 0.0)), 1.0, -1.0)


def test_linear_term_and_zero_cubic_term_raise():
    with pytest.raises(ValueError, match="linear term"):
        roots_in_interval(CubicPoly((2.0, 8.0, -1.0, -10.0)), -10.0, 10.0)
    with pytest.raises(ValueError, match="linear term"):
        roots_in_interval(CubicPoly((2.0, 0.0, 1e-300, 0.0)), -1.0, 1.0)
    with pytest.raises(ValueError, match="cubic term"):
        roots_in_interval(CubicPoly((0.0, 1.0, 0.0, -1.0)), -10.0, 10.0)
    with pytest.raises(ValueError, match="cubic term"):
        roots_in_interval(CubicPoly((1e-300, 1.0, 0.0, -1.0)), -10.0, 10.0)


def planted(r1: float, r2: float) -> tuple[CubicPoly, list[float]]:
    """2(p - r1)(p - r2)(p - r3) with r3 = -r1 r2 / (r1 + r2), the third
    root that makes the linear term vanish, and its sorted roots."""
    r3 = -r1 * r2 / (r1 + r2)
    coeffs = (2.0, -2.0 * (r1 + r2 + r3), 0.0, -2.0 * r1 * r2 * r3)
    return CubicPoly(coeffs), sorted((r1, r2, r3))


def test_planted_simple_roots_bulk():
    rng = np.random.default_rng(7)
    worst = 0.0
    drawn = []
    for _ in range(10_000):
        while True:
            poly, roots = planted(*rng.uniform(-10.0, 10.0, size=2))
            if abs(roots[0]) <= 10 and abs(roots[2]) <= 10 and np.min(
                    np.diff(roots)) > 1e-2:
                break
        drawn.append((poly, roots))
    lines = whole_line_many([poly for poly, _ in drawn])
    for (poly, roots), (found, mults) in zip(drawn, lines):
        assert len(found) == 3
        assert mults == (1, 1, 1)
        for r in found:
            scale = CubicPoly(tuple(map(abs, poly.coeffs)))(abs(r))
            assert abs(poly(r)) <= 1e-12 * max(1.0, scale)
        worst = max(worst, float(np.max(np.abs(np.array(found) - roots))))
    assert worst < 1e-10


def test_planted_double_and_triple_roots():
    rng = np.random.default_rng(11)
    a_s = [a for a in rng.uniform(-10.0, 10.0, 2000).tolist() if abs(a) >= 0.1]
    # 2(p - a)^2 (p + a/2) = 2p^3 - 3a p^2 + a^3
    lines = whole_line_many([CubicPoly((2.0, -3.0 * a, 0.0, a ** 3))
                             for a in a_s])
    for a, (found, mults) in zip(a_s, lines):
        assert sum(mults) == 3
        assert sorted(mults) == [1, 2]
        by_mult = dict(zip(mults, found))
        assert abs(by_mult[2] - a) < 1e-10 * max(1.0, abs(a))
        assert abs(by_mult[1] + 0.5 * a) < 1e-10 * max(1.0, abs(a))
    # with no linear term, a triple root sits at 0: a3 p^3, whose root is
    # the shared end of the two half-lines and so inside neither
    for a3 in 10.0 ** rng.uniform(-6.0, 6.0, size=200):
        assert whole_line(CubicPoly((float(a3), 0.0, 0.0, 0.0))) == ((), ())


def test_one_real_root_with_complex_pair():
    rng = np.random.default_rng(13)
    for _ in range(500):
        a = float(rng.uniform(-5.0, 5.0))
        b = float(rng.uniform(0.5, 5.0))
        if abs(a) < 0.5:
            continue
        # 2 (p - r) ((p - a)^2 + b^2), whose linear term vanishes at
        # r = -(a^2 + b^2) / (2a)
        r = -(a * a + b * b) / (2.0 * a)
        coeffs = (2.0, -2.0 * (2.0 * a + r), 0.0, -2.0 * r * (a * a + b * b))
        found, mults = whole_line(CubicPoly(coeffs))
        assert mults == (1,)
        assert abs(found[0] - r) < 1e-10 * max(1.0, abs(r))


@settings(max_examples=80, deadline=None)
@given(st.floats(-20.0, 20.0), st.floats(-100.0, 100.0),
       st.floats(0.0, 12.0), st.floats(0.0, 12.0), st.booleans(),
       st.floats(0.01, 0.49), st.floats(0.51, 0.99))
def test_interval_shrinking_monotone(a2, a0, lo, hi, negative, f1, f2):
    if negative:
        lo, hi = -hi, -lo
    if not lo < hi:
        return
    poly = CubicPoly((2.0, a2, 0.0, a0))
    outer = roots_in_interval(poly, lo, hi)
    lo2 = lo + f1 * (hi - lo)
    hi2 = lo + f2 * (hi - lo)
    inner = roots_in_interval(poly, lo2, hi2)
    for r in inner.roots:
        assert any(abs(r - s) <= 1e-8 * max(1.0, abs(s)) for s in outer.roots)


def test_root_on_the_inflection_node():
    # 2p^3 - 6p^2 + 4 = 2(p - 1)(p^2 - 2p - 2): the root 1 is exactly the
    # inflection point -a2 / (3 a3), a node of the split; and its mirror
    # 2p^3 + 6p^2 - 4 on the negative side
    for sign in (1.0, -1.0):
        poly = CubicPoly((2.0, -6.0 * sign, 0.0, 4.0 * sign))
        lo, hi = sorted((0.0, 3.0 * sign))
        rep = roots_in_interval(poly, lo, hi)
        assert rep.multiplicities == (1, 1)
        one, other = sorted(rep.roots, key=abs)
        assert one == sign
        assert abs(other - sign * (1.0 + math.sqrt(3.0))) <= 2 * math.ulp(other)
        # with 1 an interval end, that root is left out
        lo, hi = sorted((sign, 3.0 * sign))
        assert roots_in_interval(poly, lo, hi).roots == (other,)


def test_root_below_one_to_a_few_ulp():
    # a root of modulus below 1, where ROOT_TOL is an absolute step: the
    # stop at rounding level and the extra step still give it to 4 ulp of
    # the exact root (Newton in rational arithmetic from the float root)
    b, d = 1.1265585474157256, -0.0003832898051460663
    roots, mults = roots_in_interval_many(
        (2.0, b, 0.0, d), np.array([-1.2515585474157256]), np.array([0.0]))
    assert mults[0, 1] == 1
    found = roots[0, 1]
    exact, x = Cubic(b, d), Fraction(found)
    for _ in range(8):
        x -= exact(x) / ((6 * x + 2 * exact.b) * x)
        x = Fraction(round(x * 2 ** 400), 2 ** 400)
    assert abs(exact(x)) < Fraction(1, 2 ** 390)
    assert abs(Fraction(found) - x) <= 4 * Fraction(math.ulp(found))


def test_newton_steps_stay_under_the_cap(monkeypatch):
    """No lane of the ten families of `test_root_isolation_matches_scalar`
    or of the seed-1 sweep grid reaches `cubic.NEWTON_STEPS` (64).

    Why the cap holds: Newton starts at an end of its piece, so within the
    piece's width of the root, and every piece lies inside the Cauchy bound
    B = 1 + max(|a2|, |a0|) / |a3|.  It converges linearly, at a ratio of
    at most 2/3 (a cubic has three roots at most; beside a near-double root
    the ratio is 1/2), until its error falls below the distance to the
    nearest other root, and quadratically after that; so the step count
    grows only with log(width / distance).  Outside the ROOT_TOL band of
    double roots that distance is at least about 3e-6 |crit| (two roots
    closer to the critical point crit are reported as one double root).
    The slowest lanes take 31 steps (the near-double family) and 14 (the
    sweep grid), half the cap.

    Each call of `cubic._newton` runs again with the cap lowered to 39
    steps (the families) or 19 (the sweep grid).  A lane that stops by
    itself within the lowered cap ends on the same bits.  A lane that
    needs two or more steps past it does not: each of those steps moves
    it by more than ROOT_TOL, and Newton moves a lane one way only.  So
    equal bits bound every lane by 40 steps (the families) or 20 (the
    sweep grid).
    """
    newton, cap, same = cubic._newton, [39], []

    def capped(*args):
        roots = newton(*args)
        with monkeypatch.context() as m:
            m.setattr(cubic, "NEWTON_STEPS", cap[0])
            same.append(np.array_equal(newton(*args), roots, equal_nan=True))
        return roots

    monkeypatch.setattr(cubic, "_newton", capped)
    test_solve_many.test_root_isolation_matches_scalar()
    cap[0] = 19
    list(solve_many(SO3, test_solve_many.sweep_grid(10.012468379325805, 100)))
    assert same == [True] * (10 + 10)
