import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from myctheta import (
    DomainError,
    cubic_residual,
    lpu_formula,
    mycielski_theta_formula,
    verify_root_selection,
)
from myctheta.formula import mycielski_cubic_coefficients, star_branch


def sympy_real_roots(a, b, c, d):
    x = sympy.symbols("x")
    poly = sympy.Poly(a * x**3 + b * x**2 + c * x + d, x)
    return sorted(float(r) for r in poly.all_roots() if r.is_real)


def test_cubic_symmetric_example():
    # at t = 2 the branches are sqrt(5), 1 and -sqrt(5), in the trig
    # formula's order: largest, middle, smallest
    assert star_branch(2.0, 0) == pytest.approx(math.sqrt(5), abs=1e-14)
    assert star_branch(2.0, 1) == pytest.approx(1.0, abs=1e-14)
    assert star_branch(2.0, 2) == pytest.approx(-math.sqrt(5), abs=1e-14)


def test_cubic_t2_factoring_oracle():
    # the t = 2 cubic: x^3 - x^2 - 5x + 5 = (x - 1)(x^2 - 5)
    x = sympy.symbols("x")
    quotient, remainder = sympy.div(x**3 - x**2 - 5 * x + 5, x - 1, x)
    assert remainder == 0 and sympy.expand(quotient) == x**2 - 5
    assert mycielski_cubic_coefficients(2.0) == (1, -1, -5, 5)
    expected = sympy_real_roots(1, -1, -5, 5)
    assert sorted(star_branch(2.0, k) for k in range(3)) == pytest.approx(expected, abs=1e-12)


def test_cubic_trig_identity_example():
    # at t = 3 the cubic is x^3 - 12x + 8; x = 2y turns it into 8 (y^3 - 3y + 1),
    # whose roots are 2 cos(2 pi / 9 - 2 pi k / 3)
    assert mycielski_cubic_coefficients(3.0) == (1, 0, -12, 8)
    for k in range(3):
        assert star_branch(3.0, k) == pytest.approx(4 * math.cos(2 * math.pi / 9 - 2 * math.pi * k / 3), abs=1e-14)


def test_formula_values():
    r2 = mycielski_theta_formula(2.0)
    assert r2.m == pytest.approx(math.sqrt(5), abs=1e-12)
    assert abs(r2.cubic_residual) < 1e-12
    r3 = mycielski_theta_formula(3.0)
    assert r3.m == pytest.approx(4 * math.cos(2 * math.pi / 9), abs=1e-12)
    with pytest.raises(DomainError):
        mycielski_theta_formula(1.5)


def test_formula_matches_cubic_solver():
    for t in (2.0, 2.5, 3.0, 5.0, 17.0):
        roots = sorted(np.roots(mycielski_cubic_coefficients(t)).real, reverse=True)
        assert [star_branch(t, k) for k in range(3)] == pytest.approx(roots, abs=1e-10)
        res = mycielski_theta_formula(t)
        assert (res.m, *res.discarded) == pytest.approx(roots, abs=1e-10)


@given(st.floats(2.0, 50.0))
def test_formula_cubic_consistency(t):
    res = mycielski_theta_formula(t)
    assert abs(cubic_residual(t, res.m)) < 1e-8
    assert t < res.m < t + 1.0
    assert verify_root_selection(t)


def test_residual_at_m_equals_t():
    for t in (2.0, 2.5, 3.0, 7.0, 10.0):  # dyadic values evaluate exactly
        assert cubic_residual(t, t) == -1.0
    assert cubic_residual(2.0, 1.0) == 0.0
    assert cubic_residual(2.0, math.sqrt(5)) == pytest.approx(0.0, abs=1e-12)


def test_degenerate_root_factor():
    # t + 1 is not a root of the cubic itself: residual is 4 t (t - 1)
    for t in (2.0, 3.0, 5.0):
        assert cubic_residual(t, t + 1.0) == pytest.approx(4 * t * (t - 1), rel=1e-12)


def test_formula_monotone_scan():
    ts = [2.0 + 0.01 * i for i in range(int((50 - 2) / 0.01) + 1)]
    values = [mycielski_theta_formula(t).m for t in ts]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_formula_cubic_consistency_thousand_samples():
    import random

    rng = random.Random(61)
    for _ in range(1000):
        t = rng.uniform(2.0, 50.0)
        res = mycielski_theta_formula(t)
        assert abs(cubic_residual(t, res.m)) < 1e-8
        assert res.m < t + 1.0


def test_discarded_branches_below_one():
    for t in (2.0, 3.0, 10.0, 100.0):
        res = mycielski_theta_formula(t)
        assert res.discarded[0] <= 1.0 + 1e-12
        assert res.discarded[1] <= 1.0 + 1e-12
        assert star_branch(t, 0) == res.m


def test_lpu_formula():
    assert lpu_formula(Fraction(5, 2)) == Fraction(29, 10)
    assert lpu_formula(1) == 2
    assert lpu_formula(Fraction(1)) == 2
    for n in (2, 3, 7):
        assert lpu_formula(n) == Fraction(n) + Fraction(1, n)
    assert lpu_formula(2.0) == pytest.approx(2.5)
    with pytest.raises(DomainError):
        lpu_formula(0)
    with pytest.raises(DomainError):
        lpu_formula(Fraction(-1, 2))
