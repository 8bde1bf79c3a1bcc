import math

import numpy as np
import pytest

from rspb.errors import PreconditionError, RateOutOfRangeError
from rspb.gaussian import (
    AwgnParams,
    awgn_capacity,
    awgn_parametric,
    awgn_rho_star,
    gaussian_closed_forms,
    shannon_cone,
    theta_of_rho,
)
from oracle_helpers import fd_derivative_check

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
UNIT = AwgnParams(sigma2=1.0, cost=1.0)
PARAM_GRID = [
    AwgnParams(sigma2=s, cost=c) for s in (0.5, 1.0, 2.0) for c in (0.1, 1.0, 10.0)
]


def test_params_validation():
    with pytest.raises(PreconditionError):
        AwgnParams(sigma2=0.0, cost=1.0)
    with pytest.raises(PreconditionError):
        AwgnParams(sigma2=1.0, cost=0.0)


def test_theta_anchors():
    assert theta_of_rho(0.5, UNIT) == pytest.approx(GOLDEN, abs=1e-12)
    for params in PARAM_GRID:
        assert theta_of_rho(1.0, params) == pytest.approx(
            params.sigma2 + params.cost, rel=1e-14
        )
    tiny = AwgnParams(sigma2=2.0, cost=1e-9)
    assert theta_of_rho(0.3, tiny) == pytest.approx(2.0, abs=1e-8)


def test_theta_quadratic_identity_on_grid():
    # rho cost theta == (theta - sigma2)(rho theta + (1-rho) sigma2)
    worst = 0.0
    for params in PARAM_GRID:
        for rho in np.arange(0.05, 1.0001, 0.05):
            theta = theta_of_rho(float(rho), params)
            lhs = rho * params.cost * theta
            rhs = (theta - params.sigma2) * (rho * theta + (1 - rho) * params.sigma2)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    assert worst <= 1e-12


def test_capacity_order_one_and_continuity():
    assert awgn_capacity(1.0, UNIT) == pytest.approx(0.5 * math.log(2.0), rel=1e-14)
    for params in PARAM_GRID:
        below = awgn_capacity(1.0 - 1e-6, params)
        at = awgn_capacity(1.0, params)
        assert abs(below - at) < 1e-5
    small = AwgnParams(sigma2=1.0, cost=1e-12)
    assert awgn_capacity(0.5, small) < 1e-12


def test_capacity_half_order_value():
    # direct evaluation of the closed form at the golden-ratio point
    mix = 0.5 * GOLDEN + 0.5
    expected = 0.25 / mix + (-2.0) * (0.25 * math.log(GOLDEN) - 0.5 * math.log(mix))
    assert awgn_capacity(0.5, UNIT) == pytest.approx(expected, rel=1e-13)


def test_parametric_golden_point():
    point = awgn_parametric(0.5, UNIT)
    mix = 0.5 * GOLDEN + 0.5
    assert point.rate == pytest.approx(0.5 * math.log(mix), abs=1e-13)
    assert point.rate == pytest.approx(0.1346382, abs=1e-7)
    assert point.esp == pytest.approx(0.25 / mix + 0.5 * math.log(mix / GOLDEN), abs=1e-13)
    assert point.esp == pytest.approx(0.0850153, abs=1e-7)
    expected_a2 = (GOLDEN - 1.0) ** 2 / (2 * mix**2) + GOLDEN / mix**3
    assert point.a2 == pytest.approx(expected_a2, rel=1e-12)
    assert point.a2 == pytest.approx(0.8328, abs=1e-4)
    # exponent of the set-level definition: (1-rho)/rho (C - R)
    c_half = awgn_capacity(0.5, UNIT)
    assert point.esp == pytest.approx(c_half - point.rate, abs=1e-12)


def test_parametric_degenerates_with_cost():
    point = awgn_parametric(0.5, AwgnParams(sigma2=1.0, cost=1e-9))
    assert point.a2 < 1e-8
    assert point.esp < 1e-9


def test_rho_star_round_trip():
    point = awgn_parametric(0.5, UNIT)
    assert awgn_rho_star(point.rate, UNIT) == pytest.approx(0.5, abs=1e-9)
    for params in PARAM_GRID:
        for rho in (0.1, 0.35, 0.65, 0.9):
            rate = awgn_parametric(rho, params).rate
            assert awgn_rho_star(rate, params) == pytest.approx(rho, abs=1e-10)
    with pytest.raises(RateOutOfRangeError):
        awgn_rho_star(UNIT.capacity_order_one() + 0.01, UNIT)
    with pytest.raises(RateOutOfRangeError):
        awgn_rho_star(0.0, UNIT)


def test_rho_star_monotone_and_capacity_limit():
    c1 = UNIT.capacity_order_one()
    rates = np.linspace(0.01, c1 - 1e-9, 40)
    stars = [awgn_rho_star(float(r), UNIT) for r in rates]
    assert all(b > a for a, b in zip(stars, stars[1:]))
    assert stars[-1] > 1.0 - 1e-6


def test_gaussian_closed_forms_examples():
    d1, mean, var = gaussian_closed_forms(0.4, 0.0, 1.0, UNIT)
    assert d1 == 0.0 and mean == 0.0 and var == pytest.approx(1.0, rel=1e-15)
    d1, mean, var = gaussian_closed_forms(0.5, 1.0, GOLDEN, UNIT)
    assert d1 == pytest.approx((2.0 - GOLDEN) / (2 * GOLDEN) + 0.5 * math.log(GOLDEN), abs=1e-13)
    assert d1 == pytest.approx(0.3586399, abs=1e-7)
    mix = 0.5 * GOLDEN + 0.5
    assert mean == pytest.approx(0.5 * GOLDEN / mix, rel=1e-13)
    assert var == pytest.approx(GOLDEN / mix, rel=1e-13)
    # tilted variance sits strictly between the noise and center variances
    for rho in (0.2, 0.5, 0.8):
        theta = theta_of_rho(rho, UNIT)
        _, _, var = gaussian_closed_forms(rho, 1.0, theta, UNIT)
        assert UNIT.sigma2 < var < theta


def test_cone_quantities_unit_snr():
    cone = shannon_cone(0.1346382347796308, UNIT)
    assert cone.theta_c == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert cone.sgex == pytest.approx(0.0850153, abs=2e-6)
    # critical angle solves 2 cos t = amp G(t) sin^2 t; residual checked inside
    assert 0 < cone.theta_cr < math.pi / 2


def test_cone_identity_with_exponent_across_grid():
    worst = 0.0
    for params in PARAM_GRID:
        c1 = params.capacity_order_one()
        for frac in np.linspace(0.05, 0.95, 50):
            rate = float(frac * c1)
            rho = awgn_rho_star(rate, params)
            esp = awgn_parametric(rho, params).esp
            sgex = shannon_cone(rate, params).sgex
            worst = max(worst, abs(esp - sgex))
    assert worst <= 1e-8


def test_cone_exponent_vanishes_at_capacity():
    c1 = UNIT.capacity_order_one()
    cone = shannon_cone(c1 - 1e-9, UNIT)
    assert abs(cone.sgex) < 1e-7
    xi = math.asin(math.exp(-(c1 - 1e-9)))
    assert xi == pytest.approx(cone.theta_c, abs=1e-6)


def test_exponent_convex_in_rate():
    c1 = UNIT.capacity_order_one()
    rates = np.linspace(0.02, c1 - 0.02, 60)
    esp = np.array(
        [awgn_parametric(awgn_rho_star(float(r), UNIT), UNIT).esp for r in rates]
    )
    second = np.diff(esp, 2)
    assert second.min() >= -1e-9
    assert np.all(np.diff(esp) < 0)


def test_slope_identity_by_finite_difference():
    def esp_at(rate):
        return awgn_parametric(awgn_rho_star(rate, UNIT), UNIT).esp

    for rate in (0.05, 0.1346382347796308, 0.25):
        rho = awgn_rho_star(rate, UNIT)
        fd = fd_derivative_check(esp_at, rate, 1e-6)
        assert fd == pytest.approx((rho - 1.0) / rho, abs=1e-4)
