"""Closed forms for the power-constrained additive white Gaussian channel.

Everything here is explicit: the order rho center variance solves a
quadratic, capacity / rate / exponent are elementary functions of it, the
matching order inverts in closed form, and the classical cone-angle exponent
evaluates the same exponent through trigonometric quantities. Third absolute
moments use the closed-form upper bound that the refined bound is defined
with; the tests compute the exact moment by quadrature
(`awgn_exact_tilted_moments` in tests/test_oracle.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneratePairError, PreconditionError, RateOutOfRangeError
from .htbe import HtParams, log_delta_hat

THETA_IDENTITY_TOL = 1e-12
CONE_EQUATION_TOL = 1e-10


@dataclass(frozen=True)
class AwgnParams:
    """Noise variance and per-symbol average power budget, both positive."""

    sigma2: float
    cost: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise PreconditionError("sigma2 must be strictly positive")
        if not self.cost > 0:
            raise PreconditionError("cost must be strictly positive")

    @property
    def snr(self) -> float:
        return self.cost / self.sigma2

    def capacity_order_one(self) -> float:
        return 0.5 * math.log1p(self.snr)


def _theta_and_excess(rho: float, params: AwgnParams) -> tuple:
    """(theta_rho, theta_rho - sigma2) with the excess formed stably.

    theta - sigma2 = A + sqrt(A^2 + cost*sigma2) with A = cost/2 - sigma2/(2 rho)
    cancels badly when A is large negative, so that branch is rewritten as
    cost*sigma2 / (sqrt(A^2 + cost*sigma2) - A).
    """
    if not rho > 0:
        raise PreconditionError("order must be positive")
    a = 0.5 * params.cost - params.sigma2 / (2.0 * rho)
    rad = math.sqrt(a * a + params.cost * params.sigma2)
    if a >= 0:
        excess = a + rad
    else:
        excess = params.cost * params.sigma2 / (rad - a)
    return params.sigma2 + excess, excess


def theta_of_rho(rho: float, params: AwgnParams) -> float:
    """Variance of the order rho center; checks its quadratic identity."""
    theta, excess = _theta_and_excess(rho, params)
    mix = rho * theta + (1.0 - rho) * params.sigma2
    lhs = rho * params.cost * theta
    rhs = excess * mix
    if abs(lhs - rhs) > THETA_IDENTITY_TOL * max(abs(lhs), abs(rhs), 1.0):
        raise AssertionError(f"center-variance identity residual {abs(lhs - rhs):.3e}")
    return theta


def awgn_capacity(rho: float, params: AwgnParams) -> float:
    """Cost-constrained capacity of order rho (nats)."""
    if not 0 < rho <= 1:
        raise PreconditionError(f"order must lie in (0, 1], got {rho}")
    if rho == 1.0:
        return params.capacity_order_one()
    theta, _ = _theta_and_excess(rho, params)
    mix = rho * theta + (1.0 - rho) * params.sigma2
    return rho * params.cost / (2.0 * mix) + (
        0.5 * rho * math.log(theta)
        + 0.5 * (1.0 - rho) * math.log(params.sigma2)
        - 0.5 * math.log(mix)
    ) / (rho - 1.0)


@dataclass(frozen=True)
class AwgnPoint:
    """Parametric point: order, center variance, rate, exponent, HT constants."""

    rho: float
    theta: float
    rate: float
    esp: float
    a2: float
    a3_bound: float
    log_delta_hat: float

    @property
    def delta_hat(self) -> float:
        return math.exp(self.log_delta_hat)

    @property
    def slope(self) -> float:
        return (self.rho - 1.0) / self.rho

    def ht_params(self) -> HtParams:
        return HtParams(self.a2, self.a3_bound, self.log_delta_hat)


def awgn_parametric(rho: float, params: AwgnParams) -> AwgnPoint:
    """Rate, exponent, and moment constants at one interior order."""
    if not 0 < rho < 1:
        raise PreconditionError(f"order must lie in (0, 1), got {rho}")
    theta, excess = _theta_and_excess(rho, params)
    sigma2, cost = params.sigma2, params.cost
    mix = rho * theta + (1.0 - rho) * sigma2
    rate = 0.5 * math.log(mix / sigma2)
    esp = (1.0 - rho) * cost / (2.0 * mix) + 0.5 * math.log(mix / theta)
    a2 = excess**2 / (2.0 * mix**2) + sigma2 * theta * cost / mix**3
    a3 = 18.0 * excess**3 / mix**3 + 18.0 * math.sqrt(2.0 / math.pi) * (
        sigma2**1.5 * theta**1.5 * cost**1.5
    ) / mix**4.5
    if a2 <= 0:
        raise DegeneratePairError("second moment vanished (zero-power limit)")
    return AwgnPoint(
        rho=rho,
        theta=theta,
        rate=rate,
        esp=esp,
        a2=a2,
        a3_bound=a3,
        log_delta_hat=log_delta_hat(a2, a3),
    )


def awgn_rho_star(rate: float, params: AwgnParams) -> float:
    """Closed-form inverse of the parametric rate map on (0, C_1)."""
    c1 = params.capacity_order_one()
    if not 0 < rate < c1:
        raise RateOutOfRangeError(rate, 0.0, c1)
    g = math.expm1(2.0 * rate)
    inner = 1.0 + 4.0 * params.sigma2 / params.cost * (g + 1.0) / g
    return 0.5 * g * (math.sqrt(inner) - 1.0)


def gaussian_closed_forms(rho: float, x: float, theta: float, params: AwgnParams) -> tuple:
    """(KL of W(x) from the variance-theta center, tilted mean, tilted var)."""
    if not theta > 0:
        raise PreconditionError("theta must be positive")
    sigma2 = params.sigma2
    d1 = (sigma2 + x * x - theta) / (2.0 * theta) + 0.5 * math.log(theta / sigma2)
    mix = rho * theta + (1.0 - rho) * sigma2
    return d1, rho * theta * x / mix, sigma2 * theta / mix


@dataclass(frozen=True)
class ConeQuantities:
    theta_c: float
    theta_cr: float
    G_of_xi: float
    sgex: float


def _cone_gain(theta: float, params: AwgnParams) -> float:
    amp = math.sqrt(params.cost) / math.sqrt(params.sigma2)
    c = math.cos(theta)
    return 0.5 * (amp * c + math.sqrt(amp * amp * c * c + 4.0))


def shannon_cone(rate: float, params: AwgnParams) -> ConeQuantities:
    """Cone-angle exponent at a rate, with the capacity and critical angles.

    xi = arcsin(e^{-rate}) maps the rate to a cone half-angle; the exponent
    there coincides with the sphere-packing exponent. The critical angle is
    verified against its defining trigonometric equation.
    """
    c1 = params.capacity_order_one()
    if not 0 < rate < c1:
        raise RateOutOfRangeError(rate, 0.0, c1)
    snr4 = params.cost / (4.0 * params.sigma2)
    theta_c = math.asin(min(1.0, (1.0 + params.snr) ** -0.5))
    theta_cr = math.asin(
        min(1.0, (0.5 + snr4 + math.sqrt(0.25 + snr4 * snr4)) ** -0.5)
    )
    amp = math.sqrt(params.cost) / math.sqrt(params.sigma2)
    residual = abs(
        2.0 * math.cos(theta_cr)
        - amp * _cone_gain(theta_cr, params) * math.sin(theta_cr) ** 2
    )
    if residual > CONE_EQUATION_TOL:
        raise AssertionError(f"critical-angle equation residual {residual:.3e}")
    s = min(1.0, max(-1.0, math.exp(-rate)))
    xi = math.asin(s)
    gain = _cone_gain(xi, params)
    sgex = (
        params.cost / (2.0 * params.sigma2)
        - 0.5 * amp * gain * math.cos(xi)
        - math.log(gain * math.sin(xi))
    )
    return ConeQuantities(theta_c=theta_c, theta_cr=theta_cr, G_of_xi=gain, sgex=sgex)
