"""Refined sphere-packing lower bounds with explicit prefactors.

Each evaluator produces a log-domain lower bound on the error probability of
an (M, L) code: bound_log = log_prefactor - exponent_total with
log_prefactor = (rho*-1) ln(delta_hat) - ln(4n)/(2 rho*). The bound is valid
once sqrt(a2 n) - ln(4n)/(2 rho*) >= ln(delta_hat); reports always carry the
numeric value together with the applicability flag so downstream consumers
can decide. List size enters only through ln M - ln L, passed in directly so
astronomically large M never overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .errors import CompositionError, InfiniteDivergenceError, SymmetryError
from .gaussian import AwgnParams, awgn_parametric, awgn_rho_star
from .htbe import HtParams

if TYPE_CHECKING:
    from .measures import DiscreteChannel, FiniteDist

# The discrete bounds import numpy and their solvers when called, so the
# Gaussian bounds run on the standard library alone.


@dataclass(frozen=True, slots=True)
class RspbReport:
    """One refined-bound evaluation in the log domain."""

    n: int
    rate: float
    rho_star: float
    exponent_total: float
    log_prefactor: float
    bound_log: float
    condition_lhs: float
    condition_rhs: float
    applicable: bool
    a2: float
    a3: float
    log_delta_hat: float
    slope_certified: bool = True
    condition_lhs_printed: float | None = None
    condition_rhs_printed: float | None = None
    applicable_printed: bool | None = None

    @property
    def slope(self) -> float:
        return (self.rho_star - 1.0) / self.rho_star


def _assemble(n, rate, rho_star, exponent_total, params: HtParams,
              slope_certified=True) -> RspbReport:
    log_pref = (rho_star - 1.0) * params.log_delta_hat - math.log(4.0 * n) / (
        2.0 * rho_star
    )
    cond_lhs = math.sqrt(params.a2 * n) - math.log(4.0 * n) / (2.0 * rho_star)
    cond_rhs = params.log_delta_hat
    return RspbReport(
        n=n,
        rate=rate,
        rho_star=rho_star,
        exponent_total=exponent_total,
        log_prefactor=log_pref,
        bound_log=log_pref - exponent_total,
        condition_lhs=cond_lhs,
        condition_rhs=cond_rhs,
        applicable=cond_lhs >= cond_rhs,
        a2=params.a2,
        a3=params.a3,
        log_delta_hat=params.log_delta_hat,
        slope_certified=slope_certified,
    )


def rspb_constant_composition(
    channel: DiscreteChannel,
    composition: FiniteDist,
    n: int,
    log_M_over_L: float,
) -> RspbReport:
    """Lower bound for length-n codes whose codewords share one composition.

    The moment constants weight each input's tilted log-ratio moments by the
    composition, matching a codeword that uses input x exactly n*P(x) times:
    they are the a2 and a3 of the `spe_parametric` point at rate
    log_M_over_L / n, and a row singular to its mean, which leaves them not
    finite, raises InfiniteDivergenceError. The factor-4 term absorbs the
    Markov halving over messages.
    """
    import numpy as np

    from .spe import spe_parametric

    if n < 1:
        raise CompositionError("n must be a positive integer")
    counts = n * composition.masses
    if np.any(np.abs(counts - np.round(counts)) > 1e-9):
        raise CompositionError(f"n * composition is not integral for n={n}")
    rate = log_M_over_L / n
    point = spe_parametric(composition, channel, rate)
    if not (math.isfinite(point.a2) and math.isfinite(point.a3)):
        raise InfiniteDivergenceError("tilted measure undefined for singular pair")
    return _assemble(n, rate, point.rho_star, n * point.exponent,
                     HtParams.from_moments(point.a2, point.a3))


def rspb_symmetric(channels, log_M_over_L: float) -> RspbReport:
    """Lower bound for codes on a product of Renyi symmetric channels.

    Components may differ; the matching order solves the summed per-component
    tilted rate equation, and moment constants average over the distinct
    components weighted by their counts. The slope certification of the
    parametric characterization is propagated into the report.
    """
    from .symmetric import _solve_symmetric

    channels = list(channels)
    n = len(channels)
    if n < 1:
        raise SymmetryError("need at least one component channel")
    rho, parts, certified = _solve_symmetric(channels, log_M_over_L)
    exponent_total = sum(c * s.tilted_exponent for c, s in parts)
    params = HtParams.from_moments(sum(c * s.a2 for c, s in parts) / n,
                                   sum(c * s.a3 for c, s in parts) / n)
    return _assemble(n, log_M_over_L / n, rho, exponent_total, params,
                     slope_certified=certified)


def rspb_awgn_equality(n: int, log_M_over_L: float, params: AwgnParams) -> RspbReport:
    """Lower bound for equal-power codes on the white Gaussian channel.

    The applicability condition is evaluated under two readings: the
    conservative one (ln(4n) against ln delta_hat, as in the discrete bounds)
    controls the flag, while the looser printed variant (ln n against
    delta_hat itself) is carried alongside in the report.
    """
    if n < 1:
        raise CompositionError("n must be a positive integer")
    rate = log_M_over_L / n
    rho = awgn_rho_star(rate, params)
    point = awgn_parametric(rho, params)
    ht = point.ht_params()
    lhs_printed = math.sqrt(ht.a2 * n) - math.log(n) / (2.0 * rho)
    rhs_printed = ht.delta_hat if ht.log_delta_hat < 700 else math.inf
    return replace(_assemble(n, rate, rho, n * point.esp, ht),
                   condition_lhs_printed=lhs_printed, condition_rhs_printed=rhs_printed,
                   applicable_printed=lhs_printed >= rhs_printed)


def rspb_awgn_inequality(
    n: int,
    log_M_over_L: float,
    params: AwgnParams,
    extension: str = "shannon",
) -> RspbReport:
    """Transfer the equal-power bound to codes under an inequality constraint.

    A codeword extension by one symbol converts any inequality-constrained
    code into an equal-power one at blocklength n+1 (keeping the cost for the
    classic extension, scaling it by n/(n+1) for the sharper one), so the
    equal-power bound evaluated there is a valid bound here. The report
    splits that value against the length-n exponent at the requested rate
    using the tangent slope at the shifted rate, leaving bound_log exact.
    """
    if extension not in ("shannon", "vazquez_vilar"):
        raise ValueError(f"unknown extension {extension!r}")
    if n < 1:
        raise CompositionError("n must be a positive integer")
    cost = params.cost if extension == "shannon" else params.cost * n / (n + 1.0)
    shifted = AwgnParams(sigma2=params.sigma2, cost=cost)
    base = rspb_awgn_equality(n + 1, log_M_over_L, shifted)
    rate = log_M_over_L / n
    rho = awgn_rho_star(rate, shifted)
    exponent_total = n * awgn_parametric(rho, shifted).esp
    return replace(base, n=n, rate=rate, rho_star=rho, exponent_total=exponent_total,
                   log_prefactor=base.bound_log + exponent_total)
