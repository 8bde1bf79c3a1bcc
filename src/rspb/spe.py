"""Sphere-packing exponent via the parametric order characterization.

The exponent at rate R is the supremum over orders in (0, 1) of
(1 - rho) / rho * (I_rho - R). For rates strictly between the small-order
information limit and the order-one information there is a unique interior
order at which the tilted-channel rate matches R; bisection on that monotone
rate profile gives the exponent, its slope, and the order in one shot. A
plain grid supremum is kept alongside as a cheap cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augustin import (
    LOW_ORDER_PROBE,
    ConstraintSet,
    augustin_capacity,
    augustin_fixed_point,
    augustin_information_grid,
    tilted_kl_pair,
)
from .errors import (
    ComputationError,
    DegenerateChannelError,
    RateOutOfRangeError,
)
from .measures import DiscreteChannel, FiniteDist

# The rate-range precondition compares against the information at 1e-6, and
# the tilted rate never exceeds the information, so 1e-6 is always a valid
# lower bracket once the precondition holds; probing below it only fights
# float noise.
RHO_FLOOR = 1e-6
RHO_CEIL = 1.0 - 1e-9
RATE_RESIDUAL_TOL = 1e-10
EXPONENT_CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True)
class SpePoint:
    """One point of the exponent-rate curve, with the matching order."""

    rate: float
    rho_star: float
    exponent: float
    slope: float


def _rate_endpoints(p: FiniteDist, channel: DiscreteChannel) -> tuple:
    low = augustin_fixed_point(LOW_ORDER_PROBE, p, channel).information
    high = augustin_fixed_point(1.0, p, channel).information
    return low, high


def spe_parametric(p: FiniteDist, channel: DiscreteChannel, rate: float) -> SpePoint:
    """Solve the parametric characterization of the exponent at one rate.

    Bisects the tilted-channel rate profile over orders in (0, 1), then reads
    off the exponent as the KL divergence of the tilted channel from the true
    channel and the slope as (rho* - 1) / rho*. The result is cross-checked
    against the direct form (1 - rho*) / rho* * (I_rho* - rate).
    """
    low, high = _rate_endpoints(p, channel)
    if high - low <= 1e-12:
        raise DegenerateChannelError(
            f"rate profile is flat ({low!r} to {high!r}); no interior order exists"
        )
    if not low < rate < high:
        raise RateOutOfRangeError(rate, low, high)

    def rate_at(rho, q_warm):
        sol = augustin_fixed_point(rho, p, channel, q0=q_warm)
        d1_tq, d1_tw = tilted_kl_pair(rho, p, channel, sol.mean.masses)
        return d1_tq, d1_tw, sol

    lo, hi = RHO_FLOOR, RHO_CEIL
    r_hi, _, sol = rate_at(hi, None)
    if rate >= r_hi:
        raise RateOutOfRangeError(rate, low, r_hi)
    q_warm = sol.mean.masses
    best = None
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        r_mid, d1_tw, sol = rate_at(mid, q_warm)
        q_warm = sol.mean.masses
        residual = abs(r_mid - rate)
        if best is None or residual < abs(best[1] - rate):
            best = (mid, r_mid, d1_tw, sol)
        # push well below the 1e-10 rate-residual target so that derived
        # quantities with a 1/rho factor (slope, the direct exponent form)
        # still land inside their own tolerances
        if residual <= 1e-2 * RATE_RESIDUAL_TOL and (
            (1.0 - mid) / mid * residual <= 1e-10
        ):
            break
        if r_mid < rate:
            lo = mid
        else:
            hi = mid
    rho_star, _, exponent, sol = best
    slope = (rho_star - 1.0) / rho_star
    direct = (1.0 - rho_star) / rho_star * (sol.information - rate)
    if abs(direct - exponent) > EXPONENT_CONSISTENCY_TOL:
        raise ComputationError(
            f"exponent forms disagree by {abs(direct - exponent):.3e}"
        )
    return SpePoint(rate=rate, rho_star=rho_star, exponent=exponent, slope=slope)


def spe_grid_sup(
    p: FiniteDist, channel: DiscreteChannel, rate: float, grid_size: int = 4096
) -> float:
    """Grid supremum of (1 - rho)/rho (I_rho - rate), clamped at zero.

    The grid is {i / grid_size} so that doubling the size refines the grid in
    a nested way; the value never exceeds the parametric exponent and
    approaches it at the grid resolution.
    """
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    rhos = np.arange(1, grid_size) / grid_size
    info = augustin_information_grid(rhos, p, channel)
    vals = (1.0 - rhos) / rhos * (info - rate)
    return float(max(vals.max(), 0.0))


@dataclass(frozen=True)
class ConstrainedSpe:
    value: float
    argmax_p: FiniteDist
    point: SpePoint | None
    certified: bool


def _point_or_limit(p: FiniteDist, channel: DiscreteChannel, rate: float):
    """Exponent value for one input distribution, honoring the edge cases."""
    low, high = _rate_endpoints(p, channel)
    if rate >= high:
        return 0.0, None
    if rate <= low:
        return np.inf, None
    pt = spe_parametric(p, channel, rate)
    return pt.exponent, pt


def spe_constrained(
    channel: DiscreteChannel,
    constraint: ConstraintSet,
    rate: float,
    tol: float = 1e-8,
) -> ConstrainedSpe:
    """Supremum of the exponent over a constraint set.

    Swapping the two suprema reduces the search to the capacity curve: the
    exponent of the set is sup over orders of (1-rho)/rho (C_rho - rate), so
    a golden-section search over the order with a certified capacity solve at
    each probe locates the optimizing input distribution, which is then fed
    back through the single-distribution parametric solve.
    """
    if constraint.kind == "single":
        value, pt = _point_or_limit(constraint.dist, channel, rate)
        return ConstrainedSpe(value, constraint.dist, pt, True)
    if constraint.kind == "list":
        best = None
        for cand in constraint.dists:
            value, pt = _point_or_limit(cand, channel, rate)
            if best is None or value > best[0]:
                best = (value, cand, pt)
        return ConstrainedSpe(best[0], best[1], best[2], True)

    certified = True

    def objective(rho):
        nonlocal certified
        res = augustin_capacity(rho, channel, constraint, tol=tol)
        certified = certified and res.certified
        return (1.0 - rho) / rho * (res.capacity - rate), res

    grid = np.linspace(0.02, 0.98, 33)
    vals = [objective(float(r))[0] for r in grid]
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    phi = 0.5 * (np.sqrt(5.0) - 1.0)
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, res1 = objective(float(x1))
    f2, res2 = objective(float(x2))
    for _ in range(40):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            res1 = res2
            x2 = a + phi * (b - a)
            f2, res2 = objective(float(x2))
        else:
            b, x2, f2 = x2, x1, f1
            res2 = res1
            x1 = b - phi * (b - a)
            f1, res1 = objective(float(x1))
    best_res = res1 if f1 >= f2 else res2
    p_opt = best_res.optimizer
    value, pt = _point_or_limit(p_opt, channel, rate)
    return ConstrainedSpe(value, p_opt, pt, certified)
