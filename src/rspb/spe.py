"""Sphere-packing exponent via the parametric order characterization.

The exponent at rate R is the supremum over orders in (0, 1) of
(1 - rho) / rho * (I_rho - R). For rates strictly between the small-order
information limit and the order-one information there is a unique interior
order at which the tilted-channel rate matches R; Brent's root-finder on
that monotone rate profile gives the exponent, its slope, and the order in
one shot. A plain grid supremum is kept alongside as a cheap cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augustin import (
    LOW_ORDER_PROBE,
    ConstraintSet,
    augustin_capacity,
    augustin_fixed_point,
    augustin_information_grid,
)
from .errors import (
    ComputationError,
    DegenerateChannelError,
    RateOutOfRangeError,
)
from .measures import DiscreteChannel, FiniteDist

RATE_RESIDUAL_TOL = 1e-10
EXPONENT_CONSISTENCY_TOL = 1e-8
# Absolute order tolerance of the root-finder: a bracket narrower than this,
# plus rounding, holds no order worth another solve.
ORDER_XTOL = 1e-15


def _find_order(rate_at, target, lo, hi, done):
    """Brent's method for the order where a non-decreasing rate crosses target.

    lo and hi are solved (order, rate) pairs, lo's rate below the target and
    hi's above. rate_at(rho) returns (rate, state) at a new order; the state
    comes back with the chosen probe. Each probe interpolates inversely
    through the last three points (a secant through two), falling back to
    halving when the interpolant leaves the bracket or shrinks it more slowly
    than halving would (Brent, Algorithms for Minimization Without
    Derivatives, 1973, ch. 4). It interpolates sqrt(rate) - sqrt(target),
    which has the same root: when every input reaches a common output the
    tilted rate grows like rho^2 from 0, so its square root is near linear in
    the order, and low rates need about half the probes. Returns the first
    (rho, rate, state) probe that done(rho, rate, state) accepts or, once the
    bracket is spent, the probe with the smallest residual.
    """
    eps = np.finfo(float).eps
    root = math.sqrt(target)
    a, fa = lo[0], math.sqrt(max(lo[1], 0.0)) - root
    b, fb = hi[0], math.sqrt(max(hi[1], 0.0)) - root
    c, fc = a, fa
    d = e = b - a
    best = None
    while True:
        # b is the best end of the bracket [b, c]; a is the previous b
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * eps * abs(b) + 0.5 * ORDER_XTOL
        m = 0.5 * (c - b)
        if abs(m) <= tol1:
            return best
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            q, p = (-q, p) if p > 0.0 else (q, -p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                e = d = m
        else:
            e = d = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        rate, state = rate_at(b)
        fb = math.sqrt(max(rate, 0.0)) - root
        point = (b, rate, state)
        if best is None or abs(rate - target) < abs(best[1] - target):
            best = point
        if done(*point):
            return point


@dataclass(frozen=True)
class SpePoint:
    """One point of the exponent-rate curve, with the matching order and mean."""

    rate: float
    rho_star: float
    exponent: float
    slope: float
    mean: FiniteDist


def _rate_endpoints(p: FiniteDist, channel: DiscreteChannel) -> tuple:
    """Fixed points at the low probe order and at order one."""
    return (augustin_fixed_point(LOW_ORDER_PROBE, p, channel),
            augustin_fixed_point(1.0, p, channel))


def spe_parametric(p: FiniteDist, channel: DiscreteChannel, rate: float) -> SpePoint:
    """Solve the parametric characterization of the exponent at one rate.

    Finds the order where the tilted-channel rate profile over (0, 1) meets
    the rate, then reads off the exponent as the KL divergence of the tilted
    channel from the true channel and the slope as (rho* - 1) / rho*. The
    result is cross-checked against the direct form
    (1 - rho*) / rho* * (I_rho* - rate).
    """
    return _spe_point(p, channel, rate, _rate_endpoints(p, channel))


def _spe_point(p: FiniteDist, channel: DiscreteChannel, rate: float, ends) -> SpePoint:
    """spe_parametric with the endpoint fixed points already solved."""
    low_sol, high_sol = ends
    low, high = low_sol.information, high_sol.information
    if high - low <= 1e-12:
        raise DegenerateChannelError(
            f"rate profile is flat ({low!r} to {high!r}); no interior order exists"
        )
    if not low < rate < high:
        raise RateOutOfRangeError(rate, low, high)

    def rate_at(rho):
        sol = augustin_fixed_point(rho, p, channel)
        return sol.tilted_rate, sol

    def done(rho, r, _):
        # push well below the 1e-10 rate-residual target so that derived
        # quantities with a 1/rho factor (slope, the direct exponent form)
        # still land inside their own tolerances
        residual = abs(r - rate)
        return residual <= 1e-2 * RATE_RESIDUAL_TOL and (1.0 - rho) / rho * residual <= 1e-10

    # the tilted rate is at most the information, so the probe order is below
    # the crossing; at order one the tilt is the channel and the rate is high
    rho_star, _, sol = _find_order(
        rate_at, rate, (LOW_ORDER_PROBE, low_sol.tilted_rate), (1.0, high_sol.tilted_rate),
        done,
    )
    exponent = sol.tilted_exponent
    slope = (rho_star - 1.0) / rho_star
    direct = (1.0 - rho_star) / rho_star * (sol.information - rate)
    if abs(direct - exponent) > EXPONENT_CONSISTENCY_TOL:
        raise ComputationError(
            f"exponent forms disagree by {abs(direct - exponent):.3e}"
        )
    return SpePoint(rate=rate, rho_star=rho_star, exponent=exponent, slope=slope,
                    mean=sol.mean)


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
    ends = _rate_endpoints(p, channel)
    if rate >= ends[1].information:
        return 0.0, None
    if rate <= ends[0].information:
        return np.inf, None
    pt = _spe_point(p, channel, rate, ends)
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
