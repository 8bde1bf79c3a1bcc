"""Sphere-packing exponent via the parametric order characterization.

The exponent at rate R is the supremum over orders in (0, 1) of
(1 - rho) / rho * (I_rho - R). For rates strictly between I_0, the limit
of the information at order 0, and the order-one information I_1 there is
a unique interior order at which the tilted-channel rate matches R, and the
exponent, its slope and the order come from the Augustin mean there.
One search finds the order: Brent's root-finder on the monotone rate
profile, bracketed by (0, I_0) and (1, I_1) at no fixed-point cost. Its
first probe is the order that Newton's method on the fixed-point and rate
equations in (ln q, rho) proposes, read with no fixed-point solve when the
Frank-Wolfe gap of the solution at Newton's q certifies it, and from a cold
fixed point otherwise; every later probe is a cold fixed point. The point
takes its exponent and moments from the accepted probe's solution.
Newton starts where the rate's law near order 0 puts the root: exponential
in -1/rho when I_0 = 0 and rows of p's support miss an output that others
reach, quadratic in rho otherwise. Over a constraint set the search runs
on the capacity curve. The direct form (1 - rho*) / rho* (I_rho* - R) at
the root checks the exponent; an independent check is `oracle.brute_spe`,
which never runs the fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augustin import (
    LOW_ORDER_PROBE,
    ConstraintSet,
    _certified_mean,
    _check_inputs,
    _kl_rows,
    _order_zero_information,
    _row_divergences,
    _start,
    _support_rows,
    _tilt,
    augustin_capacity,
    augustin_fixed_point,
    tilted_kl_pair,
)
from .errors import ComputationError, DegenerateChannelError, RateOutOfRangeError
from .measures import DiscreteChannel, FiniteDist

RATE_RESIDUAL_TOL = 1e-10
EXPONENT_CONSISTENCY_TOL = 1e-8
# Absolute order tolerance of the root-finder: a bracket narrower than this,
# plus rounding, holds no order worth another solve.
ORDER_XTOL = 1e-15
# Newton steps on (ln q, rho) before the order search falls back to Brent
NEWTON_MAX_STEPS = 12


def _find_order(rate_at, target, lo, hi, done, first=None):
    """Brent's method for the order where a non-decreasing rate crosses target.

    lo and hi are known (order, rate) pairs, lo's rate below the target and
    hi's above. rate_at(rho) returns (rate, state) at a new order; the state
    comes back with the chosen probe. A proposed `first` order in the bracket
    is probed before all others; unless done accepts it, it replaces the end
    on its side of the target. Each later probe interpolates inversely
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
    best = None
    if first is not None:
        best = (first, *rate_at(first))
        if done(*best):
            return best
        lo, hi = (best[:2], hi) if best[1] < target else (lo, best[:2])
    eps = np.finfo(float).eps
    root = math.sqrt(target)
    a, fa = lo[0], math.sqrt(max(lo[1], 0.0)) - root
    b, fb = hi[0], math.sqrt(max(hi[1], 0.0)) - root
    c, fc = a, fa
    d = e = b - a
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


def _newton_order(p: FiniteDist, channel: DiscreteChannel, rate: float, lo, hi):
    """A proposed (order, mean) for the rate, or None: Newton's method on the
    joint system ln T_rho(q) = ln q, D_1(tilt || q | p) = rate in (ln q, rho).

    q lives on the outputs p W reaches and starts at the power-mean center of
    a start order rho_0 read from the ends lo and hi, the (order, rate)
    pairs (0, I_0) and (1, I_1). When I_0 = 0 but some output that p W
    reaches is missed by rows of p's support, the rate near order 0 behaves
    like I_1 exp(c (1 - 1/rho)), with c = -ln max s_y over those outputs and
    s_y = sum_x p(x) 1{W(y|x) > 0} (Shannon, Gallager and Berlekamp, Inform.
    Control 1967), so rho_0 = c / (c + ln(I_1 / R)); otherwise the rate
    grows like rho^2 and rho_0 is the sqrt-secant order between the ends.
    With V the rows tilted toward q, L = ln W - ln q, m and a2 the tilted
    mean and variance of L, C = L - m, T = p V and P = diag(p), the
    Jacobian is [[(rho-1) diag(1/T) V^T P V - rho I, p(V C)/T],
    [rho(1-rho) p(V C) - T, rho sum_x p(x) a2(x)]]. A step that would leave
    (0, 1) is halved, in rho and ln q together, until it stays inside. The
    search stops once an undamped order step is below 1e-9 rho and returns
    its final (rho, q), that step taken, q renormalized over the outputs p W
    reaches and 0 elsewhere. It gives up (None) on a step that is not finite
    or singular, or after NEWTON_MAX_STEPS steps. The answer is only a
    proposal: the caller certifies q with `_certified_mean`, or solves cold
    at rho.
    """
    weights, w_rows, lw = _support_rows(p, channel)
    root = math.sqrt(rate)
    s_lo, s_hi = math.sqrt(max(lo[1], 0.0)), math.sqrt(max(hi[1], 0.0))
    rho = lo[0] + (hi[0] - lo[0]) * (root - s_lo) / (s_hi - s_lo)
    if lo[1] == 0.0:
        reach = w_rows > 0
        share = (weights @ reach)[reach.any(axis=0) & ~reach.all(axis=0)]
        # a share that rounds to 1 (the rows missing it carry no mass to
        # speak of) gives c = 0 and no start
        if share.size and share.max() < 1.0:
            c = -math.log(share.max())
            rho = c / (c + math.log(hi[1] / rate))
    q = _start(rho, weights, w_rows, lw)
    reached = weights @ w_rows > 0
    if not reached.all():
        q, lw = q[reached], lw[:, reached]
    size = q.size
    jac = np.empty((size + 1, size + 1))
    residual = np.empty(size + 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lq = np.log(q)
        for _ in range(NEWTON_MAX_STEPS):
            v = _tilt(rho * lw, 1.0 - rho, q)
            # the tilted mean and variance of L, as `_tilt_moments` takes them
            lr = np.where(v > 0, lw - lq, 0.0)
            centered = lr - (v * lr).sum(axis=-1)[:, None]
            t, pvc = weights @ v, weights @ (v * centered)
            block = (rho - 1.0) * ((v.T * weights) @ v) / t[:, None]
            block.flat[:: size + 1] -= rho
            jac[:size, :size] = block
            jac[:size, size] = pvc / t
            jac[size, :size] = rho * (1.0 - rho) * pvc - t
            jac[size, size] = rho * (weights @ (v * centered**2).sum(axis=-1))
            np.subtract(lq, np.log(t), out=residual[:size])
            residual[size] = rate - weights @ _kl_rows(v, np.log(v), lq)
            try:
                step = np.linalg.solve(jac, residual)
            except np.linalg.LinAlgError:
                return None
            if not np.isfinite(step).all():
                return None
            damped = False
            while not 0.0 < rho + float(step[size]) < 1.0:
                step *= 0.5
                damped = True
            d_rho = float(step[size])
            rho += d_rho
            lq = lq + step[:size]
            q = np.exp(lq)
            if not damped and abs(d_rho) <= 1e-9 * rho:
                mean = np.zeros(reached.size)
                mean[reached] = q / np.add.reduce(q)
                return rho, mean
    return None


@dataclass(frozen=True, slots=True)
class SpePoint:
    """One point of the exponent-rate curve: its order, mean and solution's a2, a3."""

    rate: float
    rho_star: float
    exponent: float
    slope: float
    mean: FiniteDist
    a2: float
    a3: float


def _rate_endpoints(p: FiniteDist, channel: DiscreteChannel) -> tuple:
    """(I_0, I_1), the ends of the rate range of p: the information in the
    limit of order 0 and at order one, bit for bit the information
    `augustin_fixed_point(1.0, p, channel)` reports."""
    _check_inputs(1.0, p, channel)
    weights, w_rows, lw = _support_rows(p, channel)
    high = float(weights @ _row_divergences(1.0, lw, weights @ w_rows))
    return _order_zero_information(weights, w_rows), high


def _rate_met(rho: float, residual: float) -> bool:
    """Stop rule of the exponent root-finds, on the residual |rate(rho) - R|."""
    # well below the 1e-10 rate-residual target, so that quantities with a
    # 1/rho factor (slope, the direct exponent form) meet their own tolerances
    return residual <= 1e-2 * RATE_RESIDUAL_TOL and (1.0 - rho) / rho * residual <= 1e-10


def _check_rate(rate: float, low: float, high: float):
    """Raise unless the rate range (low, high) is not flat and holds rate."""
    if high - low <= 1e-12:
        raise DegenerateChannelError(
            f"rate profile is flat ({low!r} to {high!r}); no interior order exists"
        )
    if not low < rate < high:
        raise RateOutOfRangeError(rate, low, high)


def spe_parametric(p: FiniteDist, channel: DiscreteChannel, rate: float) -> SpePoint:
    """Solve the parametric characterization of the exponent at one rate.

    Finds the order where the tilted-channel rate profile over (0, 1) meets
    the rate, then reads off the exponent as the KL divergence of the tilted
    channel from the true channel and the slope as (rho* - 1) / rho*.
    `_find_order` searches the bracket (0, I_0), (1, I_1) from
    `_rate_endpoints`, and the point is read from the probe it accepts.
    `_newton_order`'s order, if any, is its first probe: its solution is
    Newton's q when `_certified_mean` certifies q, with no fixed point
    solved, and a cold fixed point otherwise, as at every later probe. The
    point's exponent, a2 and a3 are the accepted solution's; the exponent is
    cross-checked against the direct form (1 - rho*) / rho* * (I_rho* - rate).
    """
    low, high = _rate_endpoints(p, channel)
    _check_rate(rate, low, high)
    # at both ends of the order range the tilted rate is the information
    lo, hi = (0.0, low), (1.0, high)
    first, q = _newton_order(p, channel, rate, lo, hi) or (None, None)

    def rate_at(rho):
        sol = _certified_mean(rho, p, channel, q) if rho == first else None
        if sol is None:
            sol = augustin_fixed_point(rho, p, channel)
        return sol.tilted_rate, sol

    rho_star, _, sol = _find_order(
        rate_at, rate, lo, hi, lambda rho, r, _: _rate_met(rho, abs(r - rate)), first
    )
    exponent = sol.tilted_exponent
    slope = (rho_star - 1.0) / rho_star
    direct = (1.0 - rho_star) / rho_star * (sol.information - rate)
    if abs(direct - exponent) > EXPONENT_CONSISTENCY_TOL:
        raise ComputationError(
            f"exponent forms disagree by {abs(direct - exponent):.3e}"
        )
    return SpePoint(rate=rate, rho_star=rho_star, exponent=exponent, slope=slope,
                    mean=sol.mean, a2=sol.a2, a3=sol.a3)


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
    exponent of the set is sup over orders of (1-rho)/rho (C_rho - rate),
    attained where the tilted rate of the capacity center at the optimizer
    meets the rate. `_find_order` finds that order between the capacity
    solves at LOW_ORDER_PROBE and at order one (rates at or beyond their
    capacities give inf and 0), and its optimizer is fed back through the
    single-distribution solve. The result is certified when the order-one
    and interior capacities certify, the root meets the `spe_parametric`
    stop rule and the low capacity plus its gap is below the rate. Lists are
    enumerated exactly.
    """
    if constraint.kind == "list":
        best = None
        for cand in constraint.dists:
            value, pt = _point_or_limit(cand, channel, rate)
            if best is None or value > best[0]:
                best = (value, cand, pt)
        return ConstrainedSpe(*best, True)
    if math.isnan(rate):
        raise RateOutOfRangeError(rate, 0.0, math.inf)
    solves = []

    def rate_at(rho):
        res = augustin_capacity(rho, channel, constraint, tol=tol)
        solves.append(res)
        return tilted_kl_pair(rho, res.optimizer, channel, res.center.masses)[0], res

    (low_rate, low), (high_rate, high) = rate_at(LOW_ORDER_PROBE), rate_at(1.0)
    if rate >= high.capacity:
        return ConstrainedSpe(0.0, high.optimizer, None, high.certified)
    if rate <= low.capacity:
        # a feasible input reaches the low capacity, so the exponent is inf
        return ConstrainedSpe(math.inf, low.optimizer, None, True)
    rho, r, best = _find_order(
        rate_at, rate, (LOW_ORDER_PROBE, low_rate), (1.0, high_rate),
        lambda rho, r, _: _rate_met(rho, abs(r - rate)),
    )
    certified = (_rate_met(rho, abs(r - rate)) and all(res.certified for res in solves[1:])
                 and low.capacity + low.certificate_gap < rate)
    value, pt = _point_or_limit(best.optimizer, channel, rate)
    return ConstrainedSpe(value, best.optimizer, pt, certified)
