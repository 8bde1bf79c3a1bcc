"""Sphere-packing exponent via the parametric order characterization.

The exponent at rate R is the supremum over orders in (0, 1) of
(1 - rho) / rho * (I_rho - R). For rates strictly between I_0, the limit
of the information at order 0, and the order-one information I_1 there is
a unique interior order at which the tilted-channel rate matches R, and the
exponent, its slope and the order come from the Augustin mean there.
One solve, `_solve_components`, finds the order of every exponent: Brent's
root-finder on count-weighted tilted rates, bracketed by the counted ends
(0, I_0) and (1, I_1) at no fixed-point cost. A point is one component.
Its first probe is `_newton_order`'s, on the fixed-point and rate equations
in (ln q, rho), read with no solve when the Frank-Wolfe gap at Newton's q
certifies it; every other probe is a cold fixed point, and the point takes
its exponent and moments from the accepted probe's solution. Over a
constraint set the same solve runs on the capacity curve from (0, C_0), the
order-0 capacity of one linear program. The direct form (1 - rho*) / rho*
(I_rho* - R) at the root checks the exponent, and `oracle.brute_spe`, which
never runs the fixed point, checks it independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augustin import (
    ConstraintSet,
    _certified_mean,
    _check_inputs,
    _kl_rows,
    _order_zero_capacity,
    _order_zero_information,
    _row_divergences,
    _start,
    _support_rows,
    _tilt,
    augustin_capacity,
    augustin_fixed_point,
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


def _newton_order(p: FiniteDist, channel: DiscreteChannel, rate: float, low, high):
    """A proposed (order, mean) for the rate, or None: Newton's method on the
    joint system ln T_rho(q) = ln q, D_1(tilt || q | p) = rate in (ln q, rho).

    `_newton_search` runs from a start order rho_0 read from the ends of the
    rate range, low = I_0 at order 0 and high = I_1 at order 1. When I_0 = 0
    but some output that p W reaches is missed by rows of p's support, the
    rate near order 0 behaves like I_1 exp(c (1 - 1/rho)), with
    c = -ln max s_y over those outputs and s_y = sum_x p(x) 1{W(y|x) > 0}
    (Shannon, Gallager and Berlekamp, Inform. Control 1967), so the search
    starts at rho_0 = c / (c + ln(I_1 / R)), and if it gives up, once more at
    the sqrt-secant order between the ends; otherwise the rate grows like
    rho^2 and the sqrt-secant order is the only start. Neither start
    dominates: each certifies points on which the other gives up. The answer
    is only a proposal: the caller certifies q with `_certified_mean`, or
    solves cold at rho.
    """
    weights, w_rows, lw = _support_rows(p, channel)
    s_lo, s_hi = math.sqrt(max(low, 0.0)), math.sqrt(max(high, 0.0))
    starts = [(math.sqrt(rate) - s_lo) / (s_hi - s_lo)]
    if low == 0.0:
        reach = w_rows > 0
        share = (weights @ reach)[reach.any(axis=0) & ~reach.all(axis=0)]
        # a share that rounds to 1 (the rows missing it carry no mass to
        # speak of) gives c = 0 and no start
        if share.size and share.max() < 1.0:
            c = -math.log(share.max())
            starts.insert(0, c / (c + math.log(high / rate)))
    for rho in starts:
        found = _newton_search(rho, rate, weights, w_rows, lw)
        if found is not None:
            return found
    return None


def _newton_search(rho: float, rate: float, weights, w_rows, lw):
    """Newton's search of `_newton_order` from the start order rho, on the
    inputs of p's support (masses, rows and log-rows): (order, mean) or None.

    q lives on the outputs p W reaches and starts at the power-mean center of
    order rho. With V the rows tilted toward q, L = ln W - ln q, m and a2 the
    tilted mean and variance of L, C = L - m, T = p V and P = diag(p), the
    Jacobian is [[(rho-1) diag(1/T) V^T P V - rho I, p(V C)/T],
    [rho(1-rho) p(V C) - T, rho sum_x p(x) a2(x)]]. A step that would leave
    (0, 1) is scaled by `_damped`, in rho and ln q together. The search stops
    once an undamped order step is below 1e-9 rho and returns its final
    (rho, q), that step taken, q renormalized over the outputs p W reaches
    and 0 elsewhere. It gives up (None) on a step that is not finite or
    singular, or after NEWTON_MAX_STEPS steps.
    """
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
            step, halvings = _damped(rho, step)
            d_rho = float(step[size])
            rho += d_rho
            lq = lq + step[:size]
            q = np.exp(lq)
            if not halvings and abs(d_rho) <= 1e-9 * rho:
                mean = np.zeros(reached.size)
                mean[reached] = q / np.add.reduce(q)
                return rho, mean
    return None


def _damped(rho: float, step):
    """(step * 2^-k, k) for the least k >= 0 that keeps rho + step[-1], the
    order step, in (0, 1), for rho in (0, 1) and a finite step.

    This is the step halved k times, scaled once: a power of two scales every
    entry exactly, unless the entry turns subnormal, where k halvings round k
    times and one scaling rounds once, so that the two may differ in the last
    bit of the subnormal. The scaled order step is about half its room or
    more, so it stays normal, and exact, for rho above 2^-1021. k is at
    least the difference of the binary exponents of the order step and of its
    room rho or 1 - rho (a smaller k leaves the step longer than the room),
    and a count from there meets the least k within two halvings.
    """
    d_rho = float(step[-1])
    if 0.0 < rho + d_rho < 1.0:
        return step, 0
    room = rho if d_rho < 0.0 else 1.0 - rho
    k = max(0, math.frexp(d_rho)[1] - math.frexp(room)[1])
    while not 0.0 < rho + math.ldexp(d_rho, -k) < 1.0:
        k += 1
    return np.ldexp(step, -k), k


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


def _solve_components(components, target: float, first=None) -> tuple:
    """Order where the count-weighted tilted rates of the components meet target.

    A component is (count, (R_0, R_1), rate_at): its tilted rates in the
    limit of order 0 and at order 1, the search's free bracket, and
    rate_at(rho) -> (rate, state). A proposed `first` order in the bracket
    is probed before all others; unless it meets the stop rule, `_rate_met`
    of |sum count * rate - target| / min(max(1, |target|), sum count), it
    replaces the end on its side of the target.
    Each later probe interpolates inversely through the last three points (a
    secant through two), falling back to halving when the interpolant leaves
    the bracket or shrinks it more slowly than halving would (Brent,
    Algorithms for Minimization Without Derivatives, 1973, ch. 4). It
    interpolates sqrt(rate) - sqrt(target), which has the same root: when
    every input reaches a common output the tilted rate grows like rho^2 from
    0, so its square root is near linear in the order, and low rates need
    about half the probes. Returns (rho*, states) of the first probe that
    meets the stop rule or, once the bracket is spent, of the probe with the
    smallest residual.
    """
    low, high = (sum(count * ends[end] for count, ends, _ in components) for end in (0, 1))
    _check_rate(target, low, high)
    scale = min(max(1.0, abs(target)), sum(count for count, _, _ in components))

    def probe(rho):
        probes = [(count, *rate_at(rho)) for count, _, rate_at in components]
        return rho, sum(count * rate for count, rate, _ in probes), [state for *_, state in probes]

    lo, hi, best = (0.0, low), (1.0, high), None
    if first is not None:
        best = probe(first)
        if _rate_met(first, abs(best[1] - target) / scale):
            return first, best[2]
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
            return best[0], best[2]
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
        point = probe(b)
        residual = abs(point[1] - target)
        fb = math.sqrt(max(point[1], 0.0)) - root
        if best is None or residual < abs(best[1] - target):
            best = point
        if _rate_met(b, residual / scale):
            return b, point[2]


def spe_parametric(p: FiniteDist, channel: DiscreteChannel, rate: float) -> SpePoint:
    """Solve the parametric characterization of the exponent at one rate.

    `_solve_components` finds the order where the tilted rate meets the
    rate, for the one component (1, (I_0, I_1), rate_at), first probing
    `_newton_order`'s order, if any, at Newton's q when `_certified_mean`
    certifies it; every other probe is a cold fixed point. The point is
    `_point`'s, from the accepted solution.
    """
    return _spe_point(p, channel, rate, _rate_endpoints(p, channel))


def _spe_point(p: FiniteDist, channel: DiscreteChannel, rate: float, ends) -> SpePoint:
    """`spe_parametric` on the rate range ends = (I_0, I_1) of p."""
    _check_rate(rate, *ends)  # before Newton, which needs an interior rate
    first, q = _newton_order(p, channel, rate, *ends) or (None, None)

    def rate_at(rho):
        sol = _certified_mean(rho, p, channel, q) if rho == first else None
        if sol is None:
            sol = augustin_fixed_point(rho, p, channel)
        return sol.tilted_rate, sol

    rho_star, (sol,) = _solve_components([(1, ends, rate_at)], rate, first)
    return _point(rate, rho_star, sol)


def _point(rate: float, rho: float, sol) -> SpePoint:
    """The point at the order rho from its Augustin solution: the exponent,
    a2 and a3 are the solution's, the slope is (rho - 1) / rho, and the
    exponent is checked against (1 - rho) / rho * (I_rho - rate)."""
    exponent = sol.tilted_exponent
    direct = (1.0 - rho) / rho * (sol.information - rate)
    if abs(direct - exponent) > EXPONENT_CONSISTENCY_TOL:
        raise ComputationError(f"exponent forms disagree by {abs(direct - exponent):.3e}")
    return SpePoint(rate=rate, rho_star=rho, exponent=exponent, slope=(rho - 1.0) / rho,
                    mean=sol.mean, a2=sol.a2, a3=sol.a3)


@dataclass(frozen=True)
class ConstrainedSpe:
    value: float
    argmax_p: FiniteDist
    point: SpePoint | None
    certified: bool


def spe_constrained(channel: DiscreteChannel, constraint: ConstraintSet,
                    rate: float) -> ConstrainedSpe:
    """Supremum of the exponent over a constraint set.

    Swapping the two suprema reduces the search to the capacity curve: the
    exponent of the set is sup over orders of (1-rho)/rho (C_rho - rate),
    attained where the tilted rate of the capacity center at the optimizer
    meets the rate. It is 0 at rates at or above C_1 or the tilted rate at
    order one, and inf, at p0, at or below `_order_zero_capacity`'s lower end.
    Between, `_solve_components` runs on one component, the capacity curve
    bracketed from (0, lower), at the default capacity tolerance; the point
    is `_point`'s from the accepted capacity, certified when every capacity
    is, the stop rule holds and C_0's upper end is below the rate. Lists are
    enumerated exactly, on one rate range per candidate.
    """
    if math.isnan(rate):
        raise RateOutOfRangeError(rate, 0.0, math.inf)
    if constraint.kind == "list":
        best = None
        for cand in constraint.dists:
            low, high = ends = _rate_endpoints(cand, channel)
            pt = _spe_point(cand, channel, rate, ends) if low < rate < high else None
            value = pt.exponent if pt is not None else 0.0 if rate >= high else math.inf
            if best is None or value > best[0]:
                best = (value, cand, pt)
        return ConstrainedSpe(*best, True)
    solves = []

    def rate_at(rho):
        res = augustin_capacity(rho, channel, constraint)
        solves.append(res)
        return res.solution.tilted_rate, res

    high_rate, high = rate_at(1.0)
    # at order one the tilted rate is the capacity up to rounding, and a rate
    # within that rounding of it is the 0 limit
    if rate >= min(high.capacity, high_rate):
        return ConstrainedSpe(0.0, high.optimizer, None, high.certified)
    lower, upper, p0 = _order_zero_capacity(channel, constraint)
    if rate <= lower:
        # p0's I_0 is at least its Sibson I_0, lower, which reaches the rate
        return ConstrainedSpe(math.inf, FiniteDist(p0), None, True)
    rho, (best,) = _solve_components([(1, (lower, high_rate), rate_at)], rate)
    certified = (_rate_met(rho, abs(best.solution.tilted_rate - rate))
                 and all(res.certified for res in solves) and upper < rate)
    pt = _point(rate, rho, best.solution)
    return ConstrainedSpe(pt.exponent, best.optimizer, pt, certified)
