"""Augustin means, information, and constraint-aware capacity.

The Augustin mean of order rho for an input distribution P is the unique
output law minimizing the conditional Renyi divergence; it is computed here
as the fixed point of the tilted-channel mixture map, started from the
closed-form power-mean (Sibson) center of the same order. That center is the
Augustin mean at order one and, for full-support rows, in the limit of small
orders, where plain iteration is slowest. Orders above one are rejected:
the sphere-packing machinery only needs (0, 1], and the fixed point map is
only trusted there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AlphabetMismatchError,
    ComputationError,
    FeasibilityError,
    InvalidOrderError,
    NonConvergenceError,
    PreconditionError,
)
from .measures import DiscreteChannel, FiniteDist, _logsumexp, _power_mean

DEFAULT_FP_TOL = 1e-12
# The order that stands in for the rate endpoint at order zero.
LOW_ORDER_PROBE = 1e-6
DEFAULT_FP_MAX_ITER = 20000
ALT_IDENTITY_TOL = 1e-9
# Weight of the order-one mean mixed into every start. The map keeps a zero
# mass at zero, and at small orders a power-mean center can underflow to 0
# where the mean is positive; the mix keeps every reachable output positive.
START_MIX = 1e-9


@dataclass(frozen=True)
class AugustinSolution:
    """Converged fixed point: mean, information, and iteration diagnostics.

    residual is the total-variation size of the last step of the map and
    alt_identity_residual the gap between information and its tilted-channel
    decomposition rho/(1-rho) tilted_exponent + tilted_rate (0 at order one).
    tilted_rate = D_1(tilt || mean | p) and tilted_exponent =
    D_1(tilt || W | p) are the tilted-channel pair at the returned mean,
    equal bit for bit to tilted_kl_pair(rho, p, channel, mean.masses); at
    order one the tilt is the channel itself.
    """

    mean: FiniteDist
    information: float
    iterations: int
    residual: float
    alt_identity_residual: float
    tilted_rate: float
    tilted_exponent: float


def _check_inputs(rho: float, p: FiniteDist, channel: DiscreteChannel):
    if not 0 < rho <= 1:
        raise InvalidOrderError(f"order must lie in (0, 1], got {rho}")
    if p.alphabet_size != channel.input_size:
        raise AlphabetMismatchError("input distribution does not match channel inputs")


def _support_rows(p: FiniteDist, channel: DiscreteChannel) -> tuple:
    """Masses, channel rows and log-rows of the inputs in the support of p."""
    sup = p.support
    w_rows = channel.row_matrix()[sup]
    with np.errstate(divide="ignore"):
        return p.masses[sup], w_rows, np.log(w_rows)


def _start_rows(rhos: np.ndarray, weights, w_rows, lw) -> np.ndarray:
    """Power-mean center of p at each order, with START_MIX of the order-one
    mean p W mixed in."""
    # order one gives an infinite value beside its center; only centers are used
    with np.errstate(divide="ignore", invalid="ignore"):
        center = _power_mean(rhos, lw, np.log(weights))[0]
    return (1.0 - START_MIX) * center + START_MIX * (weights @ w_rows)


def _solve_grid(rhos, weights, lw, Q, tol, max_iter):
    """Iterate q <- sum_x p(x) tilt_rho(W(x), q) for a whole grid of orders,
    from the start rows Q, one per order.

    The map contracts like (1 - rho), which is hopeless to iterate plainly
    for tiny orders, so once the per-order step ratio stabilizes we take a
    geometric-series extrapolation jump and let a few plain steps re-certify
    the tolerance. Returns (Q, steps, iterations) with one row per order.
    Needs tol >= 0, so that a kept step is positive and the next step ratio
    is defined.
    """
    # an order that takes no step has certified nothing; order one is exact
    steps = np.where(rhos < 1.0, np.inf, 0.0)
    iters = np.zeros(rhos.size, dtype=int)
    # The orders still iterating, compacted: their indices, rho * ln W,
    # 1 - rho, means, last steps and the (step, ratio) pair that the next
    # ratio test reads, nan after a jump. Q, steps and iters are written back
    # only when some order finishes, and after the loop.
    idx = np.flatnonzero(rhos < 1.0)
    r = rhos[idx, None, None]
    r_lw, one_r = r * lw, 1.0 - r
    q = Q[idx]
    last = steps[idx].tolist()
    prev = [(math.nan, math.nan)] * idx.size
    n = 0
    with np.errstate(divide="ignore"):
        while idx.size and n < max_iter:
            n += 1
            # the tilt stays bound until the next one replaces it: freeing it
            # at once costs page faults on large grids
            t = _tilt(r_lw, one_r, q[:, None, :])
            qn = np.einsum("s,asy->ay", weights, t)
            delta = qn - q
            step = 0.5 * np.abs(delta).sum(axis=1)
            last = step.tolist()
            boost = [0.0] * len(last)
            keep, jumped = [], False
            for j, s in enumerate(last):
                if s <= tol:
                    continue
                keep.append(j)
                ratio = s / prev[j][0]
                if ratio < 1.0 and abs(ratio - prev[j][1]) < 0.02 * ratio:
                    boost[j] = ratio / (1.0 - ratio)
                    prev[j] = (math.nan, math.nan)
                    jumped = True
                else:
                    prev[j] = (s, ratio)
            if jumped:
                boost = np.array(boost)
                jump = qn + delta * boost[:, None]
                # A mass the jump zeroes would stay zero under every later plain
                # step, a fixed point on a face of the simplex; it halves instead.
                qn = np.where((jump <= 0.0) & (qn > 0.0), 0.5 * qn, jump)
                np.clip(qn, 0.0, None, out=qn)
                # only the rows that jumped are renormalized, so that each order
                # of a grid runs bit for bit as it would alone
                qn /= np.where(boost > 0.0, qn.sum(axis=1), 1.0)[:, None]
            q = qn
            if not keep:
                break
            if len(keep) < len(last):
                done = np.ones(len(last), dtype=bool)
                done[keep] = False
                Q[idx[done]], steps[idx[done]], iters[idx[done]] = q[done], step[done], n
                idx, r_lw, one_r, q = idx[keep], r_lw[keep], one_r[keep], q[keep]
                last = [last[j] for j in keep]
                prev = [prev[j] for j in keep]
    Q[idx], steps[idx], iters[idx] = q, last, n
    return Q, steps, iters


def _row_divergences(rho: float, lw: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D_rho(W(x) || q) for every prepared log-row, vectorized.

    Assumes q dominates every row (true for mixtures over the rows). The
    power sum is evaluated through expm1/log1p so that precision does not
    degrade like eps/(1-rho) near order one; rows with huge exponents fall
    back to the max-shifted log-sum-exp.
    """
    with np.errstate(divide="ignore"):
        lq = np.log(q)
    w = np.exp(lw)
    joint = w > 0
    if rho == 1.0:
        with np.errstate(invalid="ignore"):
            terms = np.where(joint, w * (lw - lq), 0.0)
        return terms.sum(axis=1)
    with np.errstate(invalid="ignore"):
        args = np.where(joint, (rho - 1.0) * (lw - lq), 0.0)
    out = np.full(lw.shape[0], np.nan)
    safe = args.max(axis=1) < 500.0
    if safe.any():
        s1 = np.einsum("xy,xy->x", w[safe], np.expm1(args[safe]))
        with np.errstate(divide="ignore"):
            out[safe] = np.log1p(s1) / (rho - 1.0)
    hard = ~safe | ~(out > -np.inf)
    if hard.any():
        logits = rho * lw[hard] + (1.0 - rho) * lq[None, :]
        peak = logits.max(axis=1, keepdims=True)
        out[hard] = (
            peak[:, 0] + np.log(np.exp(logits - peak).sum(axis=1))
        ) / (rho - 1.0)
    return out


def _tilted_rows(rho, lw: np.ndarray, q: np.ndarray) -> np.ndarray:
    """W(y|x)^rho q(y)^(1-rho), normalized over the last axis; rho and q
    broadcast against lw, so one call tilts a grid of orders and means."""
    with np.errstate(divide="ignore"):
        return _tilt(rho * lw, 1.0 - rho, q)


def _tilt(r_lw, one_r, q):
    """_tilted_rows from rho * ln W and 1 - rho; callers ignore the
    divide-by-zero warning of ln 0."""
    t = r_lw + one_r * np.log(q)
    t -= t.max(axis=-1, keepdims=True)
    np.exp(t, out=t)
    t /= t.sum(axis=-1, keepdims=True)
    return t


def _kl_rows(t: np.ndarray, ref: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(t > 0, t * (np.log(t) - np.log(ref)), 0.0)
    return terms.sum(axis=1)


def _check_limits(tol: float, max_iter: int):
    if not (tol >= 0 and max_iter >= 0):
        raise PreconditionError(
            f"tol and max_iter must be non-negative, got {tol} and {max_iter}"
        )


def augustin_fixed_point(
    rho: float,
    p: FiniteDist,
    channel: DiscreteChannel,
    tol: float = DEFAULT_FP_TOL,
    max_iter: int = DEFAULT_FP_MAX_ITER,
) -> AugustinSolution:
    """Solve for the order rho Augustin mean of (p, channel).

    Starts from the power-mean center of the same order (with START_MIX of
    the order-one mean), stops when the total-variation step falls below
    tol, and cross-checks the converged information value against its
    tilted-channel KL decomposition before returning. Order one returns the
    plain mixture directly.
    """
    _check_inputs(rho, p, channel)
    _check_limits(tol, max_iter)
    weights, w_rows, lw = _support_rows(p, channel)
    if rho == 1.0:
        q, iterations, step = weights @ w_rows, 0, 0.0
    else:
        rhos = np.array([rho], dtype=float)
        Q, steps, iters = _solve_grid(
            rhos, weights, lw, _start_rows(rhos, weights, w_rows, lw), tol, max_iter
        )
        q, iterations, step = Q[0], int(iters[0]), float(steps[0])
        if step > tol:
            raise NonConvergenceError(
                f"fixed point did not converge in {max_iter} iterations", step
            )
    info = float(weights @ _row_divergences(rho, lw, q))
    mean = FiniteDist(q)
    # at the renormalized mean, so that the pair equals tilted_kl_pair(mean)
    rate, exponent = _tilted_pair(rho, weights, w_rows, lw, mean.masses)
    alt = 0.0
    if rho < 1.0:
        alt = abs(info - (rho / (1.0 - rho) * exponent + rate))
        # The rho/(1-rho) factor amplifies rounding in the exponent, so the gate
        # widens by exactly that unavoidable factor; it stays at 1e-9 for
        # rho <= 0.9999.
        gate = max(ALT_IDENTITY_TOL, 64 * np.finfo(float).eps * rho / (1.0 - rho))
        if alt > gate:
            raise ComputationError(
                f"tilted-channel identity residual {alt:.3e} exceeds {gate:.3e}"
            )
    return AugustinSolution(mean, info, iterations, step, alt, rate, exponent)


def augustin_information_grid(
    rhos,
    p: FiniteDist,
    channel: DiscreteChannel,
    tol: float = DEFAULT_FP_TOL,
    max_iter: int = 500_000,
) -> np.ndarray:
    """Augustin information at every order of a grid, solved jointly."""
    rhos = np.asarray(rhos, dtype=float)
    for r in rhos:
        _check_inputs(float(r), p, channel)
    _check_limits(tol, max_iter)
    weights, w_rows, lw = _support_rows(p, channel)
    Q, steps, _ = _solve_grid(
        rhos, weights, lw, _start_rows(rhos, weights, w_rows, lw), tol, max_iter
    )
    bad = steps > tol
    if bad.any():
        raise NonConvergenceError(
            f"{int(bad.sum())} grid orders did not converge", float(steps[bad].max())
        )
    out = np.empty(rhos.size)
    for i, r in enumerate(rhos):
        out[i] = float(weights @ _row_divergences(float(r), lw, Q[i]))
    return out


def augustin_info_derivative(rho: float, p: FiniteDist, channel: DiscreteChannel) -> float:
    """Order-derivative of the Augustin information at rho."""
    sol = augustin_fixed_point(rho, p, channel)
    return _info_derivative(rho, p, channel, sol.mean.masses, sol.tilted_exponent)


def _info_derivative(rho: float, p: FiniteDist, channel: DiscreteChannel, q, d1_tw) -> float:
    """The derivative at the mean q, given D_1(tilt || W | p) there."""
    if rho < 1.0:
        return d1_tw / (rho - 1.0) ** 2
    weights, w_rows, _ = _support_rows(p, channel)
    with np.errstate(divide="ignore"):
        lq = np.log(q)
    total = 0.0
    for wx, weight in zip(w_rows, weights):
        m = wx > 0
        lr = np.log(wx[m]) - lq[m]
        mean = float(wx[m] @ lr)
        total += 0.5 * weight * float(wx[m] @ (lr - mean) ** 2)
    return total


def haroutunian_rate(rho: float, p: FiniteDist, channel: DiscreteChannel) -> float:
    """KL divergence of the tilted channel from the Augustin mean, p-averaged.

    Non-decreasing in the order; its inverse supplies the parametric order
    for the sphere-packing exponent.
    """
    return augustin_fixed_point(rho, p, channel).tilted_rate


def _tilted_pair(rho: float, weights, w_rows, lw, q: np.ndarray) -> tuple:
    """(D_1(tilt || q | p), D_1(tilt || W | p)) from the support rows of p."""
    t = w_rows if rho == 1.0 else _tilted_rows(rho, lw, q)
    return (
        float(weights @ _kl_rows(t, q[None, :])),
        float(weights @ _kl_rows(t, w_rows)),
    )


def tilted_kl_pair(
    rho: float, p: FiniteDist, channel: DiscreteChannel, q: np.ndarray
) -> tuple:
    """(D_1(tilt || q | p), D_1(tilt || W | p)) at a prepared mean q."""
    return _tilted_pair(rho, *_support_rows(p, channel), q)


# ---------------------------------------------------------------------------
# constraint sets and capacity


@dataclass(frozen=True)
class ConstraintSet:
    """Input constraint: all inputs, one distribution, a cost cap, or a list."""

    kind: str
    dist: FiniteDist | None = None
    costs: np.ndarray | None = None
    budget: float | None = None
    dists: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("all", "single", "cost", "list"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "cost":
            costs = np.asarray(self.costs, dtype=float)
            object.__setattr__(self, "costs", costs)
            if self.budget is None or self.budget < costs.min():
                raise FeasibilityError(
                    "cost budget below the cheapest input; constraint set empty"
                )

    @staticmethod
    def all_inputs() -> "ConstraintSet":
        return ConstraintSet(kind="all")

    @staticmethod
    def single(p: FiniteDist) -> "ConstraintSet":
        return ConstraintSet(kind="single", dist=p)

    @staticmethod
    def cost(costs, budget: float) -> "ConstraintSet":
        return ConstraintSet(kind="cost", costs=np.asarray(costs, dtype=float), budget=budget)

    @staticmethod
    def explicit(dists) -> "ConstraintSet":
        return ConstraintSet(kind="list", dists=tuple(dists))


def read_constraint(path) -> ConstraintSet:
    """Load {"kind": "all"} or {"kind": "cost", "costs": [...], "budget": x}."""
    data = json.loads(Path(path).read_text())
    kind = data.get("kind")
    if kind == "all":
        return ConstraintSet.all_inputs()
    if kind == "cost":
        return ConstraintSet.cost(data["costs"], float(data["budget"]))
    raise ValueError(f"{path}: unsupported constraint kind {kind!r}")


@dataclass(frozen=True)
class CapacityResult:
    capacity: float
    center: FiniteDist
    optimizer: FiniteDist
    certificate_gap: float
    certified: bool


# an output that only vanishing inputs reach can leave q = 0 there and D = inf
@np.errstate(invalid="ignore")
def _power_mean_ascent(rho, lw, penalty, lp, tol, max_iter):
    """Raise the Sibson information of p = exp(lp), or its Renyi-Gallager form
    under the penalty; returns lp.

    Step: p(x) <- p(x) exp(s (D_rho(W(x)||q) - penalty(x))), q the power-mean
    center of the weights. s = rho is a Jensen majorization step that never
    lowers the value (Blahut-Arimoto at order one); a longer step that lowers
    it is dropped. s then moves to the secant root of the value's slope along
    the step, taken to first order in D - value: at most 8 s after a kept
    step, s/2 after a dropped one, never below rho. Stops once max_x [D - penalty] is within tol/10 of the value.
    """
    def state(lp):
        p = np.exp(lp)
        if rho < 1.0:
            q, value = _power_mean(rho, lw, lp + (1.0 - rho) * penalty)
            return lp, _row_divergences(rho, lw, q) - penalty, value, p
        d = _row_divergences(1.0, lw, p @ np.exp(lw)) - penalty
        return lp, d, float(p[p > 0] @ d[p > 0]), p

    cur, s = state(lp), rho
    for _ in range(max_iter):
        lp, d, value = cur[:3]
        if d.max() - value <= 0.1 * tol:
            break
        g = np.minimum(d - d[np.isfinite(d)].max(), 0.0)
        trial = state(lp + s * g - _logsumexp(lp + s * g))
        s0, s1 = (float(st[3] @ ((st[1] - st[3] @ st[1]) * g)) for st in (cur, trial))
        root = s * s0 / (s0 - s1) if s0 > s1 else 2.0 * s
        # equal values up to rounding count as kept, so that s keeps its scale
        if trial[2] >= value - 8.0 * np.spacing(abs(value)) or s == rho:
            cur, s = trial, max(min(root, 8.0 * s), rho)
        else:
            s = max(min(root, 0.5 * s), rho)
    return cur[0]


def augustin_capacity(
    rho: float,
    channel: DiscreteChannel,
    constraint: ConstraintSet | None = None,
    tol: float = 1e-8,
    max_iter: int = 4000,
) -> CapacityResult:
    """Maximize the Augustin information over a constraint set.

    Sibson and Augustin capacities and centers coincide, so a power-mean
    ascent finds the optimizer p; one Augustin fixed point at p, started like
    every other at the power-mean center of p, gives the center,
    C = sum_x p(x) D_rho(W(x) || center) and the gap
    max_x D_rho(W(x) || center) - C, which certifies C within tol. A cost
    constraint bisects the Lagrange multiplier, warm-starting each ascent,
    and certifies with the Lagrangian gap. Single distributions reduce to
    the fixed point; lists are enumerated exactly.
    """
    _check_limits(tol, max_iter)
    if constraint is None:
        constraint = ConstraintSet.all_inputs()
    if constraint.kind == "single":
        sol = augustin_fixed_point(rho, constraint.dist, channel)
        return CapacityResult(sol.information, sol.mean, constraint.dist, 0.0, True)
    if constraint.kind == "list":
        best = None
        for cand in constraint.dists:
            sol = augustin_fixed_point(rho, cand, channel)
            if best is None or sol.information > best[0]:
                best = (sol.information, sol.mean, cand)
        return CapacityResult(best[0], best[1], best[2], 0.0, True)
    n_in = channel.input_size
    uniform = FiniteDist(np.full(n_in, 1.0 / n_in))
    _check_inputs(rho, uniform, channel)
    priced = constraint.kind == "cost"
    costs, budget = (constraint.costs, constraint.budget) if priced else (np.zeros(n_in), 0.0)
    if costs.size != n_in:
        raise AlphabetMismatchError("cost vector length does not match channel inputs")
    lw = channel.log_row_matrix()

    def ascend(lam, lp):
        lp = _power_mean_ascent(rho, lw, lam * costs, lp, tol, max_iter)
        return lp, budget - float(np.exp(lp) @ costs)

    # raise the multiplier until the budget holds, then bisect toward where
    # it binds until the slackness term lam * slack of the gap is below tol/10
    lam_lo, lam_hi = 0.0, 0.0
    lp, slack = ascend(0.0, uniform.log_masses())
    while slack < -1e-12:
        lam_lo, lam_hi = lam_hi, max(2.0 * lam_hi, 1.0)
        if lam_hi > 1e9:
            raise ComputationError("cost multiplier search diverged")
        lp, slack = ascend(lam_hi, lp)
    best = lp
    for _ in range(60):
        if lam_hi * slack <= 0.1 * tol:
            break
        lam = 0.5 * (lam_lo + lam_hi)
        lp, mid_slack = ascend(lam, lp)
        if mid_slack >= -1e-12:
            lam_hi, slack, best = lam, mid_slack, lp
        else:
            lam_lo = lam
    p = FiniteDist(np.exp(best))
    sol = augustin_fixed_point(rho, p, channel)
    d = _row_divergences(rho, lw, sol.mean.masses)
    gap = float(np.max(d - lam_hi * costs) + lam_hi * budget - sol.information)
    certified = gap <= tol and float(p.masses @ costs) <= budget + 1e-9
    return CapacityResult(sol.information, sol.mean, p, gap, certified)
