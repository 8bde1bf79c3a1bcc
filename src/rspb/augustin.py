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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    AlphabetMismatchError,
    ComputationError,
    FeasibilityError,
    InvalidOrderError,
    NonConvergenceError,
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
    """Converged fixed point: mean, information, and iteration diagnostics."""

    mean: FiniteDist
    information: float
    iterations: int
    residual: float
    alt_identity_residual: float


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
    """
    n_orders = rhos.size
    # an order that takes no step has certified nothing; order one is exact
    steps = np.where(rhos < 1.0, np.inf, 0.0)
    iters = np.zeros(n_orders, dtype=int)
    prev_step = np.full(n_orders, np.nan)
    prev_ratio = np.full(n_orders, np.nan)
    active = rhos < 1.0
    for _ in range(max_iter):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        Qa = Q[idx]
        tilts = _tilted_rows(rhos[idx, None, None], lw, Qa[:, None, :])
        Qn = np.einsum("s,asy->ay", weights, tilts)
        delta = Qn - Qa
        step = 0.5 * np.abs(delta).sum(axis=1)
        iters[idx] += 1
        steps[idx] = step
        done = step <= tol
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = step / prev_step[idx]
        stable = (
            ~done
            & np.isfinite(ratio)
            & np.isfinite(prev_ratio[idx])
            & (ratio < 1.0)
            & (np.abs(ratio - prev_ratio[idx]) < 0.02 * ratio)
        )
        if stable.any():
            boost = np.zeros_like(step)
            boost[stable] = ratio[stable] / (1.0 - ratio[stable])
            jump = Qn + delta * boost[:, None]
            # A mass the jump zeroes would stay zero under every later plain
            # step, a fixed point on a face of the simplex; it halves instead.
            Qn = np.where((jump <= 0.0) & (Qn > 0.0), 0.5 * Qn, jump)
            np.clip(Qn, 0.0, None, out=Qn)
            Qn /= Qn.sum(axis=1, keepdims=True)
            ratio = np.where(stable, np.nan, ratio)
            step = np.where(stable, np.nan, step)
        Q[idx] = Qn
        prev_step[idx] = step
        prev_ratio[idx] = ratio
        sub = np.flatnonzero(active)[done]
        active[sub] = False
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
        lq = np.log(q)
    logits = rho * lw + (1.0 - rho) * lq
    peak = logits.max(axis=-1, keepdims=True)
    t = np.exp(logits - peak)
    t /= t.sum(axis=-1, keepdims=True)
    return t


def _kl_rows(t: np.ndarray, ref: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(t > 0, t * (np.log(t) - np.log(ref)), 0.0)
    return terms.sum(axis=1)


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
    weights, w_rows, lw = _support_rows(p, channel)
    if rho == 1.0:
        q = weights @ w_rows
        info = float(weights @ _row_divergences(1.0, lw, q))
        return AugustinSolution(FiniteDist(q), info, 0, 0.0, 0.0)
    rhos = np.array([rho], dtype=float)
    Q, steps, iters = _solve_grid(
        rhos, weights, lw, _start_rows(rhos, weights, w_rows, lw), tol, max_iter
    )
    q = Q[0]
    if steps[0] > tol:
        raise NonConvergenceError(
            f"fixed point did not converge in {max_iter} iterations", float(steps[0])
        )
    info = float(weights @ _row_divergences(rho, lw, q))
    t = _tilted_rows(rho, lw, q)
    d1_tw = float(weights @ _kl_rows(t, w_rows))
    d1_tq = float(weights @ _kl_rows(t, q[None, :]))
    alt = abs(info - (rho / (1.0 - rho) * d1_tw + d1_tq))
    # The rho/(1-rho) factor amplifies rounding in d1_tw, so the gate widens
    # by exactly that unavoidable factor; it stays at 1e-9 for rho <= 0.9999.
    gate = max(ALT_IDENTITY_TOL, 64 * np.finfo(float).eps * rho / (1.0 - rho))
    if alt > gate:
        raise ComputationError(
            f"tilted-channel identity residual {alt:.3e} exceeds {gate:.3e}"
        )
    return AugustinSolution(FiniteDist(q), info, int(iters[0]), float(steps[0]), alt)


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
    _check_inputs(rho, p, channel)
    q = augustin_fixed_point(rho, p, channel).mean.masses
    return _info_derivative(rho, p, channel, q, tilted_kl_pair(rho, p, channel, q)[1])


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
    _check_inputs(rho, p, channel)
    sol = augustin_fixed_point(rho, p, channel)
    return tilted_kl_pair(rho, p, channel, sol.mean.masses)[0]


def tilted_kl_pair(
    rho: float, p: FiniteDist, channel: DiscreteChannel, q: np.ndarray
) -> tuple:
    """(D_1(tilt || q | p), D_1(tilt || W | p)) at a prepared mean q."""
    weights, w_rows, lw = _support_rows(p, channel)
    if rho == 1.0:
        t = w_rows
    else:
        t = _tilted_rows(rho, lw, q)
    return (
        float(weights @ _kl_rows(t, q[None, :])),
        float(weights @ _kl_rows(t, w_rows)),
    )


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
