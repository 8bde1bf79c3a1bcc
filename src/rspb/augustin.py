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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AlphabetMismatchError,
    ComputationError,
    FeasibilityError,
    InfiniteDivergenceError,
    InvalidOrderError,
    NonConvergenceError,
    PreconditionError,
)
from .measures import (
    DiscreteChannel,
    FiniteDist,
    _power_mean,
    _power_mean_on,
    _read_fields,
    _row_powers,
    _tilt_moments,
)

DEFAULT_FP_TOL = 1e-12
DEFAULT_FP_MAX_ITER = 20000
ALT_IDENTITY_TOL = 1e-9
# Weight of the order-one mean mixed into every start. The map keeps a zero
# mass at zero, and at small orders a power-mean center can underflow to 0
# where the mean is positive; the mix keeps every reachable output positive.
START_MIX = 1e-9
# 64 ulps of 1, the rounding allowance of the identity gate
_GATE_ULPS = 64 * np.finfo(float).eps


@dataclass(frozen=True, slots=True)
class AugustinSolution:
    """Certified fixed point: mean, information, and iteration diagnostics.

    One tilt of p's rows toward the mean (the rows at order one; a symmetric
    root reuses its probe's, toward the center before renormalizing) gives:
    the Frank-Wolfe gap of `_certified_mean`, the one rule that accepts a
    mean, which puts I_rho in [information - max(gap, 0), information];
    residual, the TV size of that map step; tilted_rate = D_1(tilt || mean |
    p) and tilted_exponent = D_1(tilt || W | p), tilted_kl_pair(rho, p,
    channel, mean.masses) up to that rounding; and a2, a3, the p-weighted
    `_tilt_moments` of ln W - ln mean. alt_identity_residual is the gap between
    information and rho/(1-rho) tilted_exponent + tilted_rate (0 at order one).
    """

    mean: FiniteDist
    information: float
    iterations: int
    residual: float
    alt_identity_residual: float
    tilted_rate: float
    tilted_exponent: float
    gap: float
    a2: float
    a3: float


def _check_inputs(rho: float, p: FiniteDist, channel: DiscreteChannel):
    if not 0 < rho <= 1:
        raise InvalidOrderError(f"order must lie in (0, 1], got {rho}")
    if p.alphabet_size != channel.input_size:
        raise AlphabetMismatchError("input distribution does not match channel inputs")


def _support_rows(p: FiniteDist, channel: DiscreteChannel) -> tuple:
    """Masses, channel rows and log-rows of the inputs in the support of p:
    under full support, p's masses and the channel's shared read-only arrays
    themselves."""
    w_rows, lw = channel.row_matrix(), channel.log_row_matrix()
    if p.masses.all():
        return p.masses, w_rows, lw
    sup = p.support
    return p.masses[sup], w_rows[sup], lw[sup]


def _start(rho: float, weights, w_rows, lw) -> np.ndarray:
    """Power-mean center of p at the order rho, with START_MIX of the
    order-one mean p W mixed in."""
    center = _power_mean(rho, lw, np.log(weights))[0]
    return (1.0 - START_MIX) * center + START_MIX * (weights @ w_rows)


def _solve(r_lw, one_r, weights, q, tol, max_iter):
    """Iterate q <- T(q) = sum_x p(x) tilt_rho(W(x), q) at an order below one,
    from rho * ln W, 1 - rho and the start q, a vector over the outputs, until
    the Frank-Wolfe gap g of `_certified_mean`, over the outputs the rows
    reach, is at most tol or NaN.

    The map contracts like (1 - rho), which is hopeless to iterate plainly
    for tiny orders, so once the ratio of successive total-variation steps
    stabilizes we take a geometric-series extrapolation jump. Returns
    (q, g, map evaluations) of the iterate g was read at, not of T(q), or of
    the last iterate; a solve that evaluates no map reports an infinite g.
    """
    gap, prev, n = math.inf, (math.nan, math.nan), 0
    reached = np.logical_or.reduce(r_lw > -np.inf, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        while n < max_iter:
            n += 1
            qn = np.einsum("s,sy->y", weights, _tilt(r_lw, one_r, q))
            gap = float(np.max((qn / q)[reached])) - 1.0
            # a NaN gap is a reached mass at 0, which the map keeps at 0
            if not gap > tol:
                break
            delta = qn - q
            step = 0.5 * np.add.reduce(np.abs(delta))  # numpy's, so that 0 divides
            q = qn
            ratio = step / prev[0]
            if ratio < 1.0 and abs(ratio - prev[1]) < 0.02 * ratio:
                jump = q + delta * (ratio / (1.0 - ratio))
                # A mass the jump zeroes would stay zero under every later plain
                # step, a fixed point on a face of the simplex; it halves instead.
                q = np.where((jump <= 0.0) & (q > 0.0), 0.5 * q, jump)
                np.maximum(q, 0.0, out=q)
                q /= np.add.reduce(q)
                prev = (math.nan, math.nan)
            else:
                prev = (step, ratio)
    return q, gap, n


def _row_divergences(rho: float, lw: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D_rho(W(x) || q) for every prepared log-row at an order in (0, 1],
    vectorized over the rows.

    Assumes q dominates every row (true for mixtures over the rows). The
    power sum is evaluated through expm1/log1p so that precision does not
    degrade like eps/(1-rho) near order one; rows with huge exponents fall
    back to the max-shifted log-sum-exp. A caller that measures many q
    against the same rows at one order forms `_divergence_terms` once and
    evaluates with `_divergences_on`.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _divergences_on(_divergence_terms(rho, lw), q)


class _DivergenceTerms(NamedTuple):
    """What `_row_divergences` takes from the order and log-rows alone."""

    rho: float
    lw: np.ndarray
    w: np.ndarray  # exp(lw)
    joint: np.ndarray  # w > 0


def _divergence_terms(rho: float, lw: np.ndarray) -> _DivergenceTerms:
    w = np.exp(lw)
    return _DivergenceTerms(rho, lw, w, w > 0)


def _divergences_on(terms: _DivergenceTerms, q: np.ndarray) -> np.ndarray:
    """`_row_divergences` at q from its `_divergence_terms`. Callers ignore
    divide, invalid and overflow warnings: ln 0 where q vanishes, and rows
    past the cutoff overflow; those are replaced."""
    rho, lw, w, joint = terms
    lq = np.log(q)
    if rho == 1.0:
        return _kl_rows(w, lw, lq)
    args = np.where(joint, (rho - 1.0) * (lw - lq), 0.0)
    out = np.log1p(np.einsum("xy,xy->x", w, np.expm1(args))) / (rho - 1.0)
    hard = ~((np.maximum.reduce(args, axis=-1) < 500.0) & (out > -np.inf))
    if np.logical_or.reduce(hard):
        logits = rho * lw[hard] + (1.0 - rho) * lq
        peak = logits.max(axis=1, keepdims=True)
        out[hard] = (peak[:, 0] + np.log(np.exp(logits - peak).sum(axis=1))) / (rho - 1.0)
    return out


def _tilt(r_lw, one_r, q):
    """W(y|x)^rho q(y)^(1-rho), normalized over the last axis, from rho * ln W
    and 1 - rho. Callers ignore the divide-by-zero warning of ln 0."""
    t = r_lw + one_r * np.log(q)
    t -= np.maximum.reduce(t, axis=-1, keepdims=True)
    np.exp(t, out=t)
    t /= np.add.reduce(t, axis=-1, keepdims=True)
    return t


def _tilts_and_logs(rho, w_rows: np.ndarray, lw: np.ndarray, q: np.ndarray) -> tuple:
    """The rows tilted toward q and their logs; at order one, the rows and
    log-rows themselves. Callers ignore the divide warning of ln 0."""
    if rho == 1.0:
        return w_rows, lw
    t = _tilt(rho * lw, 1.0 - rho, q)
    return t, np.log(t)


def _kl_rows(t: np.ndarray, lt: np.ndarray, l_ref: np.ndarray) -> np.ndarray:
    """D_1(t || ref) of each row of t, from ln t and ln ref. Callers take the
    logs and run this with divide and invalid warnings off: -inf - -inf
    gives NaN where t and ref are both 0, and those entries are masked. A NaN
    row of t, a tilt toward a q that misses the row, gives NaN."""
    return np.add.reduce(np.where(t != 0, t * (lt - l_ref), 0.0), axis=-1)


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
    the order-one mean) and accepts the solution, as `_certified_mean` does
    Newton's mean, when its Frank-Wolfe gap is at most tol; otherwise it
    raises NonConvergenceError carrying the gap (NaN where the mean vanishes
    on an output p W reaches). Order one returns the plain mixture directly.
    """
    _check_inputs(rho, p, channel)
    _check_limits(tol, max_iter)
    weights, w_rows, lw = _support_rows(p, channel)
    if rho == 1.0:
        return _solution(rho, weights, w_rows, lw, weights @ w_rows, 0)
    q, _, iterations = _solve(
        rho * lw, 1.0 - rho, weights, _start(rho, weights, w_rows, lw), tol, max_iter
    )
    sol = _solution(rho, weights, w_rows, lw, q, iterations)
    if not sol.gap <= tol:
        raise NonConvergenceError(f"fixed point not certified after {iterations} iterations",
                                  sol.gap)
    return sol


def _solution(rho, weights, w_rows, lw, q, iterations, tilted=None) -> AugustinSolution:
    """The solution at the mean q from p's support rows, read off one tilt
    toward the renormalized mean, or off `tilted`, the caller's (tilts, logs)
    toward q; its residual is the TV of that one map step. The identity gate
    raises ComputationError, but not below order one where q leaves a row no
    mass: the residual and gap read NaN."""
    info = float(weights @ _row_divergences(rho, lw, q))
    mean = FiniteDist(q)
    q = mean.masses
    t, lq, (rate, exponent) = _tilted_at(rho, weights, w_rows, lw, q, tilted)
    image = weights @ t
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = float(np.max((image / q)[weights @ w_rows > 0])) - 1.0
        _, a2, a3 = _tilt_moments(lw - lq, t)
    step = float(0.5 * np.add.reduce(np.abs(image - q)))
    alt = 0.0
    if rho < 1.0:
        # an infinite information, where q leaves a row (next to) no mass, has
        # no identity to check; the gap refuses such a q
        alt = abs(info - (rho / (1.0 - rho) * exponent + rate)) if info < math.inf else math.nan
        # The rho/(1-rho) factor amplifies rounding in the exponent, so the gate
        # widens by exactly that unavoidable factor; it stays at 1e-9 for
        # rho <= 0.9999.
        gate = max(ALT_IDENTITY_TOL, _GATE_ULPS * rho / (1.0 - rho))
        if alt > gate:
            raise ComputationError(
                f"tilted-channel identity residual {alt:.3e} exceeds {gate:.3e}"
            )
    return AugustinSolution(mean, info, iterations, step, alt, rate, exponent, gap,
                            float(weights @ a2), float(weights @ a3))


def _certified_mean(rho: float, p: FiniteDist, channel: DiscreteChannel, q: np.ndarray):
    """The solution at a proposed mean q at an order in (0, 1) when one step of
    the map certifies it, else None.

    f(q) = sum_x p(x) D_rho(W(x) || q) is convex in q (van Erven and
    Harremoes, IEEE TIT 2014), with gradient -T(q)/q, where T(q) =
    sum_x p(x) tilt_rho(W(x), q) is one step of the map. Its Frank-Wolfe gap
    g = max_y T(q)(y)/q(y) - 1, over the outputs p W reaches, bounds the
    information: I_rho(p) lies in [f - max(g, 0), f] (Jaggi, ICML 2013). q is
    accepted when g <= DEFAULT_FP_TOL, as `augustin_fixed_point` accepts its
    own, and a q that vanishes where p W does not has no finite gap. The
    solution reports one iteration.
    """
    sol = _solution(rho, *_support_rows(p, channel), q, 1)
    return sol if sol.gap <= DEFAULT_FP_TOL else None


def _order_zero_information(weights, w_rows) -> float:
    """I_0(p) = min_q f(q) = -sum_x p(x) ln q(S_x), S_x the support of W(x),
    the order-0 limit of the Augustin information: 0.0 when the rows share an
    output, else at the order-0 mean from p W, where the tilt is q restricted
    to S_x. `_solve` stops on this map's gap g, and Jensen gives
    f(q) - I_0 <= ln(1 + g); a g above DEFAULT_FP_TOL raises NonConvergenceError.
    """
    reach = w_rows > 0
    if reach.all(axis=0).any():
        return 0.0
    with np.errstate(divide="ignore"):
        q, gap, _ = _solve(np.log(reach), 1.0, weights, weights @ w_rows, DEFAULT_FP_TOL,
                           DEFAULT_FP_MAX_ITER)
    if not gap <= DEFAULT_FP_TOL:
        raise NonConvergenceError("order-0 mean is not certified", gap)
    return float(-(weights @ np.log(reach @ q)))


def _order_zero_capacity(channel: DiscreteChannel, constraint: ConstraintSet) -> tuple:
    """(lower, upper, p0): certified ends of the order-0 capacity
    C_0 = -ln min_p max_y (pA)(y) over an `all` or `cost` set, A = 1{W > 0}
    (Csiszar, IEEE TIT 1995), and the feasible p0 that gives lower.

    With u = p / that min, C_0 = ln max sum u subject to A^T u <= 1, u >= 0
    and, under a cost, (c - b) u <= 0: a dense tableau simplex from the
    feasible slack basis, with Bland's rule. Outside the tableau, lower is
    -ln max_y (p0 A)(y) at p0 = u / sum u, less its rounding, and upper is
    -ln min_x [(Aq)(x) + mu (c(x) - b)] at the normalized dual (q, mu), by
    weak duality; C_0 >= 0 clips both to +0.0.
    """
    reach = (channel.row_matrix() > 0).astype(float)
    (n_in, n_out), rows = reach.shape, reach.T
    if constraint.kind == "cost":
        spare = constraint.costs - constraint.budget
        rows = np.vstack([rows, spare / (np.abs(spare).max() or 1.0)])
    m = rows.shape[0]
    tab, basis = np.zeros((m + 1, n_in + m + 1)), np.arange(n_in, n_in + m)
    tab[:m, :n_in], tab[:m, n_in:-1], tab[:n_out, -1], tab[m, :n_in] = rows, np.eye(m), 1.0, -1.0
    while (tab[m, :-1] < -1e-12).any():
        j = int(np.argmax(tab[m, :-1] < -1e-12))
        ratios = np.divide(tab[:m, -1], tab[:m, j], out=np.full(m, math.inf),
                           where=tab[:m, j] > 1e-12)
        # Bland: the least basic index among the least ratios
        i = min(np.flatnonzero(ratios == ratios.min()), key=basis.__getitem__)
        pivot = tab[i] / tab[i, j]
        tab -= np.outer(tab[:, j], pivot)
        tab[i], basis[i] = pivot, j
    u = np.maximum(np.bincount(basis, tab[:m, -1], n_in + m)[:n_in], 0.0)
    dual = np.maximum(tab[m, n_in:-1], 0.0)
    # exact sums, so that an output every row reaches gives a ratio of exactly 1
    top = max(math.fsum(u * a) for a in reach.T) / math.fsum(u)
    low = min(math.fsum(dual * r) for r in rows.T) / math.fsum(dual[:n_out])
    lower = -math.log(top)
    # lower gives up the rounding of the ratio and the log, at most 2 eps (1 + lower)
    return (max(0.0, lower - 2.0 * (1.0 + lower) * math.ulp(1.0)),
            max(0.0, -math.log(low)) if low > 0.0 else math.inf, u / math.fsum(u))


def augustin_info_derivative(rho: float, p: FiniteDist, channel: DiscreteChannel) -> float:
    """Order-derivative of the Augustin information at rho."""
    return _info_derivative(rho, augustin_fixed_point(rho, p, channel))


def _info_derivative(rho: float, sol: AugustinSolution) -> float:
    """The derivative at the order-rho solution: D_1(tilt || W | p) / (rho - 1)^2
    below order one, half the variance a2 of ln W - ln mean under W at one."""
    return sol.tilted_exponent / (rho - 1.0) ** 2 if rho < 1.0 else 0.5 * sol.a2


def haroutunian_rate(rho: float, p: FiniteDist, channel: DiscreteChannel) -> float:
    """KL divergence of the tilted channel from the Augustin mean, p-averaged.

    Non-decreasing in the order; its inverse supplies the parametric order
    for the sphere-packing exponent.
    """
    return augustin_fixed_point(rho, p, channel).tilted_rate


def _tilted_at(rho: float, weights, w_rows, lw, q: np.ndarray, tilted=None) -> tuple:
    """The rows tilted toward q (those `tilted` holds, if given), ln q and the
    pair (D_1(tilt || q | p), D_1(tilt || W | p)) they give."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t, lt = tilted or _tilts_and_logs(rho, w_rows, lw, q)
        lq = np.log(q)
        return t, lq, (float(weights @ _kl_rows(t, lt, lq)), float(weights @ _kl_rows(t, lt, lw)))


def tilted_kl_pair(
    rho: float, p: FiniteDist, channel: DiscreteChannel, q: np.ndarray
) -> tuple:
    """(D_1(tilt || q | p), D_1(tilt || W | p)) at a prepared mean q. A q that
    vanishes on every output some row of p's support reaches leaves that row
    no tilt, and raises InfiniteDivergenceError."""
    pair = _tilted_at(rho, *_support_rows(p, channel), q)[2]
    if math.isnan(pair[0]) or math.isnan(pair[1]):
        raise InfiniteDivergenceError("tilted measure undefined for singular pair")
    return pair


# ---------------------------------------------------------------------------
# constraint sets and capacity


@dataclass(frozen=True)
class ConstraintSet:
    """Input constraint: all inputs, a cost cap, or a list of distributions."""

    kind: str
    costs: np.ndarray | None = None
    budget: float | None = None
    dists: tuple | None = None

    def __post_init__(self):
        if self.kind not in ("all", "cost", "list"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.kind == "cost":
            costs = np.asarray(self.costs, dtype=float)
            if costs.ndim != 1 or costs.size == 0 or not np.isfinite(costs).all():
                raise PreconditionError(f"costs must be finite, 1-d, non-empty: {costs.tolist()}")
            if self.budget is None or not math.isfinite(self.budget):
                raise PreconditionError(f"cost budget must be finite: {self.budget}")
            object.__setattr__(self, "costs", costs)
            if self.budget < costs.min():
                raise FeasibilityError(
                    "cost budget below the cheapest input; constraint set empty"
                )
        if self.kind == "list" and not self.dists:
            raise FeasibilityError("constraint list is empty")

    @staticmethod
    def all_inputs() -> "ConstraintSet":
        return ConstraintSet(kind="all")

    @staticmethod
    def single(p: FiniteDist) -> "ConstraintSet":
        return ConstraintSet.explicit([p])

    @staticmethod
    def cost(costs, budget: float) -> "ConstraintSet":
        return ConstraintSet(kind="cost", costs=np.asarray(costs, dtype=float), budget=budget)

    @staticmethod
    def explicit(dists) -> "ConstraintSet":
        return ConstraintSet(kind="list", dists=tuple(dists))


def read_constraint(path) -> ConstraintSet:
    """Load {"kind": "all"} or {"kind": "cost", "costs": [...], "budget": x}."""
    (data,) = _read_fields(path)
    kind = data.get("kind")
    if kind == "all":
        return ConstraintSet.all_inputs()
    if kind != "cost":
        raise ValueError(f"{path}: unsupported constraint kind {kind!r}")
    if data.get("costs") is None or data.get("budget") is None:
        raise ValueError(f"{path}: a cost constraint needs 'costs' and 'budget'")
    try:
        costs, budget = np.asarray(data["costs"], dtype=float), float(data["budget"])
    except (TypeError, ValueError):
        raise ValueError(f"{path}: costs and budget must be numbers") from None
    return ConstraintSet.cost(costs, budget)


@dataclass(frozen=True, slots=True)
class CapacityResult:
    """A capacity read off `solution`, the Augustin solution at the optimizer:
    center is its mean itself, capacity its information."""

    capacity: float
    center: FiniteDist
    optimizer: FiniteDist
    certificate_gap: float
    certified: bool
    solution: AugustinSolution


# first-order evaluations of the ascent in which its stop gap has not halved
# before it tries a Newton step
NEWTON_STALL = 33
# inputs with less mass than this are held fixed by the Newton step
NEWTON_FACE = 1e-10


def _newton_proposal(rho, w_rho, penalty, lp):
    """A bordered Newton step for the ascent's value at p = exp(lp), an order
    below one; returns the normalized log-masses, or None where the system is
    singular or not finite.

    With u = p exp((1 - rho) penalty) and A = W^rho, the value is
    rho/(rho-1) ln G(u), G(u) = sum_y (uA)_y^(1/rho), which is convex in u; the
    step minimizes its quadratic model over the face of inputs with mass above
    NEWTON_FACE, bordered by sum_x u(x) exp(-(1 - rho) penalty(x)) = 1, that
    is sum p = 1. Inputs with equal rows and penalties enter as one, their
    summed mass: no step along their difference changes G or sum p, so apart
    they would leave the system singular. The step of that sum is split in
    proportion to their masses. G is homogeneous in u, so u and b = uA are
    scaled by their largest entries, and the border by the largest
    curvature. A fraction-to-boundary cut of 0.99 keeps u positive.
    """
    face = np.flatnonzero(lp > math.log(NEWTON_FACE))
    _, first, group = np.unique(np.column_stack([w_rho[face], penalty[face]]), axis=0,
                                return_index=True, return_inverse=True)
    group = group.ravel()  # numpy 2.0.0 returns it with the input's dimensions
    rows = face[first]
    log_u = lp + (1.0 - rho) * penalty
    u = np.exp(log_u - np.maximum.reduce(log_u))
    mass = np.bincount(group, u[face])
    b = u @ w_rho
    top = np.maximum.reduce(b)
    live = b > 0.0
    beta = b[live] / top
    a_rows = w_rho[rows][:, live]
    hess = (a_rows * beta ** (1.0 / rho - 2.0)) @ a_rows.T
    n = rows.size
    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = hess
    system[:n, n] = system[n, :n] = np.maximum.reduce(np.diag(hess)) * np.exp(
        -(1.0 - rho) * (penalty[rows] - np.minimum.reduce(penalty[rows])))
    try:
        z = np.linalg.solve(system, np.append(a_rows @ beta ** (1.0 / rho - 1.0), 0.0))
    except np.linalg.LinAlgError:
        return None
    # -H^-1 grad G, with H and grad G taken at b / top
    step = z[:n] * (-top / (1.0 / rho - 1.0))
    if not np.isfinite(step).all():
        return None
    falls = step < 0.0
    cut = np.minimum.reduce(mass[falls] / -step[falls], initial=math.inf)
    u[face] *= (1.0 + min(1.0, 0.99 * cut) * step / mass)[group]
    return _log_normalized(np.log(u) - (1.0 - rho) * penalty)


def _log_normalized(x):
    """x - ln sum exp(x), the log-masses proportional to exp(x)."""
    top = np.maximum.reduce(x)
    return x - (top + math.log(np.add.reduce(np.exp(x - top))))


# an output that only vanishing inputs reach can leave q = 0 there and D = inf
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _power_mean_ascent(rho, w_rho, terms, penalty, lp, tol, max_iter):
    """Raise the Sibson information of p = exp(lp), or its Renyi-Gallager form
    under the penalty; returns lp. w_rho = `_row_powers(rho, lw)` and
    terms = `_divergence_terms(rho, lw)` are formed once per search, so each
    evaluation is one power mean and one divergence pass on them.

    Step: p(x) <- p(x) exp(s (D_rho(W(x)||q) - penalty(x))), q the power-mean
    center of the weights. s = rho is a Jensen majorization step that never
    lowers the value (Blahut-Arimoto at order one); a longer step that lowers
    it is dropped. s then moves to the secant root of the value's slope along
    the step, taken to first order in D - value: at most 8 s after a kept
    step, s/2 after a dropped one, never below rho. Stops once
    max_x [D - penalty] is within tol/10 of the value.

    Below order one, where that stop gap has not halved in NEWTON_STALL
    first-order evaluations, the ascent first tries `_newton_proposal`, a
    bordered Newton step on the inputs that carry mass. It is evaluated once
    and kept by the rule that keeps a longer step, so a NaN value is never
    kept; after any proposal the count starts again.
    """
    def state(lp):
        p = np.exp(lp)
        if rho < 1.0:
            q, value = _power_mean_on(rho, w_rho, lp + (1.0 - rho) * penalty)
            d = _divergences_on(terms, q) - penalty
        else:
            d = _divergences_on(terms, p @ terms.w) - penalty
            value = float(p[p > 0] @ d[p > 0])
        return lp, d, value, p, p @ d

    cur, s = state(lp), rho
    # stalled counts the first-order evaluations since the stop gap was marked
    stalled, mark = 0, math.inf
    for _ in range(max_iter):
        lp, d, value = cur[:3]
        gap = np.maximum.reduce(d) - value
        if gap <= 0.1 * tol:
            break
        finite = d[np.isfinite(d)]
        if not finite.size:
            raise NonConvergenceError("capacity ascent has no finite divergence", math.nan)
        if gap <= 0.5 * mark:
            stalled, mark = 0, gap
        floor = value - 8.0 * np.spacing(abs(value))
        if stalled >= NEWTON_STALL and rho < 1.0:
            stalled, mark = 0, gap
            x = _newton_proposal(rho, w_rho, penalty, lp)
            if x is not None:
                trial = state(x)
                if trial[2] >= floor:
                    cur = trial
                    continue
        stalled += 1
        g = np.minimum(d - np.maximum.reduce(finite), 0.0)
        trial = state(_log_normalized(lp + s * g))
        s0, s1 = (float(st[3] @ ((st[1] - st[4]) * g)) for st in (cur, trial))
        root = s * s0 / (s0 - s1) if s0 > s1 else 2.0 * s
        # equal values up to rounding count as kept, so that s keeps its scale
        if trial[2] >= floor or s == rho:
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
    ascent finds the optimizer p; below order one, where its first-order step
    stalls, it also tries a bordered Newton step, kept only when it does not
    lower the value (`_power_mean_ascent`). One Augustin fixed point at p,
    started like every other at the power-mean center of p, gives the center,
    C = sum_x p(x) D_rho(W(x) || center) and the gap
    max_x D_rho(W(x) || center) - C, which certifies C within tol. A cost
    constraint bisects the Lagrange multiplier, warm-starting each ascent,
    and certifies with the Lagrangian gap. Lists are enumerated exactly, one
    fixed point per candidate.
    """
    _check_limits(tol, max_iter)
    if constraint is None:
        constraint = ConstraintSet.all_inputs()
    if constraint.kind == "list":
        sols = ((augustin_fixed_point(rho, cand, channel), cand) for cand in constraint.dists)
        sol, cand = max(sols, key=lambda pair: pair[0].information)
        return CapacityResult(sol.information, sol.mean, cand, 0.0, True, sol)
    n_in = channel.input_size
    uniform = FiniteDist(np.full(n_in, 1.0 / n_in))
    _check_inputs(rho, uniform, channel)
    priced = constraint.kind == "cost"
    costs, budget = (constraint.costs, constraint.budget) if priced else (np.zeros(n_in), 0.0)
    if costs.size != n_in:
        raise AlphabetMismatchError("cost vector length does not match channel inputs")
    lw = channel.log_row_matrix()
    w_rho = _row_powers(rho, lw)
    terms = _divergence_terms(rho, lw)

    def ascend(lam, lp):
        lp = _power_mean_ascent(rho, w_rho, terms, lam * costs, lp, tol, max_iter)
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = _divergences_on(terms, sol.mean.masses)
    gap = float(np.max(d - lam_hi * costs) + lam_hi * budget - sol.information)
    certified = gap <= tol and float(p.masses @ costs) <= budget + 1e-9
    return CapacityResult(sol.information, sol.mean, p, gap, certified, sol)
