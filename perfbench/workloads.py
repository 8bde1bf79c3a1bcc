"""In-process workloads `sweep` and `capacity`: inputs, calls and the gate.

A workload is an endless sequence of blocks. Block `b` of seed `s` is built
from `numpy.random.default_rng([s, b])`, so a seed fixes every input and each
block brings fresh inputs (a result cache keyed by content never hits). An
item is `Item(label, fn, args, check)`: `fn(*args)` is the one library call
that is timed, and `check(result)` is the benchmark's own gate, built from
public functions other than the one under test. It returns (failed, wrong):
whether the item counts as failed (uncertified or wrong), and a message when
the answer is wrong, that is, when the program presents as valid a result
the gate refutes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Callable

import numpy as np

from rspb.augustin import (
    ConstraintSet,
    augustin_capacity,
    tilted_kl_pair,
)
from rspb.measures import (
    DiscreteChannel,
    FiniteDist,
    bec,
    bsc,
    renyi_divergence,
    tilted_measure,
    uniform_dist,
    zchannel,
)
from rspb.refined import rspb_constant_composition, rspb_symmetric

# Gate tolerances, as ROADMAP states them for the parametric solve: the
# tilted rate matches the target to 1e-10 and the two exponent forms agree
# to 1e-8 per letter. Capacity uses the solver's default tolerance.
RATE_TOL = 1e-10
EXPONENT_TOL = 1e-8
CAPACITY_TOL = 1e-8
# The library solves the fixed point to a 1e-12 step; its identity must
# hold to this. The gate's own solve stops at an error bound of MEAN_TOL.
FIXED_POINT_TOL = 1e-10
MEAN_TOL = 1e-14
MEAN_FLOOR = 1e-15
MEAN_MAX_ITER = 200_000
ORDERS = (0.05, 0.3, 0.5, 0.7, 0.95)
RELABELLINGS = 4


@dataclass(frozen=True)
class Item:
    label: str
    fn: Callable
    args: tuple
    check: Callable


def channel(rows) -> DiscreteChannel:
    return DiscreteChannel(tuple(FiniteDist(r) for r in np.asarray(rows, dtype=float)))


def mutual_information(ch: DiscreteChannel) -> float:
    """I_1 at a uniform input, in nats: the top of every rate range drawn here.

    The bottom is 0: every channel drawn here has an output that all inputs
    reach, so the Augustin information tends to 0 with the order. Neither end
    calls a solver, so the inputs do not depend on the code under test.
    """
    w = ch.row_matrix()
    q = w.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, w * np.log(w / q), 0.0)
    return float(terms.sum() / w.shape[0])


def block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.default_rng([seed, block])


def shuffled(rng, items: list) -> list:
    """The block in a seeded order, so that items of one kind are spread in time."""
    return [items[i] for i in rng.permutation(len(items))]


def fingerprint(obj):
    """A value that is equal for two results exactly when they are bit-identical."""
    if isinstance(obj, FiniteDist):
        return obj.masses.tobytes()
    if is_dataclass(obj) and not isinstance(obj, type):
        return tuple(fingerprint(getattr(obj, f.name)) for f in fields(obj))
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(v) for v in obj)
    if isinstance(obj, float):
        return obj.hex()
    return repr(obj)


class GateError(Exception):
    """The gate could not compute its own reference value."""


def augustin_mean(rho: float, p: FiniteDist, ch: DiscreteChannel) -> np.ndarray:
    """The order-rho Augustin mean by plain fixed-point iteration.

    The gate's own solve, so that it does not lean on the library's
    accelerated one: q <- sum_x p(x) tilt_rho(W(x), q) from the order-one
    mixture, which keeps every mass positive, until the step times
    r / (1 - r), r the ratio of the last two steps, is below MEAN_TOL, or
    the step is at the floor that rounding leaves.
    """
    used = p.masses > 0
    weights, rows = p.masses[used], ch.row_matrix()[used]
    with np.errstate(divide="ignore"):
        lw = np.log(rows)
    q = weights @ rows
    prev = np.nan
    for _ in range(MEAN_MAX_ITER):
        with np.errstate(divide="ignore"):
            logits = rho * lw + (1.0 - rho) * np.log(q)
        t = np.exp(logits - logits.max(axis=1, keepdims=True))
        new = weights @ (t / t.sum(axis=1, keepdims=True))
        step = 0.5 * float(np.abs(new - q).sum())
        q, ratio, prev = new, step / prev, step
        if step <= MEAN_FLOOR or (ratio < 1.0 and step * ratio / (1.0 - ratio) <= MEAN_TOL):
            return q
    raise GateError(f"plain fixed point at order {rho!r} did not settle")


def information(rho: float, p: FiniteDist, ch: DiscreteChannel, q: np.ndarray) -> float:
    """sum_x p(x) D_rho(W(x)||q), the Augustin information when q is the mean."""
    center = FiniteDist(q)
    return float(sum(m * renyi_divergence(rho, row, center)
                     for m, row in zip(p.masses, ch.rows) if m > 0))


# ---------------------------------------------------------------------------
# sweep: refined-bound points


def _gate(problem):
    """Lift a wrong-answer test into a check: a wrong answer is also a failure."""
    def check(result):
        wrong = problem(result)
        return wrong is not None, wrong
    return check


def _cc_item(label, ch, n, rate) -> Item:
    comp = uniform_dist(ch.input_size)

    def check(rep):
        rho = rep.rho_star
        q = augustin_mean(rho, comp, ch)
        d_tq, d_tw = tilted_kl_pair(rho, comp, ch, q)
        direct = (1.0 - rho) / rho * (information(rho, comp, ch, q) - rate)
        if abs(d_tq - rate) > RATE_TOL:
            return f"rate residual {abs(d_tq - rate):.3e} at rho*={rho!r}"
        if abs(n * d_tw - rep.exponent_total) > EXPONENT_TOL * n:
            return f"exponent {rep.exponent_total!r} vs n*D(t||W) {n * d_tw!r}"
        if abs(direct - d_tw) > EXPONENT_TOL:
            return f"direct exponent form off by {abs(direct - d_tw):.3e}"
        return _assembly_problem(rep)

    return Item(f"{label} n={n} rate={rate:.6g}",
                rspb_constant_composition, (ch, comp, n, rate * n), _gate(check))


def _assembly_problem(rep):
    expect = rep.log_prefactor - rep.exponent_total
    if abs(rep.bound_log - expect) > 1e-12 * max(1.0, abs(expect)):
        return f"bound_log {rep.bound_log!r} != log_prefactor - exponent {expect!r}"
    return None


def _product_item(label, comps, frac) -> Item:
    """rspb_symmetric on `comps`, checked component-wise on the general path.

    The gate solves each distinct component (by content, not identity) for
    its Augustin mean at a uniform input with its own iteration, not with the
    power-mean center the library uses for symmetric channels.
    """
    groups = {}
    for c in comps:
        groups.setdefault(c.row_matrix().tobytes(), [c, 0])[1] += 1
    target = frac * sum(k * mutual_information(c) for c, k in groups.values())
    n = len(comps)

    def problem(rep):
        rho = rep.rho_star
        rate = exponent = 0.0
        for c, count in groups.values():
            u = uniform_dist(c.input_size)
            q = augustin_mean(rho, u, c)
            d_tq, d_tw = tilted_kl_pair(rho, u, c, q)
            rate += count * d_tq
            exponent += count * d_tw
        if abs(rate - target) > RATE_TOL * n:
            return f"summed rate residual {abs(rate - target):.3e} at rho*={rho!r}"
        if abs(exponent - rep.exponent_total) > EXPONENT_TOL * n:
            return f"exponent {rep.exponent_total!r} vs summed D(t||W) {exponent!r}"
        return _assembly_problem(rep)

    def check(rep):
        if not rep.slope_certified:
            return True, None  # an uncertified slope fails, but is not wrong
        wrong = problem(rep)
        return wrong is not None, wrong

    return Item(f"{label} x{n} rate@{frac:.2f}", rspb_symmetric, (comps, target), check)


# Each round draws fresh channels; the rounds set a block's length, about 11 s
# on a 2-vCPU host.
SWEEP_ROUNDS = 5
# Rate positions across (0, I_1): one near each end, five drawn inside.
_RATE_STRATA = ((0.05, 0.25), (0.25, 0.45), (0.45, 0.65), (0.65, 0.85), (0.85, 0.97))


def sweep_block(seed: int, block: int) -> list:
    rng = block_rng(seed, block)
    items = []
    for _ in range(SWEEP_ROUNDS):
        channels = [
            ("bsc", bsc(rng.uniform(0.02, 0.3))),
            ("bec", bec(rng.uniform(0.1, 0.6))),
            ("z", zchannel(rng.uniform(0.1, 0.5))),
        ] + [(f"D{a}x{b}", channel(rng.dirichlet(np.ones(b), size=a)))
             for a, b in ((2, 3), (3, 4), (4, 8), (8, 16))]
        for label, ch in channels:
            n = 240 * int(rng.integers(1, 5))
            fracs = [1e-3] + [rng.uniform(a, b) for a, b in _RATE_STRATA] + [0.995]
            items += [_cc_item(label, ch, n, f * mutual_information(ch)) for f in fracs]
    # the paper's binary-symmetric anchor point
    items.append(_cc_item("anchor bsc(0.1)", bsc(0.1), 600, 0.1308120))

    p = rng.uniform(0.02, 0.3, size=16)
    e = rng.uniform(0.1, 0.6)
    one_bsc, one_bec = bsc(p[0]), bec(e)
    four = [bsc(x) for x in p[:4]]
    products = [
        ("bsc stationary", [one_bsc] * 300),
        ("bec stationary", [one_bec] * 300),
        ("bsc/bec alternating", [one_bsc, one_bec] * 50),
        ("four bsc", [four[i % 4] for i in range(100)]),
    ]
    # Equal components built one by one, the way users write products. With
    # eight of them per block, spread by the shuffle, they also hold the
    # sweep's tail items, so the tail stays inside one kind of item.
    products += [("bsc built apart", [bsc(x) for _ in range(8)]) for x in p[4:8]]
    products += [("two bsc built apart", [bsc(x if i % 2 else y) for i in range(8)])
                 for x, y in zip(p[8:12], p[12:16])]
    frac = rng.uniform(0.05, 0.95, size=len(products))
    items += [_product_item(label, comps, f) for (label, comps), f in zip(products, frac)]
    return shuffled(rng, items)


# ---------------------------------------------------------------------------
# capacity: Augustin capacity searches


def reference_channel(a: int, b: int) -> DiscreteChannel:
    """ROADMAP's R8x16 rule at any size: Dirichlet rows from default_rng(0)."""
    return channel(np.random.default_rng(0).dirichlet(np.ones(b), size=a))


def _relabel(rng, ch: DiscreteChannel, costs=None):
    """Permute inputs and outputs; capacity and solver work do not change."""
    rows = ch.row_matrix()
    ins = rng.permutation(rows.shape[0])
    outs = rng.permutation(rows.shape[1])
    relabelled = channel(rows[ins][:, outs])
    return relabelled if costs is None else (relabelled, np.asarray(costs, float)[ins])


def _capacity_gap(rho, ch, res, constraint) -> float:
    """max_x D_rho(W(x)||center) - C, or its best Lagrangian form under a cost.

    For any center q and multiplier lam >= 0 the cost-constrained capacity is
    at most max_x [D_rho(W(x)||q) - lam c(x)] + lam * budget. The bound is
    convex and piecewise linear in lam, so its minimum sits at lam = 0 or
    where two inputs' terms cross.
    """
    d = np.array([renyi_divergence(rho, row, res.center) for row in ch.rows])
    if constraint is None:
        return float(d.max() - res.capacity)
    c, budget = constraint.costs, constraint.budget
    lams = [0.0] + [(d[i] - d[j]) / (c[i] - c[j])
                    for i in range(d.size) for j in range(i) if c[i] != c[j]]
    bound = min(float(np.max(d - lam * c) + lam * budget) for lam in lams if lam >= 0)
    return bound - res.capacity


def _achieved(rho, ch, res):
    """The lower end: what the reported optimizer p achieves with the center.

    Returns (sum_x p(x) D_rho(W(x)||center), fixed-point residual), the
    residual being the total variation between the center q and
    sum_x p(x) tilt_rho(W(x), q), or inf when q misses part of the support
    of sum_x p(x) W(x): a fixed point on a face of the simplex is not the
    mean. When the residual is near 0 the center is the Augustin mean of p
    and the sum is I_rho(p), which for a feasible p is at most the capacity.
    With the gap this brackets the true capacity from both sides without
    trusting the solver.
    """
    p, q = res.optimizer.masses, res.center.masses
    used = np.flatnonzero(p > 0)
    if np.any((p @ ch.row_matrix() > 0) & (q <= 0)):
        return np.nan, np.inf
    tilt = sum(p[x] * tilted_measure(rho, ch.rows[x], res.center).masses for x in used)
    return information(rho, res.optimizer, ch, q), 0.5 * float(np.abs(tilt - q).sum())


def _capacity_item(label, rho, ch, constraint=None) -> Item:
    def check(res):
        gap = _capacity_gap(rho, ch, res, constraint)
        achieved, residual = _achieved(rho, ch, res)
        wrong = None
        if constraint is not None and float(res.optimizer.masses @ constraint.costs) > (
                constraint.budget + 1e-9):
            wrong = "optimizer violates the cost budget"
        elif residual == np.inf:
            wrong = ("center vanishes where the optimizer's output mixture does not: "
                     "a fixed point on a face of the simplex, not the Augustin mean")
        elif residual > FIXED_POINT_TOL:
            wrong = f"center is not the Augustin mean of the optimizer (residual {residual:.3e})"
        elif abs(achieved - res.capacity) > CAPACITY_TOL:
            wrong = f"capacity {res.capacity!r}, but the optimizer achieves {achieved!r}"
        elif gap < -CAPACITY_TOL:
            wrong = f"capacity {res.capacity!r} exceeds its own upper bound by {-gap:.3e}"
        elif res.certified and gap > CAPACITY_TOL:
            wrong = f"reported certified, but the independent gap is {gap:.3e}"
        # the independent gap decides; an answer the solver itself flags as
        # uncertified is a failure as well
        return wrong is not None or gap > CAPACITY_TOL or not res.certified, wrong

    return Item(f"{label} rho={rho}", augustin_capacity, (rho, ch, constraint), check)


def capacity_block(seed: int, block: int) -> list:
    """R8x16 as ROADMAP defines it, the same rule at 4x6 and 2x3, and costs.

    Drawing fresh Dirichlet channels per seed would make one capacity solve
    cost anywhere from 1 ms to 5 s, and throughput would then measure the
    draw. So the seed relabels inputs and outputs of fixed channels, which
    changes the inputs but neither the answer nor the work; a small fresh
    draw at an order where the solve is cheap rides along. Every case but
    R8x16 comes in RELABELLINGS copies, shuffled through the block, so that
    the median and the tail each fall inside a group of equal-work items
    spread over the run, not on one item that a slow moment of the host can
    move. 2x3 at order 0.5 is left out: it takes one fixed-point solve.
    """
    rng = block_rng(seed, block)
    items = [_capacity_item("R8x16", rho, reference_channel(8, 16)) for rho in ORDERS]
    for _ in range(RELABELLINGS):
        for a, b in ((4, 6), (2, 3)):
            base = reference_channel(a, b)
            items += [_capacity_item(f"R{a}x{b} relabelled", rho, _relabel(rng, base))
                      for rho in ORDERS if a > 2 or rho != 0.5]
        items.append(_capacity_item("fresh D2x3", 0.95,
                                    channel(rng.dirichlet(np.ones(3), size=2))))
        for label, ch, budget, rho in (
            ("BEC(0.3) cost budget 0.3", bec(0.3), 0.3, 0.5),
            ("Z(0.3) cost budget 0.6", zchannel(0.3), 0.6, 0.7),
        ):
            relabelled, costs = _relabel(rng, ch, [0.0, 1.0])
            items.append(_capacity_item(label, rho, relabelled,
                                        ConstraintSet.cost(costs, budget)))
    return shuffled(rng, items)
