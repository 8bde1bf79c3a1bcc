"""Hypothesis-testing trade-off bounds between product measures.

For a product pair (W, Q) and an order rho in (0, 1), the tilted measure
pins the operating point: any test whose false-alarm probability stays under
beta * exp(-D_1(t||Q)) must miss with probability at least the converse
bound below, and an explicit log-likelihood threshold test achieves the
matching upper bound up to the stated constants. Everything here works in
the log domain so blocklengths up to 1e6 never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceededError, DegeneratePairError, PreconditionError

# numpy and measures are imported by the two functions that use them, so the
# Gaussian closed forms, which need only HtParams, load neither

BERRY_ESSEEN_CONSTANT = 0.56
TWO_SQRT_2PI_E = 2.0 * math.sqrt(2.0 * math.pi * math.e)


def be_gap(a2: float, a3: float, n: int) -> float:
    """Berry-Esseen bound on the Gaussian approximation error of n summands."""
    if a2 <= 0:
        raise PreconditionError("a2 must be positive")
    if n < 1:
        raise PreconditionError("n must be at least 1")
    return BERRY_ESSEEN_CONSTANT * a3 / (a2 * math.sqrt(a2 * n))


def log_delta_hat(a2: float, a3: float) -> float:
    """ln of the window constant exp(2*sqrt(2*pi*e)(0.56 a3/a2 + sqrt(a2)))."""
    if a2 <= 0:
        raise DegeneratePairError("a2 vanished; log-likelihood ratio is a.s. constant")
    return TWO_SQRT_2PI_E * (BERRY_ESSEEN_CONSTANT * a3 / a2 + math.sqrt(a2))


@dataclass(frozen=True)
class HtParams:
    """Averaged tilted log-ratio moments and the derived window constant."""

    a2: float
    a3: float
    log_delta_hat: float

    @property
    def delta_hat(self) -> float:
        return math.exp(self.log_delta_hat)

    @staticmethod
    def from_moments(a2: float, a3: float) -> "HtParams":
        return HtParams(a2=a2, a3=a3, log_delta_hat=log_delta_hat(a2, a3))


def ht_params(rho: float, w_seq, q_seq) -> HtParams:
    """Moment constants for a (possibly non-identical) product pair.

    a2 and a3 average the per-component central moments of ln(w/q) under the
    order rho tilted measure; a degenerate pair (constant ratio in every
    component) is rejected because the window constant is undefined there.
    """
    import numpy as np

    from .measures import tilted_log_moments

    if not 0 < rho < 1:
        raise PreconditionError(f"order must lie in (0, 1), got {rho}")
    if len(w_seq) != len(q_seq) or not len(w_seq):
        raise PreconditionError("need equal-length non-empty sequences")
    a2s, a3s = zip(*(tilted_log_moments(rho, w, q)[1:] for w, q in zip(w_seq, q_seq)))
    return HtParams.from_moments(float(np.mean(a2s)), float(np.mean(a3s)))


@dataclass(frozen=True)
class HtBoundReport:
    """Log-domain bound value plus the applicability window for beta."""

    converse_log: float
    achievability_w_log: float
    q_budget_log: float
    beta_min: float
    beta_max: float
    log_beta_min: float
    log_beta_max: float
    applicable: bool


def _check_bound_inputs(rho: float, n: int, beta: float):
    if beta <= 0:
        raise PreconditionError("beta must be positive")
    if n < 1:
        raise PreconditionError("n must be at least 1")
    if not 0 < rho < 1:
        raise PreconditionError(f"order must lie in (0, 1), got {rho}")


def htbe_converse(
    rho: float,
    n: int,
    beta: float,
    params: HtParams,
    d1_tq_total: float,
    d1_tw_total: float,
) -> HtBoundReport:
    """Lower bound on the miss probability of any test within the Q budget.

    Valid whenever beta sits inside [beta_min, beta_max]; the report carries
    the window and the applicability flag, and the numeric value is returned
    regardless so callers can decide.
    """
    _check_bound_inputs(rho, n, beta)
    root = rho * math.sqrt(params.a2 * n)
    log_beta_min = -0.5 * math.log(n) - root
    log_beta_max = -rho * params.log_delta_hat - 0.5 * math.log(n) + root
    log_beta = math.log(beta)
    converse = (
        (rho - 1.0) * params.log_delta_hat
        + (rho - 1.0) / rho * log_beta
        - math.log(n) / (2.0 * rho)
        - d1_tw_total
    )
    return HtBoundReport(
        converse_log=converse,
        achievability_w_log=math.nan,
        q_budget_log=log_beta - d1_tq_total,
        beta_min=math.exp(log_beta_min),
        beta_max=math.exp(log_beta_max) if log_beta_max < 700 else math.inf,
        log_beta_min=log_beta_min,
        log_beta_max=log_beta_max,
        applicable=log_beta_min <= log_beta <= log_beta_max,
    )


def htbe_achievability(
    rho: float,
    n: int,
    beta: float,
    params: HtParams,
    d1_tq_total: float,
    d1_tw_total: float,
) -> HtBoundReport:
    """Upper bound achieved by the explicit threshold test, for any beta > 0."""
    _check_bound_inputs(rho, n, beta)
    a2 = params.a2
    bracket = max(1.0, math.sqrt(8.0 * math.pi * a2)) / (4.0 * math.pi * a2)
    ach = (
        math.log(bracket * params.log_delta_hat) / rho
        + (rho - 1.0) / rho * math.log(rho * beta)
        - math.log(1.0 - rho)
        - math.log(n) / (2.0 * rho)
        - d1_tw_total
    )
    return HtBoundReport(
        converse_log=math.nan,
        achievability_w_log=ach,
        q_budget_log=math.log(beta) - d1_tq_total,
        beta_min=0.0,
        beta_max=math.inf,
        log_beta_min=-math.inf,
        log_beta_max=math.inf,
        applicable=True,
    )


def threshold_gamma(rho: float, n: int, beta: float, params: HtParams) -> float:
    """Offset used by the achievability construction for a given Q budget."""
    a2, a3 = params.a2, params.a3
    bracket = 1.0 / math.sqrt(2.0 * math.pi * a2) + 2.0 * BERRY_ESSEEN_CONSTANT * a3 / (
        a2 * math.sqrt(a2)
    )
    return math.log(bracket / (math.sqrt(n) * beta * -math.expm1(-rho))) / rho


@dataclass(frozen=True)
class ThresholdTest:
    """Accept iff sum ln(w/q) >= tilted mean + gamma, plus the Q-null set."""

    gamma: float
    tilted_mean_total: float
    threshold: float
    type_i: float | None
    type_ii: float | None
    exact: bool


def threshold_test(
    gamma: float,
    w_seq,
    q_seq,
    rho: float,
    budget: int = 2_000_000,
) -> ThresholdTest:
    """Build the log-likelihood threshold test and evaluate it exactly.

    The acceptance region is {sum_i ln(w_i/q_i) >= E_tilt[sum] + gamma}
    together with the W-positive Q-null set. When the collapsed product state
    space fits in the enumeration budget the exact error pair is attached;
    otherwise only the rule is returned.
    """
    from .measures import product_log_ratio, tilted_log_moments

    if not 0 < rho < 1:
        raise PreconditionError(f"order must lie in (0, 1), got {rho}")
    mean_total = 0.0
    for w, q in zip(w_seq, q_seq):
        mean, _, _ = tilted_log_moments(rho, w, q)
        mean_total += mean
    threshold = mean_total + gamma
    try:
        atoms = product_log_ratio(w_seq, q_seq, budget=budget)
    except BudgetExceededError:
        return ThresholdTest(gamma, mean_total, threshold, None, None, False)
    accept = atoms.values >= threshold
    type_i = float(atoms.q_mass[accept].sum())
    type_ii = float(atoms.w_mass[~accept].sum())
    if gamma == -math.inf:
        type_i, type_ii = 1.0, 0.0
    return ThresholdTest(gamma, mean_total, threshold, type_i, type_ii, True)
