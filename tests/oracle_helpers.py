"""Reference tools that only the tests use.

Monte Carlo estimation with reproducible Philox streams, log-likelihood
decision rules for discrete and Gaussian products, central finite
differences and the Gaussian KL divergence. The verification suites of
`rspb.verify` need none of them, so they live here rather than in
`rspb.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rspb.errors import PreconditionError
from rspb.gaussian import AwgnParams

# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class DiscreteProduct:
    """Independent product of finite distributions; samples symbol indices."""

    dists: tuple

    def sample(self, rng: np.random.Generator, trials: int) -> np.ndarray:
        cols = [
            rng.choice(d.alphabet_size, size=trials, p=d.masses) for d in self.dists
        ]
        return np.stack(cols, axis=1)


@dataclass(frozen=True)
class GaussianProduct:
    """Independent Gaussians with per-component means and a common variance."""

    means: np.ndarray
    variance: float

    def sample(self, rng: np.random.Generator, trials: int) -> np.ndarray:
        means = np.asarray(self.means, dtype=float)
        return rng.normal(means, math.sqrt(self.variance), size=(trials, means.size))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    half_width_95: float
    trials: int
    seed: int


_SHARD = 1 << 16


def mc_error_probability(
    rule,
    distribution,
    trials: int,
    seed: int,
    error_side: str = "miss",
) -> McEstimate:
    """Estimate an error probability of a decision rule by Monte Carlo.

    rule is a callable mapping a (trials, n) sample block to a boolean accept
    mask; 'miss' counts rejections (sampling under the hypothesis the rule
    should accept), 'false_alarm' counts acceptances. Sampling uses Philox
    streams: the seed feeds a SeedSequence that is spawned once per fixed-size
    shard, so the estimate is bit-reproducible and shards are independent.
    """
    if trials < 10_000:
        raise PreconditionError("need at least 1e4 trials")
    if error_side not in ("miss", "false_alarm"):
        raise ValueError(f"unknown error side {error_side!r}")
    n_shards = (trials + _SHARD - 1) // _SHARD
    children = np.random.SeedSequence(seed).spawn(n_shards)
    errors = 0
    done = 0
    for child in children:
        rng = np.random.Generator(np.random.Philox(child))
        block = min(_SHARD, trials - done)
        samples = distribution.sample(rng, block)
        accept = np.asarray(rule(samples), dtype=bool)
        hits = int((~accept).sum()) if error_side == "miss" else int(accept.sum())
        errors += hits
        done += block
    mean = errors / trials
    return McEstimate(
        mean=mean,
        half_width_95=1.96 * math.sqrt(mean * (1.0 - mean) / trials),
        trials=trials,
        seed=seed,
    )


def discrete_llr_rule(w_seq, q_seq, threshold: float):
    """Accept iff the sampled log-likelihood-ratio sum reaches the threshold."""
    tables = []
    for w, q in zip(w_seq, q_seq):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.log(w.masses) - np.log(q.masses)
        t[(w.masses > 0) & (q.masses == 0)] = np.inf
        t[(w.masses == 0) & (q.masses > 0)] = -np.inf
        t[(w.masses == 0) & (q.masses == 0)] = -np.inf
        tables.append(t)
    tables = np.stack(tables)

    def rule(samples: np.ndarray) -> np.ndarray:
        per_comp = np.take_along_axis(tables, samples.T, axis=1).T
        with np.errstate(invalid="ignore"):
            total = per_comp.sum(axis=1)
        return np.where(np.isnan(total), False, total >= threshold)

    return rule


def gaussian_llr_rule(xs, params: AwgnParams, theta: float, threshold: float):
    """Gaussian analogue: accept iff sum_i ln(dW(x_i)/dN(0, theta)) >= threshold."""
    xs = np.asarray(xs, dtype=float)
    const = 0.5 * xs.size * math.log(theta / params.sigma2)

    def rule(samples: np.ndarray) -> np.ndarray:
        total = (
            -((samples - xs) ** 2).sum(axis=1) / (2.0 * params.sigma2)
            + (samples**2).sum(axis=1) / (2.0 * theta)
            + const
        )
        return total >= threshold

    return rule


# ---------------------------------------------------------------------------
# finite differences and Gaussian reference values


def fd_derivative_check(func, x: float, step: float) -> float:
    """Central difference (f(x+step) - f(x-step)) / (2 step)."""
    if step <= 0:
        raise PreconditionError("step must be positive")
    return (func(x + step) - func(x - step)) / (2.0 * step)


def gaussian_kl(mean_a: float, var_a: float, mean_b: float, var_b: float) -> float:
    """KL divergence between univariate Gaussians, in nats."""
    return 0.5 * (
        var_a / var_b + (mean_a - mean_b) ** 2 / var_b - 1.0 + math.log(var_b / var_a)
    )
