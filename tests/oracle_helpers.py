"""Reference tools that only the tests use.

Monte Carlo estimation with reproducible Philox streams, log-likelihood
decision rules for discrete and Gaussian products, central finite
differences, the Gaussian KL divergence, one-order-at-a-time references
for the array passes of `rspb.symmetric`, and the plain forms that the
fused kernels of `rspb.augustin` and `rspb.measures` match bit for bit.
The verification suites of `rspb.verify` need none of them, so they live
here rather than in `rspb.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from rspb.augustin import _row_divergences, _tilt
from rspb.errors import InvalidProbabilityError, PreconditionError
from rspb.gaussian import AwgnParams
from rspb.symmetric import DEFAULT_ORDER_GRID, PROFILE_MERGE_TOL, _uniform_center

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


# ---------------------------------------------------------------------------
# one-order-at-a-time references


def merge_atoms_1d(values, tol, *masses):
    """Sort atoms by value and collapse each run whose steps are at most tol
    into its smallest value and the sum of each mass array over it."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    with np.errstate(invalid="ignore"):
        starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > tol)
    return (values[starts], *(np.add.reduceat(m[order], starts) for m in masses))


@dataclass(frozen=True)
class PerOrderReport:
    """The grid reference's decision, its center at each order of the grid,
    and the worst value of each of `SymmetryReport`'s three diagnostics."""

    is_symmetric: bool
    center_per_order: dict
    max_divergence_spread: float
    max_profile_distance: float
    max_center_fixed_point_tv: float


def symmetry_report_per_order(channel, tol) -> PerOrderReport:
    """`check_renyi_symmetry`'s diagnostics with its centers, spread and
    profiles taken one order, and the profiles one input, at a time:
    per-order `_uniform_center` and `_row_divergences` calls and one
    `merge_atoms_1d` per input. The decision holds each diagnostic to tol
    on `DEFAULT_ORDER_GRID`, the rule the column classes replaced."""
    rhos = np.asarray(DEFAULT_ORDER_GRID, dtype=float)
    w_rows, lw = channel.row_matrix(), channel.log_row_matrix()
    centers = [_uniform_center(float(rho), w_rows, lw)[0] for rho in rhos]
    masses = np.array([c.masses for c in centers])
    low = rhos < 1.0
    images = np.broadcast_to(w_rows.mean(axis=0), masses.shape).copy()
    r = rhos[low, None, None]
    with np.errstate(divide="ignore"):
        images[low] = _tilt(r * lw, 1.0 - r, masses[low, None, :]).mean(axis=1)
    center_tv_max = float((0.5 * np.abs(images - masses).sum(axis=1)).max())
    spread_max = profile_max = 0.0
    support = w_rows > 0
    for rho, c in zip(rhos, masses):
        divs = _row_divergences(float(rho), lw, c)
        spread_max = max(spread_max, float(divs.max() - divs.min()))
        with np.errstate(divide="ignore"):
            lc = np.log(c)
        (v0, m0), *others = [
            merge_atoms_1d(lw[x, s] - lc[s], PROFILE_MERGE_TOL, w_rows[x, s])
            for x, s in enumerate(support)
        ]
        for v, m in others:
            gap = math.inf
            if v.size == v0.size:
                gaps = np.abs(np.subtract(v, v0, out=np.zeros(v.size), where=v != v0))
                gap = max(gaps.max(), np.abs(m - m0).max())
            profile_max = max(profile_max, float(gap))
    return PerOrderReport(
        is_symmetric=spread_max <= tol and profile_max <= tol and center_tv_max <= tol,
        center_per_order=dict(zip(rhos.tolist(), centers)),
        max_divergence_spread=spread_max,
        max_profile_distance=profile_max,
        max_center_fixed_point_tv=center_tv_max,
    )


# ---------------------------------------------------------------------------
# plain forms of the fused kernels


def kl_rows_two_logs(t: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """D_1(t || ref) of each row of t, taking the log of t and of ref anew."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(t > 0, t * (np.log(t) - np.log(ref)), 0.0)
    return terms.sum(axis=1)


def tilted_pair_two_passes(rho: float, weights, w_rows, lw, q: np.ndarray) -> tuple:
    """The tilted pair (D_1(tilt || q | p), D_1(tilt || W | p)) as two
    `kl_rows_two_logs` passes, each taking ln of the tilt and of its reference."""
    with np.errstate(divide="ignore"):
        t = w_rows if rho == 1.0 else _tilt(rho * lw, 1.0 - rho, q)
    return (
        float(weights @ kl_rows_two_logs(t, q[None, :])),
        float(weights @ kl_rows_two_logs(t, w_rows)),
    )


def masses_checked_elementwise(values, tol: float) -> np.ndarray:
    """Validate masses with an elementwise sign and finiteness test, then
    renormalize: the reference for `measures._as_masses`."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidProbabilityError("masses must be a non-empty 1-d sequence")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise InvalidProbabilityError("masses must be finite and non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > tol:
        raise InvalidProbabilityError(f"masses sum to {total}, off from 1 by more than {tol}")
    return arr / total
