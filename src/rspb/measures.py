"""Finite distributions, Renyi divergence, and tilted measures.

All divergences are in nats and use the natural logarithm. Conventions:
0*ln 0 = 0 and 0^rho = 0, so symbols outside the support never contribute,
and mutually singular pairs have infinite divergence at every order. Power
sums are accumulated in the log domain with a max-shifted sum so that n-fold
products downstream never underflow.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    AlphabetMismatchError,
    BudgetExceededError,
    InfiniteDivergenceError,
    InvalidOrderError,
    InvalidProbabilityError,
    PreconditionError,
)

NORMALIZATION_TOL = 1e-12
FILE_ROW_TOL = 1e-9
ATOM_MERGE_TOL = 1e-12


def _logsumexp(a, axis=None):
    """ln(sum(exp(a))) along `axis`, in the log1p form of Blanchard, Higham and
    Higham (IMA J. Numer. Anal. 2021).

    The k terms at the peak are split off, so the result is
    peak + ln k + log1p(rest / k) with rest the shifted sum of the others.
    Where that is not finite (all terms -inf, or a +inf term) the direct
    ln(sum(exp(a))) is returned instead.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        peak = a.max(axis=axis, keepdims=True)
        at_peak = a == peak
        count = at_peak.sum(axis=axis, keepdims=True, dtype=float)
        rest = np.exp(np.where(at_peak, -np.inf, a) - peak).sum(axis=axis, keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + peak
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.sum(np.exp(a), axis=axis, keepdims=True)))
    return np.squeeze(out, axis=axis)[()]


def _power_mean(rho: float, lw: np.ndarray, log_weights: np.ndarray) -> tuple:
    """Power-mean center and value of log-rows lw at an order rho in (0, 1).

    With b(y) = sum_x exp(log_weights[x]) W(y|x)^rho, the center is
    proportional to b^(1/rho) and the value is rho/(rho-1) ln sum_y b^(1/rho).
    For input masses p as weights these are the Sibson center and
    information of p; weights p(x) exp((1-rho) lam c(x)) give the
    Renyi-Gallager form of the cost-penalized information. b is one product
    of the max-shifted weights with W^rho; ln b / rho errs by about eps/rho,
    as a log-domain sum would, and an unreached output gets center 0. A
    caller that weighs the same rows many times at one order forms W^rho
    once with `_row_powers` and evaluates with `_power_mean_on`.
    """
    with np.errstate(divide="ignore"):
        return _power_mean_on(rho, _row_powers(rho, lw), log_weights)


def _row_powers(rho: float, lw: np.ndarray) -> np.ndarray:
    """W^rho from the log-rows lw."""
    return np.exp(rho * lw)


def _power_mean_on(rho: float, w_rho: np.ndarray, log_weights: np.ndarray) -> tuple:
    """`_power_mean` from the powers W^rho that `_row_powers` forms. Callers
    ignore the divide warning of ln 0 at an output no weighted row reaches."""
    top = np.maximum.reduce(log_weights)
    log_m = (np.log(np.exp(log_weights - top) @ w_rho) + top) / rho
    peak = np.maximum.reduce(log_m)
    m = np.exp(log_m - peak)
    total = np.add.reduce(m)
    return m / total, rho / (rho - 1.0) * (peak + np.log(total))


def _as_masses(values, tol: float = NORMALIZATION_TOL) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidProbabilityError("masses must be a non-empty 1-d sequence")
    # a NaN makes the least mass NaN; with none below 0, an infinite mass
    # makes the total infinite, as does a finite sum that overflows
    total = float(np.add.reduce(arr)) if np.minimum.reduce(arr) >= 0 else np.nan
    if not total < np.inf:
        raise InvalidProbabilityError("masses must be finite and non-negative")
    if abs(total - 1.0) > tol:
        raise InvalidProbabilityError(f"masses sum to {total}, off from 1 by more than {tol}")
    return arr / total


@dataclass(frozen=True, eq=False, slots=True)
class FiniteDist:
    """Probability vector over an indexed finite alphabet.

    Construction accepts masses within 1e-12 of total mass one and then
    renormalizes exactly, so file-sourced inputs with rounding noise are
    cleaned up once at the boundary.
    """

    masses: np.ndarray

    def __post_init__(self):
        arr = _as_masses(self.masses)
        arr.setflags(write=False)
        object.__setattr__(self, "masses", arr)

    @property
    def alphabet_size(self) -> int:
        return int(self.masses.size)

    def __len__(self) -> int:
        return self.alphabet_size

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.masses > 0)

    def log_masses(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.masses)

    def allclose(self, other: "FiniteDist", tol: float = 1e-12) -> bool:
        return self.alphabet_size == other.alphabet_size and bool(
            np.all(np.abs(self.masses - other.masses) <= tol)
        )


@dataclass(frozen=True, eq=False)
class DiscreteChannel:
    """One FiniteDist row per input, all over a common output alphabet."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(self.rows)
        if not rows:
            raise ValueError("channel needs at least one input")
        sizes = {r.alphabet_size for r in rows}
        if len(sizes) != 1:
            raise AlphabetMismatchError("channel rows disagree on output alphabet size")
        object.__setattr__(self, "rows", rows)

    @property
    def input_size(self) -> int:
        return len(self.rows)

    @property
    def output_size(self) -> int:
        return self.rows[0].alphabet_size

    def row_matrix(self) -> np.ndarray:
        """The rows stacked inputs x outputs, formed once, on first use, and
        shared read-only (copy before writing); immutable rows keep it valid."""
        return self._stacked[0]

    def log_row_matrix(self) -> np.ndarray:
        """ln of `row_matrix`, -inf at exact zeros; formed and shared with it."""
        return self._stacked[1]

    @cached_property
    def _stacked(self) -> tuple:
        rows = np.vstack([r.masses for r in self.rows])
        with np.errstate(divide="ignore"):
            logs = np.log(rows)
        rows.setflags(write=False)
        logs.setflags(write=False)
        return rows, logs


# ---------------------------------------------------------------------------
# canonical constructions


def bern(p: float) -> FiniteDist:
    """Two-point distribution with mass p on symbol 1."""
    if not 0.0 <= p <= 1.0:
        raise InvalidProbabilityError("p must lie in [0, 1]")
    return FiniteDist(np.array([1.0 - p, p]))


def uniform_dist(k: int) -> FiniteDist:
    return FiniteDist(np.full(k, 1.0 / k))


def point_mass(index: int, k: int) -> FiniteDist:
    m = np.zeros(k)
    m[index] = 1.0
    return FiniteDist(m)


def bsc(p: float) -> DiscreteChannel:
    """Binary symmetric channel with crossover probability p; row 1 is row 0
    mirrored bit for bit, holding p itself where bern(1 - p) holds 1 - (1 - p)."""
    return DiscreteChannel((bern(p), FiniteDist(np.array([p, 1.0 - p]))))


def bec(eps: float) -> DiscreteChannel:
    """Binary erasure channel; outputs ordered (0, erasure, 1)."""
    if not 0.0 <= eps <= 1.0:
        raise InvalidProbabilityError("erasure probability must lie in [0, 1]")
    row0 = FiniteDist(np.array([1.0 - eps, eps, 0.0]))
    row1 = FiniteDist(np.array([0.0, eps, 1.0 - eps]))
    return DiscreteChannel((row0, row1))


def zchannel(p: float) -> DiscreteChannel:
    """Z channel: input 0 is noiseless, input 1 flips with probability p."""
    return DiscreteChannel((bern(0.0), bern(p)))


def tensor_dist(a: FiniteDist, b: FiniteDist) -> FiniteDist:
    return FiniteDist(np.outer(a.masses, b.masses).ravel())


def product_channel(a: DiscreteChannel, b: DiscreteChannel) -> DiscreteChannel:
    """Product channel; inputs and outputs enumerate pairs row-major."""
    rows = tuple(
        tensor_dist(ra, rb) for ra in a.rows for rb in b.rows
    )
    return DiscreteChannel(rows)


# ---------------------------------------------------------------------------
# divergences and tilts


def _check_pair(w: FiniteDist, q: FiniteDist):
    if w.alphabet_size != q.alphabet_size:
        raise AlphabetMismatchError(
            f"alphabets differ: {w.alphabet_size} vs {q.alphabet_size}"
        )


def _check_order(rho: float):
    if not rho > 0:
        raise InvalidOrderError(f"order must be positive, got {rho}")


def renyi_divergence(rho: float, w: FiniteDist, q: FiniteDist) -> float:
    """Order rho Renyi divergence D_rho(w || q) in nats, +inf when singular.

    Order one is the Kullback-Leibler divergence. For rho >= 1 any symbol
    carrying w-mass outside the support of q forces +inf; for rho < 1 such
    symbols simply drop out of the power sum.
    """
    _check_order(rho)
    _check_pair(w, q)
    wm, qm = w.masses, q.masses
    joint = (wm > 0) & (qm > 0)
    if not joint.any() or (rho >= 1.0 and np.any((wm > 0) & (qm == 0))):
        return np.inf
    lw = np.log(wm[joint])
    lq = np.log(qm[joint])
    if rho == 1.0:
        return float(np.sum(wm[joint] * (lw - lq)))
    # Write the power sum as 1 + sum w*expm1((rho-1) ln(w/q)) - offmass, which
    # keeps full relative precision when the sum sits near 1 (rho near one
    # divides by rho-1, so the naive log-sum-exp form loses eps/(1-rho)).
    args = (rho - 1.0) * (lw - lq)
    val = None
    if args.max() < 500.0:
        off_mass = 1.0 - float(wm[joint].sum())
        s1 = float(np.dot(wm[joint], np.expm1(args))) - off_mass
        if s1 > -1.0:
            val = np.log1p(s1) / (rho - 1.0)
    if val is None:
        val = float(_logsumexp(rho * lw + (1.0 - rho) * lq)) / (rho - 1.0)
    if val < 0.0:
        # Holder guarantees non-negativity; only rounding can dip below zero.
        if val < -1e-9:
            raise AssertionError(f"divergence evaluated to {val}")
        val = 0.0
    return val


def tilted_measure(rho: float, w: FiniteDist, q: FiniteDist) -> FiniteDist:
    """Normalized geometric interpolation w^rho q^(1-rho).

    This is the unique minimizer in the variational identity linking the
    order rho divergence to a pair of KL divergences. Order one returns w
    itself.
    """
    _check_order(rho)
    _check_pair(w, q)
    wm, qm = w.masses, q.masses
    joint = (wm > 0) & (qm > 0)
    # D_rho(w || q) is infinite: no shared point, or w-mass off q's support at rho >= 1
    if not joint.any() or (rho >= 1.0 and np.any((wm > 0) & (qm == 0))):
        raise InfiniteDivergenceError("tilted measure undefined for singular pair")
    if rho == 1.0:
        return w
    logits = rho * np.log(wm[joint]) + (1.0 - rho) * np.log(qm[joint])
    out = np.zeros_like(wm)
    out[joint] = np.exp(logits - _logsumexp(logits))
    return FiniteDist(out)


def conditional_renyi_divergence(
    rho: float, channel: DiscreteChannel, q: FiniteDist, p: FiniteDist
) -> float:
    """Input-averaged divergence sum_x p(x) D_rho(W(x) || q).

    Inputs with zero p-mass are skipped, so a point mass reduces to a single
    divergence even when other rows are singular against q.
    """
    _check_order(rho)
    if p.alphabet_size != channel.input_size:
        raise AlphabetMismatchError("input distribution does not match channel inputs")
    if q.alphabet_size != channel.output_size:
        raise AlphabetMismatchError("output distribution does not match channel outputs")
    total = 0.0
    for x in p.support:
        d = renyi_divergence(rho, channel.rows[x], q)
        if not np.isfinite(d):
            return np.inf
        total += float(p.masses[x]) * d
    return total


def tilted_log_moments(rho: float, w: FiniteDist, q: FiniteDist) -> tuple:
    """Moments of L = ln(w/q) under the order rho tilted measure.

    Returns (mean, a2, a3) where a2 is the second central moment and a3 the
    third central absolute moment, taken over the support of the tilt, which
    lies where both w and q are positive.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        lr = np.log(w.masses) - np.log(q.masses)
    return tuple(map(float, _tilt_moments(lr, tilted_measure(rho, w, q).masses)))


def _tilt_moments(lr: np.ndarray, t: np.ndarray) -> tuple:
    """(mean, a2, a3) of each row of log ratios lr under the row of tilt t,
    which sums to one: a2 is the second central moment, a3 the third central
    absolute one. An entry where t is 0 has no weight, whatever lr holds there.
    Every Berry-Esseen moment of a tilted log-likelihood ratio is taken here."""
    lr = np.where(t > 0, lr, 0.0)
    mean = (t * lr).sum(axis=-1)
    centered = np.abs(lr - mean[..., None])
    return mean, (t * centered**2).sum(axis=-1), (t * centered**3).sum(axis=-1)


def identity_residuals(rho: float, w: FiniteDist, q: FiniteDist) -> float:
    """Largest violation of the variational and pointwise tilt identities.

    Checks (i) (1-rho) D_rho(w||q) = rho D_1(t||w) + (1-rho) D_1(t||q) with t
    the tilted measure, and (ii) the pointwise log-density identities that
    express ln(t/q) and ln(t/w) through the centered log-likelihood ratio,
    over the support of t.
    """
    _check_order(rho)
    if not 0 < rho < 1:
        raise InvalidOrderError("identity check is stated for orders in (0, 1)")
    d_rho = renyi_divergence(rho, w, q)
    if not np.isfinite(d_rho):
        raise InfiniteDivergenceError("identities require a finite divergence")
    t = tilted_measure(rho, w, q)
    d1_tw = renyi_divergence(1.0, t, w)
    d1_tq = renyi_divergence(1.0, t, q)
    res = abs((1.0 - rho) * d_rho - (rho * d1_tw + (1.0 - rho) * d1_tq))
    sup = t.support
    lr = np.log(w.masses[sup]) - np.log(q.masses[sup])
    mean = float(np.dot(t.masses[sup], lr))
    centered = lr - mean
    lt = np.log(t.masses[sup])
    clq = lt - np.log(q.masses[sup]) - d1_tq - rho * centered
    clw = lt - np.log(w.masses[sup]) - d1_tw - (rho - 1.0) * centered
    return float(max(res, np.max(np.abs(clq)), np.max(np.abs(clw))))


# ---------------------------------------------------------------------------
# product log-likelihood-ratio atoms (shared by the threshold test and the
# exact Neyman-Pearson enumeration)


@dataclass(frozen=True)
class ProductLogRatio:
    """Collapsed law of sum_i ln(w_i/q_i) for a product pair.

    values/w_mass/q_mass describe the finite atoms; w_plus_inf is the w-mass
    where q vanishes (log ratio +inf) and q_minus_inf the q-mass where w
    vanishes (log ratio -inf). Atom values within the merge tolerance are
    collapsed, which reduces i.i.d. binary pairs to their count statistic.
    """

    values: np.ndarray
    w_mass: np.ndarray
    q_mass: np.ndarray
    w_plus_inf: float
    q_minus_inf: float


def _merge_atoms(values, tol, *masses):
    """Sort atoms by value and collapse each run whose steps are at most tol.

    A run keeps its smallest value and the sum of each mass array over it.
    Returns (values, *masses) of the merged atoms. A 2-D array merges each
    row on its own, a nan value marking an absent atom: each returned row
    holds its merged atoms first, in order, then nan values and zero masses
    up to the longest merged row.
    """
    rows = np.atleast_2d(values)
    n = rows.shape[1]
    # each row sorted, as indices into the flattened rows
    order = np.argsort(rows, axis=1, kind="stable")
    order += n * np.arange(len(rows))[:, None]
    order = order.ravel()
    ordered = rows.ravel()[order]
    absent = np.isnan(ordered)
    # each row and each absent atom opens a run, so that no run takes in
    # another row or an absent atom; equal infinities are one run
    start = np.ones(rows.shape, dtype=bool)
    by_row = ordered.reshape(rows.shape)
    with np.errstate(invalid="ignore"):
        np.greater(by_row[:, 1:] - by_row[:, :-1], tol, out=start[:, 1:])
    starts = np.flatnonzero(start.ravel() | absent)
    kept = ~absent[starts]
    merged = [ordered[starts][kept]]
    merged += [np.add.reduceat(np.ravel(m)[order], starts)[kept] for m in masses]
    if np.ndim(values) == 1:
        return tuple(merged)
    count = np.bincount(starts[kept] // n, minlength=len(rows))
    slot = np.arange(count.max(initial=0)) < count[:, None]
    out = [np.full(slot.shape, np.nan)] + [np.zeros(slot.shape) for _ in masses]
    for a, m in zip(out, merged):
        a[slot] = m
    return tuple(out)


def product_log_ratio(w_seq, q_seq, budget: int = 2_000_000) -> ProductLogRatio:
    """Convolve per-component log-likelihood-ratio atoms exactly.

    Raises BudgetExceededError when an intermediate atom count would exceed
    the budget, so a budget of 0 enumerates nothing, and PreconditionError
    on a negative budget.
    """
    if budget < 0:
        raise PreconditionError(f"budget must be non-negative, got {budget}")
    if len(w_seq) != len(q_seq) or not w_seq:
        raise ValueError("need equal-length non-empty sequences")
    values = np.array([0.0])
    w_mass = np.array([1.0])
    q_mass = np.array([1.0])
    fw_total = 1.0
    fq_total = 1.0
    for w, q in zip(w_seq, q_seq):
        _check_pair(w, q)
        joint = (w.masses > 0) & (q.masses > 0)
        v_i = np.log(w.masses[joint]) - np.log(q.masses[joint])
        pw_i = w.masses[joint]
        pq_i = q.masses[joint]
        fw_total *= float(pw_i.sum())
        fq_total *= float(pq_i.sum())
        if values.size * v_i.size > budget:
            raise BudgetExceededError(
                f"atom count {values.size * v_i.size} exceeds budget {budget}"
            )
        values = (values[:, None] + v_i[None, :]).ravel()
        w_mass = (w_mass[:, None] * pw_i[None, :]).ravel()
        q_mass = (q_mass[:, None] * pq_i[None, :]).ravel()
        values, w_mass, q_mass = _merge_atoms(values, ATOM_MERGE_TOL, w_mass, q_mass)
    return ProductLogRatio(
        values=values,
        w_mass=w_mass,
        q_mass=q_mass,
        w_plus_inf=max(0.0, 1.0 - fw_total),
        q_minus_inf=max(0.0, 1.0 - fq_total),
    )


# ---------------------------------------------------------------------------
# file formats


def _read_fields(path, *names) -> tuple:
    """The JSON object in a file and its named fields; a file that holds no
    object, or lacks a field or sets it to null, raises ValueError naming it."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for name in names:
        if data.get(name) is None:
            raise ValueError(f"{path}: missing field '{name}'")
    return data, *(data[name] for name in names)


def read_distribution(path) -> FiniteDist:
    """Load a JSON object {"masses": [...]} with the documented tolerances."""
    _, masses = _read_fields(path, "masses")
    try:
        return FiniteDist(_as_masses(masses, FILE_ROW_TOL))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_channel(path) -> DiscreteChannel:
    """Load {"inputs": n, "outputs": m, "rows": [[...], ...]} as a channel."""
    _, n_in, n_out, rows = _read_fields(path, "inputs", "outputs", "rows")
    if not all(type(size) in (int, float) and float(size).is_integer() for size in (n_in, n_out)):
        raise ValueError(f"{path}: inputs and outputs must be integers")
    try:
        rows = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: rows must be a matrix of numbers") from None
    if rows.ndim != 2 or rows.shape != (n_in, n_out):
        raise ValueError(f"{path}: rows shape does not match inputs x outputs")
    if np.any(rows < 0):
        raise ValueError(f"{path}: negative entries are not allowed")
    sums = rows.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > FILE_ROW_TOL)
    if bad.size:
        raise ValueError(f"{path}: row {bad[0]} sums to {sums[bad[0]]}")
    rows = rows / sums[:, None]
    return DiscreteChannel(tuple(FiniteDist(r) for r in rows))
