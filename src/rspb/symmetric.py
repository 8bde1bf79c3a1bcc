"""Renyi symmetry: the exact decision, power-mean centers, and the one order solve.

A channel is Renyi symmetric when the law of the log-likelihood ratio
against the order rho center does not depend on the input, at every order
with finite capacity. The center at an output depends only on the nonzero
entries of its column, so `_column_classes` decides symmetry at every order
at once from classes of columns (the proof is in the README), and
`check_renyi_symmetry` reports the decision with its number of classes and
three diagnostics, one order of a fixed grid at a time. For such channels
the center comes from a closed-form power mean over a uniform input, which
also covers Gallager-symmetric partitions. On a product of such channels
the sphere-packing order solves one scalar equation, summed tilted rates
equal to ln M - ln L; `_solve_symmetric` hands it to
`spe._solve_components` as counted distinct components, a single channel
at rate R being the one-component case. Every center, here and in the
diagnostics, comes from `_uniform_center` at one order. Each order probe
tilts each distinct component once, and at the root each distinct
component's exponent and moments are read off one `AugustinSolution`
built from the accepted probe's center and tilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augustin import _kl_rows, _row_divergences, _solution, _tilts_and_logs
from .errors import InvalidOrderError, PreconditionError, SymmetryError
from .measures import DiscreteChannel, FiniteDist, _merge_atoms, _power_mean, uniform_dist
from .spe import _rate_endpoints, _solve_components

DEFAULT_ORDER_GRID = tuple(np.round(np.arange(1, 21) * 0.05, 2))
DEFAULT_SYMMETRY_TOL = 1e-9
PROFILE_MERGE_TOL = 1e-9


def _uniform_center(rho: float, w_rows: np.ndarray, lw: np.ndarray) -> tuple:
    """Uniform-input center (a FiniteDist) and capacity at one order: below
    one the power mean and its value, at order one the row mixture and the
    mean KL divergence to it."""
    if not 0 < rho <= 1:
        raise InvalidOrderError(f"order must lie in (0, 1], got {rho}")
    if rho == 1.0:
        center = FiniteDist(w_rows.mean(axis=0))
        return center, float(_row_divergences(1.0, lw, center.masses).mean())
    masses, capacity = _power_mean(rho, lw, np.full(len(lw), -math.log(len(lw))))
    return FiniteDist(masses), float(capacity)


def symmetric_center(rho: float, channel: DiscreteChannel) -> tuple:
    """Power-mean center and capacity for a uniform input.

    The center is proportional to (mean_x W(y|x)^rho)^(1/rho) over outputs;
    its 1-norm gives the capacity as rho/(rho-1) ln ||m||. At order one this
    degenerates to the uniform-input mixture and mutual information. Orders
    outside (0, 1] raise InvalidOrderError.
    """
    return _uniform_center(rho, channel.row_matrix(), channel.log_row_matrix())


def _column_classes(w_rows: np.ndarray, lw: np.ndarray, tol: float):
    """Number of column classes of a Renyi symmetric channel, None for any
    other channel; a negative or NaN tol raises PreconditionError.

    A live output's key is its column's ln W(y|x) - ln max_x' W(y|x') over
    the inputs that reach it, sorted within the column. A class is the
    outputs whose keys lie within tol of its first output's; no sort across
    columns orders the keys. The channel is symmetric exactly when in every
    class each input's (log ratio, W(y|x)) atoms, merged at tol, match input
    0's within tol, and its center is order-free exactly with one class.
    """
    if not tol >= 0:
        raise PreconditionError(f"tol must be non-negative, got {tol}")
    live = w_rows.max(axis=0) > 0
    w, lw = w_rows[:, live], lw[:, live]
    ratios = np.where(w > 0, lw - lw.max(axis=0), np.nan)
    keys = np.sort(ratios, axis=0)
    absent = np.isnan(keys)
    left = np.ones(keys.shape[1], dtype=bool)
    classes = 0
    while left.any():
        first = int(np.argmax(left))
        members = left & (absent == absent[:, first, None]).all(axis=0)
        members &= ~(np.abs(keys - keys[:, first, None]) > tol).any(axis=0)
        left &= ~members
        classes += 1
        values, masses = _merge_atoms(ratios[:, members], tol, w[:, members])
        gone = np.isnan(values)
        if ((gone != gone[0]).any() or (np.abs(values - values[0]) > tol).any()
                or (np.abs(masses - masses[0]) > tol).any()):
            return None
    return classes


@dataclass(frozen=True)
class SymmetryReport:
    """The exact symmetry decision, its number of column classes (None for a
    channel that is not symmetric; 1 exactly when the center does not move
    with the order), and the worst value of each of three conditions over
    `DEFAULT_ORDER_GRID` as diagnostics.

    `max_center_fixed_point_tv` is TV(T(c), c) for the power-mean center c
    and the uniform-input Augustin map T(q) = mean_x tilt_rho(W(x), q), whose
    unique fixed point is the Augustin mean. T(c) = c when the divergences
    D_rho(W(x)||c) agree, and TV(T(c), c) <= (exp((1-rho) spread) - 1)/2.
    """

    is_symmetric: bool
    column_classes: int | None
    max_divergence_spread: float
    max_profile_distance: float
    max_center_fixed_point_tv: float


def check_renyi_symmetry(
    channel: DiscreteChannel, *, tol: float = DEFAULT_SYMMETRY_TOL
) -> SymmetryReport:
    """Decide Renyi symmetry exactly and report three diagnostics on the order grid.

    `is_symmetric` and `column_classes` are the column-class decision at
    log-ratio tolerance tol, which holds at every order. `DEFAULT_ORDER_GRID`
    is walked one order at a time: the center c is `_uniform_center`'s, and
    the worst value over the orders of three conditions is reported: the
    spread of the per-input divergences to c, the distance between the
    per-input log-likelihood-ratio profiles as merged multisets, and the
    step of one application of the uniform-input Augustin map at c (see
    SymmetryReport). No fixed point is iterated. A failing channel is
    reported, not raised; a negative or NaN tol raises PreconditionError.
    """
    w_rows, lw = channel.row_matrix(), channel.log_row_matrix()
    classes = _column_classes(w_rows, lw, tol)
    worst = []
    for rho in DEFAULT_ORDER_GRID:
        c = _uniform_center(rho, w_rows, lw)[0].masses
        # c(y) >= W(y|x) k^(-1/rho)/|Y| on k inputs: no row loses its tilt below k ~ 1e15
        with np.errstate(divide="ignore"):
            image = _tilts_and_logs(rho, w_rows, lw, c)[0].mean(axis=0)
        divs = _row_divergences(rho, lw, c)
        # one profile row per input: ln W(y|x) - ln c(y) with mass W(y|x)
        # where W(y|x) > 0, nan where the input does not reach y
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(w_rows > 0, lw - np.log(c), np.nan)
        values, m = _merge_atoms(ratios, PROFILE_MERGE_TOL, w_rows)
        # each input's merged profile against input 0's; equal atoms are 0
        # apart, also the +inf ones where c underflows
        absent, v0 = np.isnan(values), values[0]
        profile = math.inf
        if (absent == absent[0]).all():
            gaps = np.abs(np.subtract(values, v0, out=np.zeros(values.shape),
                                      where=(values != v0) & ~absent))
            profile = max(gaps.max(), np.abs(m - m[0]).max())
        worst.append((divs.max() - divs.min(), profile, 0.5 * np.abs(image - c).sum()))
    spread_max, profile_max, center_tv_max = map(float, np.max(worst, axis=0))
    return SymmetryReport(
        is_symmetric=classes is not None,
        column_classes=classes,
        max_divergence_spread=spread_max,
        max_profile_distance=profile_max,
        max_center_fixed_point_tv=center_tv_max,
    )


def _tilted_rates(rho: float, w_rows: np.ndarray, lw: np.ndarray) -> tuple:
    """Input 0's tilted KL rate to the uniform-input center, input-independent
    by symmetry, with (center, (the inputs' tilts toward it, their logs)): a
    spread not within 1e-8, NaN included, raises SymmetryError."""
    center, _ = _uniform_center(rho, w_rows, lw)
    with np.errstate(divide="ignore", invalid="ignore"):
        tilted = _tilts_and_logs(rho, w_rows, lw, center.masses)
        rates = _kl_rows(*tilted, np.log(center.masses))
    if not rates.max() - rates.min() <= 1e-8:
        raise SymmetryError("tilted rate differs across inputs")
    return float(rates[0]), (center, tilted)


def _solve_symmetric(channels, target: float, tol: float = DEFAULT_SYMMETRY_TOL) -> tuple:
    """Order where the summed tilted rates of the components meet target.

    Equal components, however built, are counted and decided once by their
    column classes; `spe._solve_components` solves them sorted by content,
    so no bit depends on their order, on `_tilted_rates` probes. At rho*
    each distinct component's solution is read off the accepted probe's
    center and tilt. The slope is certified when some component's tilted log
    ratio is non-constant on input 0's tilt or every center is order-free
    (one column class). Returns (rho*, [(count, solution)], certified).
    """
    found = {}
    for i, ch in enumerate(channels):
        key = (ch.input_size, ch.row_matrix().tobytes())
        if key not in found:
            rows = ch.row_matrix(), ch.log_row_matrix()
            classes = _column_classes(*rows, tol)
            if classes is None:
                raise SymmetryError(f"component {i} failed symmetry certification "
                                    "(its inputs differ on a column class)")
            found[key] = [0, _rate_endpoints(uniform_dist(ch.input_size), ch), rows, classes == 1]
        found[key][0] += 1
    parts = [found[key] for key in sorted(found)]
    rho, states = _solve_components(
        [(c, ends, lambda rho, rows=rows: _tilted_rates(rho, *rows)) for c, ends, rows, _ in parts],
        target)
    sols, nonconstant = [], False
    for (count, _, (w_rows, lw), _), (center, tilted) in zip(parts, states):
        sols.append((count, _solution(rho, uniform_dist(len(lw)).masses, w_rows, lw,
                                      center.masses, 0, tilted)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = (lw[0] - np.log(center.masses))[tilted[0][0] > 0]
        nonconstant |= bool(ratios.size > 1 and ratios.max() - ratios.min() > PROFILE_MERGE_TOL)
    return rho, sols, nonconstant or all(part[3] for part in parts)


@dataclass(frozen=True)
class SymmetricSpePoint:
    rate: float
    rho_star: float
    exponent: float
    slope: float
    slope_certified: bool
    center: FiniteDist


def parametric_symmetric(
    channel: DiscreteChannel,
    rate: float,
    tol: float = DEFAULT_SYMMETRY_TOL,
) -> SymmetricSpePoint:
    """Sphere-packing point of a Renyi symmetric channel at one rate.

    The one-component case of `_solve_symmetric`: the order where the
    single-input tilted rate against the power-mean center meets the rate
    (at order one it is the capacity), with the slope (rho*-1)/rho* and its
    certification flag. A channel that is not symmetric at log-ratio
    tolerance tol raises SymmetryError.
    """
    rho, ((_, sol),), certified = _solve_symmetric([channel], rate, tol)
    return SymmetricSpePoint(
        rate=rate,
        rho_star=rho,
        exponent=sol.tilted_exponent,
        slope=(rho - 1.0) / rho,
        slope_certified=certified,
        center=sol.mean,
    )
