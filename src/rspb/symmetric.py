"""Renyi symmetry: the exact decision, power-mean centers, and the one order solve.

A channel is Renyi symmetric when the law of the log-likelihood ratio
against the order rho center does not depend on the input, at every order
with finite capacity. The center at an output depends only on the nonzero
entries of its column, so `_column_classes` decides symmetry at every order
at once from classes of columns (the proof is in the README), and
`check_renyi_symmetry` adds three diagnostics, one order of a grid at a
time. For such channels the center comes from a closed-form power mean
over a uniform input, which also covers Gallager-symmetric partitions. On
a product of such channels the sphere-packing order solves one scalar
equation, summed tilted rates equal to ln M - ln L; `_solve_symmetric`
solves it, a single channel at rate R being the one-component case, on the
kernels of `augustin`. Every center, here and in the diagnostics, comes
from `_uniform_center` at one order. The solve's order probes tilt each
distinct component once, and the exponent and moments at the root are read
from the accepted probe's tilts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augustin import _kl_rows, _row_divergences, _tilts_and_logs
from .errors import InvalidOrderError, PreconditionError, SymmetryError
from .measures import (DiscreteChannel, FiniteDist, _merge_atoms, _power_mean,
                       _tilt_moments, uniform_dist)
from .spe import _check_rate, _find_order, _rate_endpoints

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
    """The exact symmetry decision, with the worst value of each grid
    condition over the checked orders as diagnostics.

    `max_center_fixed_point_tv` is TV(T(c), c) for the power-mean center c
    and the uniform-input Augustin map T(q) = mean_x tilt_rho(W(x), q), whose
    unique fixed point is the Augustin mean. T(c) = c when the divergences
    D_rho(W(x)||c) agree, and TV(T(c), c) <= (exp((1-rho) spread) - 1)/2.
    Where c underflows to 0 on every output an input reaches, that input has
    no tilt and the step reads inf, as the spread and profile distance do.
    """

    is_symmetric: bool
    checked_orders: tuple
    center_per_order: dict
    max_divergence_spread: float
    max_profile_distance: float
    max_center_fixed_point_tv: float


def check_renyi_symmetry(
    channel: DiscreteChannel,
    rho_grid=DEFAULT_ORDER_GRID,
    tol: float = DEFAULT_SYMMETRY_TOL,
) -> SymmetryReport:
    """Decide Renyi symmetry exactly and report three diagnostics on an order grid.

    `is_symmetric` is the column-class decision at log-ratio tolerance tol,
    which holds at every order. The grid is walked one order at a time: the
    center c is `_uniform_center`'s, and the worst value over the orders of
    three conditions is reported: the spread of the per-input divergences
    to c, the distance between the per-input log-likelihood-ratio profiles
    as merged multisets, and the step of one application of the
    uniform-input Augustin map at c (see SymmetryReport). No fixed point is
    iterated. A failing channel is reported, not raised; a negative or NaN
    tol raises PreconditionError.
    """
    w_rows, lw = channel.row_matrix(), channel.log_row_matrix()
    symmetric = _column_classes(w_rows, lw, tol) is not None
    rhos = np.asarray(rho_grid, dtype=float)
    if rhos.ndim != 1 or rhos.size == 0:
        raise PreconditionError(f"orders must be a non-empty 1-d sequence, got {rhos.tolist()}")
    if not np.all((rhos > 0) & (rhos <= 1)):
        raise InvalidOrderError(f"orders must lie in (0, 1], got {rhos.tolist()}")
    centers, worst = {}, []
    for rho in rhos.tolist():
        centers[rho], _ = _uniform_center(rho, w_rows, lw)
        c = centers[rho].masses
        # at order one the map's image is the row mixture whatever q: tilting
        # would form 0 * (-inf) on an output no input reaches, NaN on a row c misses
        with np.errstate(divide="ignore", invalid="ignore"):
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
        step = 0.5 * np.abs(image - c).sum()
        worst.append((divs.max() - divs.min(), profile, math.inf if np.isnan(step) else step))
    spread_max, profile_max, center_tv_max = map(float, np.max(worst, axis=0))
    return SymmetryReport(
        is_symmetric=symmetric,
        checked_orders=tuple(rhos.tolist()),
        center_per_order=centers,
        max_divergence_spread=spread_max,
        max_profile_distance=profile_max,
        max_center_fixed_point_tv=center_tv_max,
    )


@dataclass(frozen=True)
class SymmetricComponent:
    """Per-order quantities of one symmetric factor of a product channel."""

    rho: float
    center: FiniteDist
    rate_term: float
    exponent_term: float
    a2: float
    a3: float
    tilt_nonconstant: bool


def _tilted_rates(rho: float, w_rows: np.ndarray, lw: np.ndarray) -> tuple:
    """Uniform-input center at rho, each input's tilt toward it and the
    tilt's log, and input 0's tilted KL rate to the center, which symmetry
    makes input-independent: a spread above 1e-8 raises SymmetryError."""
    center, _ = _uniform_center(rho, w_rows, lw)
    with np.errstate(divide="ignore", invalid="ignore"):
        tilts, lt = _tilts_and_logs(rho, w_rows, lw, center.masses)
        rates = _kl_rows(tilts, lt, np.log(center.masses))
    if rates.max() - rates.min() > 1e-8:
        raise SymmetryError("tilted rate differs across inputs")
    return center, tilts, lt, float(rates[0])


def _component(rho: float, lw: np.ndarray, center, tilts, lt, rate) -> SymmetricComponent:
    """The quantities of input 0 at rho, from the `_tilted_rates` tuple there."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lr = lw[0] - np.log(center.masses)
        exponent = float(_kl_rows(tilts, lt, lw)[0])
    _, a2, a3 = map(float, _tilt_moments(lr, tilts[0]))
    ratios = lr[tilts[0] > 0]
    nonconstant = bool(ratios.size > 1 and ratios.max() - ratios.min() > PROFILE_MERGE_TOL)
    return SymmetricComponent(rho, center, rate, exponent, a2, a3, nonconstant)


def component_quantities(rho: float, channel: DiscreteChannel) -> SymmetricComponent:
    """Tilted rate/exponent/moments of a symmetric channel at one order.

    Every input is tilted toward the center; symmetry makes the tilted rates
    input-independent, which is asserted, and the values of input 0 are
    returned.
    """
    w_rows, lw = channel.row_matrix(), channel.log_row_matrix()
    return _component(rho, lw, *_tilted_rates(rho, w_rows, lw))


def _solve_symmetric(channels, target: float, tol: float = DEFAULT_SYMMETRY_TOL) -> tuple:
    """Order where the summed tilted rates of the components meet target.

    Equal components, however built, are decided once by their column
    classes, each probe tilts each distinct component once, and their
    quantities at rho* are read from the accepted probe. The bracket sums
    the components' rate ranges at a uniform input, from `_rate_endpoints`.
    The slope (rho*-1)/rho* is certified when some component's tilted log
    ratio is non-constant or every component's center is the same at every
    order (one column class). Returns (rho*, the per-component quantities
    at rho* in the order of `channels`, certified).
    """
    distinct, layout = {}, []
    for ch in channels:
        key = (ch.input_size, ch.row_matrix().tobytes())
        distinct.setdefault(key, ch)
        layout.append(key)
    ends, rows, one_class = {}, {}, []
    for key, ch in distinct.items():
        rows[key] = ch.row_matrix(), ch.log_row_matrix()
        classes = _column_classes(*rows[key], tol)
        if classes is None:
            raise SymmetryError(f"component {layout.index(key)} failed symmetry certification "
                                "(its inputs differ on a column class)")
        one_class.append(classes == 1)
        ends[key] = _rate_endpoints(uniform_dist(ch.input_size), ch)
    low = sum(ends[k][0] for k in layout)
    high = sum(ends[k][1] for k in layout)
    _check_rate(target, low, high)

    def summed(rho):
        tilted = {k: _tilted_rates(rho, *rows[k]) for k in distinct}
        return sum(tilted[k][3] for k in layout), tilted

    stop = 1e-12 * max(1.0, abs(target))
    rho, _, tilted = _find_order(
        summed, target, (0.0, low), (1.0, high),
        lambda rho, total, _: abs(total - target) <= stop,
    )
    comp = {k: _component(rho, rows[k][1], *tilted[k]) for k in distinct}
    certified = any(c.tilt_nonconstant for c in comp.values()) or all(one_class)
    return rho, [comp[k] for k in layout], certified


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
    rho, (comp,), certified = _solve_symmetric([channel], rate, tol)
    return SymmetricSpePoint(
        rate=rate,
        rho_star=rho,
        exponent=comp.exponent_term,
        slope=(rho - 1.0) / rho,
        slope_certified=certified,
        center=comp.center,
    )
