"""Renyi symmetry: detection, power-mean centers, and the parametric solve.

A channel is Renyi symmetric when the law of the log-likelihood ratio
against the order rho center does not depend on the input, at every order
with finite capacity. For such channels the center comes from a closed-form
power mean over a uniform input, which also covers Gallager-symmetric
partitions, and the sphere-packing solve reduces to a scalar root-find on a
single input's tilted rate. Certification is numeric on a finite order grid
since the definition quantifies over all orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augustin import LOW_ORDER_PROBE, _tilted_rows
from .errors import RateOutOfRangeError, SymmetryError
from .measures import (
    DiscreteChannel,
    FiniteDist,
    _merge_atoms,
    _power_mean,
    _tilt_moments,
    renyi_divergence,
    tilted_measure,
)
from .spe import _find_order

DEFAULT_ORDER_GRID = tuple(np.round(np.arange(1, 21) * 0.05, 2))
DEFAULT_SYMMETRY_TOL = 1e-9
PROFILE_MERGE_TOL = 1e-9


def symmetric_center(rho: float, channel: DiscreteChannel) -> tuple:
    """Power-mean center and capacity for a uniform input.

    The center is proportional to (mean_x W(y|x)^rho)^(1/rho) over outputs;
    its 1-norm gives the capacity as rho/(rho-1) ln ||m||. At order one this
    degenerates to the uniform-input mixture and mutual information.
    """
    if not 0 < rho <= 1:
        raise ValueError(f"order must lie in (0, 1], got {rho}")
    lw = channel.log_row_matrix()
    n_in = channel.input_size
    if rho == 1.0:
        center = FiniteDist(channel.row_matrix().mean(axis=0))
        cap = sum(renyi_divergence(1.0, row, center) for row in channel.rows) / n_in
        return center, float(cap)
    center, capacity = _power_mean(rho, lw, np.full(n_in, -math.log(n_in)))
    return FiniteDist(center), float(capacity)


def _profile(row: FiniteDist, center: FiniteDist, merge_tol: float):
    """Merged (log-ratio, mass) atoms of one input's likelihood profile."""
    sup = row.support
    values = np.log(row.masses[sup]) - np.log(center.masses[sup])
    return _merge_atoms(values, merge_tol, row.masses[sup])


def _profile_distance(a, b) -> float:
    va, ma = a
    vb, mb = b
    if va.size != vb.size:
        return math.inf
    return float(max(np.max(np.abs(va - vb)), np.max(np.abs(ma - mb))))


@dataclass(frozen=True)
class SymmetryReport:
    """Worst value of each symmetry condition over the checked orders.

    `max_center_fixed_point_tv` is TV(T(c), c) for the power-mean center c
    and the uniform-input Augustin map T(q) = mean_x tilt_rho(W(x), q), whose
    unique fixed point is the Augustin mean. T(c) = c when the divergences
    D_rho(W(x)||c) agree, and TV(T(c), c) <= (exp((1-rho) spread) - 1)/2.
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
    """Certify Renyi symmetry numerically on an order grid.

    At each order the power-mean center c is computed and three conditions
    are checked: the per-input divergences to c agree, the per-input
    log-likelihood-ratio profiles agree as merged multisets, and one
    application of the uniform-input Augustin map leaves c in place (see
    SymmetryReport). No fixed point is iterated. Report-only; never raises.
    """
    spread_max = 0.0
    profile_max = 0.0
    center_tv_max = 0.0
    centers = {}
    lw = channel.log_row_matrix()
    for rho in rho_grid:
        rho = float(rho)
        center, _ = symmetric_center(rho, channel)
        centers[rho] = center
        divs = [renyi_divergence(rho, row, center) for row in channel.rows]
        spread_max = max(spread_max, max(divs) - min(divs))
        profiles = [_profile(row, center, PROFILE_MERGE_TOL) for row in channel.rows]
        for prof in profiles[1:]:
            profile_max = max(profile_max, _profile_distance(profiles[0], prof))
        # at order one the map is the row mixture, whatever q; tilting would
        # form 0 * (-inf) on an output no input reaches
        rows = channel.row_matrix() if rho == 1.0 else _tilted_rows(rho, lw, center.masses)
        image = rows.mean(axis=0)
        center_tv_max = max(
            center_tv_max, 0.5 * float(np.abs(image - center.masses).sum())
        )
    ok = spread_max <= tol and profile_max <= tol and center_tv_max <= tol
    return SymmetryReport(
        is_symmetric=ok,
        checked_orders=tuple(float(r) for r in rho_grid),
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


def component_quantities(rho: float, channel: DiscreteChannel) -> SymmetricComponent:
    """Tilted rate/exponent/moments of a symmetric channel at one order.

    Uses input 0; symmetry makes the values input-independent, which is
    asserted against the other inputs.
    """
    center, _ = symmetric_center(rho, channel)
    row = channel.rows[0]
    tilt = tilted_measure(rho, row, center)
    rate_term = renyi_divergence(1.0, tilt, center)
    exponent_term = renyi_divergence(1.0, tilt, row)
    _, a2, a3, ratios = _tilt_moments(row, center, tilt)
    nonconstant = bool(ratios.size > 1 and ratios.max() - ratios.min() > PROFILE_MERGE_TOL)
    for other in channel.rows[1:]:
        t2 = tilted_measure(rho, other, center)
        if abs(renyi_divergence(1.0, t2, center) - rate_term) > 1e-8:
            raise SymmetryError("tilted rate differs across inputs")
    return SymmetricComponent(rho, center, rate_term, exponent_term, a2, a3, nonconstant)


def _capacity_endpoints(channel: DiscreteChannel) -> tuple:
    low = symmetric_center(LOW_ORDER_PROBE, channel)[1]
    high = symmetric_center(1.0, channel)[1]
    return low, high


def center_order_independent(
    channel: DiscreteChannel, probe_orders=DEFAULT_ORDER_GRID, tol: float = 1e-9
) -> bool:
    """True when the power-mean center does not move across the probe grid."""
    ref = symmetric_center(float(probe_orders[0]), channel)[0]
    for rho in probe_orders[1:]:
        c = symmetric_center(float(rho), channel)[0]
        if 0.5 * float(np.abs(c.masses - ref.masses).sum()) > tol:
            return False
    return True


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
    rho_grid=DEFAULT_ORDER_GRID,
) -> SymmetricSpePoint:
    """Sphere-packing point of a Renyi symmetric channel at one rate.

    Finds the order where the single-input tilted rate against the
    power-mean center meets the rate (at order one it is the capacity). The
    slope claim (rho*-1)/rho* is certified when either the tilted log ratio
    is non-constant for some input or the center is order-independent on the
    probe grid; otherwise the point is returned with the flag down.
    """
    report = check_renyi_symmetry(channel, rho_grid, tol)
    if not report.is_symmetric:
        raise SymmetryError(
            f"channel failed symmetry certification "
            f"(spread {report.max_divergence_spread:.3e}, "
            f"profile {report.max_profile_distance:.3e})"
        )
    low, high = _capacity_endpoints(channel)
    if not low < rate < high:
        raise RateOutOfRangeError(rate, low, high)

    def rate_at(rho):
        comp = component_quantities(rho, channel)
        return comp.rate_term, comp

    _, _, best = _find_order(
        rate_at, rate, (LOW_ORDER_PROBE, rate_at(LOW_ORDER_PROBE)[0]), (1.0, high),
        lambda rho, r, _: abs(r - rate) <= 1e-12,
    )
    certified = best.tilt_nonconstant or center_order_independent(channel, rho_grid, tol)
    return SymmetricSpePoint(
        rate=rate,
        rho_star=best.rho,
        exponent=best.exponent_term,
        slope=(best.rho - 1.0) / best.rho,
        slope_certified=certified,
        center=best.center,
    )
