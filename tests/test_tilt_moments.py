"""Tilted log-ratio moments against a per-output Python reference.

Every caller of `measures._tilt_moments` is checked here against plain loops
over the outputs: `tilted_log_moments`, the solution moments of a symmetric
component, the order-one information derivative and the constant-composition
report.
"""

import math

import numpy as np
import pytest

from rspb.augustin import augustin_fixed_point, augustin_info_derivative
from rspb.measures import (
    DiscreteChannel,
    FiniteDist,
    bec,
    bsc,
    tilted_log_moments,
    uniform_dist,
)
from rspb.refined import rspb_constant_composition
from rspb.spe import spe_parametric
from conftest import DEAD_BEC, channel_with_zeros, symmetric_solution

REL = 1e-14


def tilt(rho, w, q):
    """w^rho q^(1-rho), normalized, output by output; w itself at order one."""
    if rho == 1.0:
        return list(w)
    logits = [rho * math.log(a) + (1.0 - rho) * math.log(b) if a > 0 and b > 0 else None
              for a, b in zip(w, q)]
    top = max(x for x in logits if x is not None)
    mass = [0.0 if x is None else math.exp(x - top) for x in logits]
    total = math.fsum(mass)
    return [m / total for m in mass]


def reference_moments(w, q, t):
    """(mean, a2, a3) of ln w - ln q under t, by a loop over the outputs t charges."""
    terms = [(ty, math.log(wy) - math.log(qy)) for wy, qy, ty in zip(w, q, t) if ty > 0]
    mean = math.fsum(ty * lr for ty, lr in terms)
    a2 = math.fsum(ty * (lr - mean) ** 2 for ty, lr in terms)
    a3 = math.fsum(ty * abs(lr - mean) ** 3 for ty, lr in terms)
    return mean, a2, a3


def close(value, ref):
    return value == pytest.approx(ref, rel=REL, abs=0.0)


def _channel(rows):
    return DiscreteChannel(tuple(FiniteDist(np.asarray(r, dtype=float)) for r in rows))


# the third output is reached by no input
UNREACHED = _channel([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0], [0.5, 0.5, 0.0]])


def _channels():
    rng = np.random.default_rng(31)
    cases = [("unreached output", UNREACHED), ("bec", bec(0.3))]
    cases += [(f"zeros {i}", channel_with_zeros(rng)) for i in range(8)]
    for label, ch in cases:
        yield pytest.param(ch, uniform_dist(ch.input_size), id=label)
        if ch.input_size >= 3:
            masses = np.full(ch.input_size, 1.0 / (ch.input_size - 1))
            masses[1] = 0.0
            yield pytest.param(ch, FiniteDist(masses), id=label + ", input 1 unused")


def test_tilted_log_moments_match_reference():
    rng = np.random.default_rng(5)
    for i in range(300):
        k = int(rng.integers(2, 7))
        w, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
        w[rng.integers(k)] = 0.0
        if i % 2:
            # q vanishes where w does, so order one stays finite
            q[w == 0] = 0.0
        w, q = FiniteDist(w / w.sum()), FiniteDist(q / q.sum())
        rho = 1.0 if i % 2 else float(rng.uniform(0.02, 1.0))
        got = tilted_log_moments(rho, w, q)
        ref = reference_moments(w.masses, q.masses, tilt(rho, w.masses, q.masses))
        assert got[0] == pytest.approx(ref[0], rel=0.0, abs=REL * max(1.0, abs(ref[0])))
        assert close(got[1], ref[1]) and close(got[2], ref[2])


@pytest.mark.parametrize("channel, p", list(_channels()))
def test_info_derivative_at_order_one_matches_reference(channel, p):
    rows = channel.row_matrix()
    q = p.masses @ rows
    ref = 0.5 * math.fsum(
        px * reference_moments(w, q, w)[1] for px, w in zip(p.masses, rows) if px > 0
    )
    assert close(augustin_info_derivative(1.0, p, channel), ref)


@pytest.mark.parametrize("channel", [bsc(0.11), bec(0.3), DEAD_BEC],
                         ids=["bsc", "bec", "bec with an unreached output"])
@pytest.mark.parametrize("rho", [0.05, 0.5, 0.93, 1.0])
def test_component_quantities_match_reference(channel, rho):
    # a symmetric component's moments are the uniform average over its inputs
    sol = symmetric_solution(rho, channel)
    rows, c = channel.row_matrix(), sol.mean.masses
    moments = [reference_moments(w, c, tilt(rho, w, c)) for w in rows]
    assert close(sol.a2, math.fsum(m[1] for m in moments) / len(rows))
    assert close(sol.a3, math.fsum(m[2] for m in moments) / len(rows))


@pytest.mark.parametrize("channel, p", list(_channels()))
def test_constant_composition_moments_match_reference(channel, p):
    n = 840  # a multiple of every input count drawn here, and of one less
    low = augustin_fixed_point(1e-6, p, channel).information
    high = augustin_fixed_point(1.0, p, channel).information
    for frac in (0.2, 0.8):
        log_m = n * (low + frac * (high - low))
        point = spe_parametric(p, channel, log_m / n)
        rep = rspb_constant_composition(channel, p, n, log_m)
        assert rep.rho_star == point.rho_star
        rho, q = point.rho_star, point.mean.masses
        moments = [(px, reference_moments(w, q, tilt(rho, w, q)))
                   for px, w in zip(p.masses, channel.row_matrix()) if px > 0]
        assert close(rep.a2, math.fsum(px * m[1] for px, m in moments))
        assert close(rep.a3, math.fsum(px * m[2] for px, m in moments))
