import math

import numpy as np
import pytest

import rspb.augustin
import rspb.spe
from rspb.augustin import ConstraintSet, augustin_capacity, augustin_fixed_point, tilted_kl_pair
from rspb.errors import DegenerateChannelError, PreconditionError, RateOutOfRangeError
from rspb.measures import (
    DiscreteChannel,
    FiniteDist,
    bec,
    bern,
    bsc,
    point_mass,
    uniform_dist,
    zchannel,
)
from rspb.oracle import brute_spe
from rspb.spe import spe_constrained, spe_parametric
from conftest import random_channel
from oracle_helpers import fd_derivative_check

U2 = uniform_dist(2)
R_CRIT = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
E_CRIT = 0.25 * math.log(2.5) + 0.75 * math.log(0.75 / 0.9)
I_ONE = math.log(2.0) - (-0.1 * math.log(0.1) - 0.9 * math.log(0.9))


def test_critical_point_anchor():
    pt = spe_parametric(U2, bsc(0.1), R_CRIT)
    assert pt.rho_star == pytest.approx(0.5, abs=1e-9)
    assert pt.exponent == pytest.approx(E_CRIT, abs=1e-10)
    assert E_CRIT == pytest.approx(0.0923315, abs=1e-7)
    assert pt.slope == pytest.approx(-1.0, abs=1e-8)


def test_exponent_vanishes_toward_order_one_information():
    pt = spe_parametric(U2, bsc(0.1), I_ONE - 1e-6)
    assert pt.exponent < 5e-6
    assert pt.rho_star > 0.99


def test_bsc02_half_order_solution():
    # tilt of Bern(0.2) toward Bern(0.5) at order 1/2 puts mass 1/3 on the flip
    rate = (1 / 3) * math.log(2 / 3) + (2 / 3) * math.log(4 / 3)
    pt = spe_parametric(U2, bsc(0.2), rate)
    assert pt.rho_star == pytest.approx(0.5, abs=1e-9)


def test_rate_out_of_range_reports_endpoints():
    with pytest.raises(RateOutOfRangeError) as err:
        spe_parametric(U2, bsc(0.1), 2.0)
    assert err.value.high == pytest.approx(I_ONE, abs=1e-9)
    with pytest.raises(RateOutOfRangeError) as err:
        spe_parametric(U2, bsc(0.1), 1e-8)
    assert 0 < err.value.low < 1e-5


def test_tiny_rate_still_solves():
    pt = spe_parametric(U2, bsc(0.1), 1e-6)
    assert 0 < pt.rho_star < 0.01
    # exponent approaches the zero-rate limit of the exponent curve
    assert pt.exponent == pytest.approx(-math.log(0.6), abs=5e-3)


def test_degenerate_channel_detected():
    flat = DiscreteChannel((bern(0.2), bern(0.2)))
    with pytest.raises(DegenerateChannelError):
        spe_parametric(U2, flat, 0.1)


def test_slope_is_rho_ratio_exactly():
    for rate in (0.08, R_CRIT, 0.2, 0.3):
        pt = spe_parametric(U2, bsc(0.1), rate)
        assert pt.slope == (pt.rho_star - 1.0) / pt.rho_star


def test_slope_matches_rate_finite_difference():
    # d exponent / d rate at 20 interior rates, step 1e-5
    rates = np.linspace(0.05, 0.33, 20)
    for rate in rates:
        pt = spe_parametric(U2, bsc(0.1), float(rate))
        fd = fd_derivative_check(
            lambda r: spe_parametric(U2, bsc(0.1), r).exponent, float(rate), 1e-5
        )
        assert fd == pytest.approx(pt.slope, abs=1e-4)


def test_grid_sup_anchors():
    # the brute-force supremum never runs the fixed point
    val = brute_spe(U2, bsc(0.1), R_CRIT, 4096)
    assert val == pytest.approx(E_CRIT, abs=1e-5)
    assert brute_spe(U2, bsc(0.1), I_ONE + 0.01, 128) == 0.0
    assert brute_spe(point_mass(0, 2), bsc(0.1), 0.05, 128) == 0.0
    with pytest.raises(PreconditionError):
        brute_spe(U2, bsc(0.1), 0.1, 1)


def test_parametric_dominates_grid_and_gap_shrinks(rng):
    for _ in range(5):
        channel = random_channel(rng, 2, 2)
        low = augustin_fixed_point(1e-6, U2, channel).information
        high = augustin_fixed_point(1.0, U2, channel).information
        if high - low < 1e-3:
            continue
        rate = low + 0.5 * (high - low)
        pt = spe_parametric(U2, channel, rate)
        coarse = brute_spe(U2, channel, rate, 256)
        fine = brute_spe(U2, channel, rate, 512)
        assert coarse <= pt.exponent + 1e-11
        assert fine <= pt.exponent + 1e-11
        assert fine >= coarse - 1e-12
        assert pt.exponent - coarse <= 50.0 / 256


def test_objective_single_sign_change(rng):
    # derivative of (1-rho)/rho (I_rho - rate) changes sign once, at rho*
    channel = bsc(0.15)
    low = augustin_fixed_point(1e-6, U2, channel).information
    high = augustin_fixed_point(1.0, U2, channel).information
    rate = 0.5 * (low + high)
    pt = spe_parametric(U2, channel, rate)
    rhos = np.linspace(0.02, 0.98, 97)
    info = np.array([augustin_fixed_point(float(r), U2, channel).information for r in rhos])
    vals = (1.0 - rhos) / rhos * (info - rate)
    signs = np.sign(np.diff(vals))
    flips = np.flatnonzero(np.diff(signs) != 0)
    assert flips.size == 1
    assert abs(rhos[flips[0] + 1] - pt.rho_star) < 0.02


def test_constrained_all_matches_uniform_on_symmetric():
    res = spe_constrained(bsc(0.1), ConstraintSet.all_inputs(), R_CRIT)
    assert res.certified
    assert res.value == pytest.approx(E_CRIT, abs=1e-8)
    assert res.argmax_p.allclose(uniform_dist(2), tol=1e-5)


def test_constrained_single_and_list():
    single = spe_constrained(bsc(0.1), ConstraintSet.single(bern(0.3)), 0.1)
    direct = spe_parametric(bern(0.3), bsc(0.1), 0.1)
    assert single.value == pytest.approx(direct.exponent, abs=1e-12)
    listed = spe_constrained(
        bsc(0.1), ConstraintSet.explicit([uniform_dist(2), point_mass(0, 2)]), R_CRIT
    )
    # the point mass has zero information at every order, so its exponent is 0
    assert listed.value == pytest.approx(E_CRIT, abs=1e-10)
    assert listed.argmax_p.allclose(uniform_dist(2))


R8X16 = DiscreteChannel(tuple(
    FiniteDist(m) for m in np.random.default_rng(0).dirichlet(np.ones(16), size=8)
))
ALL = ConstraintSet.all_inputs()


# (channel, constraint, rate, value): values are those of a 33-point order
# grid refined by 40 golden-section steps, an order search that shares no
# logic with the root-find, or None where only the certificate is checked
@pytest.mark.parametrize(
    "channel, constraint, rate, value",
    [
        (bsc(0.1), ALL, 0.0, math.inf),
        (bsc(0.1), ALL, 0.05, 0.216341242564238),
        (bsc(0.1), ALL, 0.1, 0.12788746919890392),
        (bsc(0.1), ALL, 0.2, 0.04029236546921471),
        (bec(0.3), ALL, 0.05, 0.8837269731821933),
        (bec(0.3), ALL, 0.1, 0.6690947553247982),
        (bec(0.3), ALL, 0.2, 0.3586559747365889),
        (zchannel(0.3), ALL, 0.05, 0.03692205561235368),
        (zchannel(0.3), ALL, 0.1, 0.0025298180681334226),
        (zchannel(0.3), ALL, 0.2, 0.0),
        (R8X16, ALL, 0.1, 0.1289986981098806),
        (zchannel(0.3), ConstraintSet.cost([0.0, 1.0], 0.3), 0.05, None),
    ],
    ids=["bsc-low-limit", "bsc-.05", "bsc-.1", "bsc-.2", "bec-.05", "bec-.1", "bec-.2",
         "z-.05", "z-.1", "z-capacity", "r8x16-.1", "z-cost-.05"],
)
def test_constrained_order_root_find(monkeypatch, channel, constraint, rate, value):
    calls = []
    solve = rspb.spe.augustin_capacity

    def counting(rho, *args, **kwargs):
        calls.append(rho)
        return solve(rho, *args, **kwargs)

    monkeypatch.setattr(rspb.spe, "augustin_capacity", counting)
    res = spe_constrained(channel, constraint, rate)
    assert res.certified
    if value is not None:
        assert res.value == pytest.approx(value, abs=1e-10)
    if res.point is None:
        # a limit is decided by the two bracket solves alone
        assert math.isinf(res.value) or res.value == 0.0
        assert len(calls) == 2
        return
    assert len(calls) <= 12
    rho = res.point.rho_star
    cap = augustin_capacity(rho, channel, constraint).capacity
    assert abs((1.0 - rho) / rho * (cap - rate) - res.value) <= 1e-8


def test_constrained_nan_rate_raises_before_any_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(rspb.spe, "augustin_capacity", lambda *args, **kw: calls.append(args))
    for constraint in (ALL, ConstraintSet.cost([0.0, 1.0], 0.3)):
        with pytest.raises(RateOutOfRangeError):
            spe_constrained(bsc(0.1), constraint, math.nan)
    assert calls == []


def _counting_solves(monkeypatch):
    """Record the order, and any argument past the channel, of every
    fixed-point solve the spe module makes."""
    calls = []
    solve = rspb.spe.augustin_fixed_point

    def counting(rho, p, channel, *args, **kwargs):
        calls.append((rho, args, kwargs))
        return solve(rho, p, channel, *args, **kwargs)

    monkeypatch.setattr(rspb.spe, "augustin_fixed_point", counting)
    return calls


def test_point_reads_the_tilted_pair_from_its_solves(monkeypatch):
    calls = []
    pair = rspb.augustin.tilted_kl_pair

    def counting(*args):
        calls.append(args[0])
        return pair(*args)

    for module in (rspb.augustin, rspb.spe):
        monkeypatch.setattr(module, "tilted_kl_pair", counting, raising=False)
    spe_parametric(U2, bsc(0.1), 0.1308120)
    spe_parametric(uniform_dist(3), random_channel(np.random.default_rng(4), 3, 4), 0.05)
    assert calls == []


def test_point_takes_at_most_12_solves(monkeypatch, rng):
    calls = _counting_solves(monkeypatch)
    spe_parametric(U2, bsc(0.1), 0.1308120)
    assert len(calls) <= 12
    for n_in, n_out in ((2, 3), (3, 4), (4, 8), (2, 2), (8, 16)):
        channel = random_channel(rng, n_in, n_out)
        p = uniform_dist(n_in)
        low = augustin_fixed_point(1e-6, p, channel).information
        high = augustin_fixed_point(1.0, p, channel).information
        for frac in (1e-3, 0.5, 0.995):
            calls.clear()
            spe_parametric(p, channel, low + frac * (high - low))
            assert len(calls) <= 12, (n_in, n_out, frac)


def test_anchor_point_takes_8_solves_7_below_order_one(monkeypatch):
    calls = _counting_solves(monkeypatch)
    spe_parametric(U2, bsc(0.1), 0.1308120)
    assert len(calls) == 8
    assert sum(rho < 1.0 for rho, _, _ in calls) == 7


def test_constrained_single_solves_endpoints_once(monkeypatch):
    calls = _counting_solves(monkeypatch)
    spe_parametric(bern(0.3), bsc(0.1), 0.1)
    direct = len(calls)
    calls.clear()
    spe_constrained(bsc(0.1), ConstraintSet.single(bern(0.3)), 0.1)
    assert len(calls) == direct


# A Z-like channel whose order-rho mean puts mass below 1e-13 on the second
# output at small orders. A fixed point started from such a mean at a higher
# order would stop after one step on a wrong mean; each solve starts from the
# power-mean center of its own order instead, and the rate it finds must match
# a fresh solve at rho*.
NEAR_FACE = DiscreteChannel(
    (FiniteDist(np.array([1.0, 0.0])),
     FiniteDist(np.array([0.8423361549121465, 0.1576638450878535])))
)


@pytest.mark.parametrize("rate", [5.801940196384637e-05, 1e-6, 2e-7])
def test_near_face_rate_residual_from_cold_solve(rate):
    pt = spe_parametric(U2, NEAR_FACE, rate)
    cold = augustin_fixed_point(pt.rho_star, U2, NEAR_FACE)
    residual = tilted_kl_pair(pt.rho_star, U2, NEAR_FACE, cold.mean.masses)[0] - rate
    assert abs(residual) <= 1e-10


def test_no_solve_passes_a_start(monkeypatch, rng):
    calls = _counting_solves(monkeypatch)
    spe_parametric(U2, bsc(0.1), 0.1308120)
    spe_parametric(U2, NEAR_FACE, 1e-6)
    spe_parametric(uniform_dist(3), random_channel(rng, 3, 4), 0.05)
    assert len(calls) > 6
    # every solve is (rho, p, channel) alone, so it starts where the solver does
    assert all(not args and not kwargs for _, args, kwargs in calls)
