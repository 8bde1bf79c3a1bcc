import math

import numpy as np
import pytest

import rspb.augustin
import rspb.spe
from rspb.augustin import (
    DEFAULT_FP_TOL,
    ConstraintSet,
    _certified_mean,
    _order_zero_capacity,
    augustin_capacity,
    augustin_fixed_point,
    tilted_kl_pair,
)
from rspb.errors import (
    DegenerateChannelError,
    NonConvergenceError,
    PreconditionError,
    RateOutOfRangeError,
)
from rspb.measures import (
    DiscreteChannel,
    FiniteDist,
    bec,
    bern,
    bsc,
    point_mass,
    renyi_divergence,
    tilted_log_moments,
    tilted_measure,
    uniform_dist,
    zchannel,
)
from rspb.oracle import _augustin_information, brute_spe
from rspb.refined import rspb_constant_composition
from rspb.spe import (
    EXPONENT_CONSISTENCY_TOL,
    RATE_RESIDUAL_TOL,
    _damped,
    _rate_endpoints,
    _rate_met,
    _solve_components,
    spe_constrained,
    spe_parametric,
)
from conftest import channel_with_zeros, random_channel
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
    # the rows share an output, so the range starts at exactly 0
    with pytest.raises(RateOutOfRangeError) as err:
        spe_parametric(U2, bsc(0.1), 0.0)
    assert err.value.low == 0.0


def test_tiny_rate_still_solves():
    pt = spe_parametric(U2, bsc(0.1), 1e-6)
    assert 0 < pt.rho_star < 0.01
    # exponent approaches the zero-rate limit of the exponent curve
    assert pt.exponent == pytest.approx(-math.log(0.6), abs=5e-3)
    # rates below the old order-1e-6 end of the range solve too, and their
    # exponents close in on -ln 0.6 from below
    gaps = [-math.log(0.6) - spe_parametric(U2, bsc(0.1), rate).exponent
            for rate in (1e-8, 1e-9, 1e-10, 1e-11, 1e-12)]
    assert all(0 < b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 2e-6


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


def test_constrained_list_below_the_order_zero_information_is_infinite():
    # rows that share no output: every order has the information H(p), and a
    # rate below it has no interior order and an infinite exponent
    channel = DiscreteChannel((FiniteDist([0.9, 0.1, 0.0, 0.0, 0.0]),
                               FiniteDist([0.0, 0.0, 1.0, 0.0, 0.0]),
                               FiniteDist([0.0, 0.0, 0.0, 0.2, 0.8])))
    p = FiniteDist([0.5, 0.25, 0.25])
    low, _ = _rate_endpoints(p, channel)
    assert low == pytest.approx(1.5 * math.log(2.0), rel=1e-15)
    listed = ConstraintSet.explicit([point_mass(0, 3), p])
    for rate in (0.0, 0.3, math.nextafter(low, 0.0)):
        res = spe_constrained(channel, listed, rate)
        assert (res.value, res.point, res.certified) == (math.inf, None, True), rate
        assert res.argmax_p is p


R8X16 = DiscreteChannel(tuple(
    FiniteDist(m) for m in np.random.default_rng(0).dirichlet(np.ones(16), size=8)
))
ALL = ConstraintSet.all_inputs()


# (channel, constraint, rate, value, probes): values are those of a 33-point
# order grid refined by 40 golden-section steps, an order search that shares
# no logic with the root-find, or None where only the certificate is checked;
# probes counts the capacity solves, the order-one end included
@pytest.mark.parametrize(
    "channel, constraint, rate, value, probes",
    [
        (bsc(0.1), ALL, 0.0, math.inf, 1),
        (bsc(0.1), ALL, 0.05, 0.216341242564238, 6),
        (bsc(0.1), ALL, 0.1, 0.12788746919890392, 6),
        (bsc(0.1), ALL, 0.2, 0.04029236546921471, 7),
        (bec(0.3), ALL, 0.05, 0.8837269731821933, 8),
        (bec(0.3), ALL, 0.1, 0.6690947553247982, 9),
        (bec(0.3), ALL, 0.2, 0.3586559747365889, 9),
        (zchannel(0.3), ALL, 0.05, 0.03692205561235368, 7),
        (zchannel(0.3), ALL, 0.1, 0.0025298180681334226, 6),
        (zchannel(0.3), ALL, 0.2, 0.0, 1),
        (R8X16, ALL, 0.1, 0.1289986981098806, 7),
        (zchannel(0.3), ConstraintSet.cost([0.0, 1.0], 0.3), 0.05, None, 8),
    ],
    ids=["bsc-low-limit", "bsc-.05", "bsc-.1", "bsc-.2", "bec-.05", "bec-.1", "bec-.2",
         "z-.05", "z-.1", "z-capacity", "r8x16-.1", "z-cost-.05"],
)
def test_constrained_order_root_find(monkeypatch, channel, constraint, rate, value, probes):
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
    # the order-one end first, then the root-find's probes; order 0 is the
    # linear program's, never a capacity solve
    assert len(calls) == probes
    assert calls[0] == 1.0 and min(calls) > 0.0
    if res.point is None:
        # a limit is decided by the order-one solve and the order-0 ends alone
        assert math.isinf(res.value) or res.value == 0.0
        return
    rho = res.point.rho_star
    cap = augustin_capacity(rho, channel, constraint).capacity
    assert abs((1.0 - rho) / rho * (cap - rate) - res.value) <= 1e-8


def test_constrained_nan_rate_raises_before_any_solve(monkeypatch):
    calls = []
    for name in ("augustin_capacity", "_order_zero_capacity", "_rate_endpoints"):
        monkeypatch.setattr(rspb.spe, name, lambda *args, **kw: calls.append(args))
    listed = ConstraintSet.explicit([bern(0.3), point_mass(0, 2)])
    for constraint in (ALL, ConstraintSet.cost([0.0, 1.0], 0.3), listed):
        with pytest.raises(RateOutOfRangeError):
            spe_constrained(bsc(0.1), constraint, math.nan)
    assert calls == []


def _counting_calls(monkeypatch, names):
    """Record, by name, every call the spe module makes to the named functions."""
    calls = []
    for name in names:
        fn = getattr(rspb.spe, name)

        def counting(*args, fn=fn, name=name, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(rspb.spe, name, counting)
    return calls


@pytest.mark.parametrize(
    "channel, constraint, rate",
    [(bsc(0.1), ALL, 0.1), (R8X16, ALL, 0.1),
     (zchannel(0.3), ConstraintSet.cost([0.0, 1.0], 0.3), 0.05)],
    ids=["bsc-.1", "r8x16-.1", "z-cost-.05"],
)
def test_constrained_point_is_read_off_the_accepted_capacity(monkeypatch, channel, constraint,
                                                             rate):
    # the root-find's accepted capacity probe holds the point: no point
    # solve, Newton proposal or rate range runs after it
    probes = []
    solve = rspb.spe.augustin_capacity

    def probing(rho, *args, **kwargs):
        probes.append(rho)
        return solve(rho, *args, **kwargs)

    monkeypatch.setattr(rspb.spe, "augustin_capacity", probing)
    calls = _counting_calls(monkeypatch, ("spe_parametric", "_newton_order", "_rate_endpoints"))
    res = spe_constrained(channel, constraint, rate)
    assert res.certified
    assert calls == []
    assert res.point.rho_star == probes[-1]
    center = solve(res.point.rho_star, channel, constraint).center
    assert res.point.mean.masses.tobytes() == center.masses.tobytes()
    assert res.value == res.point.exponent


def test_constrained_list_forms_each_candidate_range_once(monkeypatch):
    calls = _counting_calls(monkeypatch, ("_rate_endpoints",))
    listed = ConstraintSet.explicit([bern(0.3), bern(0.5), bern(0.6)])
    res = spe_constrained(zchannel(0.3), listed, 0.1)
    assert calls == ["_rate_endpoints"] * 3
    assert res.value == max(spe_parametric(p, zchannel(0.3), 0.1).exponent for p in listed.dists)


def test_constrained_point_mass_candidate_is_a_limit():
    # a point mass has a flat rate range, [0, 0]: a rate at or above it
    # gives 0, one below it inf, and neither a point
    for rate, value in ((0.1, 0.0), (0.0, 0.0), (-0.1, math.inf)):
        res = spe_constrained(bsc(0.1), ConstraintSet.single(point_mass(0, 2)), rate)
        assert (res.value, res.point, res.certified) == (value, None, True), rate


def test_constrained_rate_within_rounding_of_the_order_one_capacity_is_a_limit():
    # at order one the tilted rate and the capacity agree up to rounding; a
    # rate between them gives 0, not a point or a range error
    for channel in (bec(0.3), zchannel(0.3)):
        high = augustin_capacity(1.0, channel, ALL)
        tilted = high.solution.tilted_rate
        assert tilted < high.capacity
        for rate in (tilted, math.nextafter(high.capacity, 0.0)):
            res = spe_constrained(channel, ALL, rate)
            assert (res.value, res.point, res.certified) == (0.0, None, True), rate


# bec(0.3) leaves out 1e-15: near its root, order 2.4e-7, the fixed point
# accepts means whose two edge masses, 4e-17 or 7e-13, are within its 1e-12
# gap of 0, and their tilted rates scatter over [4e-22, 7e-13]
@pytest.mark.parametrize("channel, rates", [(bsc(0.1), (1e-15, 1e-8, 1e-7, 4e-7)),
                                            (bec(0.3), (1e-8, 1e-7, 4e-7))], ids=["bsc", "bec"])
def test_constrained_rates_above_the_order_zero_capacity_are_finite(channel, rates):
    # C_0 = 0 here (the rows share an output), so every positive rate has a
    # finite exponent; the capacity 5.1e-7 at order 1e-6 on bsc(0.1) once
    # gave these rates a certified inf. `_rate_met` holds each side's
    # exponent within 1e-10 of the root's
    for rate in rates:
        res = spe_constrained(channel, ALL, rate)
        want = spe_parametric(uniform_dist(2), channel, rate).exponent
        assert res.value == pytest.approx(want, abs=1e-10), rate
        assert res.certified, rate


def test_constrained_rate_far_below_the_order_one_end_is_the_point_exponent():
    # a bracket from order 1e-6 left rates below its tilted rate, 6.0e-13
    # on bsc(0.1), out of range; the order-0 end holds them
    want = spe_parametric(U2, bsc(0.1), 1e-15).exponent
    assert want == 0.5108255733186707
    assert spe_constrained(bsc(0.1), ALL, 1e-15).value == want


# the cases of the zero-laden all-input census (channel_with_zeros of
# default_rng(s), s = 20-39, rates 0.1, 0.4, 0.7 and 0.95 of C_1) whose rate
# lies below C_0; draw 29 has C_0 = C_1 = ln 2
BELOW_ORDER_ZERO_CAPACITY = [(25, 0.1), (25, 0.4), (26, 0.1), (26, 0.4), (29, 0.1), (29, 0.4),
                             (29, 0.7), (29, 0.95), (32, 0.1), (32, 0.4), (33, 0.1), (39, 0.1)]


@pytest.mark.parametrize("seed, share", BELOW_ORDER_ZERO_CAPACITY)
def test_constrained_rates_below_the_order_zero_capacity_are_a_certified_inf(seed, share):
    channel = channel_with_zeros(np.random.default_rng(seed))
    rate = share * augustin_capacity(1.0, channel).capacity
    lower, upper, _ = _order_zero_capacity(channel, ALL)
    assert rate <= lower <= upper
    res = spe_constrained(channel, ALL, rate)
    assert (res.value, res.point, res.certified) == (math.inf, None, True)
    # the argmax attains the order-0 capacity's lower end
    top = float(np.max(res.argmax_p.masses @ (channel.row_matrix() > 0)))
    assert -math.log(top) == pytest.approx(lower, abs=1e-15)


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


def test_accepted_point_tilts_once_and_the_bound_forms_no_tilt(monkeypatch):
    # an accepted point's gap, tilted pair and moments come from one tilt at
    # its mean, and the refined bound reads its moments off the point
    calls = _counting_solves(monkeypatch)
    tilts, phase = [], ["search"]
    tilt, certify, point = rspb.augustin._tilt, rspb.spe._certified_mean, rspb.spe.spe_parametric

    def counting(*args):
        tilts.append(phase[0])
        return tilt(*args)

    def certifying(*args):
        phase[0] = "certify"
        sol = certify(*args)
        phase[0] = "search"
        return sol

    def solving(*args):
        out = point(*args)
        phase[0] = "bound"
        return out

    for module in (rspb.augustin, rspb.spe):
        monkeypatch.setattr(module, "_tilt", counting)
    monkeypatch.setattr(rspb.spe, "_certified_mean", certifying)
    monkeypatch.setattr(rspb.spe, "spe_parametric", solving)
    draws = ((bsc(0.1), 0.1308120), (random_channel(np.random.default_rng(4), 3, 4), 0.05))
    for channel, rate in draws:
        tilts.clear()
        phase[0] = "search"
        rspb_constant_composition(channel, uniform_dist(channel.input_size), 600, 600 * rate)
        assert calls == []
        assert tilts.count("certify") == 1
        assert "bound" not in tilts


def _refusing_certificate(monkeypatch):
    """Refuse every point Newton lands on, so that each point falls back to a
    cold solve at Newton's order, Brent's first probe."""
    monkeypatch.setattr(rspb.spe, "_certified_mean", lambda *args: None)


def test_point_takes_at_most_3_solves(monkeypatch, rng):
    # the rate range takes no fixed point, and a point whose Newton proposal
    # certifies takes none either; refused, it takes one cold solve, the
    # first probe of Brent's method
    calls = _counting_solves(monkeypatch)
    draws = [random_channel(rng, n_in, n_out)
             for n_in, n_out in ((2, 3), (3, 4), (4, 8), (2, 2), (8, 16))]
    for want in ([0, 0, 0], [1, 1, 1]):
        for channel in draws:
            p = uniform_dist(channel.input_size)
            low, high = _rate_endpoints(p, channel)
            counts = []
            for frac in (1e-3, 0.5, 0.995):
                calls.clear()
                spe_parametric(p, channel, low + frac * (high - low))
                counts.append(len(calls))
            assert counts == want, (channel.input_size, channel.output_size, counts)
        _refusing_certificate(monkeypatch)


def test_anchor_point_takes_one_solve_below_order_one(monkeypatch):
    calls = _counting_solves(monkeypatch)
    spe_parametric(U2, bsc(0.1), 0.1308120)
    assert calls == []
    # refused, the point takes one cold solve, at Newton's order
    _refusing_certificate(monkeypatch)
    spe_parametric(U2, bsc(0.1), 0.1308120)
    assert len(calls) == 1
    assert calls[0][0] < 1.0


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
    points = ((U2, bsc(0.1), 0.1308120), (U2, NEAR_FACE, 1e-6),
              (uniform_dist(3), random_channel(rng, 3, 4), 0.05))
    for point in points:
        spe_parametric(*point)
    # with no proposal, Brent's probes are solves too
    monkeypatch.setattr(rspb.spe, "_newton_order", lambda *args: None)
    for point in points:
        spe_parametric(*point)
    assert len(calls) > 9
    # every solve is (rho, p, channel) alone, so it starts where the solver does
    assert all(not args and not kwargs for _, args, kwargs in calls)


# The Newton order search against Brent alone: bsc, bec, z, seeded Dirichlet
# channels, NEAR_FACE and 12 channels with exact zeros (none of these draws
# hits a low-order fixed point that fails to converge), at four rate fractions
_DIRICHLET = np.random.default_rng(7)
_ZEROS = np.random.default_rng(11)
NEWTON_CHANNELS = (
    [("bsc", bsc(0.1)), ("bec", bec(0.3)), ("z", zchannel(0.3))]
    + [(f"d{a}x{b}", random_channel(_DIRICHLET, a, b)) for a, b in ((2, 3), (4, 8), (8, 16))]
    + [("near-face", NEAR_FACE)]
    + [(f"zeros{k}", channel_with_zeros(_ZEROS)) for k in range(12)]
)
RATE_FRACTIONS = (1e-3, 0.05, 0.5, 0.995)


def _brent_point(p, channel, rate, ends, first=None):
    """The order and solve that Brent's method alone finds on cold fixed
    points between the rate range's ends, from a cold probe at `first` if
    given."""
    def rate_at(rho):
        sol = augustin_fixed_point(rho, p, channel)
        return sol.tilted_rate, sol

    rho, (sol,) = _solve_components([(1, ends, rate_at)], rate, first)
    return rho, sol


def _counting_newton(monkeypatch):
    """Record the (order, mean) `_newton_order` proposes at every point, None
    for a bail."""
    proposals = []
    newton = rspb.spe._newton_order

    def counting(*args):
        proposals.append(newton(*args))
        return proposals[-1]

    monkeypatch.setattr(rspb.spe, "_newton_order", counting)
    return proposals


@pytest.mark.parametrize("label, channel", NEWTON_CHANNELS, ids=[c[0] for c in NEWTON_CHANNELS])
def test_newton_order_matches_brent(monkeypatch, label, channel):
    calls = _counting_solves(monkeypatch)
    p = uniform_dist(channel.input_size)
    ends = low, high = _rate_endpoints(p, channel)
    for frac in RATE_FRACTIONS:
        rate = low + frac * (high - low)
        calls.clear()
        pt = spe_parametric(p, channel, rate)
        assert type(pt.rho_star) is float
        cold = augustin_fixed_point(pt.rho_star, p, channel)
        if calls:
            # a point Brent finds is read from its cold solve
            assert _rate_met(pt.rho_star, abs(cold.tilted_rate - rate)), frac
            assert pt.exponent == cold.tilted_exponent, frac
        else:
            # an accepted point carries its own certificate (checked in
            # test_accepted_points_are_enclosed_from_outside); a cold solve at
            # its order, stopped by its TV step, agrees within the targets
            assert abs(cold.tilted_rate - rate) <= RATE_RESIDUAL_TOL, frac
            assert abs(pt.exponent - cold.tilted_exponent) <= EXPONENT_CONSISTENCY_TOL, frac
        rho, sol = _brent_point(p, channel, rate, ends)
        assert abs(pt.rho_star - rho) <= 1e-9 * rho, frac
        assert abs(pt.exponent - sol.tilted_exponent) <= 1e-8, frac
        if frac <= 0.05:
            brute = brute_spe(p, channel, rate, 256)
            assert brute <= pt.exponent + 1e-10, frac
            assert pt.exponent - brute <= 1e-4, frac


def _counting_searches(monkeypatch):
    """Record the start order of every Newton search `_newton_order` runs."""
    starts = []
    search = rspb.spe._newton_search

    def counting(rho, *args):
        starts.append(rho)
        return search(rho, *args)

    monkeypatch.setattr(rspb.spe, "_newton_search", counting)
    return starts


def test_newton_proposals_certify_and_none_bail(monkeypatch):
    proposals = _counting_newton(monkeypatch)
    calls = _counting_solves(monkeypatch)
    starts = _counting_searches(monkeypatch)
    for label, channel in NEWTON_CHANNELS[:6]:
        p = uniform_dist(channel.input_size)
        low, high = _rate_endpoints(p, channel)
        for frac in RATE_FRACTIONS:
            calls.clear()
            starts.clear()
            pt = spe_parametric(p, channel, low + frac * (high - low))
            # a certified proposal is the point, with no cold solve
            assert calls == []
            rho, q = proposals[-1]
            assert pt.rho_star == rho
            assert pt.mean.masses.tobytes() == FiniteDist(q).masses.tobytes()
            # full-support rows (bsc, the Dirichlet channels) have no order-0
            # law start, so their one search starts at the sqrt-secant order
            if label not in ("bec", "z"):
                assert len(starts) == 1, (label, frac)
    # bec and z start from their order-0 rate law, and a step that would
    # leave (0, 1) is damped instead of ending the search
    assert None not in proposals


def test_zero_laden_scan_counts(monkeypatch):
    # ROADMAP item 10's scan on s = 0-1: `channel_with_zeros(default_rng(s))`,
    # 20 draws each, uniform input, six rate fractions. A search from the
    # order-0 law's start that gives up runs again from the sqrt-secant order
    proposals = _counting_newton(monkeypatch)
    calls = _counting_solves(monkeypatch)
    errors = 0
    for seed in range(2):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            channel = channel_with_zeros(rng)
            p = uniform_dist(channel.input_size)
            low, high = _rate_endpoints(p, channel)
            for frac in (1e-3, 0.05, 0.25, 0.5, 0.75, 0.995):
                try:
                    spe_parametric(p, channel, low + frac * (high - low))
                except NonConvergenceError:
                    errors += 1
    assert len(proposals) == 240
    # the error is draw 0-8 at fraction 1e-3, a fixed point of Brent's search
    assert (proposals.count(None), len(calls), errors) == (14, 128, 1)


def test_bec_law_start_bail_certifies_from_the_secant_start(monkeypatch):
    # the search from the order-0 law's start (0.395 against rho* = 0.209)
    # diverges; the one from the sqrt-secant order certifies with no solve
    channel, rate = bec(0.14740149), 0.20470333447689654
    calls = _counting_solves(monkeypatch)
    starts = _counting_searches(monkeypatch)
    pt = spe_parametric(U2, channel, rate)
    assert calls == []
    assert len(starts) == 2 and starts[0] > 0.39
    ends = _rate_endpoints(U2, channel)
    rho, sol = _brent_point(U2, channel, rate, ends)
    assert abs(pt.rho_star - rho) <= 1e-9 * rho
    assert abs(pt.exponent - sol.tilted_exponent) <= 1e-8


def _halved(rho, step):
    """The damping `_damped` replaces: halve the step until the order stays
    in (0, 1), and count the halvings."""
    step, k = step.copy(), 0
    while not 0.0 < rho + float(step[-1]) < 1.0:
        step *= 0.5
        k += 1
    return step, k


def test_damped_step_is_the_halving_loop_bit_for_bit():
    tiny = np.finfo(float).tiny
    rng = np.random.default_rng(3)
    rhos = np.concatenate([rng.uniform(0.0, 1.0, 200),
                           10.0 ** rng.uniform(-300.0, -1.0, 200),
                           1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 200),
                           [1e-300, 1.0 - 2.0**-53, 0.5]])
    subnormal = 0
    for rho in rhos:
        size = int(rng.integers(1, 6))
        step = rng.choice([-1.0, 1.0], size + 1) * 10.0 ** rng.uniform(-320.0, 300.0, size + 1)
        got, k = _damped(float(rho), step)
        want, halvings = _halved(float(rho), step)
        assert k == halvings, rho
        assert 0.0 < rho + got[-1] < 1.0
        # a power of two scales exactly, except where an entry turns
        # subnormal: k halvings round it k times, one scaling once
        moved = got != want
        assert (np.abs(got[moved]) < tiny).all() and (np.abs(want[moved]) < tiny).all(), rho
        assert not moved[-1], rho
        subnormal += moved.any()
    # the exception occurs: 11 * 2^-1074 halved 3 times rounds 5.5 to 6 and
    # 1.5 to 2, where one scaling rounds 11 / 8 to 1
    assert subnormal > 0
    step = np.array([11 * 5e-324, 2.0])
    assert _halved(0.5, step)[0].tolist() == [2 * 5e-324, 0.25]
    assert _damped(0.5, step)[0].tolist() == [5e-324, 0.25]
    # an order step that keeps inside is not scaled
    inside = step / 8.0
    assert _damped(0.5, inside) == (inside, 0)


def _outside(rho, p, channel, q):
    """(g, TV, f, rate, exponent) at a mean q, from the public divergence and
    tilt of `measures` alone: the Frank-Wolfe gap g = max_y T(q)(y)/q(y) - 1
    over the outputs p W reaches, T(q) = sum_x p(x) tilt_rho(W(x), q), the TV
    of that map step, f(q) = sum_x p(x) D_rho(W(x) || q) and the tilted pair
    D_1(tilt || q | p), D_1(tilt || W | p)."""
    mean = FiniteDist(q)
    used = [(m, row, tilted_measure(rho, row, mean))
            for m, row in zip(p.masses, channel.rows) if m > 0]
    t = sum(m * tilt.masses for m, _, tilt in used)
    reached = p.masses @ channel.row_matrix() > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        gap = float(np.max(t[reached] / q[reached])) - 1.0
    return (gap, 0.5 * float(np.abs(t - q).sum()),
            math.fsum(m * renyi_divergence(rho, row, mean) for m, row, _ in used),
            math.fsum(m * renyi_divergence(1.0, tilt, mean) for m, _, tilt in used),
            math.fsum(m * renyi_divergence(1.0, tilt, row) for m, row, tilt in used))


def test_near_face_mean_is_refused_and_the_cold_mean_accepted():
    # the mean on which a warm-started solve once stopped after one step: its
    # TV step is below the 1e-12 stop rule, but its Frank-Wolfe gap is not
    rho, q = 0.12753814912356204, np.array([1.0 - 1e-14, 1e-14])
    gap, tv = _outside(rho, U2, NEAR_FACE, q)[:2]
    assert tv < DEFAULT_FP_TOL and gap > 1.0
    assert _certified_mean(rho, U2, NEAR_FACE, q) is None
    # a mean that vanishes where p W does not has no finite gap
    assert _certified_mean(rho, U2, NEAR_FACE, np.array([1.0, 0.0])) is None
    cold = augustin_fixed_point(rho, U2, NEAR_FACE).mean.masses
    assert _outside(rho, U2, NEAR_FACE, cold)[0] <= DEFAULT_FP_TOL
    sol = _certified_mean(rho, U2, NEAR_FACE, cold)
    assert sol.mean.masses.tobytes() == cold.tobytes()
    assert sol.iterations == 1 and sol.residual <= DEFAULT_FP_TOL


def test_accepted_points_are_enclosed_from_outside(monkeypatch):
    # every point that takes no fixed point is checked with `measures` and the
    # oracle alone: its gap certifies, its TV step is within the gap, I_rho
    # lies in [f - max(g, 0), f], the rate and exponent hold at its mean, and
    # its solution's gap and moments are those of the tilts `measures` forms
    eps = np.finfo(float).eps
    proposals = _counting_newton(monkeypatch)
    calls = _counting_solves(monkeypatch)
    certified = []
    certify = rspb.spe._certified_mean

    def recording(*args):
        certified.append(certify(*args))
        return certified[-1]

    monkeypatch.setattr(rspb.spe, "_certified_mean", recording)
    accepted = 0
    for label, channel in NEWTON_CHANNELS:
        p = uniform_dist(channel.input_size)
        low, high = _rate_endpoints(p, channel)
        for frac in RATE_FRACTIONS:
            rate = low + frac * (high - low)
            calls.clear()
            pt = spe_parametric(p, channel, rate)
            if calls:
                # a point that is not accepted is a Newton bail
                assert proposals[-1] is None, (label, frac)
                continue
            accepted += 1
            rho = pt.rho_star
            outside_gap, tv, f, tilted_rate, exponent = _outside(rho, p, channel, pt.mean.masses)
            assert outside_gap <= DEFAULT_FP_TOL, (label, frac)
            # rounding leaves some gaps just below 0
            gap = max(outside_gap, 0.0)
            assert tv <= gap + 4 * eps, (label, frac)
            # D_rho divides by rho - 1, which scales its rounding
            ulps = 8 * eps / (1.0 - rho)
            info = _augustin_information(np.array([rho]), p.masses, channel.row_matrix())[0]
            assert f - gap - ulps <= info <= f + ulps, (label, frac)
            assert _rate_met(rho, abs(tilted_rate - rate)), (label, frac)
            assert abs(exponent - pt.exponent) <= 8 * eps * max(1.0, exponent), (label, frac)
            sol = certified[-1]
            assert sol.mean.masses.tobytes() == pt.mean.masses.tobytes(), (label, frac)
            # each tilt's exponent rounds like eps |ln q|, and exp makes that a
            # relative error of T(q)/q: 12 ulps of 1 at a mass of 2e-18
            log_scale = np.abs(np.log(pt.mean.masses[pt.mean.masses > 0])).max()
            assert abs(sol.gap - outside_gap) <= 8 * eps * max(1.0, log_scale), (label, frac)
            moments = [tilted_log_moments(rho, row, pt.mean) for row in channel.rows]
            a2 = sum(m * moment[1] for m, moment in zip(p.masses, moments))
            a3 = sum(m * moment[2] for m, moment in zip(p.masses, moments))
            assert pt.a2 == pytest.approx(a2, rel=1e-14, abs=0.0), (label, frac)
            assert pt.a3 == pytest.approx(a3, rel=1e-14, abs=0.0), (label, frac)
            cold = augustin_fixed_point(rho, p, channel)
            assert abs(pt.exponent - cold.tilted_exponent) <= EXPONENT_CONSISTENCY_TOL
    assert accepted == 73


@pytest.mark.parametrize("label, channel", NEWTON_CHANNELS[:3],
                         ids=[c[0] for c in NEWTON_CHANNELS[:3]])
def test_each_rate_of_bsc_bec_z_takes_one_solve(monkeypatch, label, channel):
    # no solve where the proposal certifies; refused, one solve at Newton's order
    calls = _counting_solves(monkeypatch)
    low, high = _rate_endpoints(U2, channel)
    for want in ([0, 0, 0, 0], [1, 1, 1, 1]):
        counts = []
        for frac in RATE_FRACTIONS:
            calls.clear()
            spe_parametric(U2, channel, low + frac * (high - low))
            counts.append(len(calls))
        assert counts == want
        _refusing_certificate(monkeypatch)


def test_newton_start_keeps_full_support_orders_bit_for_bit():
    # the sqrt-secant start still serves channels whose rows all reach every
    # output, so these orders are the bits they had before the order-0 start.
    # The 3x4 exponent is read at Newton's mean instead of a cold solve's: it
    # moved by -9.6e-16 (139 ulps) from 0x1.811dc79ef4044p-5, toward the value
    # at a mean iterated to a 1e-14 error bound
    assert spe_parametric(U2, bsc(0.1), 0.1308120).rho_star.hex() == "0x1.fffffaabc1f9cp-2"
    pt = spe_parametric(uniform_dist(3), random_channel(np.random.default_rng(4), 3, 4), 0.05)
    assert pt.rho_star.hex() == "0x1.e56de0ed5b3e3p-2"
    assert pt.exponent.hex() == "0x1.811dc79ef3fb9p-5"


def test_newton_bail_runs_brent_from_the_full_bracket(monkeypatch):
    # with no proposal, the search is Brent's alone on (0, I_0) and (1, I_1),
    # whether Newton is skipped or numpy finds each of its systems singular
    channel = bec(0.3)
    ends = _rate_endpoints(U2, channel)
    rate = 0.5 * (ends[0] + ends[1])
    rho, sol = _brent_point(U2, channel, rate, ends)
    singular = []

    def refusing(*args):
        singular.append(args)
        raise np.linalg.LinAlgError("Singular matrix")

    for bail in ("skipped", "singular"):
        with monkeypatch.context() as patch:
            if bail == "skipped":
                patch.setattr(rspb.spe, "_newton_order", lambda *args: None)
            else:
                patch.setattr(rspb.spe.np.linalg, "solve", refusing)
            proposals = _counting_newton(patch)
            calls = _counting_solves(patch)
            pt = spe_parametric(U2, channel, rate)
        assert proposals == [None] and len(calls) > 1, bail
        assert pt.rho_star == rho, bail
        assert pt.exponent == sol.tilted_exponent, bail
    # bec searches from its order-0 law's start, then from the sqrt-secant order
    assert len(singular) == 2


@pytest.mark.parametrize("channel", [bsc(0.1), bec(0.3)], ids=["bsc", "bec"])
def test_rejected_proposal_narrows_the_bracket_for_brent(monkeypatch, channel):
    # a proposal off the root whose mean certifies is read from that mean, with
    # no solve at its order; it fails the stop rule, every later probe lies in
    # the bracket it leaves, and the search goes on exactly as Brent does from
    # a cold first probe at that order
    ends = low, high = _rate_endpoints(U2, channel)
    proposal = []
    monkeypatch.setattr(rspb.spe, "_newton_order", lambda *args: proposal[-1])
    calls = _counting_solves(monkeypatch)
    for frac in (1e-3, 0.05, 0.5, 0.9):
        rate = low + frac * (high - low)
        first = 1.01 * _brent_point(U2, channel, rate, ends)[0]
        assert 0.0 < first < 1.0
        # the mean at the proposed order certifies, but its rate misses
        off = augustin_fixed_point(first, U2, channel)
        assert _certified_mean(first, U2, channel, off.mean.masses) is not None
        proposal.append((first, off.mean.masses))
        calls.clear()
        pt = spe_parametric(U2, channel, rate)
        assert calls, frac
        if off.tilted_rate < rate:
            assert all(call[0] > first for call in calls), frac
        else:
            assert all(call[0] < first for call in calls), frac
        cold = augustin_fixed_point(pt.rho_star, U2, channel)
        assert _rate_met(pt.rho_star, abs(cold.tilted_rate - rate)), frac
        rho, sol = _brent_point(U2, channel, rate, ends, first)
        assert pt.rho_star == rho, frac
        assert pt.exponent == sol.tilted_exponent, frac
        assert pt.mean.masses.tobytes() == sol.mean.masses.tobytes(), frac


def test_accepted_first_probe_is_the_only_probe():
    calls = []

    def rate_at(rho):
        calls.append(rho)
        return rho * rho, "state"

    assert _solve_components([(1, (0.0, 1.0), rate_at)], 0.25, first=0.5) == (0.5, ["state"])
    assert calls == [0.5]


def test_spent_bracket_returns_the_probe_nearest_the_target():
    # the rate jumps over the target at order 0.5, so no probe meets it: the
    # bracket closes on the jump, partly by plain halving, and once it is
    # spent the probe with the smallest residual comes back
    probes = {}

    def rate_at(rho):
        rate = 0.2 * rho if rho < 0.5 else 1.0
        probes[rho] = rate
        return rate, "state"

    rho, states = _solve_components([(1, (0.0, 1.0), rate_at)], 0.25)
    assert rho == min(probes, key=lambda order: abs(probes[order] - 0.25))
    assert states == ["state"]
    assert 0.0 < 0.5 - rho < 1e-14


def _toy(probes, name, rate):
    """A component's rate_at on a toy rate function, its state the name;
    each probe is recorded in probes as (name, order)."""
    def rate_at(rho):
        probes.append((name, rho))
        return rate(rho), name
    return rate_at


@pytest.mark.parametrize("target, scale", [(0.5, 1.0), (10.0, 10.0), (75.0, 60.0)])
def test_solve_components_weights_counts_and_scales_the_stop_rule(monkeypatch, target, scale):
    # 50 letters of rate rho^2 and 10 of rate 4 rho: the bracket is the
    # counted ends (0, 50 + 40), each probe adds count * rate over the two
    # distinct components, and the stop rule reads the residual over
    # min(max(1, |target|), 60)
    probes, stops = [], []
    met = rspb.spe._rate_met

    def recording(rho, residual):
        stops.append((rho, residual))
        return met(rho, residual)

    monkeypatch.setattr(rspb.spe, "_rate_met", recording)
    components = [(50, (0.0, 1.0), _toy(probes, "square", lambda r: r * r)),
                  (10, (0.0, 4.0), _toy(probes, "line", lambda r: 4.0 * r))]
    rho, states = _solve_components(components, target)
    assert states == ["square", "line"]
    assert [name for name, _ in probes] == ["square", "line"] * len(stops)
    for probe_rho, residual in stops:
        total = 50 * (probe_rho * probe_rho) + 10 * (4.0 * probe_rho)
        assert residual == abs(total - target) / scale
    assert stops[-1][0] == rho and met(*stops[-1])


def test_solve_components_one_component_stops_on_the_absolute_residual(monkeypatch):
    # one component of count 1 stops on `_rate_met` of |rate - target|,
    # whatever the target's size, at the first probe that meets it
    stops = []
    met = rspb.spe._rate_met

    def recording(rho, residual):
        stops.append((rho, residual))
        return met(rho, residual)

    monkeypatch.setattr(rspb.spe, "_rate_met", recording)
    probes = []
    rho, (state,) = _solve_components([(1, (0.0, 20.0), _toy(probes, "line", lambda r: 20.0 * r))],
                                      10.0)
    assert state == "line"
    assert stops == [(r, abs(20.0 * r - 10.0)) for _, r in probes]
    assert [met(*stop) for stop in stops] == [False] * (len(stops) - 1) + [True]
    assert rho == stops[-1][0]


def test_solve_components_checks_the_summed_range():
    line, flat = _toy([], "line", lambda r: r), _toy([], "flat", lambda r: 0.5)
    # two letters of range (0, 1) hold 1.5, which one letter's range does not
    rho, _ = _solve_components([(2, (0.0, 1.0), line)], 1.5)
    assert rho == pytest.approx(0.75, abs=1e-12)
    for target in (0.0, 2.0, math.nan):
        with pytest.raises(RateOutOfRangeError) as err:
            _solve_components([(2, (0.0, 1.0), line)], target)
        assert (err.value.low, err.value.high) == (0.0, 2.0)
    with pytest.raises(DegenerateChannelError):
        _solve_components([(3, (0.5, 0.5), flat), (1, (0.0, 0.0), flat)], 1.5)


def test_solve_components_accepts_a_first_probe():
    probes = []
    components = [(2, (0.0, 1.0), _toy(probes, "square", lambda r: r * r)),
                  (1, (0.0, 2.0), _toy(probes, "line", lambda r: 2.0 * r))]
    # at order 0.5 the rates are 0.25 and 1: the first probe meets 2 * 0.25 + 1
    assert _solve_components(components, 1.5, first=0.5) == (0.5, ["square", "line"])
    assert probes == [("square", 0.5), ("line", 0.5)]


# The rate range is computed afresh for every point, with no state kept
# between calls: rates asked of one channel object in any order, and inputs
# alternating on it, must give every bit a freshly built channel gives.
MEMO_CHANNELS = [c for c in NEWTON_CHANNELS
                 if c[0] in ("bsc", "bec", "z", "d8x16", "near-face", "zeros0", "zeros1")]
MEMO_FRACTIONS = (1e-3, 0.05, 0.2, 0.5, 0.8, 0.95, 0.995)


def _outcome(p, channel, rate):
    """Every bit of the point at the rate, or the name of the error it raises."""
    try:
        pt = spe_parametric(p, channel, rate)
    except PreconditionError as exc:
        return type(exc).__name__
    return (pt.rate.hex(), pt.rho_star.hex(), pt.exponent.hex(), pt.slope.hex(),
            pt.mean.masses.tobytes())


def _fresh(channel):
    return DiscreteChannel(channel.rows)


@pytest.mark.parametrize("label, channel", MEMO_CHANNELS, ids=[c[0] for c in MEMO_CHANNELS])
def test_rates_on_one_channel_match_fresh_channels_bit_for_bit(label, channel):
    p = uniform_dist(channel.input_size)
    low, high = _rate_endpoints(p, _fresh(channel))
    order = np.random.default_rng(24).permutation(len(MEMO_FRACTIONS))
    for frac in np.asarray(MEMO_FRACTIONS)[order]:
        rate = low + frac * (high - low)
        assert _outcome(p, channel, rate) == _outcome(p, _fresh(channel), rate), frac


def test_alternating_inputs_on_one_channel_get_their_own_endpoints():
    channel = random_channel(np.random.default_rng(5), 3, 4)
    inputs = (uniform_dist(3), FiniteDist(np.array([0.5, 0.3, 0.2])))
    fresh = [_rate_endpoints(p, _fresh(channel)) for p in inputs]
    for _ in range(2):
        for p, want in zip(inputs, fresh):
            assert _rate_endpoints(p, channel) == want
            rate = 0.5 * (want[0] + want[1])
            assert _outcome(p, channel, rate) == _outcome(p, _fresh(channel), rate)



def _disjoint_draws():
    """The `channel_with_zeros` draws (default_rng(s), s = 0-9, 20 each) whose
    rows share no output, so that their rate ranges start above 0, labelled
    "s-k" for draw k of seed s."""
    draws = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for k in range(20):
            channel = channel_with_zeros(rng)
            if not (channel.row_matrix() > 0).all(axis=0).any():
                draws.append((f"{seed}-{k}", channel))
    return draws


DISJOINT_DRAWS = _disjoint_draws()
# the draws whose fixed point at uniform input and order 1e-6 is not certified
LOW_PROBE_FAILS = {"0-4", "0-5", "0-8", "0-14", "0-19", "2-0", "3-9", "3-18", "4-18",
                   "5-17", "6-4", "6-8", "6-14", "6-19", "7-13", "8-10", "8-13"}


def _order_zero(p, channel):
    return rspb.augustin._order_zero_information(p.masses, channel.row_matrix())


def test_order_zero_end_certifies_on_every_disjoint_draw():
    assert len(DISJOINT_DRAWS) == 31
    for label, channel in DISJOINT_DRAWS:
        p = uniform_dist(channel.input_size)
        low = _order_zero(p, channel)
        assert low > 0.0, label
        assert _rate_endpoints(p, channel) == (
            low, augustin_fixed_point(1.0, p, channel).information), label
        if label in LOW_PROBE_FAILS:
            with pytest.raises(NonConvergenceError):
                augustin_fixed_point(1e-6, p, channel)
            continue
        # the information grows with the order from its order-0 limit
        assert 0.0 <= augustin_fixed_point(1e-6, p, channel).information - low <= 4e-6, label


def test_draws_without_a_low_probe_solve_agree_with_the_oracle():
    failing = [(label, ch) for label, ch in DISJOINT_DRAWS if label in LOW_PROBE_FAILS]
    assert len(failing) == len(LOW_PROBE_FAILS)
    for label, channel in failing:
        p = uniform_dist(channel.input_size)
        low, high = _rate_endpoints(p, channel)
        rate = 0.5 * (low + high)
        exponent = spe_parametric(p, channel, rate).exponent
        assert abs(exponent - brute_spe(p, channel, rate, 256)) <= 1e-10 * exponent, label


@pytest.mark.parametrize("rows, value", [
    ([[0.3, 0.7, 0.0, 0.0], [0.0, 0.0, 0.6, 0.4]], math.log(2.0)),
    ([[0.5, 0.5, 0.0], [0.0, 0.2, 0.8], [0.9, 0.0, 0.1]], math.log(1.5)),
], ids=["disjoint", "cycle"])
def test_order_zero_closed_forms(rows, value):
    channel = DiscreteChannel(tuple(FiniteDist(np.array(r)) for r in rows))
    assert _order_zero(uniform_dist(channel.input_size), channel) == pytest.approx(
        value, abs=1e-12)


def test_uncertified_order_zero_end_raises(monkeypatch):
    # the start p W, handed back unsolved, is not the order-0 mean of the cycle
    def unsolved(r_lw, one_r, weights, q, tol, max_iter):
        return q, math.inf, 0

    monkeypatch.setattr(rspb.augustin, "_solve", unsolved)
    channel = DiscreteChannel(tuple(FiniteDist(np.array(r)) for r in
                                    ([0.5, 0.5, 0.0], [0.0, 0.2, 0.8], [0.9, 0.0, 0.1])))
    with pytest.raises(NonConvergenceError):
        _order_zero(uniform_dist(3), channel)


def _split_and_permuted(rng, rows, p):
    """The channel with each output y split into fractions t_y and 1 - t_y,
    t_y ~ U(0.1, 0.9), and its inputs and outputs permuted, with p permuted
    alike."""
    t = rng.uniform(0.1, 0.9, size=rows.shape[1])
    split = np.hstack([rows * t, rows * (1.0 - t)])
    inputs, outputs = rng.permutation(len(rows)), rng.permutation(split.shape[1])
    split = split[inputs][:, outputs]
    twin = DiscreteChannel(tuple(FiniteDist(r / r.sum()) for r in split))
    return twin, FiniteDist(p.masses[inputs])


def test_split_and_permuted_channels_keep_the_exponent_and_the_capacity():
    # a split output makes two proportional columns, and no Augustin quantity
    # sees the labels, so the general solvers must not move beyond rounding
    # or their certificates, and every capacity certifies
    rng = np.random.default_rng(2033)
    uncertified = set()
    for k in range(40):
        n_in, n_out = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        rows = rng.dirichlet(np.ones(n_out), size=n_in)
        channel = DiscreteChannel(tuple(FiniteDist(r) for r in rows))
        p = FiniteDist(rng.dirichlet(np.ones(n_in)))
        twin, twin_p = _split_and_permuted(rng, rows, p)
        low, high = _rate_endpoints(p, channel)
        for frac in (0.1, 0.5, 0.9):
            rate = low + frac * (high - low)
            want = spe_parametric(p, channel, rate).exponent
            assert abs(spe_parametric(twin_p, twin, rate).exponent - want) <= 1e-12, (k, frac)
        for rho in (0.3, 0.7):
            cap, twin_cap = augustin_capacity(rho, channel), augustin_capacity(rho, twin)
            if not (cap.certified and twin_cap.certified):
                uncertified.add((k, rho))
            bound = cap.certificate_gap + twin_cap.certificate_gap
            assert abs(cap.capacity - twin_cap.capacity) <= bound, (k, rho)
    assert not uncertified
