import math

import numpy as np
import pytest

import rspb.augustin
import rspb.spe
from rspb.augustin import (
    DEFAULT_FP_TOL,
    ConstraintSet,
    _certified_mean,
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
    _find_order,
    _rate_endpoints,
    _rate_met,
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


def _brent_point(p, channel, rate, ends, bracket=None):
    """The order, rate and solve that Brent's method alone finds, between the
    endpoint solves or on a given (lo, hi) pair of solved (order, rate)."""
    def rate_at(rho):
        sol = augustin_fixed_point(rho, p, channel)
        return sol.tilted_rate, sol

    lo, hi = bracket or ((0.0, ends[0]), (1.0, ends[1]))
    return _find_order(rate_at, rate, lo, hi, lambda rho, r, _: _rate_met(rho, abs(r - rate)))


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
        rho, _, sol = _brent_point(p, channel, rate, ends)
        assert abs(pt.rho_star - rho) <= 1e-9 * rho, frac
        assert abs(pt.exponent - sol.tilted_exponent) <= 1e-8, frac
        if frac <= 0.05:
            brute = brute_spe(p, channel, rate, 256)
            assert brute <= pt.exponent + 1e-10, frac
            assert pt.exponent - brute <= 1e-4, frac


def test_newton_proposals_certify_and_none_bail(monkeypatch):
    proposals = _counting_newton(monkeypatch)
    calls = _counting_solves(monkeypatch)
    for _, channel in NEWTON_CHANNELS[:6]:
        p = uniform_dist(channel.input_size)
        low, high = _rate_endpoints(p, channel)
        for frac in RATE_FRACTIONS:
            calls.clear()
            pt = spe_parametric(p, channel, low + frac * (high - low))
            # a certified proposal is the point, with no cold solve
            assert calls == []
            rho, q = proposals[-1]
            assert pt.rho_star == rho
            assert pt.mean.masses.tobytes() == FiniteDist(q).masses.tobytes()
    # bec and z start from their order-0 rate law, and a step that would
    # leave (0, 1) is damped instead of ending the search
    assert None not in proposals


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
    # with no proposal, the search is Brent's alone on (0, I_0) and (1, I_1)
    channel = bec(0.3)
    ends = _rate_endpoints(U2, channel)
    rate = 0.5 * (ends[0] + ends[1])
    monkeypatch.setattr(rspb.spe, "_newton_order", lambda *args: None)
    calls = _counting_solves(monkeypatch)
    pt = spe_parametric(U2, channel, rate)
    assert len(calls) > 1
    rho, _, sol = _brent_point(U2, channel, rate, ends)
    assert pt.rho_star == rho
    assert pt.exponent == sol.tilted_exponent


@pytest.mark.parametrize("channel", [bsc(0.1), bec(0.3)], ids=["bsc", "bec"])
def test_rejected_proposal_narrows_the_bracket_for_brent(monkeypatch, channel):
    # a proposal off the root whose mean certifies is read from that mean, with
    # no solve at its order; it fails the stop rule, and the search goes on
    # from the bracket it leaves, exactly as Brent alone does on that bracket
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
        assert calls and all(call[0] != first for call in calls), frac
        cold = augustin_fixed_point(pt.rho_star, U2, channel)
        assert _rate_met(pt.rho_star, abs(cold.tilted_rate - rate)), frac
        lo, hi = (0.0, low), (1.0, high)
        off = off.tilted_rate
        bracket = ((first, off), hi) if off < rate else (lo, (first, off))
        rho, _, sol = _brent_point(U2, channel, rate, ends, bracket)
        assert pt.rho_star == rho, frac
        assert pt.exponent == sol.tilted_exponent, frac
        assert pt.mean.masses.tobytes() == sol.mean.masses.tobytes(), frac


def test_accepted_first_probe_is_the_only_probe():
    calls = []

    def rate_at(rho):
        calls.append(rho)
        return rho * rho, "state"

    found = _find_order(rate_at, 0.25, (0.0, 0.0), (1.0, 1.0),
                        lambda rho, r, _: abs(r - 0.25) <= 1e-12, first=0.5)
    assert found == (0.5, 0.25, "state")
    assert calls == [0.5]


def test_spent_bracket_returns_the_probe_nearest_the_target():
    # the rate jumps over the target at order 0.5, so no probe meets it: the
    # bracket closes on the jump, partly by plain halving, and once it is
    # spent the probe with the smallest residual comes back
    probes = []

    def rate_at(rho):
        rate = 0.2 * rho if rho < 0.5 else 1.0
        probes.append((rho, rate))
        return rate, "state"

    rho, rate, state = _find_order(rate_at, 0.25, (0.0, 0.0), (1.0, 1.0), lambda *_: False)
    assert (rho, rate) == min(probes, key=lambda probe: abs(probe[1] - 0.25))
    assert state == "state"
    assert 0.0 < 0.5 - rho < 1e-14


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
# the draws whose fixed point at uniform input and order 1e-6 does not converge
LOW_PROBE_FAILS = {"0-5", "0-8", "0-14", "0-19", "2-0", "3-9", "3-18", "4-18", "5-17",
                   "6-4", "6-14", "6-19", "7-13", "8-10", "8-13"}


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


# Known defect (ROADMAP item 12): on draw 37, a 4 x 3 channel, the capacity
# ascent at order 0.3 stops at its 4000-step cap with gap 4.0e-8 (its split
# twin 7.3e-8) while an input's mass decays toward 0; max_iter=40000 ends at
# gap 1.2e-9, certified.
UNCERTIFIED_SPLIT_CAPACITIES = {(37, 0.3)}


def test_split_and_permuted_channels_keep_the_exponent_and_the_capacity():
    # a split output makes two proportional columns, and no Augustin quantity
    # sees the labels, so the general solvers must not move beyond rounding
    # or their certificates
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
    assert uncertified == UNCERTIFIED_SPLIT_CAPACITIES
