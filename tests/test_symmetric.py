import math
import warnings

import numpy as np
import pytest

import rspb.symmetric
from rspb import augustin
from rspb.augustin import LOW_ORDER_PROBE, augustin_capacity, augustin_fixed_point
from rspb.errors import (
    DegenerateChannelError,
    InvalidOrderError,
    PreconditionError,
    RateOutOfRangeError,
    SymmetryError,
)
from rspb.measures import (
    DiscreteChannel,
    FiniteDist,
    bec,
    bern,
    bsc,
    product_channel,
    tensor_dist,
    uniform_dist,
    zchannel,
)
from rspb.refined import rspb_symmetric
from rspb.spe import _rate_endpoints, spe_parametric
from rspb.symmetric import (
    DEFAULT_ORDER_GRID,
    DEFAULT_SYMMETRY_TOL,
    _column_classes,
    _uniform_center,
    check_renyi_symmetry,
    component_quantities,
    parametric_symmetric,
    symmetric_center,
)

from conftest import channel_with_zeros
from oracle_helpers import symmetry_report_per_order

R_CRIT = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
E_CRIT = 0.25 * math.log(2.5) + 0.75 * math.log(0.75 / 0.9)
C_HALF_BSC01 = -math.log(0.8)
C_HALF_BSC02 = -math.log(0.9)


def test_symmetric_center_bsc():
    center, cap = symmetric_center(0.5, bsc(0.1))
    assert center.allclose(bern(0.5), tol=1e-15)
    assert cap == pytest.approx(C_HALF_BSC01, abs=1e-14)
    center1, cap1 = symmetric_center(1.0, bsc(0.1))
    assert center1.allclose(bern(0.5), tol=1e-15)
    i_one = math.log(2.0) - (-0.1 * math.log(0.1) - 0.9 * math.log(0.9))
    assert cap1 == pytest.approx(i_one, abs=1e-12)


def test_symmetric_center_bec_power_mean():
    # power mean: off-erasure outputs carry 0.7 * 2^(-1/rho) before scaling
    center, cap = symmetric_center(0.5, bec(0.3))
    assert np.allclose(center.masses, [7 / 26, 12 / 26, 7 / 26], atol=1e-14)
    assert cap == pytest.approx(-math.log(0.65), abs=1e-13)
    center1, _ = symmetric_center(1.0, bec(0.3))
    assert np.allclose(center1.masses, [0.35, 0.3, 0.35], atol=1e-15)


def test_center_matches_capacity_search():
    for rho in (0.3, 0.5, 0.9):
        center, cap = symmetric_center(rho, bsc(0.1))
        res = augustin_capacity(rho, bsc(0.1))
        assert cap == pytest.approx(res.capacity, abs=1e-8)
        assert 0.5 * np.abs(center.masses - res.center.masses).sum() <= 1e-8
    center, cap = symmetric_center(0.5, bec(0.3))
    res = augustin_capacity(0.5, bec(0.3))
    assert cap == pytest.approx(res.capacity, abs=1e-8)
    assert 0.5 * np.abs(center.masses - res.center.masses).sum() <= 1e-7


def _channel(rows):
    return DiscreteChannel(tuple(FiniteDist(r) for r in np.asarray(rows, dtype=float)))


CYCLIC4 = _channel([np.roll([0.7, 0.2, 0.06, 0.04], k) for k in range(4)])


def _classes(channel, tol=DEFAULT_SYMMETRY_TOL):
    return _column_classes(channel.row_matrix(), channel.log_row_matrix(), tol)


def test_symmetry_certification():
    assert check_renyi_symmetry(bsc(0.1), tol=1e-9).is_symmetric
    assert check_renyi_symmetry(bec(0.3), tol=1e-9).is_symmetric
    report = check_renyi_symmetry(zchannel(0.5), tol=1e-9)
    assert not report.is_symmetric
    assert report.max_divergence_spread > 1e-9
    assert report.max_center_fixed_point_tv > 1e-9
    # one map step moves the center by at most (exp((1-rho) spread) - 1)/2
    assert report.max_center_fixed_point_tv <= 0.5 * math.expm1(report.max_divergence_spread)


@pytest.mark.parametrize(
    "channel",
    [bsc(0.11), bec(0.3), CYCLIC4, product_channel(bsc(0.1), bec(0.3))],
    ids=["bsc", "bec", "cyclic4", "bsc_x_bec"],
)
def test_certified_centers_are_the_iterated_augustin_means(channel):
    report = check_renyi_symmetry(channel)
    assert report.is_symmetric
    u = uniform_dist(channel.input_size)
    for rho in DEFAULT_ORDER_GRID:
        mean = augustin_fixed_point(float(rho), u, channel).mean.masses
        center = report.center_per_order[float(rho)].masses
        assert 0.5 * np.abs(mean - center).sum() <= 1e-10


def test_symmetric_path_runs_no_fixed_point(monkeypatch):
    calls = []
    solve = augustin._solve

    def counted(*args):
        calls.append(args[0])
        return solve(*args)

    monkeypatch.setattr(augustin, "_solve", counted)
    augustin_fixed_point(0.5, uniform_dist(2), zchannel(0.3))
    assert len(calls) == 1
    calls.clear()
    check_renyi_symmetry(bsc(0.11))
    parametric_symmetric(bec(0.3), 0.25)
    rspb_symmetric([bsc(0.1), bec(0.3), bsc(0.1)], 0.5)
    assert calls == []


DEAD_OUTPUT = _channel([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0]])


def test_dead_output_certifies_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_renyi_symmetry(DEAD_OUTPUT)
    assert report.is_symmetric


def test_underflowed_center_profiles_are_compared_without_nan():
    # at order 1e-6 the BEC center underflows to [0, 1, 0], so both inputs'
    # profiles hold a +inf atom; equal infinities must compare as 0 apart
    # (the suite turns RuntimeWarning into an error)
    report = check_renyi_symmetry(bec(0.3), rho_grid=(1e-6, 0.5))
    assert report.center_per_order[1e-6].masses.tolist() == [0.0, 1.0, 0.0]
    assert report.max_profile_distance == 0.0
    assert report.is_symmetric


REFERENCE_CHANNELS = {
    "bsc": bsc(0.11),
    "bec": bec(0.3),
    "z": zchannel(0.3),
    "cyclic4": CYCLIC4,
    "dirichlet3x5": _channel(np.random.default_rng(5).dirichlet(np.ones(5), size=3)),
    "dead_output": DEAD_OUTPUT,
    # at order 1e-6 the center underflows at two outputs that one input reaches
    "bsc_x_bec": product_channel(bsc(0.1), bec(0.3)),
}
REFERENCE_GRIDS = {
    "default": DEFAULT_ORDER_GRID,
    "tiny_half": (1e-6, 0.5),
    "tiny_mid_one": (1e-6, 0.3, 1.0),
}


@pytest.mark.parametrize("grid", REFERENCE_GRIDS.values(), ids=REFERENCE_GRIDS.keys())
@pytest.mark.parametrize("channel", REFERENCE_CHANNELS.values(), ids=REFERENCE_CHANNELS.keys())
def test_symmetry_report_matches_per_order_reference(channel, grid):
    # the array pass over orders x inputs reports every field bit for bit as
    # one order and one input at a time does, and warns nowhere
    got = check_renyi_symmetry(channel, grid)
    want = symmetry_report_per_order(channel, grid, DEFAULT_SYMMETRY_TOL)
    assert got.is_symmetric == want.is_symmetric
    assert got.checked_orders == want.checked_orders
    assert list(got.center_per_order) == list(want.center_per_order)
    for rho, center in want.center_per_order.items():
        assert got.center_per_order[rho].masses.tobytes() == center.masses.tobytes()
    for field in ("max_divergence_spread", "max_profile_distance", "max_center_fixed_point_tv"):
        assert getattr(got, field).hex() == getattr(want, field).hex(), field


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_center_that_leaves_a_row_no_mass_reads_an_infinite_step():
    # at order 1e-6 these draws' centers underflow to 0 on every output that
    # some input reaches; that input has no tilt, and the map's step reads
    # inf, as the spread and profile distance do, with no warning
    rng = np.random.default_rng(5)
    draws = [channel_with_zeros(rng) for _ in range(120)]
    grid = (1e-6, 0.999999)
    for index in (20, 40, 62, 82, 104):
        got = check_renyi_symmetry(draws[index], grid)
        want = symmetry_report_per_order(draws[index], grid, DEFAULT_SYMMETRY_TOL)
        for field in ("max_divergence_spread", "max_profile_distance", "max_center_fixed_point_tv"):
            assert getattr(got, field) == getattr(want, field) == math.inf, (index, field)


def test_symmetry_report_contents():
    report = check_renyi_symmetry(bsc(0.1))
    assert len(report.checked_orders) == 20
    assert report.max_profile_distance <= 1e-12
    assert report.max_center_fixed_point_tv <= 1e-10
    for rho, center in report.center_per_order.items():
        assert center.allclose(bern(0.5), tol=1e-12)


def test_parametric_symmetric_matches_parametric_solve():
    for rate in (0.08, R_CRIT, 0.25):
        sym = parametric_symmetric(bsc(0.1), rate)
        plain = spe_parametric(uniform_dist(2), bsc(0.1), rate)
        assert sym.rho_star == pytest.approx(plain.rho_star, abs=1e-9)
        assert sym.exponent == pytest.approx(plain.exponent, abs=1e-9)
        assert sym.slope == pytest.approx(plain.slope, abs=1e-9)
        assert sym.slope_certified


def test_parametric_symmetric_anchor():
    point = parametric_symmetric(bsc(0.1), R_CRIT)
    assert point.rho_star == pytest.approx(0.5, abs=1e-9)
    assert point.exponent == pytest.approx(E_CRIT, abs=1e-10)
    assert point.slope == pytest.approx(-1.0, abs=1e-8)


def test_parametric_symmetric_near_capacity():
    c1 = symmetric_center(1.0, bsc(0.1))[1]
    point = parametric_symmetric(bsc(0.1), c1 - 1e-6)
    assert point.exponent < 5e-6


def test_parametric_symmetric_bec_certified():
    point = parametric_symmetric(bec(0.3), 0.25)
    assert point.slope_certified
    # the certification here comes from the non-constant tilted log ratio;
    # the erasure channel's center does move with the order: its erasure
    # output and its two others are two column classes
    comp = component_quantities(point.rho_star, bec(0.3))
    assert comp.tilt_nonconstant
    assert _classes(bec(0.3)) == 2


def test_parametric_symmetric_rejects_asymmetric_and_bad_rate():
    with pytest.raises(SymmetryError):
        parametric_symmetric(zchannel(0.5), 0.05)
    with pytest.raises(RateOutOfRangeError):
        parametric_symmetric(bsc(0.1), 5.0)


def test_flat_rate_range_is_a_degenerate_channel():
    # bsc(0.5) is symmetric, but every order's rate is 0: no interior order,
    # as spe_parametric reports it, not a rate outside an inverted interval
    with pytest.raises(DegenerateChannelError):
        parametric_symmetric(bsc(0.5), 0.1)
    with pytest.raises(DegenerateChannelError):
        rspb_symmetric([bsc(0.5)] * 10, 1.0)


def test_product_additivity_of_capacity_and_center():
    prod = product_channel(bsc(0.1), bsc(0.2))
    center, cap = symmetric_center(0.5, prod)
    assert cap == pytest.approx(C_HALF_BSC01 + C_HALF_BSC02, abs=1e-9)
    c1, _ = symmetric_center(0.5, bsc(0.1))
    c2, _ = symmetric_center(0.5, bsc(0.2))
    assert center.allclose(tensor_dist(c1, c2), tol=1e-12)
    assert check_renyi_symmetry(prod).is_symmetric


def test_component_quantities_input_independent():
    comp = component_quantities(0.5, bsc(0.2))
    tilt_flip = 1.0 / 3.0
    assert comp.rate_term == pytest.approx(
        tilt_flip * math.log(2 * tilt_flip) + (1 - tilt_flip) * math.log(2 * (1 - tilt_flip)),
        abs=1e-12,
    )
    assert comp.a2 == pytest.approx(tilt_flip * (1 - tilt_flip) * math.log(4.0) ** 2, rel=1e-10)


@pytest.mark.parametrize(
    "channel, rate", [(bsc(0.1), R_CRIT), (bec(0.3), 0.25), (CYCLIC4, 0.3)],
    ids=["bsc", "bec", "cyclic4"],
)
def test_single_channel_is_the_one_component_product(channel, rate):
    point = parametric_symmetric(channel, rate)
    rep = rspb_symmetric([channel], rate)
    assert rep.rho_star == point.rho_star
    assert rep.exponent_total == point.exponent
    assert rep.slope_certified == point.slope_certified


def test_component_quantities_rejects_input_dependent_rates():
    with pytest.raises(SymmetryError):
        component_quantities(0.5, zchannel(0.3))


def test_symmetry_preconditions():
    for tol in (-1.0, math.nan):
        with pytest.raises(PreconditionError):
            check_renyi_symmetry(bsc(0.1), tol=tol)
    for rho in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(InvalidOrderError):
            symmetric_center(rho, bsc(0.1))
    with pytest.raises(InvalidOrderError):
        check_renyi_symmetry(bsc(0.1), rho_grid=(0.5, 1.5))


@pytest.mark.parametrize("grid", [(), [], np.array([]), 0.5, [[0.5]]])
def test_order_grid_must_be_a_non_empty_sequence(grid):
    with pytest.raises(PreconditionError, match="non-empty 1-d"):
        check_renyi_symmetry(bsc(0.1), rho_grid=grid)


# symmetric_center's (center masses, capacity) as float.hex(), pinned bit for bit
SYMMETRIC_CENTER_PINS = {
    ("bsc", 0.05): (("0x1.0000000000000p-1", "0x1.0000000000000p-1"), "0x1.7cab4268db131p-6"),
    ("bsc", 0.5): (("0x1.0000000000000p-1", "0x1.0000000000000p-1"), "0x1.a84362dce99c4p-3"),
    ("bsc", 1.0): (("0x1.0000000000000p-1", "0x1.0000000000000p-1"), "0x1.62f37540c4134p-2"),
    ("bec", 0.05): (("0x1.2aaa538e524cap-19", "0x1.ffff6aaad638dp-1", "0x1.2aaa538e524cap-19"),
                    "0x1.038cdbe616754p-4"),
    ("bec", 0.5): (("0x1.13b13b13b13b2p-2", "0x1.d89d89d89d89cp-2", "0x1.13b13b13b13b2p-2"),
                   "0x1.b91f28212ba02p-2"),
    ("bec", 1.0): (("0x1.6666666666667p-2", "0x1.3333333333334p-2", "0x1.6666666666667p-2"),
                   "0x1.f0d90fe91844cp-2"),
    ("z", 0.05): (("0x1.fffff488f116dp-1", "0x1.6ee1dd26fe356p-22"), "0x1.3231d1418138dp-7"),
    ("z", 0.5): (("0x1.d62f59fbd597cp-1", "0x1.4e85302153420p-4"), "0x1.5cf90fd53985dp-4"),
    ("z", 1.0): (("0x1.b333333333333p-1", "0x1.3333333333333p-3"), "0x1.e05dc8009f5c8p-4"),
}


@pytest.mark.parametrize("rho", (LOW_ORDER_PROBE,) + DEFAULT_ORDER_GRID)
@pytest.mark.parametrize("label, channel, symmetric", [
    ("bsc", bsc(0.11), True), ("bec", bec(0.3), True), ("z", zchannel(0.3), False),
    ("cyclic4", CYCLIC4, True)], ids=["bsc", "bec", "z", "cyclic4"])
def test_single_order_center_is_the_grid_center_bit_for_bit(label, channel, symmetric, rho):
    # every order probe takes its center from one power mean, without the
    # grid pass; the default grid's orders end at 1.0
    w_rows, lw = channel.row_matrix(), channel.log_row_matrix()
    want = check_renyi_symmetry(channel, [rho]).center_per_order[rho]
    center, _ = _uniform_center(rho, w_rows, lw)
    assert center.masses.tobytes() == want.masses.tobytes()
    if symmetric:
        got = component_quantities(rho, channel).center
        assert got.masses.tobytes() == want.masses.tobytes()
    center, capacity = symmetric_center(rho, channel)
    assert center.masses.tobytes() == want.masses.tobytes()
    if (label, rho) in SYMMETRIC_CENTER_PINS:
        pin = (tuple(m.hex() for m in center.masses), capacity.hex())
        assert pin == SYMMETRIC_CENTER_PINS[label, rho]


@pytest.mark.parametrize("rho", [0.0, -0.5, 1.5, math.nan])
def test_component_quantities_rejects_orders_outside_the_unit_interval(rho):
    with pytest.raises(InvalidOrderError):
        component_quantities(rho, bsc(0.1))


# ---------------------------------------------------------------------------
# the exact decision from the column classes


def _cyclic(base):
    return np.array([np.roll(base, k) for k in range(len(base))])


GALLAGER = _channel(np.hstack([0.6 * _cyclic([0.5, 0.3, 0.2]), 0.4 * _cyclic([0.7, 0.2, 0.1])]))
# bsc(0.1) with each output split in two: four proportional columns, one class
PROPORTIONAL = _channel([[0.27, 0.63, 0.04, 0.06], [0.03, 0.07, 0.36, 0.54]])


def _perturbed(rows):
    rows = np.array(rows, dtype=float)
    rows[0, :2] += (1e-7, -1e-7)
    return _channel(rows)


@pytest.mark.parametrize("channel, classes", [
    (GALLAGER, 2), (PROPORTIONAL, 1), (DEAD_OUTPUT, 1), (bsc(0.1), 1), (CYCLIC4, 1),
    (bec(0.3), 2), (product_channel(bsc(0.1), bec(0.3)), 2),
], ids=["gallager", "proportional", "dead_output", "bsc", "cyclic4", "bec", "bsc_x_bec"])
def test_symmetric_channels_have_their_column_classes(channel, classes):
    assert _classes(channel) == classes
    assert check_renyi_symmetry(channel).is_symmetric


def test_noise_within_the_tolerance_never_splits_a_class():
    # two cyclic blocks whose columns share their least log ratio, the first
    # block's entries moved by about 1e-13: in a lexicographic sort of the
    # column keys a key of the second class falls between two of the first on
    # 43 of these 50 draws, so neighbours there would split the first class.
    # Grouping against each class's first output keeps the two classes.
    first = 0.6 * _cyclic([0.5, 0.3, 0.2])
    second = 0.4 * _cyclic(np.array([0.5, 0.35, 0.2]) / 1.05)
    rng = np.random.default_rng(0)
    for _ in range(50):
        rows = np.hstack([first * (1 + 1e-13 * rng.standard_normal(first.shape)), second])
        assert _classes(_channel(rows / rows.sum(axis=1, keepdims=True))) == 2


@pytest.mark.parametrize("channel", [_perturbed(CYCLIC4.row_matrix()), zchannel(0.3)],
                         ids=["cyclic4_perturbed", "z"])
def test_asymmetric_channels_are_rejected(channel):
    assert _classes(channel) is None
    assert not check_renyi_symmetry(channel).is_symmetric
    with pytest.raises(SymmetryError, match="component 0 failed symmetry certification"):
        parametric_symmetric(channel, 0.05)


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_symmetric_solve_rejects_a_bad_tolerance(tol):
    with pytest.raises(PreconditionError, match="tol must be non-negative"):
        parametric_symmetric(bsc(0.1), 0.2, tol=tol)


def test_symmetric_solves_run_no_order_grid(monkeypatch):
    calls = []
    certify = rspb.symmetric.check_renyi_symmetry

    def counting(*args, **kwargs):
        calls.append(args)
        return certify(*args, **kwargs)

    monkeypatch.setattr(rspb.symmetric, "check_renyi_symmetry", counting)
    parametric_symmetric(bec(0.3), 0.25)
    rspb_symmetric([bsc(0.1), bec(0.3), bsc(0.1)], 0.5)
    assert calls == []


def test_every_small_bsc_crossover_is_symmetric():
    for p in np.geomspace(1e-12, 0.49, 200):
        assert check_renyi_symmetry(bsc(p)).is_symmetric, p


def _scan_channel(rng, kind):
    """One seeded channel of a kind: cyclic rows, a cyclic channel moved by
    1e-7, Dirichlet rows, two glued cyclic blocks (a Gallager partition),
    bsc x bec, cyclic rows with each output split in two, or exact zeros."""
    n = int(rng.integers(2, 6))
    cyclic = _cyclic(0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n)
    if kind == "cyclic":
        return _channel(cyclic)
    if kind == "perturbed":
        return _perturbed(cyclic)
    if kind == "dirichlet":
        return _channel(rng.dirichlet(np.ones(int(rng.integers(2, 9))), size=n))
    if kind == "gallager":
        a = rng.uniform(0.2, 0.8)
        other = _cyclic(0.9 * rng.dirichlet(np.ones(n)) + 0.1 / n)
        return _channel(np.hstack([a * cyclic, (1 - a) * other]))
    if kind == "product":
        return product_channel(bsc(rng.uniform(0.01, 0.4)), bec(rng.uniform(0.05, 0.8)))
    if kind == "proportional":
        t = rng.uniform(0.1, 0.9, size=n)
        return _channel(np.hstack([cyclic * t, cyclic * (1 - t)]))
    return channel_with_zeros(rng)


SCAN_KINDS = ("cyclic", "perturbed", "dirichlet", "gallager", "product", "proportional", "zeros")
SCAN_CHANNELS = list(REFERENCE_CHANNELS.values()) + [
    _scan_channel(rng, kind)
    for rng in [np.random.default_rng(11)] for _ in range(43) for kind in SCAN_KINDS]


def _centers_stay(report, tol=1e-9):
    masses = np.array([c.masses for c in report.center_per_order.values()])
    return bool(np.all(0.5 * np.abs(masses - masses[0]).sum(axis=1) <= tol))


def test_exact_decision_matches_the_order_grid():
    # on 308 channels, 178 of them symmetric, the decision is the grid's, and
    # the slope flag is the grid's rule: some tilt is non-constant, or the
    # grid centers stay within 1e-9 in total variation. One symmetric draw
    # with zeros is noiseless, with a flat rate range and no point to solve.
    rng = np.random.default_rng(12)
    symmetric = solved = 0
    for channel in SCAN_CHANNELS:
        want = symmetry_report_per_order(channel, DEFAULT_ORDER_GRID, DEFAULT_SYMMETRY_TOL)
        assert check_renyi_symmetry(channel).is_symmetric == want.is_symmetric
        if not want.is_symmetric:
            continue
        symmetric += 1
        low, high = _rate_endpoints(uniform_dist(channel.input_size), channel)
        if high - low <= 1e-9:
            continue
        solved += 1
        point = parametric_symmetric(channel, low + rng.uniform(0.1, 0.9) * (high - low))
        tilt = component_quantities(point.rho_star, channel).tilt_nonconstant
        assert point.slope_certified == (tilt or _centers_stay(want))
    assert (len(SCAN_CHANNELS), symmetric, solved) == (308, 178, 177)


def test_split_and_permuted_outputs_keep_the_decision_and_the_exponent():
    # splitting each output y into fractions t_y and 1 - t_y makes proportional
    # columns, one class, and relabelling changes nothing either
    rng = np.random.default_rng(13)
    for channel in SCAN_CHANNELS:
        rows = channel.row_matrix()
        t = rng.uniform(0.1, 0.9, size=rows.shape[1])
        split = np.hstack([rows * t, rows * (1 - t)])
        split = split[rng.permutation(len(rows))][:, rng.permutation(split.shape[1])]
        twin = _channel(split / split.sum(axis=1, keepdims=True))
        symmetric = _classes(channel) is not None
        assert (_classes(twin) is not None) == symmetric
        if not symmetric:
            continue
        low, high = _rate_endpoints(uniform_dist(channel.input_size), channel)
        if high - low <= 1e-9:
            continue
        rate = low + rng.uniform(0.1, 0.9) * (high - low)
        want = parametric_symmetric(channel, rate).exponent
        assert parametric_symmetric(twin, rate).exponent == pytest.approx(want, rel=1e-11)
