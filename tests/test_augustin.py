import hashlib
import json
import math

import numpy as np
import pytest

import rspb.augustin
import rspb.measures
from rspb.augustin import (
    ConstraintSet,
    _order_zero_capacity,
    augustin_capacity,
    augustin_fixed_point,
    augustin_info_derivative,
    haroutunian_rate,
    read_constraint,
    tilted_kl_pair,
)
from rspb.errors import (
    FeasibilityError,
    InfiniteDivergenceError,
    InvalidOrderError,
    NonConvergenceError,
    PreconditionError,
)
from rspb.measures import (
    DiscreteChannel,
    FiniteDist,
    bec,
    bern,
    bsc,
    conditional_renyi_divergence,
    point_mass,
    renyi_divergence,
    tilted_measure,
    uniform_dist,
    zchannel,
)
from rspb.spe import spe_parametric
from conftest import channel_with_zeros, random_channel, random_dist
from oracle_helpers import fd_derivative_check, tilted_pair_two_passes

# the smallest order these tests solve at
LOW_ORDER = 1e-6
U2 = uniform_dist(2)
I_HALF = -2.0 * math.log(2.0 / math.sqrt(5.0))
I_ONE = math.log(2.0) - (-0.1 * math.log(0.1) - 0.9 * math.log(0.9))
R_CRIT = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)


def test_point_mass_input_gives_channel_row():
    sol = augustin_fixed_point(0.7, point_mass(1, 2), bsc(0.1))
    assert sol.mean.allclose(bern(0.9), tol=1e-12)
    assert sol.information == pytest.approx(0.0, abs=1e-12)


def test_bsc_fixed_point_anchors():
    sol = augustin_fixed_point(0.5, U2, bsc(0.1))
    assert sol.mean.allclose(bern(0.5), tol=1e-12)
    assert sol.information == pytest.approx(I_HALF, abs=1e-12)
    sol1 = augustin_fixed_point(1.0, U2, bsc(0.1))
    assert sol1.mean.allclose(bern(0.5), tol=1e-15)
    assert sol1.information == pytest.approx(I_ONE, abs=1e-12)


def _map_tv(rho, p, channel, mean):
    """Total-variation move of the mean under one application of the map
    q <- sum_x p(x) tilted_measure(rho, W(x), q), evaluated from outside
    the solver."""
    image = sum(p.masses[x] * tilted_measure(rho, channel.rows[x], mean).masses
                for x in p.support)
    return 0.5 * float(np.abs(image - mean.masses).sum())


def test_fixed_point_contract(rng):
    for _ in range(30):
        n_in = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 6))
        rho = float(rng.uniform(0.05, 0.95))
        channel = random_channel(rng, n_in, n_out)
        p = random_dist(rng, n_in)
        sol = augustin_fixed_point(rho, p, channel)
        assert sol.residual <= 1e-12
        assert sol.alt_identity_residual <= 1e-9
        # reported information equals the conditional divergence at the mean
        direct = conditional_renyi_divergence(rho, channel, sol.mean, p)
        assert sol.information == pytest.approx(direct, abs=1e-10)
        # one more application of the map moves the mean by at most tol
        assert _map_tv(rho, p, channel, sol.mean) <= 2e-12


def test_rho_above_one_rejected():
    with pytest.raises(InvalidOrderError):
        augustin_fixed_point(1.2, U2, bsc(0.1))
    with pytest.raises(InvalidOrderError):
        haroutunian_rate(1.5, U2, bsc(0.1))


def test_non_convergence_reports_residual():
    with pytest.raises(NonConvergenceError) as err:
        augustin_fixed_point(0.5, U2, zchannel(0.5), tol=1e-15, max_iter=2)
    assert err.value.residual > 0
    # a solve that takes no step certifies nothing, even from a close start
    with pytest.raises(NonConvergenceError):
        augustin_fixed_point(0.3, U2, zchannel(0.3), max_iter=0)


@pytest.mark.parametrize("tol, max_iter", [(-1.0, 100), (1e-12, -1), (math.nan, 100)])
def test_negative_limits_are_preconditions(tol, max_iter):
    with pytest.raises(PreconditionError):
        augustin_fixed_point(0.3, U2, bsc(0.1), tol=tol, max_iter=max_iter)
    with pytest.raises(PreconditionError):
        augustin_capacity(0.5, bsc(0.1), tol=tol, max_iter=max_iter)


# Dirichlet channels of the sweep benchmark (seed 2 block 1, a 2x3; seed 10
# block 4, a 3x4) whose order-1e-6 mean, iterated from the order-one mixture,
# did not converge in 20000 iterations. Each has a near-zero entry that puts
# the small-order mean far from that mixture.
SWEEP_LOW_ORDER_ROWS = [
    [[0.7036304097860735, 0.0038892483175923327, 0.29248034189633426],
     [0.004424454291186156, 0.8877190755623732, 0.10785647014644066]],
    [[0.02061121861449715, 0.14793864842678608, 0.3908979431290264, 0.4405521898296903],
     [0.18619699564675637, 0.0006788158498823907, 0.39834790939758563, 0.4147762791057757],
     [0.435856339403339, 0.20057177080633815, 0.019924857912492537, 0.3436470318778303]],
]


def _rows_channel(rows):
    return DiscreteChannel(tuple(FiniteDist(np.array(r)) for r in rows))


@pytest.mark.parametrize("rows", SWEEP_LOW_ORDER_ROWS)
@pytest.mark.parametrize("rho", [LOW_ORDER, 1e-4, 1e-3])
def test_low_order_fixed_point_converges(rows, rho):
    channel = _rows_channel(rows)
    p = uniform_dist(channel.input_size)
    sol = augustin_fixed_point(rho, p, channel)
    assert _map_tv(rho, p, channel, sol.mean) <= 1e-10


@pytest.mark.parametrize("rows", SWEEP_LOW_ORDER_ROWS)
@pytest.mark.parametrize("frac", [1e-3, 0.5])
def test_low_order_channels_solve_spe(rows, frac):
    channel = _rows_channel(rows)
    p = uniform_dist(channel.input_size)
    rate = frac * augustin_fixed_point(1.0, p, channel).information
    pt = spe_parametric(p, channel, rate)
    assert 0.0 < pt.rho_star < 1.0


def test_two_sided_divergence_bound(rng):
    # D_rho(W||Q|P) - I_rho >= D_min(1,rho)(mean || Q) for random Q
    for rho in (0.3, 0.8, 1.0):
        channel = random_channel(rng, 3, 4)
        p = random_dist(rng, 3)
        sol = augustin_fixed_point(rho, p, channel)
        for _ in range(50):
            q = random_dist(rng, 4)
            slack = conditional_renyi_divergence(rho, channel, q, p) - sol.information
            lower = renyi_divergence(min(1.0, rho), sol.mean, q)
            assert slack >= lower - 1e-9


def test_derivative_order_one_closed_form():
    # half the input-averaged variance of the log ratio against the mixture
    expected = 0.5 * 0.09 * math.log(9.0) ** 2
    assert augustin_info_derivative(1.0, U2, bsc(0.1)) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.2172508, abs=1e-7)


def test_derivative_point_mass_is_zero():
    assert augustin_info_derivative(0.6, point_mass(0, 2), bsc(0.1)) == pytest.approx(0.0, abs=1e-12)


def test_derivative_matches_finite_difference():
    def info(r):
        return augustin_fixed_point(r, U2, bsc(0.1)).information

    fd = fd_derivative_check(info, 0.5, 1e-4)
    assert augustin_info_derivative(0.5, U2, bsc(0.1)) == pytest.approx(fd, abs=1e-5)


def test_haroutunian_rate_anchors_and_monotone():
    assert haroutunian_rate(0.5, U2, bsc(0.1)) == pytest.approx(R_CRIT, abs=1e-12)
    near_one = haroutunian_rate(1.0 - 1e-9, U2, bsc(0.1))
    assert near_one == pytest.approx(I_ONE, abs=1e-6)
    assert haroutunian_rate(0.4, point_mass(0, 2), bsc(0.1)) == pytest.approx(0.0, abs=1e-12)
    grid = np.linspace(0.05, 0.95, 10)
    vals = [haroutunian_rate(float(r), U2, bsc(0.1)) for r in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_haroutunian_monotone_random(rng):
    channel = random_channel(rng, 3, 3)
    p = random_dist(rng, 3)
    grid = np.linspace(0.1, 0.9, 9)
    vals = [haroutunian_rate(float(r), p, channel) for r in grid]
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_capacity_symmetric_anchor():
    res = augustin_capacity(0.5, bsc(0.1))
    assert res.certified and res.certificate_gap <= 1e-8
    assert res.capacity == pytest.approx(I_HALF, abs=1e-10)
    assert res.center.allclose(bern(0.5), tol=1e-9)
    assert res.optimizer.allclose(uniform_dist(2), tol=1e-6)
    res1 = augustin_capacity(1.0, bsc(0.1))
    assert res1.capacity == pytest.approx(I_ONE, abs=1e-10)


def test_capacity_single_input_channel_is_zero():
    one = DiscreteChannel((bern(0.3),))
    res = augustin_capacity(0.5, one)
    assert res.capacity == pytest.approx(0.0, abs=1e-12)


def test_capacity_single_and_list_constraints():
    single = augustin_capacity(0.5, bsc(0.1), ConstraintSet.single(bern(0.3)))
    direct = augustin_fixed_point(0.5, bern(0.3), bsc(0.1))
    assert single.capacity == pytest.approx(direct.information, abs=1e-12)
    listed = augustin_capacity(
        0.5, bsc(0.1), ConstraintSet.explicit([uniform_dist(2), point_mass(0, 2)])
    )
    assert listed.capacity == pytest.approx(I_HALF, abs=1e-12)
    assert listed.optimizer.allclose(uniform_dist(2))


@pytest.mark.parametrize("constraint", [
    None, ConstraintSet.cost([0.0, 1.0], 0.3), ConstraintSet.explicit([bern(0.3), U2, bern(0.6)]),
], ids=["all", "cost", "list"])
def test_capacity_carries_its_solution(constraint):
    # the capacity and center are read off the solution at the optimizer,
    # whose Frank-Wolfe gap bounds I_rho there from below
    res = augustin_capacity(0.5, zchannel(0.3), constraint)
    assert res.capacity == res.solution.information
    assert res.center is res.solution.mean
    assert math.isfinite(res.solution.gap)
    if constraint is not None and constraint.kind == "list":
        assert res.optimizer is U2
        assert res.capacity == augustin_fixed_point(0.5, U2, zchannel(0.3)).information


def test_capacity_z_channel_certified():
    # order-one capacity of the half-flip Z channel is ln(5/4)
    res = augustin_capacity(1.0, zchannel(0.5), tol=1e-8)
    assert res.certified
    assert res.capacity == pytest.approx(math.log(1.25), abs=1e-8)
    res_half = augustin_capacity(0.5, zchannel(0.5), tol=1e-8)
    assert res_half.certified
    gap = max(
        renyi_divergence(0.5, row, res_half.center) for row in zchannel(0.5).rows
    ) - res_half.capacity
    assert gap <= 1e-8


def test_capacity_cost_constraint_binds():
    # forbid most of the informative input; capacity drops accordingly
    costs = [0.0, 1.0]
    res = augustin_capacity(
        1.0, bsc(0.1), ConstraintSet.cost(costs, 0.2), tol=1e-7
    )
    assert res.certified
    assert res.optimizer.masses[1] == pytest.approx(0.2, abs=1e-6)
    free = augustin_capacity(1.0, bsc(0.1))
    assert res.capacity < free.capacity
    # slack budget reduces to the unconstrained optimum
    slack = augustin_capacity(1.0, bsc(0.1), ConstraintSet.cost(costs, 0.9), tol=1e-7)
    assert slack.capacity == pytest.approx(free.capacity, abs=1e-7)


def test_cost_constraint_feasibility():
    with pytest.raises(FeasibilityError):
        ConstraintSet.cost([1.0, 2.0], 0.5)


def test_constraint_file_parsing(tmp_path):
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"kind": "all"}))
    assert read_constraint(f).kind == "all"
    f.write_text(json.dumps({"kind": "cost", "costs": [0.0, 1.0], "budget": 0.5}))
    c = read_constraint(f)
    assert c.kind == "cost" and c.budget == 0.5
    f.write_text(json.dumps({"kind": "mystery"}))
    with pytest.raises(ValueError):
        read_constraint(f)


@pytest.mark.parametrize("costs", [[0.0, math.nan], [0.0, math.inf], [], [[0.0, 1.0]]],
                         ids=["nan", "inf", "empty", "2-d"])
def test_malformed_costs_are_rejected_up_front(costs):
    with pytest.raises(PreconditionError, match="costs must be finite"):
        ConstraintSet.cost(costs, 0.5)


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, None])
def test_non_finite_budget_is_rejected_up_front(budget):
    with pytest.raises(PreconditionError, match="budget must be finite"):
        ConstraintSet.cost([0.0, 1.0], budget)


def test_empty_constraint_list_is_infeasible():
    with pytest.raises(FeasibilityError):
        ConstraintSet.explicit([])


def test_capacity_ascent_work_is_pinned(monkeypatch):
    """The ascent on R8x16 at order 0.5 evaluates the power mean at most 90
    times, so that a step-rule regression shows as a count: its first-order
    step alone takes 771, with the Newton finish 84. The ascent evaluates on
    W^rho formed once per search (`_power_mean_on`); the fixed point's start
    goes through `_power_mean` in `measures` and is not counted."""
    calls = []
    power_mean_on = rspb.augustin._power_mean_on

    def counting(*args):
        calls.append(args[0])
        return power_mean_on(*args)

    monkeypatch.setattr(rspb.augustin, "_power_mean_on", counting)
    res = augustin_capacity(0.5, channel_of(R8X16))
    assert res.certified
    assert 0 < len(calls) <= 90


def _recording_proposals(monkeypatch, propose=None):
    """Route the ascent's Newton proposals through `propose` (the solver's own
    by default) and record each (log-masses, proposal) pair."""
    propose = propose or rspb.augustin._newton_proposal
    proposals = []

    def recording(rho, w_rho, penalty, lp):
        x = propose(rho, w_rho, penalty, lp)
        proposals.append((lp, x))
        return x

    monkeypatch.setattr(rspb.augustin, "_newton_proposal", recording)
    return proposals


# the census draw (28, 10), rounded: inputs 1 and 3 have equal rows
TWIN_ROWS = [[0.874, 0.0, 0.126], [0.0, 1.0, 0.0], [0.18, 0.402, 0.418], [0.0, 1.0, 0.0],
             [0.796, 0.0, 0.204]]


@pytest.mark.parametrize("rho", [0.05, 0.5, 0.95])
def test_capacity_with_equal_rows_steps_them_as_one_input(monkeypatch, rho):
    # apart, two equal rows on the face would make the bordered Newton system
    # singular; as one input the step is taken, keeps their mass ratio, and
    # the capacity certifies (the first-order step alone stops at the cap on
    # the unrounded draw)
    channel = channel_of(TWIN_ROWS)
    proposals = _recording_proposals(monkeypatch)
    res = augustin_capacity(rho, channel)
    assert_capacity_certified(rho, channel, res, 1e-8)
    assert proposals
    for lp, x in proposals:
        assert min(lp[1], lp[3]) > math.log(rspb.augustin.NEWTON_FACE)
        assert np.isfinite(x).all()
        assert x[1] - x[3] == pytest.approx(lp[1] - lp[3], abs=1e-12)


def test_a_singular_newton_system_is_skipped():
    # at order 0.01, b^(1/rho - 2) underflows to 0 on the outputs of the two
    # light inputs, so their rows of the system are equal: 0 but the border
    lp = np.log([0.5, 0.5 - 2e-9, 1e-9, 1e-9])
    assert rspb.augustin._newton_proposal(0.01, np.eye(4), np.zeros(4), lp) is None


def test_a_newton_trial_with_a_nan_value_is_never_kept(monkeypatch):
    # a NaN proposal evaluates to a NaN value, which the keep rule refuses: the
    # ascent ends bit for bit where it ends when every proposal is skipped
    channel = channel_of(R8X16)
    ends = []
    for proposal in (lambda *args: None, lambda rho, w_rho, penalty, lp: np.full_like(lp, np.nan)):
        proposals = _recording_proposals(monkeypatch, proposal)
        res = augustin_capacity(0.5, channel)
        assert proposals and res.certified
        ends.append(res.optimizer.masses.tobytes())
    assert ends[0] == ends[1]


def test_a_non_finite_newton_system_is_skipped():
    # near order one, b^(1/rho - 2) overflows on the output that only the
    # third input, off the face, reaches, and 0 * inf leaves the system NaN
    lp = np.log([0.5, 0.5, 1e-320])
    with np.errstate(over="ignore", invalid="ignore"):
        assert rspb.augustin._newton_proposal(0.999, np.eye(3), np.zeros(3), lp) is None


# ---------------------------------------------------------------------------
# checks made from outside the solvers


def channel_of(rows) -> DiscreteChannel:
    return DiscreteChannel(tuple(FiniteDist(r) for r in np.asarray(rows, dtype=float)))


def mean_residual(rho, p, channel, q):
    """Total variation between q and sum_x p(x) tilt_rho(W(x), q)."""
    center = FiniteDist(q)
    tilts = [m * tilted_measure(rho, row, center).masses
             for m, row in zip(p.masses, channel.rows) if m > 0]
    return 0.5 * float(np.abs(sum(tilts) - q).sum())


def assert_capacity_certified(rho, channel, res, tol, costs=None, budget=None):
    """Bracket the capacity without trusting augustin_capacity.

    Upper end: max_x D_rho(W(x)||center) - C, or under a cost its best
    Lagrangian form, whose minimum over lam >= 0 sits at 0 or where two
    inputs' terms cross. Lower end: the center is positive on the optimizer's
    output support, is its Augustin mean, and C = sum_x p(x) D_rho(W(x)||center).
    """
    p, center = res.optimizer.masses, res.center
    d = np.array([renyi_divergence(rho, row, center) for row in channel.rows])
    upper = d.max()
    if costs is not None:
        costs = np.asarray(costs, dtype=float)
        lams = [0.0] + [(d[i] - d[j]) / (costs[i] - costs[j]) for i in range(d.size)
                        for j in range(i) if costs[i] != costs[j]]
        upper = min(np.max(d - lam * costs) + lam * budget for lam in lams if lam >= 0)
        assert p @ costs <= budget + 1e-9
    assert res.certified
    assert -1e-12 <= upper - res.capacity <= tol
    assert np.all(center.masses[p @ channel.row_matrix() > 0] > 0)
    assert mean_residual(rho, res.optimizer, channel, center.masses) <= 1e-10
    assert float(p[p > 0] @ d[p > 0]) == pytest.approx(res.capacity, abs=1e-8)


R8X16 = np.random.default_rng(0).dirichlet(np.ones(16), size=8)


FACE_TRAPS = {
    # D3x4 of the benchmark's sweep block (21, 0): an extrapolation jump
    # clipped the third mass to 0, where plain steps kept it.
    "D3x4": [
        [0.07166792048537111, 0.6133291993169675, 0.0003136235344389157, 0.3146892566632225],
        [0.011872535223838573, 0.23661461758727959, 0.001953726619693391, 0.7495591205691885],
        [0.3642050281774652, 0.2992398496154449, 0.32621497204521266, 0.010340150161877107],
    ],
    # D4x8 of sweep block (201, 0): trapped the same way at orders up to 0.01,
    # and plain steps alone do not converge at order 1e-6.
    "D4x8": [
        [0.024926844114303803, 0.1057236478646747, 0.07142747477157303, 0.0066176482929810035,
         0.46781953592907055, 0.04682359572760969, 0.03602791747725866, 0.2406333358225285],
        [0.04319212233482996, 0.07496895016007181, 0.14981451067867407, 0.00043504705674356,
         0.29463690841865625, 0.01833288067506834, 0.14469825330636707, 0.27392132736958896],
        [0.069191726932149, 0.13567989920792647, 0.05444586799787507, 0.17330074502638418,
         0.09185559986730893, 0.4021452246605571, 0.06894292698961149, 0.004438009318187948],
        [0.01978883037866928, 0.37739294000833856, 0.07577403925033735, 0.2080468809903106,
         0.007264085280614409, 0.1348400480495381, 0.07593605328528134, 0.10095712275691042],
    ],
}


@pytest.mark.parametrize("name, rho", [
    ("D3x4", 0.02637610819043479), ("D4x8", LOW_ORDER), ("D4x8", 0.01)])
def test_fixed_point_leaves_no_face_of_the_simplex(name, rho):
    channel = channel_of(FACE_TRAPS[name])
    p = uniform_dist(channel.input_size)
    sol = augustin_fixed_point(rho, p, channel)
    assert np.all(sol.mean.masses > 0)
    assert mean_residual(rho, p, channel, sol.mean.masses) <= 1e-10


# Single-order solves pinned bit for bit: the first 128 bits of the SHA-256 of
# the mean's little-endian doubles, the information and the TV of one map step
# at the mean as float.hex, and the iteration count. The zeros and D3x4 solves
# take extrapolation jumps. Recorded with numpy 2.4 on x86-64 with AVX-512;
# numpy's SIMD exp and log may differ in the last bit on other CPU feature
# levels. bsc(0.1) has mirrored rows, so its mean is exactly [0.5, 0.5]. The
# order-1e-6 starts already meet the gap rule, so each of those solves returns
# its start after one map evaluation.
KERNEL_PINS = [
    ("bsc", 0.5, "606e5166986dd9f186277d16e3d18bae", "0x1.c8ff7c79a9a24p-3", 1,
     "0x1.0000000000000p-54"),
    ("R8x16", LOW_ORDER, "0f612d0f45635f05e72509855d459cd5", "0x1.0d35c535ba0f8p-21", 1,
     "0x1.233c000000000p-45"),
    ("R8x16", 0.5, "7b1c1205b12fcea44448bf40a7b9dfab", "0x1.9b90317440f38p-3", 16,
     "0x1.3fd0000000000p-47"),
    ("low0", LOW_ORDER, "3390bacb44b97daaceae412fa471e826", "0x1.4a4ab4ad92286p-20", 1,
     "0x1.4268000000000p-43"),
    ("low1", LOW_ORDER, "5ba803b05ece4ad85bc1603118a285b7", "0x1.8f9cee1e3eea6p-22", 1,
     "0x1.5430000000000p-45"),
    ("zeros", 0.02, "6bcf21fa3512f82c4784f4aa7a04552e", "0x1.6ed75a355b595p-5", 44,
     "0x1.45da7ef55c349p-53"),
    ("D3x4", 0.02637610819043479, "1d7e575a9ef72087f8e30f07fe6c92aa", "0x1.f66f2e0cfc054p-7",
     16, "0x1.e288000000000p-47"),
]
PINNED_CHANNELS = {
    "bsc": lambda: bsc(0.1),
    "R8x16": lambda: channel_of(R8X16),
    "low0": lambda: channel_of(SWEEP_LOW_ORDER_ROWS[0]),
    "low1": lambda: channel_of(SWEEP_LOW_ORDER_ROWS[1]),
    "zeros": lambda: channel_with_zeros(np.random.default_rng(0)),
    "D3x4": lambda: channel_of(FACE_TRAPS["D3x4"]),
}


@pytest.mark.parametrize("name, rho, mean_sha, info, iterations, residual", KERNEL_PINS,
                         ids=[f"{pin[0]}-{pin[1]:g}" for pin in KERNEL_PINS])
def test_fixed_point_is_pinned_bit_for_bit(name, rho, mean_sha, info, iterations, residual):
    channel = PINNED_CHANNELS[name]()
    sol = augustin_fixed_point(rho, uniform_dist(channel.input_size), channel)
    digest = hashlib.sha256(sol.mean.masses.astype("<f8").tobytes()).hexdigest()[:32]
    assert (digest, sol.information.hex(), sol.iterations, sol.residual.hex()) == (
        mean_sha, info, iterations, residual)


@pytest.mark.parametrize("rho", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_capacity_r8x16_certifies(rho):
    channel = channel_of(R8X16)
    res = augustin_capacity(rho, channel, tol=1e-10)
    assert_capacity_certified(rho, channel, res, 1e-10)


def test_capacity_r2x3_low_order_is_not_on_a_face():
    # the same rule at 2x3; an earlier solver reported 0.037620 as certified
    channel = channel_of(np.random.default_rng(0).dirichlet(np.ones(3), size=2))
    res = augustin_capacity(0.05, channel)
    assert_capacity_certified(0.05, channel, res, 1e-8)
    assert 0.034757 <= res.capacity <= 0.035007


def test_capacity_z_channel_cost_certifies():
    costs, budget = [0.0, 1.0], 0.3
    res = augustin_capacity(0.5, zchannel(0.3), ConstraintSet.cost(costs, budget))
    assert_capacity_certified(0.5, zchannel(0.3), res, 1e-8, costs, budget)
    assert res.optimizer.masses[1] == pytest.approx(budget, abs=1e-6)


def test_capacity_random_channels_with_zeros_certify():
    rng = np.random.default_rng(0)
    for _ in range(20):
        channel = channel_with_zeros(rng)
        rho = float(rng.uniform(0.02, 0.98))
        res = augustin_capacity(rho, channel)
        assert_capacity_certified(rho, channel, res, 1e-8)


# (seed, draw) of the census of 800 draws, default_rng(seed) for seeds 0-39
# and 20 draws each by the rule above, whose first-order ascent stopped
# uncertified at its 4000-step cap; the Newton finish certifies them
NEWTON_CENSUS_DRAWS = [(3, 2), (5, 14), (7, 3), (10, 8), (14, 6), (14, 18), (18, 0), (19, 2),
                       (19, 18), (28, 3), (28, 10), (32, 0), (34, 14), (36, 9)]


@pytest.mark.parametrize("seed, draw", NEWTON_CENSUS_DRAWS)
def test_capacity_census_draws_that_stalled_certify(seed, draw):
    rng = np.random.default_rng(seed)
    for _ in range(draw + 1):
        channel = channel_with_zeros(rng)
        rho = float(rng.uniform(0.02, 0.98))
    res = augustin_capacity(rho, channel)
    assert_capacity_certified(rho, channel, res, 1e-8)


@pytest.mark.parametrize("rho", [LOW_ORDER, 0.3, 0.9, 1.0])
@pytest.mark.parametrize("channel", [bsc(0.1), bec(0.3), zchannel(0.3), channel_of(R8X16)],
                         ids=["bsc", "bec", "z", "R8x16"])
def test_solution_carries_its_tilted_pair(rho, channel):
    p = uniform_dist(channel.input_size)
    sol = augustin_fixed_point(rho, p, channel)
    pair = tilted_kl_pair(rho, p, channel, sol.mean.masses)
    assert (sol.tilted_rate, sol.tilted_exponent) == pair


def test_a_row_without_a_tilt_gives_no_tilted_pair():
    # q = [1, 0, 0] leaves the second row no mass: its tilt is NaN, and so is
    # the pair, which once dropped the row and read (0.0, 0.0527)
    rho, q = 0.2193, np.array([1.0, 0.0, 0.0])
    channel = DiscreteChannel((FiniteDist([0.9, 0.1, 0.0]), FiniteDist([0.0, 0.1, 0.9])))
    with pytest.raises(InfiniteDivergenceError):
        tilted_measure(rho, channel.rows[1], FiniteDist(q))
    with pytest.raises(InfiniteDivergenceError):
        tilted_kl_pair(rho, U2, channel, q)
    # the solution there returns, and its NaN gap refuses the point
    sol = rspb.augustin._solution(rho, *rspb.augustin._support_rows(U2, channel), q, 1)
    assert math.isnan(sol.tilted_rate) and math.isnan(sol.tilted_exponent)
    assert math.isnan(sol.gap)
    assert rspb.augustin._certified_mean(rho, U2, channel, q) is None


ZERO_DRAWS = [channel_with_zeros(np.random.default_rng(seed)) for seed in range(12)]


@pytest.mark.parametrize("rho", [LOW_ORDER, 0.02, 0.5, 1.0])
def test_fused_tilted_pair_matches_two_passes_bit_for_bit(rho):
    # one log of the tilt, and ln W read from the channel, give the bits of
    # two passes that each take both logs anew: at the support rows' mixture,
    # 0 where none of them reaches, and at the start of a solve
    rng = np.random.default_rng(7)
    for channel in ZERO_DRAWS:
        masses = rng.dirichlet(np.ones(channel.input_size))
        masses[rng.random(masses.size) < 0.3] = 0.0
        masses[rng.integers(masses.size)] += 0.5
        p = FiniteDist(masses / masses.sum())
        rows = rspb.augustin._support_rows(p, channel)
        weights, w_rows, _ = rows
        mixture = weights @ w_rows
        means = [mixture] if rho == 1.0 else [mixture, rspb.augustin._start(rho, *rows)]
        for q in means:
            got = rspb.augustin._tilted_at(rho, *rows, q)[2]
            want = tilted_pair_two_passes(rho, *rows, q)
            assert [v.hex() for v in got] == [v.hex() for v in want]


TINY_ROWS = [[1 - 2e-300, 1e-300, 1e-300], [1e-300, 0.5, 0.5 - 1e-300]]


@pytest.mark.parametrize("rho", [1e-6, 0.02, 0.5, 0.95, 1 - 1e-9, 1.0])
def test_prepared_power_mean_and_divergences_match_the_kernels_bit_for_bit(rho):
    # the capacity ascent forms W^rho and the divergence terms once per search
    # and evaluates every weighting on them, under one errstate; each
    # evaluation must give the bits of a fresh `_power_mean` and
    # `_row_divergences`, so no evaluation may change the prepared arrays
    rng = np.random.default_rng(11)
    fallback = 0
    for channel in ZERO_DRAWS + [channel_of(TINY_ROWS)]:
        lw = channel.log_row_matrix()
        n_in = channel.input_size
        powers = rspb.measures._row_powers(rho, lw) if rho < 1.0 else None
        terms = rspb.augustin._divergence_terms(rho, lw)
        for penalty in (np.zeros(n_in), rng.uniform(0.0, 3.0, n_in)):
            for _ in range(3):
                lp = np.log(rng.dirichlet(np.ones(n_in)))
                log_weights = lp + (1.0 - rho) * penalty
                if rho < 1.0:
                    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                        q, value = rspb.measures._power_mean_on(rho, powers, log_weights)
                    want_q, want_value = rspb.measures._power_mean(rho, lw, log_weights)
                    assert q.tobytes() == want_q.tobytes() and value.hex() == want_value.hex()
                else:
                    q = np.exp(lp) @ np.exp(lw)
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    d = rspb.augustin._divergences_on(terms, q)
                    args = np.where(lw > -np.inf, (rho - 1.0) * (lw - np.log(q)), 0.0)
                assert d.tobytes() == rspb.augustin._row_divergences(rho, lw, q).tobytes()
                fallback += bool((args >= 500.0).any())
    # the 1e-300 entries take the max-shifted fallback at small orders
    assert fallback > 0 or rho > 0.02


def test_full_support_shares_the_channel_arrays():
    channel = channel_of(R8X16)
    p = FiniteDist(np.random.default_rng(3).dirichlet(np.ones(channel.input_size)))
    weights, w_rows, lw = rspb.augustin._support_rows(p, channel)
    assert weights is p.masses
    assert w_rows is channel.row_matrix() and lw is channel.log_row_matrix()


@pytest.mark.parametrize("rho", [LOW_ORDER, 0.02, 0.5, 1.0])
def test_zero_masses_solve_as_their_support_on_its_rows(rho):
    # dyadic masses sum to one exactly, so restricting p renormalizes nothing
    for channel in ZERO_DRAWS:
        if channel.input_size < 3:
            continue
        masses = np.zeros(channel.input_size)
        masses[[0, 2]] = 0.25
        masses[-1] += 0.5
        p = FiniteDist(masses)
        sup = p.support
        restricted = DiscreteChannel(tuple(channel.rows[x] for x in sup))
        p_sup = FiniteDist(masses[sup])
        assert p_sup.masses.tobytes() == masses[sup].tobytes()
        # identical bits, or the same refusal with identical gap bits
        assert _fixed_point_outcome(rho, p, channel) == _fixed_point_outcome(
            rho, p_sup, restricted)


def _fixed_point_outcome(rho, p, channel):
    try:
        sol = augustin_fixed_point(rho, p, channel)
    except NonConvergenceError as err:
        return "raised", err.residual.hex()
    return (sol.mean.masses.tobytes(), sol.iterations, *(getattr(sol, field).hex() for field in (
        "information", "residual", "alt_identity_residual", "tilted_rate", "tilted_exponent",
        "gap")))


def _map_gap(rho, p, channel, mean):
    """Frank-Wolfe gap max_y T(q)(y)/q(y) - 1 of one map step at the mean,
    over the outputs p W reaches, evaluated from outside the solver."""
    image = sum(p.masses[x] * tilted_measure(rho, channel.rows[x], mean).masses
                for x in p.support)
    reached = p.masses @ channel.row_matrix() > 0
    return float(np.max(image[reached] / mean.masses[reached])) - 1.0


def _zero_draws(seed):
    rng = np.random.default_rng(seed)
    return [(f"{seed}-{k}", channel_with_zeros(rng)) for k in range(20)]


def test_every_returned_fixed_point_meets_the_gap_rule():
    # zero-laden draws s = 0-1 at a uniform input: a solve that stopped on a
    # 1e-12 TV step left 105 of these 159 means above a 1e-12 gap
    returned, refused = 0, []
    for label, channel in _zero_draws(0) + _zero_draws(1):
        p = uniform_dist(channel.input_size)
        for rho in (1e-3, 0.02, 0.1, 0.5):
            try:
                sol = augustin_fixed_point(rho, p, channel)
            except NonConvergenceError:
                refused.append((label, rho))
                continue
            returned += 1
            assert sol.gap <= 1e-12, (label, rho)
            assert _map_gap(rho, p, channel, sol.mean) <= 1e-12, (label, rho)
    assert (returned, refused) == (159, [("0-8", 1e-3)])


@pytest.mark.parametrize("label, rho, gap", [
    ("0-4", 1e-6, None), ("6-8", 1e-6, 9.8e-6), ("6-4", 0.02, 1.0e-12),
])
def test_zero_laden_fixed_points_that_stall_are_refused(label, rho, gap):
    # tiny masses that converge slowly, or underflow to 0 where a row reaches
    # (a NaN gap); the stop rule refuses each instead of returning it
    channel = dict(_zero_draws(int(label[0])))[label]
    with pytest.raises(NonConvergenceError) as err:
        augustin_fixed_point(rho, uniform_dist(channel.input_size), channel)
    if gap is None:
        assert math.isnan(err.value.residual)
    else:
        assert err.value.residual == pytest.approx(gap, rel=0.01)


@pytest.mark.parametrize("seed, rho", [(26, 1.1827650669214335e-05), (1059, 1e-6), (1059, 1e-5)])
def test_capacity_ascent_with_no_finite_divergence_raises_non_convergence(seed, rho):
    # the power-mean center turns NaN on these zero-laden draws at small
    # orders, so no divergence is finite; this once leaked a bare ValueError
    channel = channel_with_zeros(np.random.default_rng(seed))
    with pytest.raises(NonConvergenceError, match="no finite divergence"):
        augustin_capacity(rho, channel)


def _linprog_order_zero_capacity(channel, costs=None, budget=None):
    """-ln min_p max_y (pA)(y) over the set, A = 1{W > 0}, from scipy's LP on
    (p, t): min t subject to pA <= t, sum p = 1, p >= 0 and c p <= b."""
    from scipy.optimize import linprog

    reach = (channel.row_matrix() > 0).astype(float)
    n_in, n_out = reach.shape
    a_ub, b_ub = np.c_[reach.T, -np.ones(n_out)], np.zeros(n_out)
    if costs is not None:
        a_ub, b_ub = np.vstack([a_ub, np.r_[costs, 0.0]]), np.r_[b_ub, budget]
    res = linprog(np.r_[np.zeros(n_in), 1.0], A_ub=a_ub, b_ub=b_ub,
                  A_eq=np.r_[np.ones(n_in), 0.0][None], b_eq=[1.0], method="highs")
    assert res.status == 0
    return -math.log(res.fun)


def test_order_zero_capacity_matches_linprog_on_zero_laden_draws():
    positive = 0
    for seed in range(400):
        rng = np.random.default_rng(seed)
        channel = channel_with_zeros(rng)
        costs = rng.random(channel.input_size)
        budget = float(rng.uniform(costs.min(), costs.max()))
        for constraint, args in ((ConstraintSet.all_inputs(), ()),
                                 (ConstraintSet.cost(costs, budget), (costs, budget))):
            lower, upper, p0 = _order_zero_capacity(channel, constraint)
            want = _linprog_order_zero_capacity(channel, *args)
            assert abs(lower - want) <= 1e-12 and abs(upper - want) <= 1e-12, seed
            assert lower <= upper, seed
            # p0 is a feasible input that gives the lower end
            assert p0.min() >= 0.0 and p0.sum() == pytest.approx(1.0, abs=1e-15), seed
            assert not args or p0 @ costs <= budget + 1e-12, seed
            top = float(np.max(p0 @ (channel.row_matrix() > 0)))
            assert lower <= -math.log(top) <= lower + 1e-15, seed
            positive += not args and lower > 0.0
    assert positive == 81


@pytest.mark.parametrize("channel", [bsc(0.1), bec(0.3), zchannel(0.3)], ids=["bsc", "bec", "z"])
def test_order_zero_capacity_is_exactly_zero_when_the_rows_share_an_output(channel):
    for constraint in (ConstraintSet.all_inputs(), ConstraintSet.cost([0.0, 1.0], 0.3)):
        lower, upper, _ = _order_zero_capacity(channel, constraint)
        # +0.0, not -0.0 = -ln 1
        assert (math.copysign(1.0, lower), math.copysign(1.0, upper)) == (1.0, 1.0)
        assert lower == upper == 0.0
