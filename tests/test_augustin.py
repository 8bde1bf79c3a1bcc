import json
import math

import numpy as np
import pytest

from rspb.augustin import (
    LOW_ORDER_PROBE,
    ConstraintSet,
    _solve_grid,
    _start_rows,
    _support_rows,
    augustin_capacity,
    augustin_fixed_point,
    augustin_info_derivative,
    augustin_information_grid,
    haroutunian_rate,
    read_constraint,
    tilted_kl_pair,
)
from rspb.errors import (
    FeasibilityError,
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
from rspb.oracle import fd_derivative_check
from rspb.spe import spe_parametric
from conftest import random_channel, random_dist

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
        augustin_information_grid([0.3, 0.6], U2, bsc(0.1), tol=tol, max_iter=max_iter)
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
@pytest.mark.parametrize("rho", [LOW_ORDER_PROBE, 1e-4, 1e-3])
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


def test_information_grid_matches_single_solves(rng):
    channel = random_channel(rng, 3, 4)
    p = random_dist(rng, 3)
    grid = np.array([0.1, 0.3, 0.55, 0.8, 0.95, 1.0])
    info = augustin_information_grid(grid, p, channel)
    for r, v in zip(grid, info):
        assert v == pytest.approx(augustin_fixed_point(float(r), p, channel).information, abs=1e-11)
    assert np.all(np.diff(info) >= -1e-11)


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
    ("D3x4", 0.02637610819043479), ("D4x8", LOW_ORDER_PROBE), ("D4x8", 0.01)])
def test_fixed_point_leaves_no_face_of_the_simplex(name, rho):
    channel = channel_of(FACE_TRAPS[name])
    p = uniform_dist(channel.input_size)
    sol = augustin_fixed_point(rho, p, channel)
    assert np.all(sol.mean.masses > 0)
    assert mean_residual(rho, p, channel, sol.mean.masses) <= 1e-10


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


def channel_with_zeros(rng) -> DiscreteChannel:
    """A random 2-8 x 2-16 channel with about 30 % exact zeros."""
    n_in, n_out = int(rng.integers(2, 9)), int(rng.integers(2, 17))
    rows = rng.dirichlet(np.ones(n_out), size=n_in)
    rows[rng.random(rows.shape) < 0.3] = 0.0
    rows[np.arange(n_in), rng.integers(0, n_out, size=n_in)] += 0.1
    return channel_of(rows / rows.sum(axis=1, keepdims=True))


def test_capacity_random_channels_with_zeros_certify():
    rng = np.random.default_rng(0)
    for _ in range(20):
        channel = channel_with_zeros(rng)
        rho = float(rng.uniform(0.02, 0.98))
        res = augustin_capacity(rho, channel)
        assert_capacity_certified(rho, channel, res, 1e-8)


def test_grid_solve_matches_one_order_solves():
    """Each order of a grid runs bit for bit as a solve of that order alone:
    same iterations, same last step, same mean."""
    rng = np.random.default_rng(0)
    rhos = np.array([LOW_ORDER_PROBE, 1e-3, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0])
    for _ in range(20):
        channel = channel_with_zeros(rng)
        p = random_dist(rng, channel.input_size)
        weights, w_rows, lw = _support_rows(p, channel)
        start = _start_rows(rhos, weights, w_rows, lw)
        Q, steps, iters = _solve_grid(rhos, weights, lw, start.copy(), 1e-12, 20000)
        for i in range(rhos.size):
            q, step, n = _solve_grid(rhos[i:i + 1], weights, lw, start[i:i + 1].copy(),
                                     1e-12, 20000)
            assert (iters[i], steps[i]) == (n[0], step[0])
            assert np.array_equal(Q[i], q[0])


@pytest.mark.parametrize("rho", [LOW_ORDER_PROBE, 0.3, 0.9, 1.0])
@pytest.mark.parametrize("channel", [bsc(0.1), bec(0.3), zchannel(0.3), channel_of(R8X16)],
                         ids=["bsc", "bec", "z", "R8x16"])
def test_solution_carries_its_tilted_pair(rho, channel):
    p = uniform_dist(channel.input_size)
    sol = augustin_fixed_point(rho, p, channel)
    pair = tilted_kl_pair(rho, p, channel, sol.mean.masses)
    assert (sol.tilted_rate, sol.tilted_exponent) == pair
