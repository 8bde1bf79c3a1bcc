import math

import numpy as np
import pytest
from scipy.integrate import quad

from rspb import oracle
from rspb.augustin import augustin_fixed_point
from rspb.errors import BudgetExceededError, NonConvergenceError, PreconditionError
from rspb.gaussian import AwgnParams, awgn_parametric, gaussian_closed_forms, theta_of_rho
from rspb.htbe import ht_params, htbe_achievability, htbe_converse
from rspb.measures import (
    DiscreteChannel,
    FiniteDist,
    bern,
    bsc,
    renyi_divergence,
    tilted_measure,
    uniform_dist,
)
from rspb.oracle import (
    brute_spe,
    exact_np_tradeoff,
    independent_triple,
    third_moment_inequality_check,
)
from rspb.spe import _rate_endpoints, spe_parametric
from conftest import random_channel, random_dist
from oracle_helpers import (
    DiscreteProduct,
    GaussianProduct,
    discrete_llr_rule,
    fd_derivative_check,
    gaussian_kl,
    gaussian_llr_rule,
    mc_error_probability,
)

W, Q = bern(0.1), bern(0.5)
R_CRIT = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)


def test_np_binomial_anchor():
    curve = exact_np_tradeoff([W] * 10, [Q] * 10)
    # accepting the two most likely counts gives the quoted error pair
    idx = int(np.argmin(np.abs(curve.type_i - 11 / 1024)))
    assert curve.type_i[idx] == pytest.approx(11 / 1024, rel=1e-12)
    assert curve.type_ii[idx] == pytest.approx(1 - 0.9**10 - 0.9**9, rel=1e-12)
    assert curve.type_ii_at(11 / 1024) == pytest.approx(1 - 0.9**10 - 0.9**9, rel=1e-12)


def test_np_randomized_type_ii_interpolates_the_curve():
    # one Bern(0.1) sample against Bern(0.5): accepting nothing gives (0, 1),
    # accepting symbol 0 (ratio 1.8) gives (1/2, 1/10) and accepting both
    # (1, 0); a randomized test at budget b mixes the two tests around b
    curve = exact_np_tradeoff([W], [Q])
    assert curve.type_i.tolist() == [0.0, 0.5, 1.0]
    assert curve.type_ii.tolist() == pytest.approx([1.0, 0.1, 0.0], abs=1e-16)
    # b = 1/4: half of each test, (1 + 1/10) / 2; b = 3/4: (1/10 + 0) / 2
    assert curve.randomized_type_ii_at(0.25) == pytest.approx(0.55, rel=1e-15)
    assert curve.randomized_type_ii_at(0.75) == pytest.approx(0.05, rel=1e-15)
    assert curve.randomized_type_ii_at(0.5) == curve.type_ii_at(0.5)
    assert curve.type_ii_at(0.25) == 1.0 and curve.randomized_type_ii_at(1.5) == 0.0
    # where type I ties, the lower type II of the tied tests is the start
    tied = oracle.NpCurve(type_i=np.array([0.0, 0.0, 0.5, 1.0]),
                          type_ii=np.array([1.0, 0.5, 0.0, 0.0]))
    assert tied.randomized_type_ii_at(0.0) == 0.5
    assert tied.randomized_type_ii_at(0.25) == 0.25
    with pytest.raises(PreconditionError, match="no test meets type-I budget -0.1"):
        tied.randomized_type_ii_at(-0.1)


def test_np_type_ii_keeps_precision_far_below_one_ulp():
    # 96 components alternating two binary pairs: the optimal type II at the
    # converse's Q budget is about 1e-16, which 1 - cumsum(W-mass) reads as 0
    rho = 0.3699026339416799
    w1, q1 = FiniteDist([0.86157514, 0.13842486]), FiniteDist([0.37643319, 0.62356681])
    w2, q2 = FiniteDist([0.21591779, 0.78408221]), FiniteDist([0.91812604, 0.08187396])
    ws, qs = [w1, w2] * 48, [q1, q2] * 48
    n = len(ws)
    params = ht_params(rho, ws, qs)
    d1_tq = sum(renyi_divergence(1.0, tilted_measure(rho, w, q), q) for w, q in zip(ws, qs))
    d1_tw = sum(renyi_divergence(1.0, tilted_measure(rho, w, q), w) for w, q in zip(ws, qs))
    probe = htbe_converse(rho, n, 1.0, params, d1_tq, d1_tw)
    beta = math.exp(probe.log_beta_min)
    conv = htbe_converse(rho, n, beta, params, d1_tq, d1_tw)
    ach = htbe_achievability(rho, n, beta, params, d1_tq, d1_tw)
    budget = math.exp(conv.q_budget_log)
    assert budget == pytest.approx(8.7e-9, rel=1e-2)

    # the law of the counts (k1, k2) of second symbols, accepted by
    # decreasing likelihood ratio while the Q-mass stays within the budget
    def law(d, k):
        return math.comb(48, k) * d.masses[1] ** k * d.masses[0] ** (48 - k)

    atoms = sorted(
        ((law(w1, k1) * law(w2, k2) / (law(q1, k1) * law(q2, k2)),
          law(w1, k1) * law(w2, k2), law(q1, k1) * law(q2, k2))
         for k1 in range(49) for k2 in range(49)),
        reverse=True,
    )
    accepted = 0
    while math.fsum(a[2] for a in atoms[: accepted + 1]) <= budget:
        accepted += 1
    tail = math.fsum(a[1] for a in atoms[accepted:])
    assert 1e-16 < tail < 1.2e-16
    exact = exact_np_tradeoff(ws, qs).type_ii_at(budget)
    assert exact == pytest.approx(tail, rel=1e-12)
    assert math.exp(conv.converse_log) <= exact <= math.exp(ach.achievability_w_log)


def test_np_curve_shape_invariants(rng):
    curve = exact_np_tradeoff([W] * 8, [Q] * 8)
    assert np.all(np.diff(curve.type_i) >= -1e-15)
    assert np.all(np.diff(curve.type_ii) <= 1e-15)
    assert curve.type_i[0] == 0.0
    assert curve.type_ii[-1] == pytest.approx(0.0, abs=1e-12)


def test_np_equal_pair_is_diagonal():
    curve = exact_np_tradeoff([Q] * 3, [Q] * 3)
    assert np.allclose(curve.type_i + curve.type_ii, 1.0, atol=1e-12)


def test_np_single_two_point_has_few_points():
    curve = exact_np_tradeoff([W], [Q])
    assert curve.type_i.size <= 3



def test_np_q_mass_where_w_vanishes_ends_the_curve():
    # W^2 puts all its mass on (0, 0); the Q-mass 3/4 elsewhere has ratio
    # -inf and is accepted last, by a test whose type II is already 0
    curve = exact_np_tradeoff([bern(0.0)] * 2, [bern(0.5)] * 2)
    assert curve.type_i.tolist() == [0.0, 0.25, 1.0]
    assert curve.type_ii.tolist() == [1.0, 0.0, 0.0]
    assert curve.type_ii_at(0.0) == 1.0 and curve.type_ii_at(0.3) == 0.0


def test_np_budget_below_the_curve_meets_no_test():
    curve = exact_np_tradeoff([W] * 4, [Q] * 4)
    with pytest.raises(PreconditionError, match="no test meets type-I budget -0.1"):
        curve.type_ii_at(-0.1)

def test_np_budget_error():
    rng = np.random.default_rng(3)
    w = [random_dist(rng, 5, 1e-3) for _ in range(9)]
    q = [random_dist(rng, 5, 1e-3) for _ in range(9)]
    with pytest.raises(BudgetExceededError):
        exact_np_tradeoff(w, q, budget=50)
    with pytest.raises(PreconditionError, match="budget must be non-negative"):
        exact_np_tradeoff(w, q, budget=-1)


def test_mc_always_accept_has_zero_miss():
    dist = DiscreteProduct((W,) * 4)
    est = mc_error_probability(lambda s: np.ones(len(s), bool), dist, 10_000, 7)
    assert est.mean == 0.0 and est.half_width_95 == 0.0


def test_mc_reproducible_and_matches_exact():
    n = 10
    rule = discrete_llr_rule([W] * n, [Q] * n, threshold=10 * math.log(1.8) - 2.5 * math.log(9) + 1e-12)
    # exact acceptance under Q of {k <= 2} is 56/1024
    dist_q = DiscreteProduct((Q,) * n)
    est1 = mc_error_probability(rule, dist_q, 200_000, 42, error_side="false_alarm")
    est2 = mc_error_probability(rule, dist_q, 200_000, 42, error_side="false_alarm")
    assert est1 == est2
    exact = 56 / 1024
    assert abs(est1.mean - exact) <= 3 * est1.half_width_95
    dist_w = DiscreteProduct((W,) * n)
    miss = mc_error_probability(rule, dist_w, 200_000, 43, error_side="miss")
    exact_miss = 1 - sum(math.comb(n, k) * 0.1**k * 0.9 ** (n - k) for k in range(3))
    assert abs(miss.mean - exact_miss) <= 3 * miss.half_width_95
    assert miss.half_width_95 == pytest.approx(
        1.96 * math.sqrt(miss.mean * (1 - miss.mean) / miss.trials), rel=1e-12
    )


def test_mc_requires_enough_trials():
    with pytest.raises(PreconditionError):
        mc_error_probability(lambda s: np.ones(len(s), bool), DiscreteProduct((W,)), 100, 0)


def test_fd_derivative_examples():
    assert fd_derivative_check(lambda x: x * x, 1.0, 1e-4) == pytest.approx(2.0, abs=1e-8)
    info = lambda r: augustin_fixed_point(r, uniform_dist(2), bsc(0.1)).information
    from rspb.augustin import augustin_info_derivative

    assert fd_derivative_check(info, 0.5, 1e-4) == pytest.approx(
        augustin_info_derivative(0.5, uniform_dist(2), bsc(0.1)), abs=1e-5
    )
    # orders above one are unsupported, so the boundary derivative gets a
    # second-order one-sided stencil instead of the central one
    h = 1e-4
    one_sided = (3 * info(1.0) - 4 * info(1.0 - h) + info(1.0 - 2 * h)) / (2 * h)
    assert one_sided == pytest.approx(0.5 * 0.09 * math.log(9.0) ** 2, abs=1e-5)


def test_third_moment_examples():
    probs = np.array([0.5, 0.5])
    vals = np.array([-1.0, 1.0])
    lhs, rhs, holds = third_moment_inequality_check(probs, vals, vals, vals)
    assert holds and lhs == pytest.approx(27.0) and rhs == pytest.approx(27.0)
    lhs, rhs, holds = third_moment_inequality_check([1.0], [1.0], [2.0], [3.0])
    assert holds and lhs == 216.0 and rhs == 324.0


def test_third_moment_random_triples(rng):
    for _ in range(1000):
        parts = []
        for _ in range(3):
            size = int(rng.integers(1, 5))
            parts.append((rng.normal(0.0, 2.0, size), rng.dirichlet(np.ones(size))))
        probs, a, b, c = independent_triple(
            parts[0][0], parts[0][1], parts[1][0], parts[1][1], parts[2][0], parts[2][1]
        )
        _, _, holds = third_moment_inequality_check(probs, a, b, c)
        assert holds


def test_brute_spe_matches_parametric():
    val = brute_spe(uniform_dist(2), bsc(0.1), R_CRIT, 4096)
    pt = spe_parametric(uniform_dist(2), bsc(0.1), R_CRIT)
    assert val <= pt.exponent + 1e-10
    assert pt.exponent - val <= 1e-5


def test_brute_spe_random_instances(rng):
    for _ in range(4):
        n_in = int(rng.integers(2, 4))
        channel = random_channel(rng, n_in, 2)
        p = random_dist(rng, n_in)
        low = augustin_fixed_point(1e-6, p, channel).information
        high = augustin_fixed_point(1.0, p, channel).information
        if high - low < 1e-3:
            continue
        rate = low + float(rng.uniform(0.25, 0.75)) * (high - low)
        pt = spe_parametric(p, channel, rate)
        val = brute_spe(p, channel, rate, 4096)
        assert val <= pt.exponent + 1e-10
        assert pt.exponent - val <= 1e-4


def test_brute_spe_ternary_output_path(rng):
    channel = random_channel(rng, 2, 3)
    p = uniform_dist(2)
    low = augustin_fixed_point(1e-6, p, channel).information
    high = augustin_fixed_point(1.0, p, channel).information
    rate = 0.5 * (low + high)
    pt = spe_parametric(p, channel, rate)
    val = brute_spe(p, channel, rate, 256)
    assert val <= pt.exponent + 1e-9
    assert pt.exponent - val <= 1e-3


def test_brute_spe_edges():
    assert brute_spe(uniform_dist(2), bsc(0.1), 5.0, 512) == 0.0
    coarse = brute_spe(uniform_dist(2), bsc(0.1), R_CRIT, 512)
    fine = brute_spe(uniform_dist(2), bsc(0.1), R_CRIT, 1024)
    # nested order grids; each order's information is certified within 1e-13
    assert fine >= coarse - 1e-12


def test_brute_spe_channel_with_exact_zeros():
    # exact zeros: at order 1/256 two masses of the Augustin mean are near 1e-122
    channel = DiscreteChannel(tuple(FiniteDist(r) for r in (
        [0.1353, 0.1745, 0.6507, 0.0, 0.0395],
        [0.3536, 0.1446, 0.0, 0.4848, 0.0170],
        [0.8530, 0.0007, 0.0, 0.0, 0.1463],
    )))
    p = uniform_dist(3)
    # the rows share an output, so I_0 = 0; the fixed point at order 1e-6
    # leaves a mass the rows reach underflowed and is refused
    low, high = _rate_endpoints(p, channel)
    assert low == 0.0
    with pytest.raises(NonConvergenceError):
        augustin_fixed_point(1e-6, p, channel)
    for share in (0.25, 0.5, 0.75):
        rate = low + share * (high - low)
        pt = spe_parametric(p, channel, rate)
        val = brute_spe(p, channel, rate, 256)
        assert val <= pt.exponent + 1e-9
        assert pt.exponent - val <= 1e-3


def test_brute_spe_refines_its_grid_at_a_small_order():
    # rho* = 0.00303: between grid orders the objective moves by about 0.08
    # at grid 4096, so the grid alone reads 75.483 against 75.563
    channel = DiscreteChannel(tuple(FiniteDist(np.array(r)) for r in (
        [1 - 2e-300, 1e-300, 1e-300], [1e-300, 0.5, 0.5 - 1e-300])))
    p, rate = uniform_dist(2), 0.3467458
    pt = spe_parametric(p, channel, rate)
    assert pt.rho_star < 0.004
    for grid in (64, 4096, 8192):
        val = brute_spe(p, channel, rate, grid)
        assert val <= pt.exponent + 1e-10
        assert pt.exponent - val <= 1e-4


TERNARY = DiscreteChannel((FiniteDist([0.7, 0.2, 0.1]), FiniteDist([0.1, 0.3, 0.6])))


@pytest.mark.parametrize("cap", [0, 1])
def test_brute_spe_raises_rather_than_return_uncertified(monkeypatch, cap):
    monkeypatch.setattr(oracle, "MAX_NEWTON_STEPS", cap)
    with pytest.raises(NonConvergenceError, match=f"order .* not certified in {cap} Newton"):
        brute_spe(uniform_dist(2), TERNARY, 0.05, 64)


def test_brute_spe_raises_on_a_singular_newton_system(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    # the first order's system reads as the singular one
    monkeypatch.setattr(np.linalg, "solve", singular)
    monkeypatch.setattr(np.linalg, "det", lambda a: np.arange(len(a), dtype=float))
    with pytest.raises(NonConvergenceError, match="order 0.015625 not certified in 1 Newton"):
        brute_spe(uniform_dist(2), TERNARY, 0.05, 64)


def awgn_exact_tilted_moments(rho: float, x: float, params: AwgnParams) -> tuple:
    """Exact (a2, a3) of the Gaussian log ratio under the tilted law.

    The second moment has a closed form used by the main path; the third
    absolute moment is integrated adaptively here so that the tests can
    confirm the closed-form upper bound actually dominates it.
    """
    theta = theta_of_rho(rho, params)
    _, mu_t, v_t = gaussian_closed_forms(rho, x, theta, params)
    sigma2 = params.sigma2

    def log_ratio(y):
        return (
            -((y - x) ** 2) / (2.0 * sigma2)
            + y**2 / (2.0 * theta)
            + 0.5 * math.log(theta / sigma2)
        )

    mean = (
        -(v_t + (mu_t - x) ** 2) / (2.0 * sigma2)
        + (v_t + mu_t**2) / (2.0 * theta)
        + 0.5 * math.log(theta / sigma2)
    )
    scale = math.sqrt(v_t)

    def density(y):
        return math.exp(-((y - mu_t) ** 2) / (2.0 * v_t)) / (scale * math.sqrt(2 * math.pi))

    a2 = quad(lambda y: (log_ratio(y) - mean) ** 2 * density(y),
              mu_t - 12 * scale, mu_t + 12 * scale, limit=200)[0]
    a3 = quad(lambda y: abs(log_ratio(y) - mean) ** 3 * density(y),
              mu_t - 12 * scale, mu_t + 12 * scale, limit=200)[0]
    return float(a2), float(a3)


def test_gaussian_exact_moments_match_closed_forms():
    params = AwgnParams(1.0, 1.0)
    point = awgn_parametric(0.5, params)
    a2, a3 = awgn_exact_tilted_moments(0.5, 1.0, params)
    assert a2 == pytest.approx(point.a2, rel=1e-9)
    assert a3 <= point.a3_bound
    assert a3 > 0


def test_gaussian_kl_and_rule():
    assert gaussian_kl(0.0, 1.0, 0.0, 1.0) == 0.0
    assert gaussian_kl(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.5)
    params = AwgnParams(1.0, 1.0)
    theta = theta_of_rho(0.5, params)
    n = 8
    rule = gaussian_llr_rule(np.ones(n), params, theta, threshold=-math.inf)
    samples = GaussianProduct(np.ones(n), 1.0).sample(np.random.default_rng(0), 100)
    assert rule(samples).all()


def test_gaussian_threshold_test_budget_by_monte_carlo():
    # no finite enumeration exists for Gaussian products, so the threshold
    # test's Q-side budget is checked by simulation instead
    from rspb.htbe import threshold_gamma

    params = AwgnParams(1.0, 1.0)
    rho, n, beta = 0.5, 32, 2.0
    theta = theta_of_rho(rho, params)
    point = awgn_parametric(rho, params)
    ht = point.ht_params()
    _, mu_t, v_t = gaussian_closed_forms(rho, 1.0, theta, params)
    tilt_mean = (
        -(v_t + (mu_t - 1.0) ** 2) / (2 * params.sigma2)
        + (v_t + mu_t**2) / (2 * theta)
        + 0.5 * math.log(theta / params.sigma2)
    )
    gamma = threshold_gamma(rho, n, beta, ht)
    rule = gaussian_llr_rule(
        np.ones(n), params, theta, threshold=n * tilt_mean + gamma
    )
    d1_tq = gaussian_kl(mu_t, v_t, 0.0, theta)
    budget = beta * math.exp(-n * d1_tq)
    est = mc_error_probability(
        rule, GaussianProduct(np.zeros(n), theta), 400_000, 11, error_side="false_alarm"
    )
    assert est.mean <= budget + 3 * est.half_width_95
