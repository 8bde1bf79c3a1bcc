"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its runtime (visible with -s or in
captured output); tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from rspb.augustin import (
    augustin_capacity,
    augustin_fixed_point,
    augustin_info_derivative,
)
from rspb.gaussian import (
    AwgnParams,
    awgn_parametric,
    awgn_rho_star,
    shannon_cone,
    theta_of_rho,
)
from rspb.htbe import HtParams, ht_params, htbe_achievability, htbe_converse, threshold_gamma, threshold_test
from rspb.measures import (
    bec,
    bern,
    bsc,
    identity_residuals,
    product_channel,
    renyi_divergence,
    tilted_measure,
    uniform_dist,
    zchannel,
)
from rspb.oracle import exact_np_tradeoff, independent_triple, third_moment_inequality_check
from rspb.refined import rspb_constant_composition, rspb_symmetric
from rspb.spe import spe_parametric
from rspb.symmetric import check_renyi_symmetry, symmetric_center
from conftest import random_channel, random_dist
from oracle_helpers import fd_derivative_check

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
R_CRIT = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
UNIT = AwgnParams(1.0, 1.0)


class _Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(num, timer, detail):
    print(f"criterion {num:02d} PASS ({timer.elapsed:.2f}s < {timer.limit:.0f}s): {detail}")
    assert timer.elapsed < timer.limit


def test_criterion_01_variational_identity():
    rng = np.random.default_rng(1)
    with _Timer(1.0) as t:
        worst = 0.0
        for _ in range(200):
            size = int(rng.integers(2, 7))
            rho = float(rng.uniform(0.02, 0.98))
            w = random_dist(rng, size)
            q = random_dist(rng, size)
            worst = max(worst, identity_residuals(rho, w, q))
        assert worst <= 1e-9
    _report(1, t, f"200 random pairs, worst residual {worst:.2e} <= 1e-9")


def test_criterion_02_fixed_point_and_derivative():
    rng = np.random.default_rng(2)
    with _Timer(10.0) as t:
        worst_fp = worst_alt = 0.0
        for _ in range(100):
            n_in = int(rng.integers(2, 5))
            n_out = int(rng.integers(2, 6))
            rho = float(rng.uniform(0.05, 0.95))
            channel = random_channel(rng, n_in, n_out)
            p = random_dist(rng, n_in)
            sol = augustin_fixed_point(rho, p, channel)
            worst_fp = max(worst_fp, sol.residual)
            worst_alt = max(worst_alt, sol.alt_identity_residual)
        assert worst_fp <= 1e-12
        assert worst_alt <= 1e-9
        worst_fd = 0.0
        for _ in range(20):
            n_in = int(rng.integers(2, 4))
            n_out = int(rng.integers(2, 5))
            rho = float(rng.uniform(0.1, 0.9))
            channel = random_channel(rng, n_in, n_out)
            p = random_dist(rng, n_in)
            fd = fd_derivative_check(
                lambda r: augustin_fixed_point(r, p, channel).information, rho, 1e-4
            )
            worst_fd = max(worst_fd, abs(fd - augustin_info_derivative(rho, p, channel)))
        assert worst_fd <= 1e-5
    _report(
        2, t,
        f"100 fixed points (step {worst_fp:.1e}, identity {worst_alt:.1e}), "
        f"20 derivative checks (gap {worst_fd:.1e} <= 1e-5)",
    )


def test_criterion_03_bsc_anchor_point():
    with _Timer(10.0) as t:
        cap = augustin_capacity(0.5, bsc(0.1))
        assert cap.certified
        assert cap.capacity == pytest.approx(0.2231436, abs=1e-6)
        assert R_CRIT == pytest.approx(0.1308120, abs=5e-8)
        point = spe_parametric(uniform_dist(2), bsc(0.1), R_CRIT)
        assert point.rho_star == pytest.approx(0.5, abs=1e-9)
        assert point.exponent == pytest.approx(0.0923315, abs=1e-6)
        assert point.slope == pytest.approx(-1.0, abs=1e-6)
    _report(
        3, t,
        f"C_half {cap.capacity:.7f}, rho* {point.rho_star:.9f}, "
        f"E_sp {point.exponent:.7f}, slope {point.slope:.7f}",
    )


def test_criterion_04_awgn_golden_ratio_point():
    with _Timer(5.0) as t:
        theta = theta_of_rho(0.5, UNIT)
        assert theta == pytest.approx(1.6180340, abs=1e-7)
        point = awgn_parametric(0.5, UNIT)
        assert point.rate == pytest.approx(0.1346382, abs=1e-6)
        assert point.esp == pytest.approx(0.0850153, abs=1e-5)
        assert awgn_rho_star(point.rate, UNIT) == pytest.approx(0.5, abs=1e-9)
        cone = shannon_cone(point.rate, UNIT)
        assert abs(cone.sgex - point.esp) <= 1e-5
        worst = 0.0
        for params in (
            AwgnParams(s, c) for s in (0.5, 1.0, 2.0) for c in (0.1, 1.0, 10.0)
        ):
            c1 = params.capacity_order_one()
            for frac in np.linspace(0.05, 0.95, 50):
                rate = float(frac * c1)
                esp = awgn_parametric(awgn_rho_star(rate, params), params).esp
                worst = max(worst, abs(esp - shannon_cone(rate, params).sgex))
        assert worst <= 1e-8
    _report(
        4, t,
        f"theta {theta:.7f}, rate {point.rate:.7f}, esp {point.esp:.7f}, "
        f"cone-exponent identity worst gap {worst:.1e} <= 1e-8 over 450 points",
    )


def test_criterion_05_theta_identities():
    with _Timer(1.0) as t:
        worst = 0.0
        worst_cr = 0.0
        for params in (
            AwgnParams(s, c) for s in (0.5, 1.0, 2.0) for c in (0.1, 1.0, 10.0)
        ):
            for rho in np.arange(0.05, 1.0001, 0.05):
                theta = theta_of_rho(float(rho), params)
                lhs = rho * params.cost * theta
                rhs = (theta - params.sigma2) * (rho * theta + (1 - rho) * params.sigma2)
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
            cone = shannon_cone(0.5 * params.capacity_order_one(), params)
            amp = math.sqrt(params.cost / params.sigma2)
            gain = 0.5 * (
                amp * math.cos(cone.theta_cr)
                + math.sqrt(amp * amp * math.cos(cone.theta_cr) ** 2 + 4.0)
            )
            resid = abs(
                2.0 * math.cos(cone.theta_cr) - amp * gain * math.sin(cone.theta_cr) ** 2
            )
            worst_cr = max(worst_cr, resid)
        assert worst <= 1e-12
        assert worst_cr <= 1e-10
    _report(
        5, t,
        f"center-variance identity worst rel residual {worst:.1e} <= 1e-12, "
        f"critical-angle equation residual {worst_cr:.1e} <= 1e-10",
    )


def test_criterion_06_htbe_sandwich():
    w1, q1 = bern(0.1), bern(0.5)
    rho = 0.5
    with _Timer(30.0) as t:
        params = ht_params(rho, [w1], [q1])
        tilt = tilted_measure(rho, w1, q1)
        d1_tq = renyi_divergence(1.0, tilt, q1)
        d1_tw = renyi_divergence(1.0, tilt, w1)

        def window_nonempty(n):
            rep = htbe_converse(rho, n, 1.0, params, 0.0, 0.0)
            return rep.log_beta_min <= rep.log_beta_max

        first = next(n for n in range(1, 1000) if window_nonempty(n))
        assert first == 56
        checked = 0
        for n in (64, 128, 256):
            curve = exact_np_tradeoff([w1] * n, [q1] * n)
            probe = htbe_converse(rho, n, 1.0, params, n * d1_tq, n * d1_tw)
            for log_beta in np.linspace(probe.log_beta_min, probe.log_beta_max, 10):
                beta = math.exp(log_beta)
                conv = htbe_converse(rho, n, beta, params, n * d1_tq, n * d1_tw)
                ach = htbe_achievability(rho, n, beta, params, n * d1_tq, n * d1_tw)
                assert conv.applicable
                budget = math.exp(conv.q_budget_log)
                # the converse holds for every test, randomized ones too
                randomized = curve.randomized_type_ii_at(budget)
                assert math.exp(conv.converse_log) <= randomized * (1 + 1e-12)
                assert curve.type_ii_at(budget) <= math.exp(ach.achievability_w_log) * (1 + 1e-12)
                checked += 1
    _report(
        6, t,
        f"window threshold n=56 reproduced; sandwich held at {checked} (n, beta) points",
    )


def test_criterion_07_threshold_test_budget():
    w1, q1 = bern(0.1), bern(0.5)
    rho = 0.5
    with _Timer(10.0) as t:
        params = ht_params(rho, [w1], [q1])
        d1_tq = renyi_divergence(1.0, tilted_measure(rho, w1, q1), q1)
        checked = 0
        for n in (16, 64, 128, 256):
            for beta in (0.3, 1.0, 2.0, 10.0):
                gamma = threshold_gamma(rho, n, beta, params)
                res = threshold_test(gamma, [w1] * n, [q1] * n, rho)
                assert res.exact
                budget = beta * math.exp(-n * d1_tq)
                assert res.type_i <= budget * (1 + 1e-12)
                checked += 1
    _report(7, t, f"Q-side budget held at all {checked} (n, beta) pairs up to n=256")


def test_criterion_08_symmetry_suite():
    with _Timer(5.0) as t:
        assert check_renyi_symmetry(bsc(0.1), tol=1e-9).is_symmetric
        assert check_renyi_symmetry(bec(0.3), tol=1e-9).is_symmetric
        assert not check_renyi_symmetry(zchannel(0.5), tol=1e-9).is_symmetric
        prod = product_channel(bsc(0.1), bsc(0.2))
        _, cap = symmetric_center(0.5, prod)
        target = 0.2231436 + 0.1053605
        assert cap == pytest.approx(target, abs=2e-7)
        exact = -math.log(0.8) - math.log(0.9)
        assert cap == pytest.approx(exact, abs=1e-9)
    _report(
        8, t,
        f"BSC/BEC certified, Z rejected; product capacity {cap:.9f} "
        f"matches the component sum within 1e-9",
    )


def test_criterion_09_theorem_consistency():
    with _Timer(5.0) as t:
        worst = 0.0
        for n, rate in ((64, R_CRIT), (600, R_CRIT), (200, 0.2)):
            cc = rspb_constant_composition(bsc(0.1), uniform_dist(2), n, n * rate)
            sym = rspb_symmetric([bsc(0.1)] * n, n * rate)
            worst = max(
                worst,
                abs(cc.rho_star - sym.rho_star),
                abs(cc.exponent_total - sym.exponent_total),
                abs(cc.log_prefactor - sym.log_prefactor),
            )
        assert worst <= 1e-9
        ref = rspb_constant_composition(bsc(0.1), uniform_dist(2), 600, 600 * R_CRIT)
        params = HtParams.from_moments(ref.a2, ref.a3)

        def condition(n):
            lhs = math.sqrt(params.a2 * n) - math.log(4 * n) / (2 * ref.rho_star)
            return lhs >= params.log_delta_hat

        first = next(n for n in range(2, 2000) if condition(n))
        assert first == 529
        assert 520 <= first <= 535
    _report(
        9, t,
        f"constant-composition and symmetric reports agree (worst gap {worst:.1e}); "
        f"applicability threshold pinned at n=529",
    )


def test_criterion_10_third_moment_inequality():
    rng = np.random.default_rng(10)
    with _Timer(5.0) as t:
        for _ in range(1000):
            parts = []
            for _ in range(3):
                size = int(rng.integers(1, 5))
                parts.append((rng.normal(0.0, 2.0, size), rng.dirichlet(np.ones(size))))
            probs, a, b, c = independent_triple(
                parts[0][0], parts[0][1], parts[1][0], parts[1][1],
                parts[2][0], parts[2][1],
            )
            _, _, holds = third_moment_inequality_check(probs, a, b, c)
            assert holds
        vals = np.array([-1.0, 1.0])
        half = np.array([0.5, 0.5])
        lhs, rhs, holds = third_moment_inequality_check(half, vals, vals, vals)
        assert holds and lhs == pytest.approx(rhs, abs=1e-12)
    _report(10, t, f"1000 exhaustive triples hold; equality case lhs = rhs = {lhs:.1f}")
