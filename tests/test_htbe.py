import math

import pytest

from rspb.errors import DegeneratePairError, PreconditionError
from rspb.htbe import (
    be_gap,
    ht_params,
    htbe_achievability,
    htbe_converse,
    threshold_gamma,
    threshold_test,
)
from rspb.measures import bern, renyi_divergence, tilted_measure

LN9 = math.log(9.0)
W, Q = bern(0.1), bern(0.5)
A2 = 0.1875 * LN9**2
A3 = (0.75 * 0.25**3 + 0.25 * 0.75**3) * LN9**3


def canonical_params():
    return ht_params(0.5, [W], [Q])


def test_ht_params_closed_forms():
    params = canonical_params()
    assert params.a2 == pytest.approx(A2, rel=1e-12)
    assert params.a3 == pytest.approx(A3, rel=1e-12)
    expected_log = 2 * math.sqrt(2 * math.pi * math.e) * (0.56 * A3 / A2 + math.sqrt(A2))
    assert params.log_delta_hat == pytest.approx(expected_log, rel=1e-12)
    assert expected_log == pytest.approx(14.220, abs=1e-3)
    assert params.delta_hat == pytest.approx(math.exp(expected_log), rel=1e-12)


def test_ht_params_degenerate_pair_rejected():
    with pytest.raises(DegeneratePairError):
        ht_params(0.5, [Q, Q], [Q, Q])


def test_ht_params_average_over_components():
    pair1 = ht_params(0.5, [bern(0.1)], [Q])
    pair2 = ht_params(0.5, [bern(0.2)], [Q])
    both = ht_params(0.5, [bern(0.1), bern(0.2)], [Q, Q])
    assert both.a2 == pytest.approx(0.5 * (pair1.a2 + pair2.a2), rel=1e-14)
    assert both.a3 == pytest.approx(0.5 * (pair1.a3 + pair2.a3), rel=1e-14)


def test_converse_window_small_n_empty():
    params = canonical_params()
    rep = htbe_converse(0.5, 10, 0.01, params, 0.0, 0.0)
    assert rep.beta_min == pytest.approx(0.0703, abs=2e-4)
    assert rep.beta_max == pytest.approx(0.00116, abs=2e-5)
    assert rep.beta_min > rep.beta_max
    assert not rep.applicable


def test_window_nonempty_threshold_is_56():
    params = canonical_params()

    def window_ok(n):
        rep = htbe_converse(0.5, n, 1.0, params, 0.0, 0.0)
        return rep.log_beta_min <= rep.log_beta_max

    first = next(n for n in range(1, 500) if window_ok(n))
    assert first == 56
    # closed form: smallest n with 2 sqrt(a2 n) >= ln delta_hat
    assert first == math.ceil((params.log_delta_hat / (2 * math.sqrt(params.a2))) ** 2)


def test_converse_formula_arithmetic():
    params = canonical_params()
    n, beta = 600, 2.0
    d1tq = n * renyi_divergence(1.0, tilted_measure(0.5, W, Q), Q)
    d1tw = n * renyi_divergence(1.0, tilted_measure(0.5, W, Q), W)
    rep = htbe_converse(0.5, n, beta, params, d1tq, d1tw)
    expected = (
        -0.5 * params.log_delta_hat
        - math.log(beta)
        - math.log(n)
        - d1tw
    )
    assert rep.converse_log == pytest.approx(expected, rel=1e-12)
    assert math.isfinite(rep.converse_log)
    assert rep.q_budget_log == pytest.approx(math.log(beta) - d1tq, rel=1e-12)
    with pytest.raises(PreconditionError):
        htbe_converse(0.5, n, 0.0, params, d1tq, d1tw)
    for bad_n in (0, -3):
        with pytest.raises(PreconditionError):
            htbe_converse(0.5, bad_n, beta, params, d1tq, d1tw)


def test_achievability_formula_arithmetic():
    params = canonical_params()
    n, beta, rho = 100, 2.0, 0.5
    rep = htbe_achievability(rho, n, beta, params, 10.0, 5.0)
    bracket = max(1.0, math.sqrt(8 * math.pi * params.a2)) / (4 * math.pi * params.a2)
    expected = (
        math.log(bracket * params.log_delta_hat) / rho
        + (rho - 1) / rho * math.log(rho * beta)
        - math.log(1 - rho)
        - math.log(n) / (2 * rho)
        - 5.0
    )
    assert rep.achievability_w_log == pytest.approx(expected, rel=1e-12)
    assert rep.applicable
    for bad_n in (0, -3):
        with pytest.raises(PreconditionError):
            htbe_achievability(rho, bad_n, beta, params, 10.0, 5.0)


def test_gap_between_bounds_independent_of_n_and_totals():
    params = canonical_params()
    gaps = []
    for n, d1tq, d1tw in ((64, 1.0, 2.0), (4096, 30.0, 17.0), (1_000_000, 0.0, 0.0)):
        conv = htbe_converse(0.5, n, 2.0, params, d1tq, d1tw)
        ach = htbe_achievability(0.5, n, 2.0, params, d1tq, d1tw)
        gaps.append(ach.achievability_w_log - conv.converse_log)
    assert max(gaps) - min(gaps) <= 1e-9


def test_achievability_blows_up_toward_order_one():
    params = canonical_params()
    vals = [
        htbe_achievability(rho, 100, 2.0, params, 0.0, 0.0).achievability_w_log
        for rho in (0.9, 0.99, 0.999)
    ]
    assert vals[0] < vals[1] < vals[2]


def test_log_domain_no_overflow_up_to_1e6():
    params = canonical_params()
    for n in (10**3, 10**6):
        conv = htbe_converse(0.5, n, 1.0, params, 0.1308 * n, 0.0923 * n)
        ach = htbe_achievability(0.5, n, 1.0, params, 0.1308 * n, 0.0923 * n)
        assert math.isfinite(conv.converse_log)
        assert math.isfinite(ach.achievability_w_log)
        assert math.isfinite(conv.log_beta_min) and math.isfinite(conv.log_beta_max)


def test_threshold_test_infinite_gammas():
    never = threshold_test(math.inf, [W] * 5, [Q] * 5, 0.5)
    assert never.type_i == 0.0
    assert never.type_ii == pytest.approx(1.0, abs=1e-12)
    always = threshold_test(-math.inf, [W] * 5, [Q] * 5, 0.5)
    assert always.type_i == 1.0 and always.type_ii == 0.0


def test_threshold_test_binomial_example():
    # gamma = 0 at n = 10 accepts exactly the outcomes with at most two flips
    res = threshold_test(0.0, [W] * 10, [Q] * 10, 0.5)
    assert res.exact
    type_i = (1 + 10 + 45) / 2**10
    type_ii = 1.0 - sum(
        math.comb(10, k) * 0.1**k * 0.9 ** (10 - k) for k in range(3)
    )
    assert res.type_i == pytest.approx(type_i, rel=1e-12)
    assert res.type_ii == pytest.approx(type_ii, rel=1e-12)


def test_threshold_test_rule_only_when_budget_exceeded():
    for budget in (4, 0):
        res = threshold_test(0.0, [W] * 12, [Q] * 12, 0.5, budget=budget)
        assert not res.exact and res.type_i is None
        assert math.isfinite(res.threshold)
    with pytest.raises(PreconditionError, match="budget must be non-negative"):
        threshold_test(0.0, [W] * 12, [Q] * 12, 0.5, budget=-1)


def test_threshold_gamma_meets_q_budget():
    params = canonical_params()
    d1tq1 = renyi_divergence(1.0, tilted_measure(0.5, W, Q), Q)
    for n in (16, 64, 128):
        for beta in (0.5, 2.0, 10.0):
            gamma = threshold_gamma(0.5, n, beta, params)
            res = threshold_test(gamma, [W] * n, [Q] * n, 0.5)
            assert res.exact
            assert res.type_i <= beta * math.exp(-n * d1tq1) * (1 + 1e-12)


def test_sandwich_holds_for_non_stationary_pair():
    # alternating components exercise moment averaging and the collapse of
    # the two-family product space to its joint count statistic
    from rspb.oracle import exact_np_tradeoff

    rho = 0.5
    ws = [bern(0.1), bern(0.2)] * 60
    qs = [Q] * 120
    params = ht_params(rho, ws, qs)
    d1_tq = sum(renyi_divergence(1.0, tilted_measure(rho, w, q), q) for w, q in zip(ws, qs))
    d1_tw = sum(renyi_divergence(1.0, tilted_measure(rho, w, q), w) for w, q in zip(ws, qs))
    n = len(ws)
    probe = htbe_converse(rho, n, 1.0, params, d1_tq, d1_tw)
    assert probe.log_beta_min < probe.log_beta_max
    curve = exact_np_tradeoff(ws, qs)
    assert curve.type_i.size == 61 * 61 + 1
    for frac in (0.0, 0.5, 1.0):
        log_beta = probe.log_beta_min + frac * (probe.log_beta_max - probe.log_beta_min)
        beta = math.exp(log_beta)
        conv = htbe_converse(rho, n, beta, params, d1_tq, d1_tw)
        ach = htbe_achievability(rho, n, beta, params, d1_tq, d1_tw)
        budget = math.exp(conv.q_budget_log)
        assert math.exp(conv.converse_log) <= curve.randomized_type_ii_at(budget)
        assert curve.type_ii_at(budget) <= math.exp(ach.achievability_w_log)


def test_be_gap_values():
    assert be_gap(1.0, 0.0, 50) == 0.0
    params = canonical_params()
    val = be_gap(params.a2, params.a3, 100)
    assert val == pytest.approx(0.56 * A3 / (A2 * math.sqrt(A2 * 100)), rel=1e-14)
    assert val == pytest.approx(0.0808, abs=5e-4)
    assert be_gap(params.a2, params.a3, 200) == pytest.approx(val / math.sqrt(2), rel=1e-12)
    with pytest.raises(PreconditionError):
        be_gap(0.0, 1.0, 10)
