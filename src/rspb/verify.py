"""Named verification suites emitting structured pass/fail reports.

Each suite returns {"suite": name, "checks": [...], "all_pass": bool} where
every check lists the property, the concrete instance, the observed values,
and whether it passed. The CLI serializes these verbatim.
"""

from __future__ import annotations

import math

import numpy as np

from .augustin import augustin_fixed_point
from .htbe import ht_params, htbe_achievability, htbe_converse, threshold_gamma, threshold_test
from .measures import (
    DiscreteChannel,
    FiniteDist,
    bern,
    identity_residuals,
    renyi_divergence,
    tilted_measure,
)
from .oracle import brute_spe, exact_np_tradeoff, independent_triple, third_moment_inequality_check
from .spe import _rate_endpoints, _spe_point

CANONICAL_W = 0.1
CANONICAL_Q = 0.5
CANONICAL_RHO = 0.5


def _check(property_name, instance, observed, bound, ok):
    return {
        "property": property_name,
        "instance": instance,
        "observed": observed,
        "bound": bound,
        "pass": bool(ok),
    }


def _random_dist(rng, size):
    masses = rng.dirichlet(np.ones(size))
    masses = np.clip(masses, 1e-9, None)
    return FiniteDist(masses / masses.sum())


def _random_channel(rng, n_in, n_out):
    return DiscreteChannel(tuple(_random_dist(rng, n_out) for _ in range(n_in)))


def verify_htbe(ns=(64, 128, 256), betas_per_n: int = 10, seed: int = 0) -> dict:
    """Sandwich the exact binary trade-off between the two analytic bounds.

    Uses the canonical Bernoulli pair at order one half. For every requested
    blocklength, betas are log-spaced across the applicability window and the
    enumerated optimal type II must fall between exp(converse_log) and
    exp(achievability_w_log) at the corresponding type-I budget; the
    explicit threshold test must also respect its Q-side budget.
    """
    w1, q1 = bern(CANONICAL_W), bern(CANONICAL_Q)
    rho = CANONICAL_RHO
    t1 = tilted_measure(rho, w1, q1)
    d1_tq = renyi_divergence(1.0, t1, q1)
    d1_tw = renyi_divergence(1.0, t1, w1)
    checks = []

    params = ht_params(rho, [w1], [q1])
    # window first becomes non-empty when 2 sqrt(a2 n) reaches ln(delta_hat)
    predicted = math.ceil((params.log_delta_hat / (2.0 * math.sqrt(params.a2))) ** 2)

    def window_nonempty(n):
        rep = htbe_converse(rho, n, 1.0, params, n * d1_tq, n * d1_tw)
        return rep.log_beta_min <= rep.log_beta_max

    scanned = next(n for n in range(1, 10_000) if window_nonempty(n))
    checks.append(
        _check(
            "window-nonemptiness threshold matches closed form",
            f"Bern({CANONICAL_W}) vs Bern({CANONICAL_Q}), rho={rho}",
            scanned,
            predicted,
            scanned == predicted,
        )
    )

    for n in ns:
        probe = htbe_converse(rho, n, 1.0, params, n * d1_tq, n * d1_tw)
        if probe.log_beta_min > probe.log_beta_max:
            checks.append(
                _check("window non-empty", f"n={n}", None, None, False)
            )
            continue
        curve = exact_np_tradeoff([w1] * n, [q1] * n)
        log_betas = np.linspace(probe.log_beta_min, probe.log_beta_max, betas_per_n)
        for log_beta in log_betas:
            beta = math.exp(log_beta)
            conv = htbe_converse(rho, n, beta, params, n * d1_tq, n * d1_tw)
            ach = htbe_achievability(rho, n, beta, params, n * d1_tq, n * d1_tw)
            budget = math.exp(conv.q_budget_log)
            np_tii = curve.type_ii_at(budget)
            lo = math.exp(conv.converse_log)
            hi = math.exp(ach.achievability_w_log)
            checks.append(
                _check(
                    "converse <= exact NP type II <= achievability",
                    f"n={n}, beta={beta:.6g}",
                    {"converse": lo, "exact": np_tii, "achievability": hi,
                     "applicable": conv.applicable},
                    None,
                    conv.applicable and lo <= np_tii * (1 + 1e-12) and np_tii <= hi * (1 + 1e-12),
                )
            )
            gamma = threshold_gamma(rho, n, beta, params)
            test = threshold_test(gamma, [w1] * n, [q1] * n, rho)
            checks.append(
                _check(
                    "threshold test meets its Q budget",
                    f"n={n}, beta={beta:.6g}",
                    {"type_i": test.type_i, "budget": budget},
                    budget,
                    test.exact and test.type_i <= budget * (1 + 1e-12),
                )
            )
    return {"suite": "htbe", "checks": checks, "all_pass": all(c["pass"] for c in checks)}


def verify_identities(pairs: int = 200, fixed_points: int = 40, seed: int = 0) -> dict:
    """Variational-identity residuals and fixed-point certificates at random."""
    rng = np.random.default_rng(seed)
    checks = []
    worst = 0.0
    for _ in range(pairs):
        size = int(rng.integers(2, 7))
        rho = float(rng.uniform(0.02, 0.98))
        w = _random_dist(rng, size)
        q = _random_dist(rng, size)
        worst = max(worst, identity_residuals(rho, w, q))
    checks.append(
        _check("variational identity residual", f"{pairs} random pairs", worst, 1e-9,
               worst <= 1e-9)
    )
    worst_fp = 0.0
    worst_alt = 0.0
    for _ in range(fixed_points):
        n_in = int(rng.integers(2, 5))
        n_out = int(rng.integers(2, 6))
        rho = float(rng.uniform(0.05, 0.95))
        channel = _random_channel(rng, n_in, n_out)
        p = _random_dist(rng, n_in)
        sol = augustin_fixed_point(rho, p, channel)
        worst_fp = max(worst_fp, sol.residual)
        worst_alt = max(worst_alt, sol.alt_identity_residual)
    checks.append(
        _check("fixed-point step residual", f"{fixed_points} random instances",
               worst_fp, 1e-12, worst_fp <= 1e-12)
    )
    checks.append(
        _check("information KL-decomposition residual", f"{fixed_points} random instances",
               worst_alt, 1e-9, worst_alt <= 1e-9)
    )
    return {"suite": "identities", "checks": checks,
            "all_pass": all(c["pass"] for c in checks)}


def verify_spe(instances: int = 6, grid_size: int = 4096, seed: int = 0) -> dict:
    """Agreement of the parametric exponent with the brute-force twin."""
    rng = np.random.default_rng(seed)
    checks = []
    for k in range(instances):
        n_in = int(rng.integers(2, 4))
        channel = _random_channel(rng, n_in, 2)
        p = _random_dist(rng, n_in)
        ends = _rate_endpoints(p, channel)
        low, high = ends[0].information, ends[1].information
        if high - low < 1e-3:
            continue
        rate = low + (0.25 + 0.5 * rng.random()) * (high - low)
        point = _spe_point(p, channel, rate, ends)
        brute = brute_spe(p, channel, rate, grid_size=grid_size)
        ok = brute <= point.exponent + 1e-10 and point.exponent - brute <= 1e-4
        checks.append(
            _check("parametric exponent vs brute-force grid",
                   f"instance {k}, rate={rate:.6g}",
                   {"parametric": point.exponent, "brute": brute}, 1e-4, ok)
        )
    return {"suite": "spe", "checks": checks, "all_pass": all(c["pass"] for c in checks)}


def verify_thirdmoment(count: int = 1000, seed: int = 0) -> dict:
    """Exhaustive third-moment inequality on random finite triples."""
    rng = np.random.default_rng(seed)
    checks = []
    failures = 0
    for _ in range(count):
        parts = []
        for _ in range(3):
            size = int(rng.integers(1, 5))
            parts.append((rng.normal(0, 2, size), rng.dirichlet(np.ones(size))))
        probs, a, b, c = independent_triple(
            parts[0][0], parts[0][1], parts[1][0], parts[1][1], parts[2][0], parts[2][1]
        )
        _, _, holds = third_moment_inequality_check(probs, a, b, c)
        failures += 0 if holds else 1
    checks.append(
        _check("third-moment inequality holds", f"{count} random triples",
               failures, 0, failures == 0)
    )
    signs = np.array([-1.0, 1.0])
    lhs, rhs, _ = third_moment_inequality_check([0.5, 0.5], signs, signs, signs)
    checks.append(
        _check("constructed equality case", "fully correlated symmetric sign",
               {"lhs": lhs, "rhs": rhs}, None, abs(lhs - rhs) <= 1e-12)
    )
    return {"suite": "thirdmoment", "checks": checks,
            "all_pass": all(c["pass"] for c in checks)}


SUITES = {
    "htbe": verify_htbe,
    "identities": verify_identities,
    "spe": verify_spe,
    "thirdmoment": verify_thirdmoment,
}


def run_suite(name: str, **kwargs) -> dict:
    if name == "all":
        reports = [run_suite(k) for k in SUITES]
        return {
            "suite": "all",
            "reports": reports,
            "all_pass": all(r["all_pass"] for r in reports),
        }
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](**kwargs)
