import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import rspb.spe
import rspb.symmetric
from rspb.augustin import (
    _certified_mean,
    _info_derivative,
    _solution,
    _support_rows,
    augustin_fixed_point,
)
from rspb.errors import (
    CompositionError,
    InfiniteDivergenceError,
    RateOutOfRangeError,
    SymmetryError,
)
from rspb.gaussian import AwgnParams, awgn_parametric
from rspb.htbe import HtParams
from rspb.measures import (
    DiscreteChannel,
    FiniteDist,
    bec,
    bern,
    bsc,
    tilted_log_moments,
    uniform_dist,
    zchannel,
)
from rspb.oracle import brute_spe
from rspb.refined import (
    rspb_awgn_equality,
    rspb_awgn_inequality,
    rspb_constant_composition,
    rspb_symmetric,
)
from rspb.spe import spe_parametric
from rspb.symmetric import symmetric_center
from conftest import CYCLIC4, channel_with_zeros, random_channel, symmetric_solution

LN9 = math.log(9.0)
R_CRIT = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
E_CRIT = 0.25 * math.log(2.5) + 0.75 * math.log(0.75 / 0.9)
R_CRIT_02 = (1 / 3) * math.log(2 / 3) + (2 / 3) * math.log(4 / 3)
UNIT = AwgnParams(1.0, 1.0)
R_GOLD = 0.1346382347796308
U2 = uniform_dist(2)


def test_constant_composition_anchor():
    n = 600
    rep = rspb_constant_composition(bsc(0.1), U2, n, n * R_CRIT)
    assert rep.rho_star == pytest.approx(0.5, abs=1e-9)
    assert rep.exponent_total == pytest.approx(n * E_CRIT, abs=1e-7)
    a2 = 0.1875 * LN9**2
    a3 = (0.75 * 0.25**3 + 0.25 * 0.75**3) * LN9**3
    log_dh = 2 * math.sqrt(2 * math.pi * math.e) * (0.56 * a3 / a2 + math.sqrt(a2))
    assert rep.a2 == pytest.approx(a2, rel=1e-9)
    assert rep.log_delta_hat == pytest.approx(log_dh, rel=1e-9)
    assert rep.log_prefactor == pytest.approx(-0.5 * log_dh - math.log(4 * n), abs=1e-8)
    assert rep.bound_log == rep.log_prefactor - rep.exponent_total
    assert rep.condition_lhs == pytest.approx(math.sqrt(a2 * n) - math.log(4 * n), abs=1e-8)
    assert rep.condition_rhs == pytest.approx(log_dh, rel=1e-9)
    assert rep.applicable == (rep.condition_lhs >= rep.condition_rhs)


def test_constant_composition_threshold_scan():
    # the applicability condition first holds at n = 529; composition
    # integrality restricts reports to even n, where the flag flips at 530
    rep = rspb_constant_composition(bsc(0.1), U2, 600, 600 * R_CRIT)
    params = HtParams.from_moments(rep.a2, rep.a3)

    def condition(n):
        return math.sqrt(params.a2 * n) - math.log(4 * n) / (2 * rep.rho_star) >= params.log_delta_hat

    first = next(n for n in range(500, 560) if condition(n))
    assert first == 529
    assert 520 <= first <= 535
    below = rspb_constant_composition(bsc(0.1), U2, 528, 528 * R_CRIT)
    assert not below.applicable
    # the flag never suppresses the numeric bound
    assert math.isfinite(below.bound_log) and math.isfinite(below.log_prefactor)
    above = rspb_constant_composition(bsc(0.1), U2, 530, 530 * R_CRIT)
    assert above.applicable


def test_composition_must_be_integral():
    with pytest.raises(CompositionError):
        rspb_constant_composition(bsc(0.1), bern(0.3), 9, 1.0)
    with pytest.raises(CompositionError, match="positive integer"):
        rspb_constant_composition(bsc(0.1), U2, 0, 1.0)
    rspb_constant_composition(bsc(0.1), bern(0.3), 10, 10 * 0.2)


def _per_input_moments(channel, composition, point):
    """a2 and a3 by one tilted_log_moments call per input of the composition."""
    a2 = a3 = 0.0
    for x in composition.support:
        _, m2, m3 = tilted_log_moments(point.rho_star, channel.rows[x], point.mean)
        a2 += float(composition.masses[x]) * m2
        a3 += float(composition.masses[x]) * m3
    return a2, a3


def _moment_cases():
    rng = np.random.default_rng(7)
    cases = [("bsc", bsc(0.1)), ("bec", bec(0.3)), ("z", zchannel(0.3)),
             ("random 4x5", random_channel(rng, 4, 5))]
    cases += [(f"zeros {i}", channel_with_zeros(rng)) for i in range(6)]
    for label, ch in cases:
        yield pytest.param(ch, uniform_dist(ch.input_size), id=label)
        if ch.input_size >= 3:
            # the second input carries no mass
            masses = np.zeros(ch.input_size)
            masses[0], masses[2:] = 0.5, 0.5 / (ch.input_size - 2)
            yield pytest.param(ch, FiniteDist(masses), id=label + " skip input 1")


@pytest.mark.parametrize("channel, composition", list(_moment_cases()))
def test_constant_composition_moments_match_per_input_loop(channel, composition):
    n = 840
    low = augustin_fixed_point(1e-6, composition, channel).information
    high = augustin_fixed_point(1.0, composition, channel).information
    for frac in (1e-3, 0.3, 0.7, 0.995):
        log_m = n * (low + frac * (high - low))
        point = spe_parametric(composition, channel, log_m / n)
        rep = rspb_constant_composition(channel, composition, n, log_m)
        assert (rep.rho_star, rep.exponent_total) == (point.rho_star, n * point.exponent)
        a2, a3 = _per_input_moments(channel, composition, point)
        assert rep.a2 == pytest.approx(a2, rel=1e-14, abs=0.0)
        assert rep.a3 == pytest.approx(a3, rel=1e-14, abs=0.0)


def test_constant_composition_rejects_a_row_singular_to_the_mean(monkeypatch):
    channel = DiscreteChannel((FiniteDist([0.9, 0.1, 0.0]), FiniteDist([0.0, 0.1, 0.9])))
    point = spe_parametric(U2, channel, 0.3)
    rows = _support_rows(U2, channel)
    # below order one the second row has no mass where the mean has; at
    # order one the first row has mass where the mean has none
    for rho, mean in ((point.rho_star, [1.0, 0.0, 0.0]), (1.0, [0.0, 0.5, 0.5])):
        singular = replace(point, rho_star=rho, mean=FiniteDist(mean))
        with pytest.raises(InfiniteDivergenceError):
            _per_input_moments(channel, U2, singular)
        # the solution at the pair returns, with moments that are not finite
        sol = _solution(rho, *rows, np.array(mean), 1)
        singular = replace(singular, a2=sol.a2, a3=sol.a3)
        monkeypatch.setattr(rspb.spe, "spe_parametric", lambda *_: singular)
        with pytest.raises(InfiniteDivergenceError):
            rspb_constant_composition(channel, U2, 10, 3.0)
        # and its gap refuses it, so that no accepted point lands there
        assert _certified_mean(rho, U2, channel, np.array(mean)) is None


def test_constant_composition_moments_at_order_one_are_the_untilted_ones():
    # at order one the tilt is W(x) itself; an output no input reaches
    # leaves a zero in the mean. `spe_parametric` never returns rho* = 1, so
    # the order-one moments are the solution's
    channel = DiscreteChannel((FiniteDist([0.7, 0.3, 0.0, 0.0]), FiniteDist([0.2, 0.3, 0.5, 0.0])))
    sol = augustin_fixed_point(1.0, U2, channel)
    a2, a3 = _per_input_moments(channel, U2, SimpleNamespace(rho_star=1.0, mean=sol.mean))
    assert sol.a2 == pytest.approx(a2, rel=1e-14, abs=0.0)
    assert sol.a3 == pytest.approx(a3, rel=1e-14, abs=0.0)
    assert _info_derivative(1.0, sol) == 0.5 * sol.a2


def test_theorem_reports_coincide_on_stationary_symmetric():
    # both bounds read their constants off the uniform input's solution
    cases = ((bsc(0.1), (R_CRIT, R_CRIT, 0.2)), (bec(0.3), (0.1, 0.25, 0.4)),
             (CYCLIC4, (0.1, 0.3, 0.4)))
    for channel, rates in cases:
        u = uniform_dist(channel.input_size)
        for n, rate in zip((64, 600, 200), rates):
            cc = rspb_constant_composition(channel, u, n, n * rate)
            sym = rspb_symmetric([channel] * n, n * rate)
            for field in ("rho_star", "exponent_total", "log_prefactor", "bound_log", "a2", "a3"):
                assert abs(getattr(cc, field) - getattr(sym, field)) <= 1e-9, (n, field)
            assert sym.slope_certified


def test_symmetric_balances_alternating_components():
    # ten alternating components pin the half-order tilts at 1/4 and 1/3
    m = 5
    target = m * (R_CRIT + R_CRIT_02)
    rep = rspb_symmetric([bsc(0.1), bsc(0.2)] * m, target)
    assert rep.rho_star == pytest.approx(0.5, abs=1e-10)
    e2 = (1 / 3) * math.log((1 / 3) / 0.2) + (2 / 3) * math.log((2 / 3) / 0.8)
    assert rep.exponent_total == pytest.approx(m * (E_CRIT + e2), abs=1e-9)


def test_symmetric_single_component():
    rep = rspb_symmetric([bsc(0.1)], R_CRIT)
    assert rep.n == 1
    assert not rep.applicable


def test_symmetric_rejects_asymmetric_component():
    with pytest.raises(SymmetryError, match="at least one component"):
        rspb_symmetric([], 0.1)
    with pytest.raises(SymmetryError) as err:
        rspb_symmetric([bsc(0.1), zchannel(0.5)], 0.1)
    assert "1" in str(err.value)
    # the error names the first failing component in the list, whatever
    # order the solve sums the components in
    for failing in ([zchannel(0.5), zchannel(0.3)], [zchannel(0.3), zchannel(0.5)]):
        with pytest.raises(SymmetryError, match="component 2 failed"):
            rspb_symmetric([bsc(0.1), bsc(0.2), *failing, bsc(0.1)], 0.5)


def test_symmetric_report_does_not_depend_on_component_order():
    # 107 components, 5 distinct: every permutation gives every bit
    kinds = ((bsc(0.05), 30), (bsc(0.2), 25), (bec(0.3), 20), (CYCLIC4, 17), (bsc(0.11), 15))
    channels = [ch for ch, count in kinds for _ in range(count)]
    base = rspb_symmetric(channels, 0.25 * 107)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert rspb_symmetric([channels[i] for i in rng.permutation(107)], 0.25 * 107) == base


def test_symmetric_root_does_not_depend_on_the_number_of_letters():
    # the alternating product's root depends only on its mean rate: counted
    # sums give one rho* at every even n, and the per-letter exponent within
    # one ulp
    reports = [rspb_symmetric([bsc(0.1), bsc(0.2)] * (n // 2), 0.15 * n)
               for n in (10**3, 10**4, 10**5)]
    assert len({rep.rho_star for rep in reports}) == 1
    per_letter = [rep.exponent_total / rep.n for rep in reports]
    assert max(per_letter) - min(per_letter) <= math.ulp(per_letter[0])


def test_symmetric_dedupes_equal_components_by_content(monkeypatch):
    # eight equal components built apart are decided symmetric once
    calls = []
    decide = rspb.symmetric._column_classes

    def counting(*args):
        calls.append(args)
        return decide(*args)

    monkeypatch.setattr(rspb.symmetric, "_column_classes", counting)
    separate = rspb_symmetric([bsc(0.1) for _ in range(8)], 8 * R_CRIT)
    assert len(calls) == 1
    assert separate == rspb_symmetric([bsc(0.1)] * 8, 8 * R_CRIT)


def test_symmetric_product_solves_each_distinct_component_once(monkeypatch):
    # each order probe tilts each distinct component once, and once the
    # search has returned, the root's exponent and moments are read off one
    # solution per distinct component at the accepted probe's center and
    # tilt, with no tilt of its own
    probes, returned, solved, tilts = [], [], [], []
    rates, find, solution, tilt = (rspb.symmetric._tilted_rates, rspb.symmetric._solve_components,
                                   rspb.symmetric._solution, rspb.augustin._tilt)

    def probing(rho, *rows):
        probes.append((rho, rows[0].tobytes()))
        return rates(rho, *rows)

    def finding(*args):
        out = find(*args)
        returned.append(len(probes))
        return out

    def solving(*args):
        solved.append(len(returned))
        return solution(*args)

    def tilting(*args):
        tilts.append(len(returned))
        return tilt(*args)

    monkeypatch.setattr(rspb.symmetric, "_tilted_rates", probing)
    monkeypatch.setattr(rspb.augustin, "_tilt", tilting)
    monkeypatch.setattr(rspb.symmetric, "_solve_components", finding)
    monkeypatch.setattr(rspb.symmetric, "_solution", solving)
    channels = [bsc(0.1), bsc(0.2)] * 4
    high = 4 * sum(symmetric_center(1.0, ch)[1] for ch in (bsc(0.1), bsc(0.2)))
    for frac in (1e-3, 0.5, 0.99):
        probes.clear()
        returned.clear()
        solved.clear()
        tilts.clear()
        rep = rspb_symmetric(channels, frac * high)
        # at most 8 order probes of the 2 components, the low end's included,
        # and none once the search has returned
        assert len(probes) <= 16, frac
        assert returned == [len(probes)], frac
        assert solved == [1, 1], frac
        assert tilts and set(tilts) == {0}, frac
        assert len({rows for rho, rows in probes if rho == rep.rho_star}) == 2, frac
        assert rep.slope_certified
        # the report sums each distinct solution times its count: bit for bit
        # that sum, and within a few ulps of the per-letter one
        pair = [symmetric_solution(rep.rho_star, ch) for ch in channels[:2]]
        params = HtParams.from_moments(sum(4 * s.a2 for s in pair) / 8,
                                       sum(4 * s.a3 for s in pair) / 8)
        assert rep.exponent_total == sum(4 * s.tilted_exponent for s in pair), frac
        assert (rep.a2, rep.a3) == (params.a2, params.a3), frac
        sols = [symmetric_solution(rep.rho_star, ch) for ch in channels]
        per_letter = (sum(s.tilted_exponent for s in sols), sum(s.a2 for s in sols) / 8,
                      sum(s.a3 for s in sols) / 8)
        assert (rep.exponent_total, rep.a2, rep.a3) == pytest.approx(per_letter, rel=4e-16), frac


def test_symmetric_rate_range():
    with pytest.raises(RateOutOfRangeError):
        rspb_symmetric([bsc(0.1)] * 4, 10.0)


def test_awgn_equality_anchor():
    n = 600
    rep = rspb_awgn_equality(n, n * R_GOLD, UNIT)
    assert rep.rho_star == pytest.approx(0.5, abs=1e-9)
    assert rep.exponent_total / n == pytest.approx(0.0850153, abs=1e-5)
    point = awgn_parametric(rep.rho_star, UNIT)
    assert rep.a2 == pytest.approx(point.a2, rel=1e-12)
    assert rep.a3 == pytest.approx(point.a3_bound, rel=1e-12)
    # both readings of the applicability condition are reported
    assert rep.condition_lhs_printed is not None
    assert rep.condition_rhs_printed == pytest.approx(point.delta_hat, rel=1e-9)
    assert rep.applicable == (rep.condition_lhs >= rep.condition_rhs)


def test_awgn_equality_doubling_relation():
    n = 2048
    rate = R_GOLD
    rep1 = rspb_awgn_equality(n, n * rate, UNIT)
    rep2 = rspb_awgn_equality(2 * n, 2 * n * rate, UNIT)
    esp = rep1.exponent_total / n
    expected = rep2.bound_log - rep1.bound_log
    assert expected == pytest.approx(-esp * n - math.log(2.0) / (2 * rep1.rho_star), abs=1e-8)


def test_awgn_inequality_extensions():
    n = 500
    shan = rspb_awgn_inequality(n, n * R_GOLD, UNIT, "shannon")
    vv = rspb_awgn_inequality(n, n * R_GOLD, UNIT, "vazquez_vilar")
    eq = rspb_awgn_equality(n, n * R_GOLD, UNIT)
    # the milder cost reduction of the sharper extension gives a larger bound
    assert vv.bound_log > shan.bound_log
    assert abs(shan.bound_log - eq.bound_log) < 1.0
    assert abs(vv.bound_log - eq.bound_log) < 1.0
    assert shan.bound_log == shan.log_prefactor - shan.exponent_total
    with pytest.raises(ValueError):
        rspb_awgn_inequality(n, n * R_GOLD, UNIT, "other")


def test_awgn_inequality_gap_stays_bounded():
    rate = R_GOLD
    gaps = []
    for n in (10**3, 10**4, 10**5, 10**6):
        eq = rspb_awgn_equality(n, n * rate, UNIT)
        ineq = rspb_awgn_inequality(n, n * rate, UNIT, "shannon")
        gaps.append(ineq.bound_log - eq.bound_log)
    assert max(gaps) - min(gaps) <= 1.0
    assert all(abs(g) < 5.0 for g in gaps)


def test_awgn_inequality_near_capacity_extensions_agree():
    c1 = UNIT.capacity_order_one()
    n = 5000
    rate = 0.95 * c1
    shan = rspb_awgn_inequality(n, n * rate, UNIT, "shannon")
    vv = rspb_awgn_inequality(n, n * rate, UNIT, "vazquez_vilar")
    # tangent-step correction is O(rate/n)
    assert abs(shan.bound_log - vv.bound_log) < 0.5


def test_bound_log_monotone_in_n():
    prev = None
    for n in (64, 128, 256, 512, 1024):
        rep = rspb_constant_composition(bsc(0.1), U2, n, n * R_CRIT)
        if prev is not None:
            assert rep.bound_log < prev
        prev = rep.bound_log
    prev = None
    for n in (64, 128, 256, 512, 1024):
        rep = rspb_awgn_equality(n, n * R_GOLD, UNIT)
        if prev is not None:
            assert rep.bound_log < prev
        prev = rep.bound_log


def test_exponent_consistency_with_grid_sup():
    n = 100
    rep = rspb_constant_composition(bsc(0.1), U2, n, n * 0.2)
    grid = brute_spe(U2, bsc(0.1), 0.2, 2048)
    assert rep.exponent_total / n == pytest.approx(grid, abs=1e-6)


def test_report_invariants():
    rep = rspb_constant_composition(bsc(0.1), U2, 64, 64 * R_CRIT)
    assert rep.bound_log == rep.log_prefactor - rep.exponent_total
    assert rep.applicable == (rep.condition_lhs >= rep.condition_rhs)
    assert rep.slope == (rep.rho_star - 1.0) / rep.rho_star
    assert rep.exponent_total >= 0
