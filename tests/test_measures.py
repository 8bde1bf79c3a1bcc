import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rspb.errors import (
    AlphabetMismatchError,
    BudgetExceededError,
    InfiniteDivergenceError,
    InvalidOrderError,
    InvalidProbabilityError,
    PreconditionError,
)
from rspb.measures import (
    FILE_ROW_TOL,
    NORMALIZATION_TOL,
    DiscreteChannel,
    _as_masses,
    _logsumexp,
    _merge_atoms,
    _power_mean,
    FiniteDist,
    bec,
    bern,
    bsc,
    conditional_renyi_divergence,
    identity_residuals,
    product_channel,
    product_log_ratio,
    read_channel,
    read_distribution,
    renyi_divergence,
    tensor_dist,
    tilted_log_moments,
    tilted_measure,
    uniform_dist,
    point_mass,
    zchannel,
)
from conftest import channel_with_zeros, random_dist
from oracle_helpers import masses_checked_elementwise, merge_atoms_1d

LN9 = math.log(9.0)


def test_finite_dist_rejects_negative_and_unnormalized():
    with pytest.raises(ValueError):
        FiniteDist(np.array([0.5, -0.5, 1.0]))
    with pytest.raises(ValueError):
        FiniteDist(np.array([0.6, 0.6]))
    with pytest.raises(PreconditionError):
        FiniteDist(np.array([0.6, 0.6]))
    d = FiniteDist(np.array([0.5, 0.5 + 5e-13]))
    assert abs(d.masses.sum() - 1.0) < 1e-16


MASS_REJECTS = {
    "negative": [0.5, -0.5, 1.0],
    "nan": [math.nan, 1.0],
    "+inf": [math.inf, 0.0],
    "-inf": [-math.inf, 1.0],
    "inf and -inf": [math.inf, -math.inf],
    "empty": [],
    "2-d": [[0.5, 0.5]],
    "unnormalized": [0.6, 0.6],
}


@pytest.mark.parametrize("values", MASS_REJECTS.values(), ids=MASS_REJECTS.keys())
def test_masses_reject_what_elementwise_checks_reject(values):
    # one least mass and one total decide what the elementwise tests did
    with pytest.raises(InvalidProbabilityError) as want:
        masses_checked_elementwise(values, NORMALIZATION_TOL)
    with pytest.raises(InvalidProbabilityError) as got:
        _as_masses(values)
    assert str(got.value) == str(want.value)


def test_masses_whose_finite_sum_overflows_are_rejected():
    # the one message that differs: the total is infinite, so the masses are
    # reported as not finite rather than as summing to inf
    with np.errstate(over="ignore"):
        with pytest.raises(InvalidProbabilityError, match="sum to inf"):
            masses_checked_elementwise([1e308, 1e308], NORMALIZATION_TOL)
        with pytest.raises(InvalidProbabilityError, match="finite and non-negative"):
            _as_masses([1e308, 1e308])


def _masses_with_zeros(size, seed):
    """Dirichlet masses with every third one zeroed, then renormalized."""
    masses = np.random.default_rng(seed).dirichlet(np.ones(size))
    masses[::3] = 0.0
    return masses / masses.sum()


MASS_ACCEPTS = {
    "negative zero": [-0.0, 1.0],
    "point mass": [0.0, 1.0, 0.0],
    "single": [1.0],
    "integers": [0, 1],
    "within tolerance": [0.5, 0.5 + 5e-13],
    "subnormal": [5e-324, 1.0],
    "dirichlet 7": np.random.default_rng(1).dirichlet(np.ones(7)),
    "dirichlet 40 with zeros": _masses_with_zeros(40, 2),
}


@pytest.mark.parametrize("tol", [NORMALIZATION_TOL, FILE_ROW_TOL])
@pytest.mark.parametrize("values", MASS_ACCEPTS.values(), ids=MASS_ACCEPTS.keys())
def test_masses_match_elementwise_checks_bit_for_bit(values, tol):
    want = masses_checked_elementwise(values, tol)
    got = _as_masses(values, tol)
    assert got.tobytes() == want.tobytes()
    assert str(got.dtype) == "float64" and got.shape == want.shape


def test_channel_rows_must_share_alphabet():
    with pytest.raises(AlphabetMismatchError):
        DiscreteChannel((bern(0.1), uniform_dist(3)))


def test_divergence_identity_case_is_zero():
    for p in (0.1, 0.3, 0.5, 0.9):
        assert renyi_divergence(0.5, bern(p), bern(p)) == 0.0


def test_divergence_half_order_hand_value():
    # direct evaluation: -2 ln(sqrt(0.045) + sqrt(0.05)) = -2 ln(2/sqrt(5))
    expected = -2.0 * math.log(2.0 / math.sqrt(5.0))
    assert renyi_divergence(0.5, bern(0.1), bern(0.5)) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.2231436, abs=1e-7)


def test_divergence_kl_hand_value():
    expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    assert renyi_divergence(1.0, bern(0.25), bern(0.5)) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.1308120, abs=1e-7)


def test_divergence_conventions():
    disjoint_w = FiniteDist(np.array([1.0, 0.0]))
    disjoint_q = FiniteDist(np.array([0.0, 1.0]))
    for rho in (0.3, 0.5, 1.0, 1.7):
        assert renyi_divergence(rho, disjoint_w, disjoint_q) == math.inf
    # w-mass outside q support: infinite at orders >= 1, finite below
    w = FiniteDist(np.array([0.5, 0.5]))
    q = FiniteDist(np.array([1.0, 0.0]))
    assert renyi_divergence(1.0, w, q) == math.inf
    assert renyi_divergence(1.5, w, q) == math.inf
    assert math.isfinite(renyi_divergence(0.5, w, q))
    with pytest.raises(InvalidOrderError):
        renyi_divergence(0.0, w, q)
    with pytest.raises(AlphabetMismatchError):
        renyi_divergence(0.5, bern(0.1), uniform_dist(3))



@pytest.mark.parametrize("wm, qm", [
    ([1e-300, 1.0 - 1e-300], [0.5, 0.5]),
    ([1e-300, 0.3, 0.7], [0.5, 0.25, 0.25]),
], ids=["two-point", "three-point"])
def test_divergence_log_sum_exp_fallback(wm, qm):
    # (rho - 1) ln(w / q) exceeds 500 on the 1e-300 atom, so the expm1 form
    # would overflow and the log-sum-exp form takes over
    rho = 0.1
    logs = [rho * math.log(w) + (1.0 - rho) * math.log(q) for w, q in zip(wm, qm)]
    top = max(logs)
    ref = (top + math.log(math.fsum(math.exp(x - top) for x in logs))) / (rho - 1.0)
    got = renyi_divergence(rho, FiniteDist(wm), FiniteDist(qm))
    assert got == pytest.approx(ref, rel=1e-14, abs=0.0)

def test_divergence_monotone_in_order(rng):
    grid = np.arange(1, 21) * 0.1
    for _ in range(25):
        size = int(rng.integers(2, 6))
        w = random_dist(rng, size)
        q = random_dist(rng, size)
        vals = [renyi_divergence(float(r), w, q) for r in grid]
        assert all(b >= a - 1e-11 for a, b in zip(vals, vals[1:]))


def test_divergence_positive_unless_equal(rng):
    for _ in range(25):
        size = int(rng.integers(2, 6))
        w = random_dist(rng, size)
        q = random_dist(rng, size)
        gap = float(np.abs(w.masses - q.masses).max())
        for rho in (0.2, 0.7, 1.0, 1.5):
            d = renyi_divergence(rho, w, q)
            assert d >= 0.0
            if gap > 1e-6:
                assert d > 0.0


def test_tilted_measure_examples():
    w, q = bern(0.1), bern(0.5)
    assert tilted_measure(0.5, w, q).allclose(bern(0.25), tol=1e-15)
    assert tilted_measure(0.7, w, w).allclose(w, tol=1e-15)
    assert tilted_measure(1.0, w, q) is w
    with pytest.raises(InfiniteDivergenceError):
        tilted_measure(1.0, FiniteDist(np.array([0.5, 0.5])), FiniteDist(np.array([1.0, 0.0])))


TILT_PAIRS = [
    ([0.5, 0.5, 0.0], [0.2, 0.3, 0.5]),  # w << q
    ([0.5, 0.5, 0.0], [0.0, 0.4, 0.6]),  # w has mass where q has none
    ([0.2, 0.3, 0.5], [0.6, 0.4, 0.0]),
    ([1.0, 0.0, 0.0], [0.0, 0.5, 0.5]),  # disjoint supports
    ([0.0, 1.0, 0.0], [0.0, 1.0, 0.0]),
    ([0.1, 0.6, 0.3], [0.3, 0.3, 0.4]),
]


@pytest.mark.parametrize("rho", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("wm, qm", TILT_PAIRS)
def test_tilted_measure_raises_exactly_when_the_divergence_is_infinite(rho, wm, qm):
    w, q = FiniteDist(np.array(wm)), FiniteDist(np.array(qm))
    if math.isinf(renyi_divergence(rho, w, q)):
        with pytest.raises(InfiniteDivergenceError):
            tilted_measure(rho, w, q)
        return
    t = tilted_measure(rho, w, q)
    if rho == 1.0:
        assert t is w
        return
    # the normalized geometric interpolation on the joint support, bit for bit
    joint = (w.masses > 0) & (q.masses > 0)
    logits = rho * np.log(w.masses[joint]) + (1.0 - rho) * np.log(q.masses[joint])
    expect = np.zeros(3)
    expect[joint] = np.exp(logits - _logsumexp(logits))
    assert t.masses.tobytes() == FiniteDist(expect).masses.tobytes()


def test_conditional_divergence_examples():
    ch = bsc(0.1)
    u = uniform_dist(2)
    half = renyi_divergence(0.5, bern(0.1), bern(0.5))
    assert conditional_renyi_divergence(0.5, ch, bern(0.5), u) == pytest.approx(half, abs=1e-15)
    one = math.log(2.0) - (-0.1 * math.log(0.1) - 0.9 * math.log(0.9))
    assert conditional_renyi_divergence(1.0, ch, bern(0.5), u) == pytest.approx(one, abs=1e-12)
    assert one == pytest.approx(0.3680642, abs=1e-7)
    # point mass reduces to a single divergence even when the other row is singular
    zch = DiscreteChannel((bern(0.0), bern(0.5)))
    d = conditional_renyi_divergence(1.0, zch, bern(0.0), point_mass(0, 2))
    assert d == 0.0


def test_tilted_log_moments_two_point_closed_forms():
    mean, a2, a3 = tilted_log_moments(0.5, bern(0.1), bern(0.5))
    assert mean == pytest.approx(0.75 * math.log(1.8) + 0.25 * math.log(0.2), abs=1e-15)
    assert mean == pytest.approx(0.0384805, abs=1e-7)
    assert a2 == pytest.approx(0.1875 * LN9**2, abs=1e-13)
    assert a3 == pytest.approx((0.75 * 0.25**3 + 0.25 * 0.75**3) * LN9**3, abs=1e-12)
    assert a3 == pytest.approx(1.2431, abs=1e-4)
    _, a2_one, _ = tilted_log_moments(1.0, bern(0.25), bern(0.5))
    assert a2_one == pytest.approx(0.1875 * math.log(3.0) ** 2, abs=1e-14)
    mean0, a20, a30 = tilted_log_moments(0.4, bern(0.3), bern(0.3))
    assert (mean0, a20, a30) == (0.0, 0.0, 0.0)


def test_two_point_variance_closed_form_random(rng):
    # a2 = t (1-t) gap^2 for any binary tilted law
    for _ in range(20):
        w = bern(float(rng.uniform(0.05, 0.95)))
        q = bern(float(rng.uniform(0.05, 0.95)))
        rho = float(rng.uniform(0.1, 0.9))
        t = tilted_measure(rho, w, q)
        gap = math.log(w.masses[0] / q.masses[0]) - math.log(w.masses[1] / q.masses[1])
        _, a2, _ = tilted_log_moments(rho, w, q)
        assert a2 == pytest.approx(t.masses[0] * t.masses[1] * gap**2, rel=1e-12)


def test_identity_residuals_examples():
    res = identity_residuals(0.5, bern(0.1), bern(0.5))
    assert res <= 1e-12
    # both sides of the variational identity evaluate to 0.1115718
    lhs = 0.5 * renyi_divergence(0.5, bern(0.1), bern(0.5))
    assert lhs == pytest.approx(0.1115718, abs=1e-7)
    assert identity_residuals(0.3, bern(0.4), bern(0.4)) == 0.0


def test_identity_residuals_random_pairs(rng):
    worst = 0.0
    for _ in range(200):
        size = int(rng.integers(2, 7))
        rho = float(rng.uniform(0.02, 0.98))
        worst = max(worst, identity_residuals(rho, random_dist(rng, size), random_dist(rng, size)))
    assert worst <= 1e-9


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=5),
    other=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=5),
    rho=st.floats(0.05, 0.95),
)
def test_variational_identity_property(data, other, rho):
    size = min(len(data), len(other))
    w = FiniteDist(np.array(data[:size]) / np.sum(data[:size]))
    q = FiniteDist(np.array(other[:size]) / np.sum(other[:size]))
    assert identity_residuals(rho, w, q) <= 1e-9
    assert tilted_measure(1.0, w, q) is w


def test_product_log_ratio_binary_collapse():
    w, q = bern(0.1), bern(0.5)
    atoms = product_log_ratio([w] * 10, [q] * 10)
    # binomial collapse: 11 atoms on the count lattice
    assert atoms.values.size == 11
    assert atoms.w_plus_inf == 0.0 and atoms.q_minus_inf == 0.0
    assert atoms.w_mass.sum() == pytest.approx(1.0, abs=1e-12)
    k = np.arange(10, 11 - atoms.values.size - 1, -1)
    # values are 10 ln 1.8 - k ln 9 in decreasing-k order after sorting
    expected = sorted(10 * math.log(1.8) - kk * LN9 for kk in range(11))
    assert np.allclose(np.sort(atoms.values), expected, atol=1e-9)


def test_logsumexp_matches_scipy_bit_for_bit():
    from scipy.special import logsumexp

    rng = np.random.default_rng(7)
    for _ in range(300):
        a = rng.normal(scale=rng.choice([1.0, 30.0, 400.0]), size=(rng.integers(1, 6), 5))
        if rng.random() < 0.5:
            a = np.round(a)  # ties at the peak
        a[rng.random(a.shape) < 0.25] = -np.inf
        if rng.random() < 0.2:
            a[:, 0] = -np.inf  # a column with no finite term
        for axis in (None, 0, 1):
            got, want = _logsumexp(a, axis=axis), logsumexp(a, axis=axis)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)


def test_power_mean_matches_log_domain_reference():
    """The product form of the power mean against a log-domain sum over
    rho ln W + log-weights, on channels with exact zeros and on weights with a
    -inf entry or one entry 600 nats below the rest."""
    from scipy.special import logsumexp

    rhos = np.array([1e-6, 1e-3, 0.02, 0.3, 0.5, 0.9, 0.999])
    rng = np.random.default_rng(17)
    for k in range(400):
        lw = channel_with_zeros(rng).log_row_matrix()
        log_weights = np.log(rng.dirichlet(np.ones(len(lw))))
        if k % 4 == 1:
            log_weights[rng.integers(len(lw))] = -np.inf
        elif k % 4 == 2:
            log_weights[rng.integers(len(lw))] -= 600.0
        for rho in rhos:
            center, value = _power_mean(rho, lw, log_weights)
            log_m = logsumexp(rho * lw + log_weights[:, None], axis=0) / rho
            log_norm = logsumexp(log_m)
            want = np.exp(log_m - log_norm)
            assert np.array_equal(center == 0, want == 0)
            big = want > 1e-290
            rel = np.abs(center[big] / want[big] - 1.0).max()
            assert rel <= max(1e-12, 1e-15 / rho)
            assert abs(value - rho / (rho - 1.0) * log_norm) <= 1e-12


def test_merge_atoms_matches_group_loop():
    rng = np.random.default_rng(11)
    for size in (1, 2, 7, 40, 600):
        values = np.round(rng.normal(size=size) * 4) * 0.25 + rng.normal(size=size) * 1e-14
        w, q = rng.random(size), rng.random(size)
        order = np.argsort(values, kind="stable")
        runs = np.split(order, np.flatnonzero(np.diff(values[order]) > 1e-12) + 1)
        got_v, got_w, got_q = _merge_atoms(values, 1e-12, w, q)
        assert np.array_equal(got_v, [values[r[0]] for r in runs])
        # reduceat sums each run in sequence, the loop pairwise
        slack = size * np.finfo(float).eps
        assert np.allclose(got_w, [w[r].sum() for r in runs], rtol=slack, atol=0)
        assert np.allclose(got_q, [q[r].sum() for r in runs], rtol=slack, atol=0)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_merge_atoms_merges_each_row_of_a_2d_array():
    rng = np.random.default_rng(12)
    shape = (7, 9)
    values = np.round(rng.normal(size=shape) * 2) * 0.5 + rng.normal(size=shape) * 1e-14
    values[rng.random(shape) < 0.3] = np.nan  # absent atoms
    values[1] = np.nan  # a row with no atom
    values[2, :3] = np.inf  # equal infinities are one run
    w, q = rng.random(shape), rng.random(shape)
    got = _merge_atoms(values, 1e-12, w, q)
    counts = []
    for row in range(shape[0]):
        present = ~np.isnan(values[row])
        want = merge_atoms_1d(values[row, present], 1e-12, w[row, present], q[row, present])
        n = want[0].size
        counts.append(n)
        for g, x in zip(got, want):
            assert _same_bits(g[row, :n], x)
        # padded with nan values and zero masses
        assert np.isnan(got[0][row, n:]).all()
        assert not got[1][row, n:].any() and not got[2][row, n:].any()
    assert got[0].shape == (shape[0], max(counts))
    assert counts[1] == 0 and counts[2] >= 1
    # a 1-D array is the one-row case, unpadded
    v0 = values[0, ~np.isnan(values[0])]
    for g, x in zip(_merge_atoms(v0, 1e-12, w[0, :v0.size]), merge_atoms_1d(v0, 1e-12, w[0, :v0.size])):
        assert _same_bits(g, x)


def test_product_log_ratio_atoms_match_one_row_merges():
    rng = np.random.default_rng(4)
    w_seq = [random_dist(rng, 3) for _ in range(5)] + [bern(0.1)] * 6 + [bern(0.0)]
    q_seq = [random_dist(rng, 3) for _ in range(5)] + [bern(0.5)] * 6 + [bern(0.3)]
    atoms = product_log_ratio(w_seq, q_seq)
    values, w_mass, q_mass = np.zeros(1), np.ones(1), np.ones(1)
    for w, q in zip(w_seq, q_seq):
        joint = (w.masses > 0) & (q.masses > 0)
        v = np.log(w.masses[joint]) - np.log(q.masses[joint])
        values, w_mass, q_mass = merge_atoms_1d(
            (values[:, None] + v).ravel(), 1e-12,
            (w_mass[:, None] * w.masses[joint]).ravel(),
            (q_mass[:, None] * q.masses[joint]).ravel(),
        )
    assert _same_bits(atoms.values, values)
    assert _same_bits(atoms.w_mass, w_mass)
    assert _same_bits(atoms.q_mass, q_mass)


def test_product_log_ratio_singular_pair():
    atoms = product_log_ratio([bern(0.0)], [bern(1.0)])
    assert atoms.values.size == 0
    assert atoms.w_plus_inf == 1.0 and atoms.q_minus_inf == 1.0


def test_product_log_ratio_budget():
    rng = np.random.default_rng(1)
    w = [random_dist(rng, 4, floor=1e-3) for _ in range(8)]
    q = [random_dist(rng, 4, floor=1e-3) for _ in range(8)]
    with pytest.raises(BudgetExceededError):
        product_log_ratio(w, q, budget=100)
    # a budget of 0 enumerates nothing; a negative one is refused
    with pytest.raises(BudgetExceededError):
        product_log_ratio([bern(0.1)], [bern(0.5)], budget=0)
    with pytest.raises(PreconditionError, match="budget must be non-negative, got -1"):
        product_log_ratio([bern(0.1)], [bern(0.5)], budget=-1)


def test_tensor_and_product_channel():
    d = tensor_dist(bern(0.2), bern(0.5))
    assert np.allclose(d.masses, [0.4, 0.4, 0.1, 0.1])
    ch = product_channel(bsc(0.1), bsc(0.2))
    assert ch.input_size == 4 and ch.output_size == 4
    assert ch.rows[0].allclose(tensor_dist(bern(0.1), bern(0.2)), tol=1e-15)


@pytest.mark.parametrize("log_first", [False, True])
def test_row_matrices_are_formed_once_and_read_only(log_first):
    rows = (FiniteDist([0.7, 0.3, 0.0]), FiniteDist([0.0, 0.3, 0.7]), FiniteDist([0.2, 0.5, 0.3]))
    ch = DiscreteChannel(rows)
    if log_first:
        ch.log_row_matrix()
    w, lw = ch.row_matrix(), ch.log_row_matrix()
    assert ch.row_matrix() is w and ch.log_row_matrix() is lw
    stacked = np.vstack([r.masses for r in rows])
    with np.errstate(divide="ignore"):
        logs = np.log(stacked)
    assert w.tobytes() == stacked.tobytes()
    assert lw.tobytes() == logs.tobytes()
    assert lw[0, 2] == -np.inf and lw[1, 0] == -np.inf
    for arr in (w, lw):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.5
    assert np.array_equal(ch.row_matrix(), stacked)


def test_file_round_trips(tmp_path):
    dist_file = tmp_path / "d.json"
    dist_file.write_text(json.dumps({"masses": [0.25, 0.75]}))
    assert read_distribution(dist_file).allclose(bern(0.75))
    chan_file = tmp_path / "c.json"
    chan_file.write_text(
        json.dumps({"inputs": 2, "outputs": 2, "rows": [[0.9, 0.1], [0.1, 0.9]]})
    )
    ch = read_channel(chan_file)
    assert ch.rows[0].allclose(bern(0.1))

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"masses": [0.5, -0.1, 0.6]}))
    with pytest.raises(ValueError):
        read_distribution(bad)
    bad.write_text(json.dumps({"inputs": 2, "outputs": 2, "rows": [[0.9, 0.2], [0.1, 0.9]]}))
    with pytest.raises(ValueError):
        read_channel(bad)


def test_canonical_channels():
    assert bsc(0.1).rows[1].allclose(bern(0.9))
    e = bec(0.3)
    assert np.allclose(e.rows[0].masses, [0.7, 0.3, 0.0])
    assert np.allclose(e.rows[1].masses, [0.0, 0.3, 0.7])
    # out-of-range parameters are precondition violations that stay ValueErrors
    for make, bad in ((bern, 1.5), (bsc, -0.2), (bec, 1.1), (zchannel, 2.0)):
        with pytest.raises(PreconditionError) as info:
            make(bad)
        assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("p", [0.0, 1e-12, 1e-8, 0.1, 0.3, 0.49, 0.5, 1.0])
def test_bsc_rows_are_exact_mirrors(p):
    # row 1 holds p itself, not 1 - (1 - p), which differs from p below ~4e-8
    rows = bsc(p).row_matrix()
    assert rows[1].tobytes() == rows[0][::-1].tobytes()
    assert rows[0].tobytes() == bern(p).masses.tobytes()
