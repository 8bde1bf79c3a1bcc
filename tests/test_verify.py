import pytest

from rspb import verify
from rspb.augustin import augustin_fixed_point
from rspb.errors import PreconditionError
from rspb.verify import run_suite


def test_htbe_suite_small():
    report = run_suite("htbe", ns=(64,), betas_per_n=3)
    assert report["all_pass"]
    props = {c["property"] for c in report["checks"]}
    assert any("window" in p for p in props)
    assert any("converse" in p for p in props)
    assert any("Q budget" in p for p in props)


def test_identities_suite_small():
    report = run_suite("identities", pairs=40, fixed_points=10, seed=3)
    assert report["all_pass"]
    assert len(report["checks"]) == 3


def test_spe_suite_small():
    report = run_suite("spe", instances=2, grid_size=1024, seed=5)
    assert report["all_pass"]


def test_each_spe_instance_is_one_spe_parametric_call(monkeypatch):
    calls = []
    solve = verify.spe_parametric

    def counting(p, channel, rate):
        calls.append(rate)
        return solve(p, channel, rate)

    monkeypatch.setattr(verify, "spe_parametric", counting)
    report = run_suite("spe", instances=3, grid_size=256, seed=5)
    assert len(report["checks"]) == 3
    assert [f"rate={rate:.6g}" for rate in calls] == [
        check["instance"].split(", ")[1] for check in report["checks"]]


def test_thirdmoment_suite_small():
    report = run_suite("thirdmoment", count=100, seed=1)
    assert report["all_pass"]


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_all_runs_every_suite():
    # exercised with tiny sizes through the individual suites above; here we
    # only check the aggregation shape using the cheapest members
    report = run_suite("thirdmoment", count=10, seed=0)
    assert set(report) == {"suite", "checks", "all_pass"}


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("spe", {"instances": 0}),
        ("identities", {"pairs": 0}),
        ("identities", {"fixed_points": 0}),
        ("thirdmoment", {"count": -3}),
        ("htbe", {"ns": (64,), "betas_per_n": 0}),
        ("htbe", {"ns": ()}),
    ],
)
def test_sizes_below_one_are_rejected(name, kwargs):
    with pytest.raises(PreconditionError):
        run_suite(name, **kwargs)


def test_suite_that_checks_nothing_does_not_pass(monkeypatch):
    # equal ends make every instance's rate range flat, so the suite skips
    # them all
    def flat(p, channel):
        high = augustin_fixed_point(1.0, p, channel).information
        return high, high

    monkeypatch.setattr(verify, "_rate_endpoints", flat)
    report = run_suite("spe", instances=3, grid_size=256)
    assert report["checks"] == []
    assert report["all_pass"] is False


# seeds whose first draw (or first two, for 1519786607) has a flat rate
# profile: `--instances 1` used to check nothing on them
FLAT_DRAW_SEEDS = (11, 1921983831, 1072590699, 1052106405, 1558804511, 1519786607,
                   1742176588, 1226435812, 1947537187, 1774095464)


@pytest.mark.parametrize("seed", FLAT_DRAW_SEEDS)
def test_flat_draws_are_replaced(seed):
    report = run_suite("spe", instances=1, grid_size=256, seed=seed)
    assert len(report["checks"]) == 1
    assert not report["checks"][0]["instance"].startswith("instance 0,")
    assert report["all_pass"]


def test_suite_short_of_its_instances_does_not_pass(monkeypatch):
    # only the first draw has a rate range, so the second instance never comes
    real = verify._rate_endpoints
    calls = []

    def flat_after_first(p, channel):
        calls.append(channel)
        if len(calls) == 1:
            return real(p, channel)
        high = augustin_fixed_point(1.0, p, channel).information
        return high, high

    monkeypatch.setattr(verify, "_rate_endpoints", flat_after_first)
    report = run_suite("spe", instances=2, grid_size=256)
    assert len(report["checks"]) == 1 and report["checks"][0]["pass"]
    assert report["all_pass"] is False
    assert len(calls) == 2 * verify.SPE_DRAWS_PER_INSTANCE
