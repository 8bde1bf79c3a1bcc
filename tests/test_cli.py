import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rspb.augustin
import rspb.spe
import rspb.symmetric
from rspb.augustin import augustin_info_derivative, haroutunian_rate
from rspb.cli import main
from rspb.errors import NonConvergenceError
from rspb.measures import uniform_dist, zchannel
from rspb.spe import spe_parametric
from conftest import channel_with_zeros

R_CRIT = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spe_report_values(capsys):
    code, out, _ = run_cli(
        capsys, "spe", "--bsc", "0.1", "--composition", "uniform", "--rate", "0.1308120"
    )
    assert code == 0
    report = json.loads(out)
    assert report["rho_star"] == pytest.approx(0.5, abs=1e-6)
    assert report["exponent"] == pytest.approx(0.0923315, abs=1e-6)


def test_awgn_report_values(capsys):
    code, out, _ = run_cli(
        capsys, "awgn", "--sigma2", "1", "--cost", "1", "--rate", "0.1346382"
    )
    assert code == 0
    report = json.loads(out)
    assert report["rho_star"] == pytest.approx(0.5, abs=1e-6)
    assert report["esp"] == pytest.approx(0.0850153, abs=1e-6)
    assert report["sgex"] == pytest.approx(0.0850153, abs=1e-6)


def test_divergence_with_files(capsys, tmp_path):
    w = tmp_path / "w.json"
    q = tmp_path / "q.json"
    w.write_text(json.dumps({"masses": [0.9, 0.1]}))
    q.write_text(json.dumps({"masses": [0.5, 0.5]}))
    code, out, _ = run_cli(
        capsys, "divergence", "--order", "0.5", "--w", str(w), "--q", str(q)
    )
    assert code == 0
    report = json.loads(out)
    assert report["divergence"] == pytest.approx(0.223143551, abs=1e-8)
    assert report["tilted"] == [0.75, 0.25]


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "divergence", "--order", "0.5", "--w", "/nonexistent.json", "--q", "/nonexistent.json"
    )
    assert code == 1
    assert "cannot read" in err


def test_malformed_file_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"masses": [0.5, -0.1, 0.6]}))
    code, _, err = run_cli(
        capsys, "divergence", "--order", "0.5", "--w", str(bad), "--q", str(bad)
    )
    assert code == 1
    bad.write_text('{"inputs": 2, "outputs": 2, "rows": [[0.9, 0.1], [0.1, 0.9]')
    code, _, err = run_cli(capsys, "capacity", "--order", "0.5", "--channel", str(bad))
    assert code == 1
    assert "cannot read" in err


def test_precondition_violation_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "spe", "--bsc", "0.1", "--rate", "3.0")
    assert code == 2
    assert "precondition" in err
    code, _, err = run_cli(capsys, "augustin", "--order", "1.5", "--bsc", "0.1")
    assert code == 2
    code, _, err = run_cli(capsys, "spe", "--rate", "0.1")
    assert code == 2
    # a rate grid is start:stop:count with start < stop and count >= 2
    for grid in ("0.1:0.2", "0.2:0.1:5", "0.1:0.2:1"):
        code, out, err = run_cli(capsys, "spe", "--bsc", "0.1", "--rate", grid)
        assert (code, out) == (2, ""), grid
        assert "precondition" in err, grid
    # a command that needs a rate or its stand-in refuses to run without one
    for argv in (("awgn", "--sigma2", "1", "--cost", "1"),
                 ("rspb", "--mode", "cc", "--bsc", "0.1", "--n", "100")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "precondition" in err, argv
    code, out, err = run_cli(capsys, "htbe", "--order", "1", "--n", "10", "--beta", "0.004",
                             "--w-bern", "0.1", "--q-bern", "0.5")
    assert (code, out) == (2, "")
    assert "precondition" in err
    # out-of-range channel parameters read no file
    code, _, err = run_cli(capsys, "spe", "--bsc", "1.5", "--rate", "0.1")
    assert code == 2
    assert "precondition" in err
    code, _, err = run_cli(capsys, "capacity", "--order", "0.5", "--bsc", "-0.2")
    assert code == 2
    assert "precondition" in err
    code, _, err = run_cli(capsys, "capacity", "--order", "1.5", "--bsc", "0.1")
    assert code == 2
    code, _, err = run_cli(
        capsys, "htbe", "--order", "0.5", "--n", "0", "--beta", "0.004",
        "--w-bern", "0.1", "--q-bern", "0.5",
    )
    assert code == 2
    assert "precondition" in err
    code, _, err = run_cli(capsys, "rspb", "--mode", "awgn", "--n", "10", "--rate", "0.1")
    assert code == 2
    assert "precondition" in err
    code, _, err = run_cli(capsys, "augustin", "--order", "0.3", "--bsc", "0.1",
                           "--max-iter", "-1")
    assert code == 2
    assert "precondition" in err
    code, _, err = run_cli(capsys, "capacity", "--order", "0.5", "--bsc", "0.1", "--tol", "-1")
    assert code == 2
    assert "precondition" in err
    code, out, err = run_cli(capsys, "symmetric", "--bsc", "0.1", "--tol", "-1")
    assert code == 2
    assert out == ""
    assert "precondition" in err
    code, out, err = run_cli(capsys, "verify", "spe", "--grid-size", "1")
    assert code == 2
    assert out == ""
    assert "precondition" in err
    # two options that set the same thing: argparse refuses the pair
    for argv in (("awgn", "--sigma2", "1", "--cost", "1", "--order", "0.3", "--rate", "0.1"),
                 ("rspb", "--mode", "awgn", "--sigma2", "1", "--cost", "1", "--n", "100",
                  "--log-m-over-l", "5", "--rate", "0.1")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert "not allowed with argument" in err
    # malformed cost constraints are preconditions, not failures inside the ascent
    # (json reads NaN and Infinity)
    f = tmp_path / "cost.json"
    for costs, budget in (([0.0, math.nan], 0.3), ([0.0, math.inf], 0.3), ([], 0.3),
                          ([[0.0, 1.0]], 0.3), ([0.0, 1.0], math.nan),
                          ([0.0, 1.0], math.inf), ([0.0, 1.0, 2.0], 0.3)):
        f.write_text(json.dumps({"kind": "cost", "costs": costs, "budget": budget}))
        code, out, err = run_cli(capsys, "capacity", "--order", "0.5", "--bsc", "0.1",
                                 "--constraint", str(f))
        assert code == 2
        assert out == ""
        assert "precondition" in err
    # order one has no rate below capacity, so no CSV row
    for extra in ((), ("--n", "100")):
        code, out, err = run_cli(capsys, "awgn", "--sigma2", "1", "--cost", "1",
                                 "--order", "1", "--output", "csv", *extra)
        assert code == 2
        assert out == ""
        assert "precondition" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("spe", "--instances", "0"),
        ("identities", "--pairs", "0"),
        ("thirdmoment", "--count", "-3"),
        ("htbe", "--n", "64", "--betas", "0"),
    ],
    ids=["spe", "identities", "thirdmoment", "htbe"],
)
def test_verify_with_nothing_to_check_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert "precondition" in err


def test_fixed_point_without_steps_exits_3(capsys):
    code, out, err = run_cli(
        capsys, "augustin", "--order", "0.3", "--zchannel", "0.3", "--max-iter", "0"
    )
    assert code == 3
    assert json.loads(out)["error"] == "NonConvergenceError"
    assert "not certified" in err


def test_capacity_ascent_with_no_finite_divergence_exits_3(capsys, tmp_path):
    # draw 26's power-mean ascent at this order reaches a point where no
    # divergence is finite; that is a failed computation, not invalid input
    rows = channel_with_zeros(np.random.default_rng(26)).row_matrix()
    path = tmp_path / "c26.json"
    path.write_text(json.dumps({"inputs": rows.shape[0], "outputs": rows.shape[1],
                                "rows": rows.tolist()}))
    code, out, err = run_cli(capsys, "capacity", "--order", "1.1827650669214335e-05",
                             "--channel", str(path))
    assert code == 3
    assert json.loads(out)["error"] == "NonConvergenceError"
    assert "not certified" in err


def test_sweep_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "spe", "--bsc", "0.1", "--rate", "0.02:0.35:34")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "rate,rho_star,exponent,slope,log_prefactor,bound_log,applicable,status"
    assert len(lines) == 35
    rows = [line.split(",") for line in lines[1:]]
    assert all(r[-1] == "ok" for r in rows)
    exps = [float(r[2]) for r in rows]
    assert all(b < a for a, b in zip(exps, exps[1:]))
    second = np.diff(np.array(exps), 2)
    assert second.min() >= -1e-9


def test_sweep_crossing_capacity_flags_rows(capsys):
    # rows beyond the order-one information fail in-row without aborting
    code, out, _ = run_cli(capsys, "spe", "--bsc", "0.1", "--rate", "0.3:0.45:4")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    bad = [r for r in rows if r[-1] != "ok"]
    good = [r for r in rows if r[-1] == "ok"]
    assert bad and good
    assert all(r[1] == "nan" for r in bad)
    assert {r[-1] for r in bad} == {"RateOutOfRangeError"}


def test_sweep_makes_one_solve_per_row_and_matches_per_rate_rows(capsys, monkeypatch):
    calls = []
    solve = rspb.spe.augustin_fixed_point

    def counting(rho, *args, **kwargs):
        calls.append(rho)
        return solve(rho, *args, **kwargs)

    monkeypatch.setattr(rspb.spe, "augustin_fixed_point", counting)
    code, out, _ = run_cli(capsys, "spe", "--bsc", "0.1", "--rate", "0.02:0.35:34", "--n", "600")
    assert code == 0
    # the rate range takes no fixed point, and every row's Newton point
    # certifies without one
    assert calls == []
    # refused, each row takes one cold solve, at Newton's order
    with monkeypatch.context() as refused:
        refused.setattr(rspb.spe, "_certified_mean", lambda *args: None)
        run_cli(capsys, "spe", "--bsc", "0.1", "--rate", "0.02:0.35:34", "--n", "600")
    assert len(calls) == 34
    assert all(0.0 < rho < 1.0 for rho in calls)
    lines = out.strip().split("\n")
    for rate, line in zip(np.linspace(0.02, 0.35, 34), lines[1:]):
        _, single, _ = run_cli(capsys, "spe", "--bsc", "0.1", "--rate", repr(float(rate)),
                               "--n", "600", "--output", "csv")
        assert single.strip().split("\n") == [lines[0], line]


def test_sweep_rows_carry_an_endpoint_failure(capsys, monkeypatch):
    calls = []

    def failing(*args):
        calls.append(args)
        raise NonConvergenceError("fixed point did not converge", 1e-9)

    # a failed order-0 end, and a Newton search that bails before a fixed
    # point that always fails: either way every row makes its own call and
    # carries its own error
    for name in ("_order_zero_information", "augustin_fixed_point"):
        monkeypatch.setattr(rspb.spe, name, failing)
        monkeypatch.setattr(rspb.spe, "_newton_order", lambda *args: None)
        for extra in ((), ("--n", "600")):
            calls.clear()
            code, out, _ = run_cli(capsys, "spe", "--bsc", "0.1", "--rate", "0.1:0.2:3", *extra)
            assert code == 0
            assert len(calls) == 3, name
            rows = [line.split(",") for line in out.strip().split("\n")[1:]]
            assert [r[-1] for r in rows] == ["NonConvergenceError"] * 3
        monkeypatch.undo()


@pytest.mark.parametrize("extra", [(), ("--n", "600")])
def test_each_sweep_row_is_one_spe_parametric_call(capsys, monkeypatch, extra):
    calls = []

    def counting(p, channel, rate):
        calls.append(rate)
        return spe_parametric(p, channel, rate)

    monkeypatch.setattr(rspb.spe, "spe_parametric", counting)
    code, out, _ = run_cli(capsys, "spe", "--bsc", "0.1", "--rate", "0.0:0.7:8", *extra)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    # rates out of range are rows too, each from its one call
    assert {r[-1] for r in rows} == {"ok", "RateOutOfRangeError"}
    assert len(calls) == 8
    assert calls == pytest.approx(np.linspace(0.0, 0.7, 8), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("argv", [
    ("spe", "--bsc", "0.1", "--rate", "0.1"),
    ("awgn", "--sigma2", "1", "--cost", "1", "--order", "0.5"),
    ("awgn", "--sigma2", "1", "--cost", "1", "--rate", "0.1"),
], ids=["spe rate", "awgn order", "awgn rate"])
def test_n_with_a_single_json_report_exits_2(capsys, argv):
    # only a rate grid or a CSV row reads --n; a JSON report would drop it
    code, out, err = run_cli(capsys, *argv, "--n", "600")
    assert code == 2
    assert out == ""
    assert "--n" in err
    code, out, _ = run_cli(capsys, *argv, "--n", "600", "--output", "csv")
    assert code == 0 and out.strip().endswith(",ok")


def test_sweep_two_points(capsys):
    code, out, _ = run_cli(capsys, "spe", "--bsc", "0.1", "--rate", "0.1:0.2:2")
    assert code == 0
    assert len(out.strip().split("\n")) == 3


def test_sweep_with_blocklength_fills_prefactor(capsys):
    code, out, _ = run_cli(
        capsys, "spe", "--bsc", "0.1", "--rate", "0.1:0.2:3", "--n", "600"
    )
    lines = out.strip().split("\n")
    row = lines[1].split(",")
    assert row[4] != "nan" and row[5] != "nan"
    assert row[6] in ("true", "false")


@pytest.mark.parametrize("argv", [
    ("spe", "--bsc", "0.1"),
    ("spe", "--bsc", "0.1", "--n", "600"),
    ("awgn", "--sigma2", "1", "--cost", "1"),
    ("awgn", "--sigma2", "1", "--cost", "1", "--n", "500"),
])
def test_single_rate_csv_row_matches_sweep_row(capsys, argv):
    code, single, _ = run_cli(capsys, *argv, "--rate", "0.125", "--output", "csv")
    assert code == 0
    _, sweep, _ = run_cli(capsys, *argv, "--rate", "0.125:0.25:2")
    assert single.strip().split("\n") == sweep.strip().split("\n")[:2]
    assert single.strip().endswith(",ok")


def test_byte_identical_invocations(capsys):
    _, out1, _ = run_cli(capsys, "verify", "identities", "--seed", "7", "--pairs", "20")
    _, out2, _ = run_cli(capsys, "verify", "identities", "--seed", "7", "--pairs", "20")
    assert out1 == out2
    _, sweep1, _ = run_cli(capsys, "awgn", "--sigma2", "1", "--cost", "1", "--rate", "0.05:0.3:5")
    _, sweep2, _ = run_cli(capsys, "awgn", "--sigma2", "1", "--cost", "1", "--rate", "0.05:0.3:5")
    assert sweep1 == sweep2


def test_verify_htbe_all_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "htbe", "--n", "64", "--betas", "3")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert any("threshold" in c["property"] for c in report["checks"])


def test_capacity_report(capsys):
    code, out, _ = run_cli(capsys, "capacity", "--order", "0.5", "--bsc", "0.1")
    assert code == 0
    report = json.loads(out)
    assert report["certified"] is True
    assert report["capacity"] == pytest.approx(0.223143551, abs=1e-7)
    assert report["optimizer"] == [0.5, 0.5]


def test_capacity_r8x16_file_certifies(capsys, tmp_path):
    rows = np.random.default_rng(0).dirichlet(np.ones(16), size=8)
    chan = tmp_path / "r8x16.json"
    chan.write_text(json.dumps({"inputs": 8, "outputs": 16, "rows": rows.tolist()}))
    code, out, _ = run_cli(capsys, "capacity", "--order", "0.5", "--channel", str(chan))
    assert code == 0
    report = json.loads(out)
    assert report["certified"] is True
    assert report["certificate_gap"] <= 1e-8


def test_rspb_modes(capsys):
    code, out, _ = run_cli(
        capsys, "rspb", "--mode", "cc", "--bsc", "0.1", "--n", "600",
        "--log-m-over-l", str(600 * R_CRIT),
    )
    assert code == 0
    cc = json.loads(out)
    code, out, _ = run_cli(
        capsys, "rspb", "--mode", "symmetric", "--bsc", "0.1", "--n", "600",
        "--rate", str(R_CRIT),
    )
    assert code == 0
    sym = json.loads(out)
    assert cc["rho_star"] == pytest.approx(sym["rho_star"], abs=1e-8)
    assert cc["bound_log"] == pytest.approx(sym["bound_log"], abs=1e-6)
    code, out, _ = run_cli(
        capsys, "rspb", "--mode", "awgn-vv", "--sigma2", "1", "--cost", "1",
        "--n", "500", "--rate", "0.1346382",
    )
    assert code == 0
    assert json.loads(out)["mode"] == "awgn-vv"


def test_htbe_command(capsys):
    code, out, _ = run_cli(
        capsys, "htbe", "--order", "0.5", "--n", "64", "--beta", "0.004",
        "--w-bern", "0.1", "--q-bern", "0.5",
    )
    assert code == 0
    report = json.loads(out)
    assert report["converse"]["applicable"] is True
    assert report["threshold_test"]["exact"] is True
    assert report["a2"] == pytest.approx(0.905211721, abs=1e-8)


def test_symmetric_command(capsys):
    code, out, _ = run_cli(capsys, "symmetric", "--bec", "0.3")
    assert code == 0
    assert json.loads(out)["is_symmetric"] is True
    code, out, _ = run_cli(capsys, "symmetric", "--zchannel", "0.5")
    assert code == 0
    assert json.loads(out)["is_symmetric"] is False


def test_symmetric_rate_certifies_once(capsys, monkeypatch):
    calls = []
    certify = rspb.symmetric.check_renyi_symmetry

    def counting(channel, *args, **kwargs):
        calls.append(channel)
        return certify(channel, *args, **kwargs)

    monkeypatch.setattr(rspb.symmetric, "check_renyi_symmetry", counting)
    code, out, _ = run_cli(capsys, "symmetric", "--bsc", "0.1", "--rate", "0.1")
    assert code == 0
    assert json.loads(out)["is_symmetric"] is True
    assert len(calls) == 1
    for argv in (("--zchannel", "0.5", "--rate", "0.05"), ("--bsc", "0.1", "--rate", "5")):
        code, out, err = run_cli(capsys, "symmetric", *argv)
        assert code == 2
        assert out == ""
        assert "precondition" in err


def test_symmetric_bound_at_a_tiny_crossover(capsys):
    # bsc(1e-8) has mirrored rows, so it is Renyi symmetric like any bsc
    code, out, err = run_cli(capsys, "rspb", "--mode", "symmetric", "--bsc", "1e-8",
                             "--n", "100", "--rate", "0.3")
    assert (code, err) == (0, "")
    assert json.loads(out)["slope_certified"] is True


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "argv, name",
    [
        (("symmetric", "--bec", "0.3", "--rate", "0.25"), "symmetric_bec0.3_rate0.25.json"),
        (("rspb", "--mode", "symmetric", "--bsc", "0.1", "--n", "600", "--rate", "0.1308120"),
         "rspb_symmetric_bsc0.1_n600.json"),
    ],
    ids=["symmetric", "rspb"],
)
def test_symmetric_outputs_match_golden(capsys, argv, name):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = json.loads(out)
    golden = json.loads((GOLDEN / name).read_text())
    # a difference of equal divergences: its value is rounding, not a result
    if "max_divergence_spread" in golden:
        del golden["max_divergence_spread"]
        assert report.pop("max_divergence_spread") <= 1e-15
    assert report == golden


def test_augustin_command(capsys):
    code, out, _ = run_cli(capsys, "augustin", "--order", "0.5", "--bsc", "0.1")
    assert code == 0
    report = json.loads(out)
    assert report["information"] == pytest.approx(0.223143551, abs=1e-8)
    assert report["residual"] <= 1e-12


@pytest.mark.parametrize("order", ["0.3", "1"])
def test_augustin_command_solves_once(capsys, monkeypatch, order):
    calls = []
    solve = rspb.augustin.augustin_fixed_point

    def counting(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(rspb.augustin, "augustin_fixed_point", counting)
    code, out, _ = run_cli(capsys, "augustin", "--order", order, "--zchannel", "0.3")
    assert code == 0
    assert len(calls) == 1
    monkeypatch.undo()
    report = json.loads(out)
    p, ch, rho = uniform_dist(2), zchannel(0.3), float(order)
    assert report["haroutunian_rate"] == pytest.approx(haroutunian_rate(rho, p, ch), rel=1e-8)
    assert report["info_derivative"] == pytest.approx(
        augustin_info_derivative(rho, p, ch), rel=1e-8
    )


def test_channel_flags_are_exclusive(capsys):
    code, _, err = run_cli(
        capsys, "capacity", "--order", "0.5", "--bsc", "0.1", "--bec", "0.3"
    )
    assert code == 2


def test_spe_with_channel_and_composition_files(capsys, tmp_path):
    chan = tmp_path / "bsc01.ch"
    chan.write_text(
        json.dumps({"inputs": 2, "outputs": 2, "rows": [[0.9, 0.1], [0.1, 0.9]]})
    )
    comp = tmp_path / "comp.json"
    comp.write_text(json.dumps({"masses": [0.5, 0.5]}))
    code, out, _ = run_cli(
        capsys, "spe", "--channel", str(chan), "--composition", str(comp),
        "--rate", "0.1308120",
    )
    assert code == 0
    assert json.loads(out)["rho_star"] == pytest.approx(0.5, abs=1e-6)


def test_capacity_with_cost_constraint_file(capsys, tmp_path):
    f = tmp_path / "cost.json"
    f.write_text(json.dumps({"kind": "cost", "costs": [0.0, 1.0], "budget": 0.2}))
    code, out, _ = run_cli(
        capsys, "capacity", "--order", "1", "--bsc", "0.1", "--constraint", str(f),
        "--tol", "1e-7",
    )
    assert code == 0
    report = json.loads(out)
    assert report["certified"] is True
    assert report["optimizer"][1] == pytest.approx(0.2, abs=1e-5)


ROWS = [[0.9, 0.1], [0.1, 0.9]]


@pytest.mark.parametrize(
    "flag, data",
    [
        ("--constraint", {"kind": "cost", "costs": [0, 1]}),
        ("--constraint", {"kind": "cost", "costs": [0, 1], "budget": None}),
        ("--constraint", {"kind": "cost", "budget": 0.3}),
        ("--constraint", [{"kind": "all"}]),
        ("--constraint", {"kind": "cost", "costs": [0, 1], "budget": "high"}),
        ("--constraint", {"kind": "cost", "costs": {"x": 1}, "budget": 0.3}),
        ("--channel", {"inputs": None, "outputs": 2, "rows": ROWS}),
        ("--channel", {"inputs": 1.5, "outputs": 2, "rows": ROWS}),
        ("--channel", {"inputs": 2, "outputs": "2", "rows": ROWS}),
        ("--channel", {"inputs": 2, "outputs": 2}),
        ("--channel", ROWS),
        ("--channel", {"inputs": 2, "outputs": 2, "rows": [[0.9, 0.1], [1.0]]}),
        ("--channel", {"inputs": 1, "outputs": 1, "rows": [{}]}),
        ("--channel", {"inputs": 2, "outputs": 2, "rows": [[1.1, -0.1], [0.1, 0.9]]}),
        ("--channel", {"inputs": 3, "outputs": 2, "rows": ROWS}),
    ],
    ids=["no budget", "null budget", "no costs", "constraint list", "text budget",
         "object costs", "null inputs", "fractional inputs", "text outputs", "no rows",
         "channel list", "ragged rows", "object row", "negative entry", "shape mismatch"],
)
def test_malformed_input_file_is_invalid_input(capsys, tmp_path, flag, data):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(data))
    argv = ["capacity", "--order", "0.5", flag, str(f)]
    if flag == "--constraint":
        argv += ["--bsc", "0.1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"invalid input: {f}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("capacity", "--order", "0.5", "--bsc", "0.1", "--output", "csv"),
        ("symmetric", "--bsc", "0.1", "--output", "csv"),
        ("spe", "--bsc", "0.1", "--rate", "0.1", "--seed", "3"),
        ("awgn", "--sigma2", "1", "--cost", "1", "--rate", "0.1", "--seed", "3"),
        ("divergence", "--order", "0.5", "--w", "w.json", "--q", "q.json", "--seed", "3"),
        ("verify", "identities", "--output", "csv"),
        ("spe", "--bsc", "0.1", "--rate", "0.1", "--grid-size", "256"),
    ],
    ids=["capacity output", "symmetric output", "spe seed", "awgn seed", "divergence seed",
         "verify output", "spe grid-size"],
)
def test_option_a_command_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


HTBE = ("htbe", "--order", "0.5", "--n", "64", "--beta", "0.004")


@pytest.mark.parametrize("sides", [
    ("--w-bern", "0.1", "--w", "w.json", "--q-bern", "0.5"),
    ("--w-bern", "0.1", "--q-bern", "0.5", "--q", "q.json"),
    ("--q-bern", "0.5"),
    ("--w-bern", "0.1"),
], ids=["both w", "both q", "no w", "no q"])
def test_htbe_takes_exactly_one_of_each_pair(capsys, sides):
    # argparse refuses the pair, or its absence, before any file is read
    with pytest.raises(SystemExit) as exc:
        main([*HTBE, *sides])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_htbe_budget_below_zero_is_a_precondition_error(capsys):
    pair = ("--w-bern", "0.1", "--q-bern", "0.5")
    code, out, err = run_cli(capsys, *HTBE, *pair, "--budget", "-1")
    assert (code, out) == (2, "")
    assert "budget must be non-negative, got -1" in err
    # a budget of 0 enumerates nothing: the rule alone, not an error
    code, out, _ = run_cli(capsys, *HTBE, *pair, "--budget", "0")
    assert code == 0
    assert json.loads(out)["threshold_test"]["exact"] is False


AWGN_OPTIONS = ("--sigma2", "1", "--cost", "1")


@pytest.mark.parametrize("argv, option", [
    (("awgn", *AWGN_OPTIONS, "--bsc", "0.1"), "--bsc"),
    (("awgn-vv", *AWGN_OPTIONS, "--channel", "c.json"), "--channel"),
    (("awgn-shannon", *AWGN_OPTIONS, "--composition", "uniform"), "--composition"),
    (("cc", "--bsc", "0.1", "--sigma2", "5"), "--sigma2"),
    (("symmetric", "--bec", "0.3", "--cost", "1"), "--cost"),
    (("symmetric", "--bsc", "0.1", "--composition", "uniform"), "--composition"),
], ids=["awgn channel", "awgn-vv channel file", "awgn-shannon composition", "cc sigma2",
        "symmetric cost", "symmetric composition"])
def test_rspb_rejects_an_option_its_mode_does_not_read(capsys, argv, option):
    code, out, err = run_cli(capsys, "rspb", "--mode", *argv, "--n", "100", "--rate", "0.1")
    assert (code, out) == (2, "")
    assert f"rspb --mode {argv[0]} does not read {option}" in err


def test_rspb_cc_reads_a_uniform_composition_by_default(capsys):
    argv = ("rspb", "--mode", "cc", "--bsc", "0.1", "--n", "600", "--rate", "0.1308120")
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--composition", "uniform")


def test_closed_stdout_exits_0_quietly(monkeypatch, tmp_path):
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    err = io.StringIO()
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(sink.fileno()))
        monkeypatch.setattr(sys, "stderr", err)
        code = main(["spe", "--bsc", "0.1", "--rate", "0.02:0.35:4"])
    assert code == 0
    assert err.getvalue() == ""


def _run_python(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)


def test_import_loads_no_scipy():
    probe = (
        "import sys, rspb, rspb.cli, rspb.verify, rspb.oracle; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = _run_python(probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the names the package exports, listed here rather than read from it, so a
# dropped name fails; each resolves on first access
PACKAGE_EXPORTS = {
    "augustin": "AugustinSolution CapacityResult ConstraintSet augustin_capacity "
                "augustin_fixed_point augustin_info_derivative haroutunian_rate read_constraint",
    "errors": "ComputationError NonConvergenceError PreconditionError RateOutOfRangeError "
              "SpbError",
    "gaussian": "AwgnParams AwgnPoint ConeQuantities awgn_capacity awgn_parametric "
                "awgn_rho_star gaussian_closed_forms shannon_cone theta_of_rho",
    "htbe": "HtBoundReport HtParams ThresholdTest be_gap ht_params htbe_achievability "
            "htbe_converse threshold_gamma threshold_test",
    "measures": "DiscreteChannel FiniteDist bec bern bsc conditional_renyi_divergence "
                "identity_residuals point_mass product_channel read_channel "
                "read_distribution renyi_divergence tensor_dist tilted_log_moments "
                "tilted_measure uniform_dist zchannel",
    "refined": "RspbReport rspb_awgn_equality rspb_awgn_inequality "
               "rspb_constant_composition rspb_symmetric",
    "spe": "ConstrainedSpe SpePoint spe_constrained spe_parametric",
    "symmetric": "SymmetricSpePoint SymmetryReport check_renyi_symmetry "
                 "parametric_symmetric symmetric_center",
}
LAYERS = ("augustin", "gaussian", "htbe", "measures", "oracle", "refined", "spe",
          "symmetric", "verify")
GAUSSIAN_SKIPS = ("numpy", "rspb.measures", "rspb.augustin", "rspb.spe", "rspb.symmetric")
DISCRETE_SKIPS = ("rspb.augustin", "rspb.spe", "rspb.symmetric", "rspb.refined")
AWGN = ("--sigma2", "1", "--cost", "1", "--rate", "0.1346382")


def _modules_after(code):
    proc = _run_python(f"{code}\nimport json, sys; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("module", ["rspb", "rspb.cli"])
def test_import_loads_no_layer(module):
    loaded = _modules_after(f"import {module}")
    assert loaded.isdisjoint({"numpy", *(f"rspb.{m}" for m in LAYERS)})


@pytest.mark.parametrize("argv, skipped", [
    (("awgn", *AWGN), GAUSSIAN_SKIPS),
    (("rspb", "--mode", "awgn", "--n", "500", *AWGN), GAUSSIAN_SKIPS),
    (("rspb", "--mode", "awgn-shannon", "--n", "500", *AWGN), GAUSSIAN_SKIPS),
    (("rspb", "--mode", "awgn-vv", "--n", "500", *AWGN), GAUSSIAN_SKIPS),
    (("divergence", "--order", "0.5", "--w", "{w}", "--q", "{q}"), DISCRETE_SKIPS),
    (("htbe", "--order", "0.5", "--n", "64", "--beta", "0.004", "--w-bern", "0.1",
      "--q-bern", "0.5"), DISCRETE_SKIPS),
], ids=["awgn", "rspb-awgn", "rspb-awgn-shannon", "rspb-awgn-vv", "divergence", "htbe"])
def test_command_loads_only_its_layers(tmp_path, argv, skipped):
    files = {"w": tmp_path / "w.json", "q": tmp_path / "q.json"}
    files["w"].write_text(json.dumps({"masses": [0.25, 0.75]}))
    files["q"].write_text(json.dumps({"masses": [0.5, 0.5]}))
    argv = [a.format(**files) for a in argv]
    loaded = _modules_after(
        "import contextlib, io, sys; from rspb.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()): code = main({argv!r})\n"
        "assert code == 0, code"
    )
    assert loaded.isdisjoint(skipped)


def test_package_names_resolve_on_first_access():
    import importlib

    import rspb

    for module, names in PACKAGE_EXPORTS.items():
        assert getattr(rspb, module) is importlib.import_module(f"rspb.{module}")
        for name in names.split():
            assert getattr(rspb, name) is getattr(getattr(rspb, module), name), name
    with pytest.raises(AttributeError):
        rspb.no_such_name
    proc = _run_python("import rspb; assert rspb.spe.spe_parametric is rspb.spe_parametric")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ("spe", "--instances", "1", "--grid-size", "256", "--seed", "11"),
    ("identities", "--pairs", "20"),
    ("thirdmoment", "--count", "50"),
    # htbe reads no seed yet, but takes one
    ("htbe", "--n", "64", "--betas", "2", "--seed", "5"),
], ids=["spe", "identities", "thirdmoment", "htbe"])
def test_verify_runs_without_scipy(argv):
    proc = _run_python(
        "import sys; sys.modules['scipy'] = None; from rspb.cli import main; "
        f"sys.exit(main({['verify', *argv]!r}))"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_pass"] is True


def test_brute_spe_runs_without_scipy_on_more_than_two_outputs():
    proc = _run_python(
        "import sys; sys.modules['scipy'] = None\n"
        "from rspb.measures import DiscreteChannel, FiniteDist, uniform_dist\n"
        "from rspb.oracle import brute_spe\n"
        "ch = DiscreteChannel((FiniteDist([0.7, 0.2, 0.1]), FiniteDist([0.1, 0.3, 0.6])))\n"
        "print(brute_spe(uniform_dist(2), ch, 0.05, 256))"
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0.0


@pytest.mark.parametrize("extra", [
    ("--rate", "3.0"),
    ("--rate", "3.0", "--n", "600"),
    ("--rate", "abc"),
])
def test_single_rate_csv_precondition_exits_2(capsys, extra):
    # unlike a sweep row, a single rate fails the command
    code, out, err = run_cli(capsys, "spe", "--bsc", "0.1", *extra, "--output", "csv")
    assert code == 2
    assert out == ""
    assert "precondition" in err


@pytest.mark.parametrize("extra", [
    (), ("--n", "600"), ("--composition", "uniform", "--n", "64"), ("--n", "6"),
])
def test_single_rate_csv_solves_once(capsys, monkeypatch, extra):
    # 0.1 * 6 / 6 != 0.1: the point is solved at the rate the bound reads
    calls = []

    def counting(*args):
        calls.append(args)
        return spe_parametric(*args)

    monkeypatch.setattr(rspb.spe, "spe_parametric", counting)
    code, out, _ = run_cli(capsys, "spe", "--bsc", "0.1", "--rate", "0.1", *extra,
                           "--output", "csv")
    assert code == 0 and out.strip().endswith(",ok")
    assert len(calls) == 1
    code, grid, _ = run_cli(capsys, "spe", "--bsc", "0.1", "--rate", "0.1:0.2:2", *extra)
    assert code == 0
    assert out.splitlines() == grid.splitlines()[:2]


@pytest.mark.parametrize("extra", [(), ("--n", "500")], ids=["no n", "n 500"])
def test_single_rate_awgn_csv_solves_once(capsys, monkeypatch, extra):
    # 0.1346382 * 500 / 500 != 0.1346382: the bound solves at the rate it
    # reads, and the row's rate column is the rate given
    import rspb.gaussian
    import rspb.refined

    calls = []
    solve = rspb.gaussian.awgn_rho_star

    def counting(*args):
        calls.append(args[0])
        return solve(*args)

    for module in (rspb.gaussian, rspb.refined):
        monkeypatch.setattr(module, "awgn_rho_star", counting)
    options = ("awgn", "--sigma2", "1", "--cost", "1", *extra)
    code, out, _ = run_cli(capsys, *options, "--rate", "0.1346382", "--output", "csv")
    assert code == 0 and out.strip().endswith(",ok")
    assert len(calls) == 1
    code, grid, _ = run_cli(capsys, *options, "--rate", "0.1346382:0.2:2")
    assert code == 0
    assert out.splitlines() == grid.splitlines()[:2]


def test_single_rate_csv_error_fails_the_command(capsys):
    # n * (1/2, 1/2) is not integral for odd n: the one row of a single rate
    # fails the command, while each grid row carries the error as its status
    code, out, err = run_cli(capsys, "spe", "--bsc", "0.1", "--rate", "0.2", "--n", "7",
                             "--output", "csv")
    assert code == 2
    assert out == ""
    assert "n * composition is not integral for n=7" in err
    code, out, _ = run_cli(capsys, "spe", "--bsc", "0.1", "--rate", "0.1:0.2:2", "--n", "7")
    assert code == 0
    assert [line.split(",")[-1] for line in out.splitlines()[1:]] == ["CompositionError"] * 2


@pytest.mark.parametrize("argv", [
    ("spe", "--bsc", "0.1", "--rate", "0.1", "--output", "csv"),
    ("spe", "--bsc", "0.1", "--rate", "0.02:0.35:4"),
    ("awgn", "--sigma2", "1", "--cost", "1", "--rate", "0.1", "--output", "csv"),
    ("awgn", "--sigma2", "1", "--cost", "1", "--rate", "0.05:0.2:5"),
    *(("rspb", "--mode", mode, "--bsc", "0.1", "--sigma2", "1", "--cost", "1", "--rate", "0.2")
      for mode in ("cc", "symmetric", "awgn", "awgn-shannon", "awgn-vv")),
], ids=["spe single", "spe grid", "awgn single", "awgn grid", "rspb cc", "rspb symmetric",
        "rspb awgn", "rspb awgn-shannon", "rspb awgn-vv"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_blocklength_below_one_is_a_precondition_error(capsys, argv, n):
    code, out, err = run_cli(capsys, *argv, "--n", n)
    assert code == 2
    assert out == ""
    assert f"--n must be a positive integer, got {n}" in err


@pytest.mark.parametrize("argv", [
    ("spe", "--bsc", "0.1", "--rate", "abc"),
    ("spe", "--bsc", "0.1", "--rate", "0.1:0.2:x"),
    ("spe", "--bsc", "0.1", "--rate", "0.1:0.2:2.5"),
    ("awgn", "--sigma2", "1", "--cost", "1", "--rate", "zz"),
], ids=["spe word", "spe grid word", "spe fractional count", "awgn word"])
def test_malformed_rate_is_a_precondition_error(capsys, argv):
    # exit 2, as for a malformed number option such as `--bsc abc`
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"--rate needs numbers, got {argv[-1]!r}" in err


@pytest.mark.parametrize("argv, option", [
    (("thirdmoment", "--count", "2", "--pairs", "3"), "--pairs"),
    (("identities", "--pairs", "2", "--grid-size", "64"), "--grid-size"),
    (("all", "--instances", "0"), "--instances"),
    (("all", "--n", "64"), "--n"),
], ids=["thirdmoment pairs", "identities grid-size", "all instances", "all n"])
def test_verify_option_its_suite_does_not_take_exits_2(capsys, argv, option):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert f"verify {argv[0]} does not take {option}" in err


def _record_suites(monkeypatch):
    from rspb import verify

    seen = {}

    def suite(name):
        def run(**kwargs):
            seen[name] = kwargs
            return {"suite": name, "checks": [], "all_pass": True}
        return run

    monkeypatch.setattr(verify, "SUITES", {name: suite(name) for name in verify.SUITES})
    return seen


@pytest.mark.parametrize("argv, expected", [
    (("spe",), {"spe": {}}),
    (("htbe", "--n", "64", "--seed", "5"), {"htbe": {"ns": (64,), "seed": 5}}),
    (("spe", "--instances", "2", "--grid-size", "256"),
     {"spe": {"instances": 2, "grid_size": 256}}),
    (("all",), dict.fromkeys(("htbe", "identities", "spe", "thirdmoment"), {})),
    (("all", "--seed", "7"),
     dict.fromkeys(("htbe", "identities", "spe", "thirdmoment"), {"seed": 7})),
], ids=["spe defaults", "htbe", "spe", "all defaults", "all seed"])
def test_verify_passes_on_only_the_options_given(capsys, monkeypatch, argv, expected):
    seen = _record_suites(monkeypatch)
    code, _, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert seen == expected


def _readme_commands():
    """The file-free `rspb ...` lines of README's "Command line" block, with
    their optional `[...]` parts and trailing comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [re.sub(r"\[[^]]*\]", "", line.split("#", 1)[0]) for line in block.splitlines()]
    return [line.split()[1:] for line in lines
            if line.startswith("rspb ") and ".json" not in line]


# fields of README outputs whose values are rounding residuals: each is
# checked against its bound instead of compared with the golden
README_RESIDUAL_BOUNDS = {
    "augustin": {"residual": 1e-12, "identity_residual": 1e-9},
    "capacity": {"certificate_gap": 1e-8},
    "symmetric": dict.fromkeys(
        ("max_divergence_spread", "max_profile_distance", "max_center_fixed_point_tv"), 1e-9
    ),
}


def test_readme_command_examples_run(capsys):
    commands = _readme_commands()
    assert len(commands) >= 9
    goldens = json.loads((GOLDEN / "readme_commands.json").read_text())
    assert sorted(goldens) == sorted(" ".join(argv) for argv in commands)
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        golden = goldens[" ".join(argv)]
        if isinstance(golden, str):
            assert out == golden, argv
            continue
        report = json.loads(out)
        for field, bound in README_RESIDUAL_BOUNDS.get(argv[0], {}).items():
            del golden[field]
            assert abs(report.pop(field)) <= bound, (argv, field)
        for check in report.get("checks", ()):
            assert check.pop("observed") <= check["bound"], (argv, check)
        for check in golden.get("checks", ()):
            del check["observed"]
        assert report == golden, argv
