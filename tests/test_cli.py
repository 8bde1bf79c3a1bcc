import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rspb.augustin import augustin_info_derivative, haroutunian_rate
from rspb.cli import main
from rspb.measures import uniform_dist, zchannel

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


def test_precondition_violation_exits_2(capsys):
    code, _, err = run_cli(capsys, "spe", "--bsc", "0.1", "--rate", "3.0")
    assert code == 2
    assert "precondition" in err
    code, _, err = run_cli(capsys, "augustin", "--order", "1.5", "--bsc", "0.1")
    assert code == 2
    code, _, err = run_cli(capsys, "spe", "--rate", "0.1")
    assert code == 2
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


def test_fixed_point_without_steps_exits_3(capsys):
    code, out, err = run_cli(
        capsys, "augustin", "--order", "0.3", "--zchannel", "0.3", "--max-iter", "0"
    )
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


def test_augustin_command(capsys):
    code, out, _ = run_cli(capsys, "augustin", "--order", "0.5", "--bsc", "0.1")
    assert code == 0
    report = json.loads(out)
    assert report["information"] == pytest.approx(0.223143551, abs=1e-8)
    assert report["residual"] <= 1e-12


@pytest.mark.parametrize("order", ["0.3", "1"])
def test_augustin_command_solves_once(capsys, monkeypatch, order):
    import rspb.augustin
    import rspb.cli

    calls = []
    solve = rspb.augustin.augustin_fixed_point

    def counting(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(rspb.cli, "augustin_fixed_point", counting)
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


def test_import_loads_no_scipy():
    probe = (
        "import sys, rspb, rspb.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
