"""The `cli` workload: one fresh `python -m rspb.cli` process per item.

Each block draws, from `default_rng([seed, block])`, the parameters of a
fixed list of invocations that covers every subcommand, every `rspb` mode,
`htbe` at n = 64..256, a short CSV sweep, `symmetric` and two `verify` suites
at a small size: `spe`, and one of the other three in turn. Input files are written under the run's work
directory. The gate re-computes each answer in process through the public
functions and requires the printed values to equal it at the CLI's
documented 9 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from rspb import verify
from rspb.augustin import (
    augustin_capacity,
    augustin_fixed_point,
    augustin_info_derivative,
    haroutunian_rate,
)
from rspb.gaussian import (
    AwgnParams,
    awgn_capacity,
    awgn_parametric,
    awgn_rho_star,
    shannon_cone,
)
from rspb.htbe import (
    ht_params,
    htbe_achievability,
    htbe_converse,
    threshold_gamma,
    threshold_test,
)
from rspb.measures import (
    FiniteDist,
    bec,
    bern,
    bsc,
    identity_residuals,
    read_channel,
    read_distribution,
    renyi_divergence,
    tilted_log_moments,
    tilted_measure,
    uniform_dist,
    zchannel,
)
from rspb.refined import (
    rspb_awgn_equality,
    rspb_awgn_inequality,
    rspb_constant_composition,
    rspb_symmetric,
)
from rspb.spe import spe_parametric
from rspb.symmetric import check_renyi_symmetry, parametric_symmetric

from workloads import block_rng, mutual_information

SWEEP_COLUMNS = ("rate", "rho_star", "exponent", "slope", "log_prefactor",
                 "bound_log", "applicable", "status")
SHORTHANDS = {"bsc": bsc, "bec": bec, "zchannel": zchannel}


@dataclass(frozen=True)
class CliItem:
    label: str
    argv: tuple
    expect: Callable[[], Any]
    csv: bool = False


def jsonish(obj):
    """What the CLI's JSON holds for an in-process value: 9 significant digits."""
    if isinstance(obj, FiniteDist):
        return jsonish(obj.masses)
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonish(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonish(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [jsonish(v) for v in (obj.tolist() if isinstance(obj, np.ndarray) else obj)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return float(f"{x:.9g}")
    return obj


def mismatch(expected, actual, path="") -> str | None:
    """First place where `actual` differs from the (partial) `expected`."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{path or '/'}: expected an object"
        for key, value in expected.items():
            if key not in actual:
                return f"{path}/{key}: missing"
            found = mismatch(value, actual[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{path}: expected a list of {len(expected)}"
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = mismatch(e, a, f"{path}/{i}")
            if found:
                return found
        return None
    if expected != actual or type(expected) is not type(actual):
        return f"{path}: printed {actual!r}, in process {expected!r}"
    return None


def _csv_value(cell: str):
    if cell in ("true", "false"):
        return cell == "true"
    try:
        return float(cell)
    except ValueError:
        return cell


def check_output(item: CliItem, stdout: bytes) -> str | None:
    """Compare one invocation's stdout with the in-process answer."""
    text = stdout.decode()
    if item.csv:
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or tuple(rows[0]) != SWEEP_COLUMNS:
            return "CSV header differs"
        actual = [{k: _csv_value(v) for k, v in zip(SWEEP_COLUMNS, r)} for r in rows[1:]]
    else:
        try:
            actual = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
    return mismatch(jsonish(item.expect()), actual)


def run_cli(argv, env, cwd) -> tuple:
    proc = subprocess.run([sys.executable, "-m", "rspb.cli", *argv], env=env, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    return proc.returncode, proc.stdout


# ---------------------------------------------------------------------------
# in-process answers, one per subcommand


def _uniform_cc_row(ch, n, rate):
    rep = rspb_constant_composition(ch, uniform_dist(ch.input_size), n, rate * n)
    return {"rate": rate, "rho_star": rep.rho_star, "exponent": rep.exponent_total / n,
            "slope": rep.slope, "log_prefactor": rep.log_prefactor,
            "bound_log": rep.bound_log, "applicable": rep.applicable, "status": "ok"}


def _report(mode, rep):
    return {"mode": mode, **{f.name: getattr(rep, f.name) for f in fields(rep)},
            "slope": rep.slope}


def _htbe(order, n, beta, pw, pq):
    w, q = bern(pw), bern(pq)
    params = ht_params(order, [w], [q])
    tilt = tilted_measure(order, w, q)
    d1_tq = n * renyi_divergence(1.0, tilt, q)
    d1_tw = n * renyi_divergence(1.0, tilt, w)
    gamma = threshold_gamma(order, n, beta, params)
    return {
        "a2": params.a2, "a3": params.a3, "log_delta_hat": params.log_delta_hat,
        "d1_tilt_q_total": d1_tq, "d1_tilt_w_total": d1_tw,
        "converse": htbe_converse(order, n, beta, params, d1_tq, d1_tw),
        "achievability": htbe_achievability(order, n, beta, params, d1_tq, d1_tw),
        "threshold_test": threshold_test(gamma, [w] * n, [q] * n, order),
    }


def _awgn(params, rate):
    rho = awgn_rho_star(rate, params)
    point = awgn_parametric(rho, params)
    return {"order": rho, "capacity": awgn_capacity(rho, params), "rate": point.rate,
            "esp": point.esp, "slope": point.slope, "a2": point.a2,
            "sgex": shannon_cone(point.rate, params).sgex, "rho_star": rho}


# ---------------------------------------------------------------------------
# the block


def _num(x) -> str:
    """A float as argv text that parses back to the same double."""
    return repr(float(x))


def _write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def cli_block(seed: int, block: int, workdir: Path) -> list:
    rng = block_rng(seed, block)
    u = lambda a, b: float(rng.uniform(a, b))  # noqa: E731
    items = []

    # divergence between two drawn distributions read from files
    k = int(rng.integers(2, 7))
    w_path, q_path = (_write_json(workdir / f"{name}{block}.json",
                                  {"masses": rng.dirichlet(np.ones(k)).tolist()})
                      for name in ("w", "q"))
    order = u(0.2, 0.9)

    def divergence(order=order):
        w, q = read_distribution(w_path), read_distribution(q_path)
        mean, a2, a3 = tilted_log_moments(order, w, q)
        return {"order": order, "divergence": renyi_divergence(order, w, q),
                "tilted": tilted_measure(order, w, q),
                "tilted_log_moments": {"mean": mean, "a2": a2, "a3": a3},
                "identity_residual": identity_residuals(order, w, q)}

    items.append(CliItem(f"divergence k={k}", ("divergence", "--order", _num(order),
                                                "--w", w_path, "--q", q_path), divergence))

    # Augustin mean of a drawn 3x4 channel read from a file
    rows = rng.dirichlet(np.ones(4), size=3)
    ch_path = _write_json(workdir / f"c{block}.json",
                          {"inputs": 3, "outputs": 4, "rows": rows.tolist()})
    order = u(0.2, 0.9)

    def augustin(order=order):
        ch = read_channel(ch_path)
        p = uniform_dist(3)
        sol = augustin_fixed_point(order, p, ch)
        return {"order": order, "mean": sol.mean, "information": sol.information,
                "iterations": sol.iterations, "residual": sol.residual,
                "identity_residual": sol.alt_identity_residual,
                "haroutunian_rate": haroutunian_rate(order, p, ch),
                "info_derivative": augustin_info_derivative(order, p, ch)}

    items.append(CliItem("augustin 3x4", ("augustin", "--order", _num(order),
                                          "--channel", ch_path), augustin))

    # capacity of a binary shorthand channel
    kind = ("bsc", "bec", "zchannel")[int(rng.integers(0, 3))]
    param, order = u(0.05, 0.4), u(0.2, 0.9)
    ch = SHORTHANDS[kind](param)

    def capacity(order=order, ch=ch):
        res = augustin_capacity(order, ch)
        return {"order": order, "capacity": res.capacity, "center": res.center,
                "optimizer": res.optimizer, "certificate_gap": res.certificate_gap,
                "certified": res.certified}

    items.append(CliItem(f"capacity {kind}", ("capacity", "--order", _num(order),
                                              f"--{kind}", _num(param)), capacity))

    # one spe point on a Z channel, and a short CSV sweep with prefactors on a BSC
    p = u(0.1, 0.5)
    rate = u(0.1, 0.9) * mutual_information(zchannel(p))

    def spe_point(ch=zchannel(p), rate=rate):
        pt = spe_parametric(uniform_dist(2), ch, rate)
        return {"rate": rate, "rho_star": pt.rho_star, "exponent": pt.exponent,
                "slope": pt.slope}

    items.append(CliItem("spe point zchannel", ("spe", "--zchannel", _num(p),
                                                "--rate", _num(rate)), spe_point))
    p = u(0.02, 0.3)
    a, b = 0.1 * mutual_information(bsc(p)), 0.9 * mutual_information(bsc(p))
    spec = f"{_num(a)}:{_num(b)}:5"
    grid = np.linspace(float(_num(a)), float(_num(b)), 5)
    items.append(CliItem("spe csv sweep bsc",
                         ("spe", "--bsc", _num(p), "--rate", spec, "--n", "600"),
                         lambda ch=bsc(p): [_uniform_cc_row(ch, 600, float(r)) for r in grid],
                         csv=True))

    # Renyi-symmetry certificate with a parametric point
    p = u(0.02, 0.3)
    rate = u(0.1, 0.9) * mutual_information(bsc(p))

    def symmetric(ch=bsc(p), rate=rate):
        rep = check_renyi_symmetry(ch, tol=1e-9)
        pt = parametric_symmetric(ch, rate, tol=1e-9)
        return {"is_symmetric": rep.is_symmetric,
                "max_divergence_spread": rep.max_divergence_spread,
                "max_profile_distance": rep.max_profile_distance,
                "max_center_fixed_point_tv": rep.max_center_fixed_point_tv,
                "parametric": {"rate": pt.rate, "rho_star": pt.rho_star,
                               "exponent": pt.exponent, "slope": pt.slope,
                               "slope_certified": pt.slope_certified}}

    items.append(CliItem("symmetric bsc",
                         ("symmetric", "--bsc", _num(p), "--rate", _num(rate)), symmetric))

    # Gaussian closed forms
    sigma2, cost = u(0.5, 2.0), u(0.5, 2.0)
    params = AwgnParams(sigma2, cost)
    rate = u(0.1, 0.9) * params.capacity_order_one()
    items.append(CliItem("awgn", ("awgn", "--sigma2", _num(sigma2), "--cost", _num(cost),
                                  "--rate", _num(rate)),
                         lambda params=params, rate=rate: _awgn(params, rate)))

    # every rspb mode
    p = u(0.02, 0.3)
    rate = u(0.1, 0.9) * mutual_information(bsc(p))
    items.append(CliItem("rspb cc bsc",
                         ("rspb", "--mode", "cc", "--bsc", _num(p), "--n", "600",
                          "--rate", _num(rate)),
                         lambda ch=bsc(p), rate=rate: _report("cc", rspb_constant_composition(
                             ch, uniform_dist(2), 600, rate * 600))))
    e, n = u(0.1, 0.6), int(rng.integers(100, 601))
    rate = u(0.1, 0.9) * mutual_information(bec(e))
    items.append(CliItem(f"rspb symmetric bec n={n}",
                         ("rspb", "--mode", "symmetric", "--bec", _num(e), "--n", str(n),
                          "--rate", _num(rate)),
                         lambda ch=bec(e), n=n, rate=rate: _report(
                             "symmetric", rspb_symmetric([ch] * n, rate * n))))
    for mode in ("awgn", "awgn-shannon", "awgn-vv"):
        sigma2, cost, n = u(0.5, 2.0), u(0.5, 2.0), int(rng.integers(100, 1001))
        params = AwgnParams(sigma2, cost)
        rate = u(0.1, 0.8) * params.capacity_order_one()

        def bound(mode=mode, params=params, n=n, rate=rate):
            if mode == "awgn":
                return _report(mode, rspb_awgn_equality(n, rate * n, params))
            extension = "shannon" if mode == "awgn-shannon" else "vazquez_vilar"
            return _report(mode, rspb_awgn_inequality(n, rate * n, params, extension))

        items.append(CliItem(f"rspb {mode} n={n}",
                             ("rspb", "--mode", mode, "--sigma2", _num(sigma2), "--cost",
                              _num(cost), "--n", str(n), "--rate", _num(rate)), bound))

    # hypothesis-testing bounds and the exact threshold test
    order, n = u(0.3, 0.7), int(rng.integers(64, 257))
    beta, pw, pq = 10 ** u(-4, -2), u(0.05, 0.2), u(0.35, 0.65)
    items.append(CliItem(f"htbe n={n}",
                         ("htbe", "--order", _num(order), "--n", str(n), "--beta", _num(beta),
                          "--w-bern", _num(pw), "--q-bern", _num(pq)),
                         lambda a=(order, n, beta, pw, pq): {
                             "order": a[0], "n": a[1], "beta": a[2], **_htbe(*a)}))

    # Two verification suites at a small size. `spe` sets the children's peak
    # memory, so every block holds it; the other three take turns by seed and
    # block, so that every suite runs and a run holds two of the three.
    rotating = (
        ("identities", ("--pairs", "20"), {"pairs": 20}),
        ("thirdmoment", ("--count", "50"), {"count": 50}),
        ("htbe", ("--n", "64", "--betas", "2"), {"ns": (64,), "betas_per_n": 2}),
    )
    for suite, extra, kwargs in (
        rotating[(seed + block) % 3],
        ("spe", ("--instances", "1", "--grid-size", "256"), {"instances": 1, "grid_size": 256}),
    ):
        s = int(rng.integers(0, 2**31))
        items.append(CliItem(f"verify {suite}", ("verify", suite, *extra, "--seed", str(s)),
                             lambda suite=suite, s=s, kwargs=kwargs:
                             verify.run_suite(suite, seed=s, **kwargs)))
    return items
