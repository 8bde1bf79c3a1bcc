"""Command-line surface for bounds, sweeps, and verification suites.

Every numeric quantity is in nats. Single evaluations print one JSON object;
rate sweeps print CSV with a fixed column order. All floating output is
rounded to 9 significant digits and all randomness is seeded, so identical
invocations produce byte-identical output. Exit codes: 0 success (also when
the reader closes stdout early), 1 unreadable input file, 2 precondition
violation, 3 non-convergence or non-certification (a partial report is still
printed). Each subcommand imports only the layers it computes with: single-rate
`awgn` and the Gaussian `rspb` modes run without numpy; rate grids use it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, fields, is_dataclass
from functools import partial
from typing import TYPE_CHECKING

from .errors import ComputationError, InvalidOrderError, PreconditionError, SpbError

if TYPE_CHECKING:
    from .measures import FiniteDist

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_UNCERTIFIED = 3

SWEEP_COLUMNS = (
    "rate",
    "rho_star",
    "exponent",
    "slope",
    "log_prefactor",
    "bound_log",
    "applicable",
    "status",
)


def _fmt_float(x: float):
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(f"{x:.9g}")


def _is_dist(obj) -> bool:
    # a FiniteDist exists only once measures is loaded: look for it, never import it
    measures = sys.modules.get(f"{__package__}.measures")
    return measures is not None and isinstance(obj, measures.FiniteDist)


def _jsonable(obj):
    if _is_dist(obj):
        return _jsonable(obj.masses)
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable({f.name: getattr(obj, f.name) for f in fields(obj)})
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return int(obj)
    if isinstance(obj, float):
        return _fmt_float(float(obj))
    if hasattr(obj, "tolist"):
        # a numpy array or scalar: nested lists of Python scalars
        return _jsonable(obj.tolist())
    return obj


def _emit(report: dict):
    print(json.dumps(_jsonable(report), indent=2, sort_keys=True))


def _csv_cell(value):
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        v = _fmt_float(value)
        return v if isinstance(v, str) else f"{v:.9g}"
    return str(value)


def _emit_csv(rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in SWEEP_COLUMNS])


def _parse_rate(spec: str):
    """--rate as one rate, or as the array of rates of a start:stop:count grid.

    A malformed spec is a precondition violation, as a malformed number
    option is, and only a grid loads numpy."""
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise PreconditionError(f"grid spec must be start:stop:count, got {spec!r}")
    try:
        values = [float(x) for x in parts[:2]] + [int(x) for x in parts[2:]]
    except ValueError:
        raise PreconditionError(f"--rate needs numbers, got {spec!r}") from None
    if len(values) == 1:
        return values[0]
    start, stop, count = values
    if count < 2 or not start < stop:
        raise PreconditionError("grid needs count >= 2 and start < stop")
    import numpy as np

    return np.linspace(start, stop, count)


# ---------------------------------------------------------------------------
# shared argument groups


def _add_channel_args(sp):
    sp.add_argument("--channel", help="channel file (JSON rows)")
    sp.add_argument("--bsc", type=float, help="binary symmetric channel, crossover p")
    sp.add_argument("--bec", type=float, help="binary erasure channel, erasure e")
    sp.add_argument("--zchannel", type=float, help="Z channel, flip probability p")


def _get_channel(args):
    from .measures import bec, bsc, read_channel, zchannel

    makers = {"channel": read_channel, "bsc": bsc, "bec": bec, "zchannel": zchannel}
    given = [kind for kind in makers if getattr(args, kind) is not None]
    if len(given) != 1:
        raise PreconditionError("give exactly one of --channel/--bsc/--bec/--zchannel")
    return makers[given[0]](getattr(args, given[0]))


def _get_dist(spec: str, size: int) -> FiniteDist:
    from .measures import read_distribution, uniform_dist

    if spec == "uniform":
        return uniform_dist(size)
    return read_distribution(spec)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_divergence(args):
    from .measures import (
        identity_residuals,
        read_distribution,
        renyi_divergence,
        tilted_log_moments,
        tilted_measure,
    )

    w = read_distribution(args.w)
    q = read_distribution(args.q)
    report = {
        "order": args.order,
        "divergence": renyi_divergence(args.order, w, q),
    }
    if math.isfinite(report["divergence"]):
        mean, a2, a3 = tilted_log_moments(args.order, w, q)
        report["tilted"] = tilted_measure(args.order, w, q)
        report["tilted_log_moments"] = {"mean": mean, "a2": a2, "a3": a3}
        if 0 < args.order < 1:
            report["identity_residual"] = identity_residuals(args.order, w, q)
    _emit(report)
    return EXIT_OK


def _cmd_augustin(args):
    from .augustin import _info_derivative, augustin_fixed_point

    channel = _get_channel(args)
    p = _get_dist(args.input_dist, channel.input_size)
    sol = augustin_fixed_point(args.order, p, channel, tol=args.tol, max_iter=args.max_iter)
    report = {
        "order": args.order,
        "mean": sol.mean,
        "information": sol.information,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "identity_residual": sol.alt_identity_residual,
        "haroutunian_rate": sol.tilted_rate,
        "info_derivative": _info_derivative(args.order, sol),
        "tolerance": args.tol,
        "max_iter": args.max_iter,
    }
    _emit(report)
    return EXIT_OK


def _cmd_capacity(args):
    from .augustin import augustin_capacity, read_constraint

    channel = _get_channel(args)
    constraint = read_constraint(args.constraint) if args.constraint else None
    res = augustin_capacity(args.order, channel, constraint, tol=args.tol)
    _emit(
        {
            "order": args.order,
            "capacity": res.capacity,
            "center": res.center,
            "optimizer": res.optimizer,
            "certificate_gap": res.certificate_gap,
            "certified": res.certified,
        }
    )
    return EXIT_OK if res.certified else EXIT_UNCERTIFIED


def _sweep_row(rate, n, bound, at_rate):
    """One CSV row at a rate: bound(n, rate * n), a refined-bound report that
    solves its own point, when n is given, else the (rho_star, exponent,
    slope) triple of at_rate(rate). An error propagates."""
    row = {"rate": rate, "status": "ok"}
    if n is None:
        row.update(zip(("rho_star", "exponent", "slope"), at_rate(rate)))
        return row
    rep = bound(n, rate * n)
    row.update(
        rho_star=rep.rho_star,
        exponent=rep.exponent_total / n,
        slope=rep.slope,
        log_prefactor=rep.log_prefactor,
        bound_log=rep.bound_log,
        applicable=rep.applicable,
    )
    return row


def _emit_sweep(rate, n, bound, at_rate):
    """CSV for a single rate, a one-row sweep whose error fails the command,
    or for a grid, whose rows each carry their own error as their status."""
    if isinstance(rate, float):
        _emit_csv([_sweep_row(rate, n, bound, at_rate)])
        return EXIT_OK
    rows = []
    for r in map(float, rate):
        try:
            rows.append(_sweep_row(r, n, bound, at_rate))
        except SpbError as exc:
            rows.append({"rate": r, "status": type(exc).__name__})
    _emit_csv(rows)
    return EXIT_OK


def _check_n(args, reads_n=True):
    """--n, when given, is read by the command's output and at least 1."""
    if args.n is None:
        return
    if not reads_n:
        raise PreconditionError(f"{args.command} reads --n only with a rate grid or --output csv")
    if args.n < 1:
        raise PreconditionError(f"--n must be a positive integer, got {args.n}")


def _cmd_spe(args):
    from .refined import rspb_constant_composition
    from .spe import spe_parametric

    channel = _get_channel(args)
    comp = _get_dist(args.composition, channel.input_size)
    rate = _parse_rate(args.rate)
    sweep = not isinstance(rate, float) or args.output == "csv"
    _check_n(args, sweep)

    def at_rate(r):
        pt = spe_parametric(comp, channel, r)
        return pt.rho_star, pt.exponent, pt.slope

    if sweep:
        return _emit_sweep(rate, args.n, partial(rspb_constant_composition, channel, comp),
                           at_rate)
    rho_star, exponent, slope = at_rate(rate)
    _emit({"rate": rate, "rho_star": rho_star, "exponent": exponent, "slope": slope})
    return EXIT_OK


def _cmd_symmetric(args):
    from .symmetric import check_renyi_symmetry, parametric_symmetric

    channel = _get_channel(args)
    point = None if args.rate is None else parametric_symmetric(channel, args.rate, tol=args.tol)
    report = check_renyi_symmetry(channel, tol=args.tol)
    out = {
        "is_symmetric": report.is_symmetric,
        "checked_orders": list(report.checked_orders),
        "max_divergence_spread": report.max_divergence_spread,
        "max_profile_distance": report.max_profile_distance,
        "max_center_fixed_point_tv": report.max_center_fixed_point_tv,
        "center_per_order": {f"{k:g}": v for k, v in report.center_per_order.items()},
    }
    if point is not None:
        out["parametric"] = {
            "rate": point.rate,
            "rho_star": point.rho_star,
            "exponent": point.exponent,
            "slope": point.slope,
            "slope_certified": point.slope_certified,
        }
    _emit(out)
    return EXIT_OK


def _cmd_awgn(args):
    from .gaussian import (
        AwgnParams,
        awgn_capacity,
        awgn_parametric,
        awgn_rho_star,
        shannon_cone,
        theta_of_rho,
    )
    from .refined import rspb_awgn_equality

    params = AwgnParams(sigma2=args.sigma2, cost=args.cost)
    if args.order is None and args.rate is None:
        raise PreconditionError("give --order or --rate")
    rate = None if args.rate is None else _parse_rate(args.rate)
    sweep = (rate is not None and not isinstance(rate, float)) or args.output == "csv"
    _check_n(args, sweep)
    if sweep:
        if rate is None:
            if not 0 < args.order < 1:
                raise InvalidOrderError(f"a CSV row needs an order in (0, 1), got {args.order}")
            rate = awgn_parametric(args.order, params).rate

        def at_rate(r):
            pt = awgn_parametric(awgn_rho_star(r, params), params)
            return pt.rho, pt.esp, pt.slope

        return _emit_sweep(rate, args.n, partial(rspb_awgn_equality, params=params), at_rate)
    rho = args.order if rate is None else awgn_rho_star(rate, params)
    report = {
        "sigma2": args.sigma2,
        "cost": args.cost,
        "order": rho,
        "theta": theta_of_rho(rho, params),
        "capacity": awgn_capacity(rho, params),
        "capacity_order_one": params.capacity_order_one(),
    }
    if 0 < rho < 1:
        point = awgn_parametric(rho, params)
        report.update(
            rate=point.rate,
            esp=point.esp,
            slope=point.slope,
            a2=point.a2,
            a3_bound=point.a3_bound,
            log_delta_hat=point.log_delta_hat,
        )
        cone = shannon_cone(point.rate, params)
        report.update(
            sgex=cone.sgex,
            theta_c=cone.theta_c,
            theta_cr=cone.theta_cr,
            cone_gain=cone.G_of_xi,
        )
        if args.rate is not None:
            report["rho_star"] = rho
    _emit(report)
    return EXIT_OK


def _report_dict(rep):
    out = asdict(rep)
    out["slope"] = rep.slope
    return out


def _cmd_rspb(args):
    from .gaussian import AwgnParams
    from .refined import (
        rspb_awgn_equality,
        rspb_awgn_inequality,
        rspb_constant_composition,
        rspb_symmetric,
    )

    _check_n(args)
    if args.log_m_over_l is None and args.rate is None:
        raise PreconditionError("give --log-m-over-l or --rate")
    log_ml = args.log_m_over_l if args.log_m_over_l is not None else args.rate * args.n
    if args.mode == "cc":
        channel = _get_channel(args)
        comp = _get_dist(args.composition, channel.input_size)
        rep = rspb_constant_composition(channel, comp, args.n, log_ml)
    elif args.mode == "symmetric":
        channel = _get_channel(args)
        rep = rspb_symmetric([channel] * args.n, log_ml)
    else:
        if args.sigma2 is None or args.cost is None:
            raise PreconditionError(f"--mode {args.mode} needs --sigma2 and --cost")
        params = AwgnParams(sigma2=args.sigma2, cost=args.cost)
        if args.mode == "awgn":
            rep = rspb_awgn_equality(args.n, log_ml, params)
        else:
            extension = "shannon" if args.mode == "awgn-shannon" else "vazquez_vilar"
            rep = rspb_awgn_inequality(args.n, log_ml, params, extension)
    _emit({"mode": args.mode, **_report_dict(rep)})
    return EXIT_OK


def _cmd_htbe(args):
    from .htbe import ht_params, htbe_achievability, htbe_converse, threshold_gamma, threshold_test
    from .measures import bern, read_distribution, renyi_divergence, tilted_measure

    if args.w_bern is not None:
        w = bern(args.w_bern)
    elif args.w:
        w = read_distribution(args.w)
    else:
        raise PreconditionError("give --w FILE or --w-bern P")
    if args.q_bern is not None:
        q = bern(args.q_bern)
    elif args.q:
        q = read_distribution(args.q)
    else:
        raise PreconditionError("give --q FILE or --q-bern P")
    n = args.n
    params = ht_params(args.order, [w], [q])
    tilt = tilted_measure(args.order, w, q)
    d1_tq = n * renyi_divergence(1.0, tilt, q)
    d1_tw = n * renyi_divergence(1.0, tilt, w)
    conv = htbe_converse(args.order, n, args.beta, params, d1_tq, d1_tw)
    ach = htbe_achievability(args.order, n, args.beta, params, d1_tq, d1_tw)
    gamma = threshold_gamma(args.order, n, args.beta, params)
    test = threshold_test(gamma, [w] * n, [q] * n, args.order, budget=args.budget)
    _emit(
        {
            "order": args.order,
            "n": n,
            "beta": args.beta,
            "a2": params.a2,
            "a3": params.a3,
            "log_delta_hat": params.log_delta_hat,
            "d1_tilt_q_total": d1_tq,
            "d1_tilt_w_total": d1_tw,
            "converse": conv,
            "achievability": ach,
            "threshold_test": test,
        }
    )
    return EXIT_OK


# each verify option, the suite keyword it sets and the suites that read it;
# an option left out is left to the suite's own default
VERIFY_OPTIONS = {
    "n": ("ns", ("htbe",)),
    "betas": ("betas_per_n", ("htbe",)),
    "pairs": ("pairs", ("identities",)),
    "instances": ("instances", ("spe",)),
    "count": ("count", ("thirdmoment",)),
    "grid_size": ("grid_size", ("spe",)),
    "seed": ("seed", ("htbe", "identities", "spe", "thirdmoment", "all")),
}


def _cmd_verify(args):
    # only the suites use the oracle, so only this command loads it
    from . import verify as verify_mod

    kwargs = {}
    for option, (keyword, suites) in VERIFY_OPTIONS.items():
        value = getattr(args, option)
        if value is None:
            continue
        if args.suite not in suites:
            flag = "--" + option.replace("_", "-")
            raise PreconditionError(f"verify {args.suite} does not take {flag}")
        kwargs[keyword] = (value,) if option == "n" else value
    report = verify_mod.run_suite(args.suite, **kwargs)
    _emit(report)
    return EXIT_OK if report["all_pass"] else EXIT_UNCERTIFIED


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rspb",
        description=(
            "Refined sphere-packing bounds, Augustin information, and "
            "hypothesis-testing trade-offs. All quantities are in nats."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("divergence", help="Renyi divergence and tilt (nats)")
    sp.add_argument("--order", type=float, required=True)
    sp.add_argument("--w", required=True, help="distribution file")
    sp.add_argument("--q", required=True, help="distribution file")
    sp.set_defaults(func=_cmd_divergence)

    sp = sub.add_parser("augustin", help="Augustin mean and information (nats)")
    sp.add_argument("--order", type=float, required=True)
    _add_channel_args(sp)
    sp.add_argument("--input-dist", default="uniform", help="'uniform' or a file")
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--max-iter", type=int, default=20000)
    sp.set_defaults(func=_cmd_augustin)

    sp = sub.add_parser("capacity", help="Augustin capacity with certificate (nats)")
    sp.add_argument("--order", type=float, required=True)
    _add_channel_args(sp)
    sp.add_argument("--constraint", help="constraint file; default all inputs")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.set_defaults(func=_cmd_capacity)

    sp = sub.add_parser("spe", help="sphere-packing exponent (nats); rate sweeps emit CSV")
    _add_channel_args(sp)
    sp.add_argument("--composition", default="uniform", help="'uniform' or a file")
    sp.add_argument("--rate", required=True, help="rate in nats, or start:stop:count")
    sp.add_argument("--n", type=int, help="blocklength for prefactor columns")
    sp.add_argument("--output", choices=("object", "csv"), default="object")
    sp.set_defaults(func=_cmd_spe)

    sp = sub.add_parser("symmetric", help="Renyi-symmetry certificate and parametric point (nats)")
    _add_channel_args(sp)
    sp.add_argument("--rate", type=float, help="rate in nats for the parametric point")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.set_defaults(func=_cmd_symmetric)

    sp = sub.add_parser("awgn", help="Gaussian closed forms (nats); rate sweeps emit CSV")
    sp.add_argument("--sigma2", type=float, required=True)
    sp.add_argument("--cost", type=float, required=True)
    given = sp.add_mutually_exclusive_group()
    given.add_argument("--order", type=float)
    given.add_argument("--rate", help="rate in nats, or start:stop:count")
    sp.add_argument("--n", type=int, help="blocklength for prefactor columns")
    sp.add_argument("--output", choices=("object", "csv"), default="object")
    sp.set_defaults(func=_cmd_awgn)

    sp = sub.add_parser("rspb", help="refined sphere-packing lower bound (log domain, nats)")
    sp.add_argument("--mode", choices=("cc", "symmetric", "awgn", "awgn-shannon", "awgn-vv"),
                    required=True)
    _add_channel_args(sp)
    sp.add_argument("--composition", default="uniform", help="'uniform' or a file")
    sp.add_argument("--n", type=int, required=True)
    given = sp.add_mutually_exclusive_group()
    given.add_argument("--log-m-over-l", type=float, help="ln M - ln L")
    given.add_argument("--rate", type=float, help="rate in nats; log-m-over-l = rate * n")
    sp.add_argument("--sigma2", type=float)
    sp.add_argument("--cost", type=float)
    sp.set_defaults(func=_cmd_rspb)

    sp = sub.add_parser("htbe", help="hypothesis-testing bounds for a product pair (nats)")
    sp.add_argument("--order", type=float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--w", help="distribution file")
    sp.add_argument("--q", help="distribution file")
    sp.add_argument("--w-bern", type=float, help="Bernoulli shorthand for --w")
    sp.add_argument("--q-bern", type=float, help="Bernoulli shorthand for --q")
    sp.add_argument("--budget", type=int, default=2_000_000)
    sp.set_defaults(func=_cmd_htbe)

    sp = sub.add_parser("verify", help="run a verification suite and report pass/fail")
    sp.add_argument("suite", choices=("htbe", "identities", "spe", "thirdmoment", "all"))
    for option in VERIFY_OPTIONS:
        sp.add_argument("--" + option.replace("_", "-"), type=int)
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader of stdout went away (`rspb ... | head`): not an error.
        # Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ComputationError as exc:
        _emit({"partial": True, "error": type(exc).__name__, "detail": str(exc)})
        print(f"error: not certified: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED


if __name__ == "__main__":
    sys.exit(main())
