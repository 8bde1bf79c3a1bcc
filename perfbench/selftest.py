"""Self-test of the benchmark harness: `python3 perfbench/selftest.py`.

Run from the root of a checkout. Checks that

- BENCHMARK.json keeps the shape and limits the benchmark is defined with;
- a seed fixes the inputs, and two seeds give different inputs;
- a seed fixes the traced counters (two runs of each workload);
- each run prints every metric of BENCHMARK.json by name with its unit, and
  emits exactly those names;
- the two baseline counters of ROADMAP are reproduced by the tracer:
  spe_parametric(uniform, bsc(0.1), 0.1308120) makes 39 fixed-point solves
  below order one and one at order one, and augustin_capacity(0.5, R8x16)
  makes 4000 and is uncertified;
- the gate refutes wrong answers, and with --strict a refuted answer makes
  the run incorrect with exit code 1: every item of a copy of the sources
  whose capacity is off by one part in 10^4 is refuted, and so is every
  unconstrained item of a copy that reports, as a certified capacity, the
  upper bound max_x D_rho(W(x)||q) of its first iterate;
- a copy whose CLI output changes between identical invocations makes the
  run incorrect, with exit code 1;
- a directory with only BENCHMARK.json and perfbench/ exits nonzero without
  printing a result.

The counter pins hold for the solvers at the commit that defined the
benchmark; a change that alters a solver's work changes them on purpose.
Takes about eight minutes on a 2-vCPU machine. Exits 0 when every check
passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer  # noqa: E402
from cliload import cli_block  # noqa: E402
from workloads import capacity_block, fingerprint, reference_channel, sweep_block  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
FAILURES = []


def report(ok: bool, what: str):
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def check_spec(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in metrics]
    report(sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"], "BENCHMARK.json has exactly its keys")
    report(all(NAME.fullmatch(n) for n in names) and len(set(names)) == len(names),
           "names are well formed and used once")
    report(all(UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
               for m in metrics), "units and directions are well formed")
    report(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
           and {"name": "setup_s", "unit": "s", "better": "lower"}.items()
           <= next(m for m in spec["end_to_end"] if m["name"] == "setup_s").items(),
           "end-to-end bounds are at most 0.25 and setup_s is declared")
    report(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
           and 2 <= len(spec["workloads"]) <= 8, "workloads have one-line reasons")


def block_inputs(workload, seed, block):
    """Fingerprints of one block's inputs, input files included."""
    if workload != "cli":
        make = sweep_block if workload == "sweep" else capacity_block
        return [(it.label, fingerprint(it.args)) for it in make(seed, block)]
    with tempfile.TemporaryDirectory(dir=HERE / "_runs") as tmp:
        items = cli_block(seed, block, Path(tmp))
        files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
        return [(it.label, tuple(a.replace(tmp, "") for a in it.argv)) for it in items], files


def check_inputs():
    for workload in ("sweep", "capacity", "cli"):
        a, b, c = (block_inputs(workload, s, 1) for s in (7, 7, 8))
        report(a == b, f"{workload}: one seed gives identical inputs")
        report(a != c, f"{workload}: two seeds give different inputs")


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def check_run(spec, workload, trace, seed=5):
    code, out, err = run(["--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", str(trace)])
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        report(False, f"{workload} trace {trace}: prints a result (exit {code}: {err[-300:]})")
        return None
    printed = all(re.search(rf"^  {re.escape(n)} = \S+ {re.escape(u)}$", out, re.M)
                  for n, u in declared.items())
    report(code == 0 and result["correct"], f"{workload} trace {trace}: exits 0 and correct")
    report(set(result["metrics"]) == set(declared) and printed,
           f"{workload} trace {trace}: prints every declared metric with its unit")
    return result


def check_counters(spec):
    counted = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes", "ratio")}
    for workload in ("sweep", "capacity", "cli"):
        first, second = (check_run(spec, workload, 1) for _ in range(2))
        if first and second:
            same = all(first["metrics"][n] == second["metrics"][n] for n in counted)
            report(same, f"{workload}: one seed gives identical traced counters")


def check_pins():
    from rspb.augustin import augustin_capacity
    from rspb.measures import bsc, uniform_dist
    from rspb.spe import spe_parametric

    tr = tracer.Tracer()
    tr.install()
    try:
        tr.wrapped(spe_parametric)(uniform_dist(2), bsc(0.1), 0.1308120)
        start = len(tr.spans)
        res = tr.wrapped(augustin_capacity)(0.5, reference_channel(8, 16))
    finally:
        tr.uninstall()
    spe_orders = [s[5][0] for s in tr.spans[:start] if s[0] == tracer.FIXED_POINT]
    below = sum(rho < 1.0 for rho in spe_orders)
    at_one = sum(rho == 1.0 for rho in spe_orders)
    report((below, at_one) == (39, 1),
           f"spe pin: {below} solves below order one + {at_one} at order one (baseline 39 + 1)")
    outer = sum(1 for s in tr.spans[start:] if s[0] == tracer.FIXED_POINT)
    report(outer == 4000 and not res.certified,
           f"capacity pin: {outer} outer solves, certified={res.certified} "
           "(baseline 4000, uncertified)")


def copy_checkout(dest: Path, with_src: bool):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src" / "rspb", dest / "src" / "rspb",
                        ignore=shutil.ignore_patterns("__pycache__"))


def check_broken_copies():
    with tempfile.TemporaryDirectory(dir=HERE / "_runs") as tmp:
        bare = Path(tmp) / "bare"
        bare.mkdir()
        copy_checkout(bare, with_src=False)
        code, out, _ = run(["--workload", "sweep", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare)
        report(code != 0 and '"correct"' not in out,
               "without sources: exits nonzero and prints no result")

        items = capacity_block(1, 0)
        unconstrained = sum(it.args[2] is None for it in items)
        for name, old, new, refuted, what in (
            ("high", "return p, q, d, info, gap", "return p, q, d, info * (1 + 1e-4), gap",
             len(items), "capacity off by 1e-4: every item is refuted"),
            ("upper", "p, q, _, info, gap = _ba_search(rho, channel, tol, max_iter)",
             "p, q, d, info, gap = _ba_search(rho, channel, tol, 1); "
             "info, gap = float(d.max()), 0.0", unconstrained,
             "capacity reported as its first upper bound: every unconstrained item is refuted"),
        ):
            wrong = mutated_checkout(Path(tmp) / name, "augustin.py", old, new)
            code, out, _ = run(["--workload", "capacity", "--seed", "1", "--seconds", "1",
                                "--trace", "0", "--strict"], cwd=wrong)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            report(code == 1 and result.get("correct") is False
                   and f"refuted answers: {refuted}\n" in out
                   and result.get("failed", 0) >= refuted,
                   f"{what}; with --strict correct is false, exit 1")

        noisy = mutated_checkout(Path(tmp) / "noisy", "cli.py",
                                 "print(json.dumps(_jsonable(report),",
                                 "print(json.dumps({**_jsonable(report), "
                                 "'nonce': __import__('time').perf_counter_ns()},")
        code, out, _ = run(["--workload", "cli", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=noisy)
        lines = out.strip().splitlines()
        report(code == 1 and bool(lines) and json.loads(lines[-1])["correct"] is False,
               "output that changes between invocations: correct is false, exit 1")


def mutated_checkout(dest: Path, module: str, old: str, new: str) -> Path:
    """A copy of the checkout with one edit in src/rspb/<module>."""
    dest.mkdir()
    copy_checkout(dest, with_src=True)
    path = dest / "src" / "rspb" / module
    text = path.read_text()
    if old not in text:
        raise SystemExit(f"self-test is stale: {old!r} not found in {module}")
    path.write_text(text.replace(old, new, 1))
    return dest


def main() -> int:
    (HERE / "_runs").mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_inputs()
    check_pins()
    for workload in ("sweep", "capacity", "cli"):
        check_run(spec, workload, 0)
    check_counters(spec)
    check_broken_copies()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
