"""rspb benchmark: one run of one workload, as BENCHMARK.json describes.

    python3 perfbench/run.py --workload sweep|capacity|cli --seed N --seconds S --trace 0|1 [--strict]

Run from the root of a checkout; the library is taken from `src/`. Every
workload runs single-process and closed-loop with one caller, with
SPB_THREADS unset and numeric libraries held to one thread. With --trace 0
the run times the workload untraced, in CPU time scaled to a nominal host
speed (see hostspeed.py), and reports the end-to-end metrics; with
--trace 1 it runs the workload's first block under the tracer and reports
the per-layer metrics. Human-readable lines come first; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}. An item
fails when it raised, exited nonzero or was uncertified, or when the gate
refutes the answer the program presented as valid; failures lower
`pass_share`, and refuted answers also lower `right_share`. `correct` is
false, and the exit code 1, when the run is no valid measurement: traced and
untraced results differ, a repeated invocation prints different bytes, the
gate could not decide, or the metric names differ from BENCHMARK.json. With
--strict a refuted answer makes the run incorrect as well. The exit code is 2
when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
# Time past --seconds that a run may take: the block floor, set-up and the gate.
DEADLINE_MARGIN_S = 160.0
TAIL_BEYOND = 10


class HarnessError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPB_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(worker_args, env):
    """Start a worker; returns (process, CPU seconds it used from spawn to `ready`)."""
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *worker_args],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    word, _, ready = proc.stdout.readline().partition(" ")
    if word != "ready":
        proc.kill()
        proc.communicate()
        raise HarnessError(f"worker did not get ready (exit {proc.returncode})")
    return proc, float(ready)


def reference_spawn(env) -> float:
    """CPU seconds of one start of the reference interpreter (see hostspeed.py)."""
    before = hostspeed.children_cpu()
    hostspeed.spawn(env)
    return hostspeed.children_cpu() - before


def finish(proc, timeout) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with {proc.returncode}")
    return out


def tail(times):
    """Highest percentile with at least TAIL_BEYOND items above it."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(result, setup, spawn_s):
    """The metrics of an untraced run, its times scaled to the nominal host speed.

    Each item time is scaled by the samples of the workload's reference
    nearest to it, and each set-up probe by the spawn of the reference
    interpreter made just before it (see hostspeed.py).
    """
    calibration = result["calibration"]
    raw = result["item_s"]
    times = [f * t for f, t in zip(hostspeed.scales(raw, calibration), raw)]
    scaled_setup = [hostspeed.SPAWN_NOMINAL_S / r * t for r, t in zip(spawn_s, setup)]
    value, pct = tail(times)
    metrics = {
        "setup_s": statistics.median(scaled_setup),
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": 1000.0 * statistics.median(times),
        "item_tail_ms": 1000.0 * value,
        "pass_share": 1.0 - result["failed"] / result["attempted"],
        "right_share": 1.0 - len(result["wrong"]) / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [f"item_tail_ms is p{pct:.1f} of {len(times)} items",
             f"setup_s is the median of {len(setup)} spawns",
             f"host speed: reference {1000.0 * statistics.fmean(calibration['samples']):.3f} ms "
             f"(mean of {len(calibration['samples'])}), items scaled by "
             f"{sum(times) / sum(raw):.4f} overall, set-up spawn "
             f"{1000.0 * statistics.fmean(spawn_s):.1f} ms",
             f"raw CPU times: setup {statistics.median(setup):.4f} s, "
             f"{len(raw) / sum(raw):.4f} items/s, p50 {1000.0 * statistics.median(raw):.3f} ms, "
             f"tail {1000.0 * tail(raw)[0]:.3f} ms"]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--strict", action="store_true",
                    help="an answer the gate refutes makes the run incorrect")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "rspb" / "__init__.py").is_file():
        print(f"error: no rspb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    env = child_env()
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setup, spawn_s = [], []
        if not args.trace:
            # the first spawn compiles bytecode once, as an install would
            for i in range(SETUP_PROBES + 1):
                if i:
                    spawn_s.append(reference_spawn(env))
                proc, ready = spawn([*worker_args, "--setup-only"], env)
                finish(proc, 60.0)
                if i:
                    setup.append(ready)
            spawn_s.append(reference_spawn(env))
        proc, ready = spawn(worker_args, env)
        setup.append(ready)
        out = finish(proc, args.seconds + DEADLINE_MARGIN_S - (time.perf_counter() - started))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        metrics, notes = result["per_layer"], []
    else:
        metrics, notes = end_to_end(result, setup, spawn_s)
    problems = list(result["problems"])
    if args.strict:
        problems += [f"refuted: {w}" for w in result["wrong"]]
    if set(metrics) != set(units):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    correct = not problems

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} items, {result['failed']} failed")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]!r} {units.get(name, '?')}")
    notes.append(f"refuted answers: {len(result['wrong'])}")
    for line in (notes + [f"refuted: {w}" for w in result["wrong"][:10]]
                 + [f"failed: {f}" for f in result["failures"][:10]]):
        print(f"  {line}")
    for p in problems[:20]:
        print(f"  INVALID: {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k, "?")} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
