"""One workload run in a fresh process; `run.py` starts it and reads its result.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Prints `ready <cpu seconds>` once the imports and the first block's inputs
are done, with the CPU time this process has used since it was spawned (the
parent reports it as set-up), then, unless --setup-only, runs and prints one
JSON line. Items are timed in CPU time, as `cpu_clock` reads it, and the
workload's host-speed reference (hostspeed.py) is timed between them.
Untraced, it runs whole blocks, one item at a time, until S seconds have
passed and at least MIN_BLOCKS blocks are done, so every run weighs the
item kinds alike. Traced, it runs exactly block 0 with
the tracer installed, after running the first few items of that block
untraced to measure the tracing overhead and to check that tracing leaves
results bit-identical.
"""

from __future__ import annotations

import argparse
import sys
import time

OVERHEAD_SAMPLE = 3
RECHECK_SAMPLE = 3
# Whole blocks, at least this many: with the block count fixed by this floor
# rather than by the clock, a host that runs slower for a while does not
# change which items a run holds, and so cannot move the tail percentile.
# Blocks take 11-16 s (sweep), 18-22 s (cli) and 25-40 s (capacity) on a
# 2-vCPU host.
MIN_BLOCKS = {"sweep": 2, "capacity": 1, "cli": 2}


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("sweep", "capacity", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


ARGS = _parse(sys.argv[1:])
if ARGS.trace:
    # measured first, in a fresh interpreter, before anything imports numpy
    _t0 = time.perf_counter()
    import rspb.cli  # noqa: F401,E402

    IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracer  # noqa: E402
from workloads import capacity_block, fingerprint, sweep_block  # noqa: E402

if ARGS.workload == "cli":
    import cliload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"


class InProcess:
    """Items are library calls made in this process."""

    child_spans = import_s = ()

    def __init__(self, make_block):
        self.make_block = make_block
        self.tracer = None

    def run(self, item):
        return item.fn(*item.args)

    def run_traced(self, item):
        return self.tracer.wrapped(item.fn)(*item.args)

    def check(self, item, result):
        return item.check(result)

    def fingerprint(self, result):
        return fingerprint(result)

    def no_answer(self, result):
        return "uncertified"

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def calibration(self):
        return hostspeed.Calibration.in_process(cpu_clock)

    def finish(self, done, problems):
        pass


class Cli:
    """Items are fresh `python -m rspb.cli` processes."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.make_block = lambda b: cliload.cli_block(seed, b, workdir)
        self.child_spans = []
        self.import_s = []

    def run(self, item):
        return cliload.run_cli(item.argv, os.environ, ROOT)

    def run_traced(self, item):
        span_file = self.workdir / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_child.py"), str(span_file), *item.argv],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
        data = json.loads(span_file.read_text())
        span_file.unlink()
        self.child_spans.append(data["spans"])
        self.import_s.append(data["import_s"])
        return proc.returncode, proc.stdout

    def check(self, item, result):
        code, out = result
        if code != 0:
            return True, None
        wrong = cliload.check_output(item, out)
        return wrong is not None, wrong

    def fingerprint(self, result):
        return result

    def no_answer(self, result):
        return f"exit {result[0]}"

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def calibration(self):
        return hostspeed.Calibration.spawning(cpu_clock, os.environ)

    def finish(self, done, problems):
        """Repeat a seeded sample of invocations: stdout must not change."""
        rng = np.random.default_rng([self.seed, 1 << 20])
        for i in rng.choice(len(done), size=min(RECHECK_SAMPLE, len(done)), replace=False):
            item, result = done[i]
            again = self.run(item)
            if again != result:
                problems.append(f"{item.label}: a repeated invocation printed different output")


def cpu_clock() -> float:
    """User plus system CPU seconds of this process and its reaped children.

    Items are timed by this clock, not by the wall clock, which also counts
    the time the host or the guest gives to other work. A `cli` item's child
    is reaped before its call returns, so its CPU time is counted in full.
    """
    return time.process_time() + hostspeed.children_cpu()


def _timed(fn, item):
    t = cpu_clock()
    try:
        result, error = fn(item), None
    except Exception as exc:  # an item that raises is counted as failed
        result, error = None, exc
    return cpu_clock() - t, result, error


def main():
    workdir = RUNS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if ARGS.workload == "cli":
            kind = Cli(ARGS.seed, workdir)
        else:
            block_fn = sweep_block if ARGS.workload == "sweep" else capacity_block
            kind = InProcess(lambda b: block_fn(ARGS.seed, b))
        first = kind.make_block(0)
        print(f"ready {time.process_time()!r}", flush=True)
        if ARGS.setup_only:
            return 0
        out = traced(kind, first) if ARGS.trace else untraced(kind, first)
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _settle(kind, done, times, errors, outcome):
    """Check every finished item and add the counts to `outcome`.

    An item that raised, exited nonzero or was uncertified is listed under
    `failures`: the program said it had no answer. An answer the gate
    refutes, which the program presented as valid, is listed under `wrong`.
    Both count as failed. `problems` mean the run is no valid measurement.
    """
    failures, wrong, problems = [], [], []
    for (item, result), error in zip(done, errors):
        if error is not None:
            failures.append(f"{item.label}: {type(error).__name__}: {error}")
            continue
        try:
            bad, why = kind.check(item, result)
        except Exception as exc:  # the gate itself could not decide
            problems.append(f"{item.label}: the gate raised {type(exc).__name__}: {exc}")
            continue
        if why:
            wrong.append(f"{item.label}: {why}")
        elif bad:
            failures.append(f"{item.label}: {kind.no_answer(result)}")
    kind.finish([d for d, e in zip(done, errors) if e is None], problems)
    outcome.update(attempted=len(done), failed=len(failures) + len(wrong), item_s=times,
                   wrong=wrong, failures=failures, problems=problems)
    return outcome


def untraced(kind, block):
    done, times, errors = [], [], []
    calibration = kind.calibration()
    start = time.perf_counter()
    index = 0
    while True:
        for item in block:
            dt, result, error = _timed(kind.run, item)
            done.append((item, result))
            times.append(dt)
            errors.append(error)
            calibration.after(dt)
        index += 1
        if index >= MIN_BLOCKS[ARGS.workload] and time.perf_counter() - start >= ARGS.seconds:
            break
        block = kind.make_block(index)
    return _settle(kind, done, times, errors, {"peak_rss_mb": kind.peak_rss_mb(),
                                               "calibration": calibration.report()})


def traced(kind, block):
    calibration = kind.calibration()
    sample = [_timed(kind.run, item) for item in block[:OVERHEAD_SAMPLE]]
    tr = kind.tracer = tracer.Tracer()
    tr.install()
    try:
        runs = [_timed(kind.run_traced, item) for item in block]
    finally:
        tr.uninstall()
    problems = []
    for item, (dt0, r0, e0), (dt1, r1, e1) in zip(block, sample, runs):
        if (e0 is None) != (e1 is None) or (
                e0 is None and kind.fingerprint(r0) != kind.fingerprint(r1)):
            problems.append(f"{item.label}: traced result differs from the untraced one")
    spans = tracer.concat([tr.spans, *kind.child_spans])
    per_layer = tracer.aggregate(spans)
    per_layer.update({
        "cli.import_s": float(np.median(kind.import_s or [IMPORT_S])),
        "cli.stdout_bytes": sum(len(r[1][1]) for r in runs if r[2] is None)
        if isinstance(kind, Cli) else 0,
        "trace.overhead_s": sum(r[0] for r in runs[:len(sample)]) - sum(s[0] for s in sample),
        "host.calibration_ms": 1000.0 * float(np.mean(calibration.samples)),
    })
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / f"spans-{ARGS.workload}-{ARGS.seed}.json", "w") as fh:
        json.dump({"spans": spans}, fh)
    outcome = _settle(kind, [(item, r[1]) for item, r in zip(block, runs)],
                      [r[0] for r in runs], [r[2] for r in runs], {"per_layer": per_layer})
    outcome["problems"][:0] = problems
    return outcome


if __name__ == "__main__":
    sys.exit(main())
