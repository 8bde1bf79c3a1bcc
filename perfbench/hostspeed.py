"""Host-speed calibration: fixed reference work, timed between a run's items.

The shared hosts this benchmark runs on change speed by half or more for
minutes at a time, so a run's raw CPU times say as much about the host as
about the program. Every run therefore also times reference work that calls
nothing of the library, so that no change to the library can move it, and
`run.py` scales every time of the run by the reference's nominal time over
its mean time in the stretch of the run around that time: a time is
reported as it would read on a host where the reference takes its nominal
time. The host's speed also changes within seconds, so each item is scaled
by the reference samples nearest to it in the run, not by the run's mean.
The raw times and the mean factor are printed in the run's notes.

There are two references, because a host's swings move work in one process
and the start of a fresh process differently:

- `kernel` does the kind of work the library does in process: a Python loop
  of numpy calls on arrays of a few elements, the order-1/2 Augustin
  fixed-point step on a fixed 4x6 channel. It scales the `sweep` and
  `capacity` items.
- `spawn` starts a fresh interpreter that imports numpy, as every `rspb`
  process and every worker does first. It scales the `cli` items and set-up.
"""

from __future__ import annotations

import resource
import subprocess
import sys

import numpy as np

# The references' times that reported times are scaled to. On the 2-vCPU
# host the benchmark was defined on, a run's mean kernel time ranged from
# 2.2 to 4.0 ms and its mean spawn from 0.17 to 0.22 s of CPU, by the host's
# speed.
KERNEL_NOMINAL_S = 0.003
SPAWN_NOMINAL_S = 0.2
STEPS = 200
RHO = 0.5

_W = np.random.default_rng(0).dirichlet(np.ones(6), size=4)
_LOG_W = np.log(_W)
_P = np.full(4, 0.25)


def kernel() -> np.ndarray:
    q = _P @ _W
    for _ in range(STEPS):
        logits = RHO * _LOG_W + (1.0 - RHO) * np.log(q)
        t = np.exp(logits - logits.max(axis=1, keepdims=True))
        q = _P @ (t / t.sum(axis=1, keepdims=True))
    return q


def spawn(env) -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)


def children_cpu() -> float:
    used = resource.getrusage(resource.RUSAGE_CHILDREN)
    return used.ru_utime + used.ru_stime


class Calibration:
    """Samples of one reference in one run.

    `first` samples are taken at once, then one more after each `every_s`
    of item time, which keeps the reference at a few per cent of a run.
    `at` holds the item time done when each sample was taken; an item is
    scaled by the `nearest` samples to its middle in that time.
    """

    def __init__(self, reference, clock, nominal_s, first, every_s, nearest):
        self.reference, self.clock = reference, clock
        self.nominal_s, self.every_s, self.nearest = nominal_s, every_s, nearest
        self.samples, self.at = [], []
        self.done = self.owed = 0.0
        for _ in range(first):
            self.sample()

    @classmethod
    def in_process(cls, clock):
        return cls(kernel, clock, KERNEL_NOMINAL_S, first=8, every_s=0.1, nearest=10)

    @classmethod
    def spawning(cls, clock, env):
        return cls(lambda: spawn(env), clock, SPAWN_NOMINAL_S, first=2, every_s=3.0, nearest=4)

    def sample(self):
        t = self.clock()
        self.reference()
        self.samples.append(self.clock() - t)
        self.at.append(self.done)

    def after(self, item_s: float):
        """Count an item's time; sample once `every_s` of item time has passed."""
        self.done += item_s
        self.owed += item_s
        if self.owed >= self.every_s:
            self.owed = 0.0
            self.sample()

    def report(self) -> dict:
        return {"nominal_s": self.nominal_s, "nearest": self.nearest,
                "samples": self.samples, "at": self.at}


def scales(item_s, report) -> list:
    """Each item's factor: the nominal time over the mean of its nearest samples."""
    samples, at = np.asarray(report["samples"]), np.asarray(report["at"])
    k = min(report["nearest"], samples.size)
    middles = np.cumsum(item_s) - 0.5 * np.asarray(item_s)
    return [report["nominal_s"] / float(samples[np.argsort(np.abs(at - m), kind="stable")[:k]].mean())
            for m in middles]
