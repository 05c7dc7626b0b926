"""Timings scaled to a reference machine speed.

The benchmark is meant for small shared machines, whose cores run up to
about twice as slow for seconds to minutes at a time while other work
shares them. CPU time slows down with wall time, so it does not cancel
the swing, and neither do medians within one run: a whole run can fall
in a slow stretch.

``Probe.time`` measures how fast the machine runs while it times a call.
It times a fixed probe kernel (small numpy products and Python object
work, like the package's own ops), after a short untimed warm-up of the
same kernel, once before the call, every ``INTERVAL_S`` of wall time
during it, from a ``SIGALRM`` handler, and once after it.
``REF_KERNEL_S / c`` is the machine's speed relative to the reference at
a sample whose kernel took ``c`` seconds. The call's scaled time is its
wall time, less the time its in-call samples took with their warm-ups,
times the mean relative speed over the samples: the time the call would
have taken at the reference speed. Samples lie evenly in wall time, so
slow stretches weigh by how long they last.

The probe needs the main thread and owns ``SIGALRM`` and
``ITIMER_REAL`` of its process. The traced run does not use it, so
that no span pays for a sample.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.05
WARMUP_ROUNDS = 10  # untimed, so that caches the call evicted are refilled
KERNEL_ROUNDS = 100
# The kernel's time at the reference speed: about its time on an
# unloaded core of a 2-core x86-64 virtual machine (numpy 2.4, one
# BLAS thread). It sets the scale of every scaled time.
REF_KERNEL_S = 0.0005

_X = np.full((16, 32), 0.5)
_W = np.full((32, 32), 0.01)


def kernel(rounds: int) -> float:
    acc = 0.0
    for i in range(rounds):
        y = np.tanh(_X @ _W)
        acc += float(y.sum())
        row = {"i": i, "pair": [i, i + 1]}
        acc += row["pair"][1]
    return acc


@dataclass(frozen=True)
class Timing:
    wall_s: float  # the call's wall time, less its in-call samples
    speed: float  # mean speed relative to the reference over the samples
    samples: int

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.speed


class Probe:
    """Times calls and scales them to the reference speed."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self._active = False
        self._samples: list[float] = []
        self._spent = 0.0  # wall time of the in-call samples, warm-up included
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self) -> float:
        t0 = time.perf_counter()
        kernel(WARMUP_ROUNDS)
        t1 = time.perf_counter()
        kernel(KERNEL_ROUNDS)
        t2 = time.perf_counter()
        self._samples.append(t2 - t1)
        return t2 - t0

    def _on_alarm(self, signum, frame) -> None:
        if self._active:  # an alarm still pending after the call is dropped
            self._spent += self._sample()

    def time(self, fn, *args):
        """Return ``fn(*args)`` and its ``Timing``."""
        self._samples = []
        self._spent = 0.0
        self._sample()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            self._active = False
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        speed = statistics.fmean(REF_KERNEL_S / c for c in self._samples)
        return result, Timing(t1 - t0 - self._spent, speed, len(self._samples))
