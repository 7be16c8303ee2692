"""The host's speed, sampled while a repeat runs.

The benchmark host is a shared VM whose speed drifts: the same repeat
takes up to 1.6x longer for tens of seconds at a time, so raw times of
whole runs spread by 10-25 % between runs of identical work.  While a
repeat runs, an interval timer interrupts it every ``PERIOD_S`` and runs
``task``, a fixed CPU task of about 1 ms that uses no code of the
package.  The mean time of that task over the repeat measures how slow
the host was during it; ``rescale`` converts the repeat's own time
(minus the time spent sampling) to a host on which the task takes
``REFERENCE_TASK_S``.  The mean, not the median, is the right statistic:
the slowdown comes as short stalls that hit few samples hard.  The
set-up probe, too short to interrupt, times the task back to back right
after its first call (``mean_task_s``).
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# About the task's time inside a repeat on a quiet 2-vCPU Xeon VM with
# Python 3.11.7 and numpy 2.4.6; a fixed convention, so rescaled times
# from different runs compare.
REFERENCE_TASK_S = 1.0e-3


def task() -> float:
    """Small numpy calls in an interpreted loop, like the engine's."""
    acc = 0.0
    for i in range(60):
        coeffs = np.array([1.0])
        for root in (0.5, -1.0, 1.5, -2.0, 2.5):
            coeffs = np.convolve(coeffs, np.array([-root, 1.0]))
        acc += float(np.sum(coeffs / np.arange(1, coeffs.size + 1)))
        acc += math.sqrt(i + 1.0) * 1e-3
    return acc


def mean_task_s(samples: int = 30) -> float:
    """Mean time of ``task`` run back to back ``samples`` times."""
    start = time.perf_counter()
    for _ in range(samples):
        task()
    return (time.perf_counter() - start) / samples


class HostSpeed:
    """Samples ``task`` every ``PERIOD_S`` while the context is open."""

    def __init__(self):
        self.task_s = []
        self.wall_spent = 0.0   # wall and CPU seconds taken by sampling
        self.cpu_spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        task()
        wall = time.perf_counter() - wall0
        self.task_s.append(wall)
        self.wall_spent += wall
        self.cpu_spent += time.process_time() - cpu0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def rescale(self, seconds: float, spent: float) -> float:
        """``seconds`` minus ``spent`` sampling, at the reference speed."""
        if not self.task_s:     # a repeat shorter than one period
            self._sample(None, None)
            spent = 0.0
        return ((seconds - spent) * REFERENCE_TASK_S
                / statistics.fmean(self.task_s))
