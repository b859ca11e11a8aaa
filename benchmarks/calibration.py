"""Host-speed calibration for op timings.

On a shared host the CPU speed can swing by 2x within tens of seconds,
which moves every raw timing far more than the changes the benchmark must
resolve.  A fixed reference kernel, which runs no qcoin code, is timed
every 0.1 s, also in the middle of an op, and tracks that swing.  An op's
calibrated time is its raw time times ``NOMINAL_S`` over the kernel's time
during and around it: the op's duration on a host that runs the kernel in
exactly ``NOMINAL_S``.  Its unit is the calibrated second, ``cal_s``.

Measured on a shared 2-vCPU Xeon VM over ten 30-second runs per workload,
as quartile distance over median: deep-horizon median latency spread 31%
in plain time (37-71 ms) and 5% calibrated; oracle-grid 15% and 2%;
figure-presets 7% and 3%.  Process CPU time in place of wall time spread
as widely as wall time (five seeds: 12-19% against 5-10% calibrated), so
the swing is not steal time.  Set-up (median of three fresh interpreters)
spread 13-25% in plain seconds and 4-8% with its part after the numpy
import calibrated.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# About the kernel's time on a shared 2-vCPU Xeon VM; it only sets the scale
# of calibrated seconds.
NOMINAL_S = 0.0008


def kernel() -> float:
    """Pure-Python string, dict and float work plus a little numpy, in the
    proportions of qcoin's own hot paths."""
    total = 0.0
    table = {format(i, "011b"): i * 0.5 for i in range(768)}
    for bits, value in table.items():
        total += value * (1.0 if bits[-1] == "1" else 0.5)
    rows = [[float(i * j) for j in range(20)] for i in range(20)]
    total += sum(map(sum, rows))
    draws = np.random.default_rng(0).random(8192)
    total += float(np.bincount((draws * 8).astype(np.int64), minlength=8)[0])
    return total


class Sampler:
    """Times the kernel every `period` seconds of wall time from a SIGALRM
    handler, so that samples also land inside long ops.  `paused_s` is the
    time spent in the handler, which op timings leave out."""

    def __init__(self, period: float):
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (perf_counter at start, kernel seconds)
        self.paused_s = 0.0

    def __enter__(self) -> "Sampler":
        self._take()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._take()

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._take()
        self.paused_s += time.perf_counter() - t0

    def _take(self) -> None:
        self.samples.append((time.perf_counter(), sample()))

    def calibrate(self, spans: list[tuple[float, float, float]]) -> list[float]:
        """Calibrated seconds of ops given as (start, end, seconds): each is
        scaled by the mean kernel time of the samples taken during it and the
        nearest one on either side."""
        starts = [t for t, _ in self.samples]
        out = []
        for start, end, seconds in spans:
            lo = max(bisect.bisect_left(starts, start) - 1, 0)
            hi = bisect.bisect_right(starts, end) + 1
            kernel_s = [s for _, s in self.samples[lo:hi]]
            out.append(seconds * NOMINAL_S * len(kernel_s) / sum(kernel_s))
        return out


def sample() -> float:
    """Seconds the kernel takes now: the median of three runs, so that one
    interrupted run does not count."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]
