"""Host-speed normalisation of measured times.

On a 2-vCPU Xeon virtual machine whose cores other tenants share, the speed
of the same code drifts by up to 2x within seconds (CPU time drifts with
wall time, so the loss is in execution speed, not in scheduling). A fixed
reference loop, owned by the benchmark and independent of the package, is
timed every INTERVAL_S from a SIGALRM handler while operations run. Each
operation's wall time, minus the handler's own time, is scaled by
REF_NOMINAL_S / (mean reference time around the operation): the result is
the operation's time on a host where the reference loop takes REF_NOMINAL_S.
A change to the package leaves the reference loop alone, so it moves the
normalised times as it would move wall time on a steady host.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_NOMINAL_S = 0.0008  # the loop's median time during operations on that VM
INTERVAL_S = 0.05
WINDOW_S = 0.25


_TAPS = (16, 15, 13, 4)


def _shift(state: int) -> tuple[int, int]:
    fb = 0
    for tap in _TAPS:
        fb ^= (state >> (tap % 16)) & 1
    return (state >> 1) | (fb << 15), state & 1


def reference_loop(words: int = 48) -> int:
    """Bit-serial 16-bit LFSR words: a function call per bit, the shape of
    most of the package's hot paths. Of the loops tried (this one, a
    call-free integer and list loop, a pointer chase over 8 MB) it tracked
    the package's slowdowns best on every workload."""
    state, acc = 0xACE1, 0
    for _ in range(words):
        word = 0
        for i in range(16):
            state, bit = _shift(state)
            word |= bit << i
        acc ^= word
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class Sampler:
    """Context manager that samples the reference loop on a timer. Samples
    are (handler start, handler end, reference seconds), in time order."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        ref = time_reference()
        self.samples.append((t0, time.perf_counter(), ref))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def adjust(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, normalised) seconds of the interval [t0, t1], both without
        the handler's own time. The host speed is the mean over the samples
        within WINDOW_S of the interval, so a 3 ms operation is not scaled
        by one noisy sample."""
        if not self.samples:
            return t1 - t0, t1 - t0
        starts = [s[0] for s in self.samples]
        inside = self.samples[bisect.bisect_left(starts, t0):bisect.bisect_right(starts, t1)]
        wall = (t1 - t0) - sum(min(end, t1) - start for start, end, _ in inside)
        near = self.samples[bisect.bisect_left(starts, t0 - WINDOW_S):
                            bisect.bisect_right(starts, t1 + WINDOW_S)] or self.samples
        return wall, wall * REF_NOMINAL_S / statistics.fmean(r for _, _, r in near)

    def speed(self) -> float:
        """Median host speed over the samples, relative to the nominal."""
        if not self.samples:
            return 1.0
        return REF_NOMINAL_S / statistics.median(r for _, _, r in self.samples)
