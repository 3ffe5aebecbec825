"""Reference host speed: the unit of the benchmark's end-to-end times.

The shared 2-vCPU host the benchmark was defined on switches, several times a
second and in stretches of tens of seconds, between speeds about 1.6x apart,
alike for interpreter, numpy and BLAS work.  Raw times of one commit then
drift between runs by more than a change may be allowed to.

So, while a timed run is in progress, a SIGALRM every INTERVAL_S runs a tiny
fixed kernel that uses no qbouncer code and records how long it took.  An
interval of wall or CPU time is reported at reference speed: with the
kernel's own time inside it taken out, and multiplied by the mean of
REF_KERNEL_S / k over the kernel times k sampled inside it.  That is the time
the interval would take on a host where the kernel always takes REF_KERNEL_S;
a change to qbouncer moves it in proportion, a change of host speed does not.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# The kernel's time in the host's faster phase (2-vCPU Xeon VM), so that
# reference-speed seconds read close to the fastest raw seconds there.
REF_KERNEL_S = 1.7e-4
_SMALL = np.linspace(0.0, 1.0, 8)


def _kernel():
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    small = _SMALL
    for _ in range(60):
        small = small * 1.0000001 + 0.5
    return acc, small


class HostSpeed:
    """Samples the kernel on a timer while active (a context manager)."""

    def __init__(self):
        self._samples = []  # kernel seconds, in the order taken
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        _kernel()
        self._samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        """Start of an interval, for at_reference()."""
        return len(self._samples)

    def at_reference(self, mark, *seconds):
        """Each of `seconds`, measured over the interval since `mark`, at reference speed.

        An interval too short to hold a sample is scaled by one taken at its end.
        """
        inside = self._samples[mark:]
        own = sum(inside)
        if not inside:
            self._sample()
            inside = self._samples[mark:]
        speed = statistics.fmean(REF_KERNEL_S / k for k in inside)
        return tuple(max(s - own, 0.0) * speed for s in seconds)
