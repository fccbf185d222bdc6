"""A clock that reads seconds at a fixed nominal host speed.

On a shared host the same deterministic work runs up to twice as fast in
one second as in the next, and the slow and fast phases last from a
fraction of a second to minutes, so raw wall times of one operation spread
by tens of percent between runs.  This module takes that speed out.

A reference kernel -- a short Python loop over two-element numpy arrays,
the same mix of interpreter dispatch and small array calls as the
package's integrators and field oracles, but no package code -- is timed
every ``INTERVAL`` seconds from a ``SIGALRM`` handler while the clock
runs.  Each timing gives the host's relative speed at that moment,
``REFERENCE_S / measured``.  The clock credits every stretch of wall time
between two samples with the mean speed of its two ends and leaves out
the time the handler itself takes, so it reads the seconds the work would
have taken at the nominal speed.  A faster program reads fewer nominal
seconds; a faster host phase does not.

``REFERENCE_S`` fixes the scale: it is about the kernel's median time on
the 2-core Xeon host the benchmark was tuned on, so nominal seconds there
are close to typical wall seconds.
"""
from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

#: loop steps of one reference kernel
REFERENCE_STEPS = 200
#: seconds one reference kernel takes at the nominal speed
REFERENCE_S = 1.6e-3
#: wall seconds between two speed samples
INTERVAL = 0.025

_COEFFS = np.array([1.0, 2.0])


def reference_seconds() -> float:
    """Run the reference kernel once and return its wall time."""
    t0 = time.perf_counter()
    x = np.array([0.3, 0.1])
    v = np.array([0.0, 0.2])
    for _ in range(REFERENCE_STEPS):
        x = x + 0.01 * v
        v = v - 0.01 * (_COEFFS * x)
        float(x @ x) + float(v @ v)  # the scalar reads of a blow-up check
    return time.perf_counter() - t0


class SpeedClock:
    """Nominal seconds, sampled by a ``SIGALRM`` handler while ``running()``.

    Only one clock may run at a time in a process, and only in its main
    thread, because it owns the process's ``SIGALRM`` and real-time timer.
    """

    def __init__(self) -> None:
        self.samples = 0           # speed samples taken so far
        self.handler_s = 0.0       # wall time spent in the handler
        self._nominal = 0.0        # nominal seconds up to _since
        self._since = 0.0          # perf_counter when the last sample ended
        self._speed = 1.0          # relative speed at the last sample
        self._busy = False

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        speed = REFERENCE_S / reference_seconds()
        self._nominal += (t0 - self._since) * 0.5 * (self._speed + speed)
        self._speed = speed
        self.samples += 1
        self._since = time.perf_counter()
        self.handler_s += self._since - t0
        self._busy = False

    def __call__(self) -> float:
        """Nominal seconds since the clock started."""
        return self._nominal + (time.perf_counter() - self._since) * self._speed

    @contextmanager
    def running(self):
        """Sample the host's speed every ``INTERVAL`` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            self._since = time.perf_counter()
            self._speed = REFERENCE_S / reference_seconds()
            self._since = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
