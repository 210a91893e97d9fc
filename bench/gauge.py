"""A gauge of the machine's speed while an op runs.

On a shared host the speed of a core drifts: a fixed numpy loop on a
2-core x86 VM took anywhere from 0.04 to 0.07 s per pass, in spells of a
few seconds to minutes, with process time tracking wall time, so no
clock of the process's own is steadier.  Loops of different kinds timed
side by side slowed together (correlation 0.96-0.99 between their
medians over 0.3-0.4 s), but not equally: numpy calls on tiny arrays
slowed about 1.5 times as much, in log terms, as pure-Python arithmetic
or contractions on a 60x8x8 tensor.  The ops differ the same way: the
arena op, dominated by 500x17x17 contractions, slowed about as much as
such a contraction, the small-game ops up to 1.7 times as much.  The reference kernel mixes tiny-array calls
and 60x8x8 contractions so that its slowdown sits between the two.

A ``Gauge`` times the kernel on a timer signal while an op runs.  The
op's wall time, divided by the kernel's mean time over the same seconds
and multiplied by ``NOMINAL_S``, is the time the op would take on a
machine where the kernel takes ``NOMINAL_S``.  The kernel is benchmark
code: a change to the program moves the op's time and not the kernel's.

The handler runs in the main thread between bytecodes, so it waits for
a long native call to return; each sample first runs the kernel once
untimed to bring back the caches the op has used.  Its time is kept in
``overhead`` for the caller to subtract.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
REPEATS = 3
# about the kernel's time inside the ops on the VM above
NOMINAL_S = 0.4e-3
_V = np.linspace(0.1, 1.0, 8)
_A = np.linspace(0.0, 1.0, 60 * 8 * 8).reshape(60, 8, 8)


def reference() -> float:
    """Fixed work in the program's style: softmax steps on an 8-vector,
    then on a 60x8x8 contraction, about 0.3 ms in all."""
    v = _V.copy()
    for _ in range(22):
        y = np.exp(v - v.max())
        y /= y.sum()
        v = 0.9 * v + 0.1 * np.log(y + 1e-9)
    x = _A[:, 0, :].copy()
    for _ in range(5):
        y = np.einsum("pij,pj->pi", _A, x)
        x = np.exp(y - y.max(axis=1, keepdims=True))
        x /= x.sum(axis=1, keepdims=True)
    return float(v.sum() + x.sum())


def at_nominal_speed(seconds: float, reference_s: float) -> float:
    return seconds * NOMINAL_S / reference_s


class Gauge:
    """Samples ``reference`` every ``INTERVAL_S`` seconds inside ``with``."""

    def __init__(self):
        self.samples: list[float] = []  # seconds per reference call
        self.overhead = 0.0  # seconds spent in the handler
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        for _ in range(REPEATS):
            reference()
        t2 = time.perf_counter()
        self.samples.append((t2 - t1) / REPEATS)
        self.overhead += t2 - t0

    def reference_s(self) -> float:
        return statistics.fmean(self.samples)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # an op shorter than one interval, sampled after it
            self._sample()
            self.overhead = 0.0
