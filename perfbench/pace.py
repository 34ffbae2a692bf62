"""How fast the host runs right now, sampled while a workload runs.

On a shared host the same code can run up to 1.8x slower for stretches of
seconds to tens of minutes, with no steal time and nothing else in the VM:
process CPU time inflates as much as wall time. A 30 s run's median then
depends on how much of it fell into slow stretches. To take that out, a
SIGALRM timer interrupts the workload every ``INTERVAL_S`` of wall time and
times each fixed kernel of ``KERNELS``, so each stretch of the run is paired
with the host speed measured inside it.

``clock()`` is ``perf_counter()`` minus the time spent in the kernels, so
intervals timed with it leave the sampling out. A ``Stopwatch`` times an
interval with it and also gives the host's *pace* over the interval:
``NOMINAL_S`` over the median time of one kernel sampled during it. Clock
seconds times pace are *nominal* seconds, the time the interval would have
taken on a host that runs the kernel in ``NOMINAL_S``. Without sampling on,
the pace is 1.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INTERVAL_S = 0.01
REF_ITERATIONS = 1500
_X = np.random.default_rng(0).normal(size=(32, 128))
_W = np.random.default_rng(1).normal(size=(128, 128)) * 0.05


def python_kernel() -> int:
    """Integer arithmetic and dict stores, as in the interpreter-bound parts
    of the program (metrics, analytics, the autograd graph walk)."""
    total, table = 0, {}
    for i in range(REF_ITERATIONS):
        total += i * i % 7
        table[i & 255] = total
    return total


def numpy_kernel() -> np.ndarray:
    """A projection, a normalisation and an attention-like softmax on a
    32 x 128 block, as in the model's forward pass."""
    h = _X @ _W
    h = h - h.mean(axis=1, keepdims=True)
    h = h / np.sqrt((h * h).mean(axis=1, keepdims=True) + 1e-5)
    e = np.exp((h @ _X.T) * 0.01)
    return (e / e.sum(axis=1, keepdims=True)) @ _X


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}
# a round figure inside the range of both kernels' median times over an
# interval (python 0.18 to 0.38 ms, numpy 0.18 to 0.37 ms, in the handler) on
# the 2-vCPU Intel Xeon VM the benchmark was written on; it only sets the scale of nominal seconds, so
# it must never change between two measurements
NOMINAL_S = 0.00025

_busy = 0.0
_active: Pace | None = None


def clock() -> float:
    """Wall time in seconds, without the time the sampler has spent."""
    return perf_counter() - _busy


class Pace:
    """Kernel times sampled every ``INTERVAL_S`` while ``sampling()`` is on."""

    def __init__(self):
        self.samples = {name: array("d") for name in KERNELS}

    def _tick(self, signum, frame) -> None:
        global _busy
        for name, kernel in KERNELS.items():
            start = perf_counter()
            kernel()
            took = perf_counter() - start
            self.samples[name].append(took)
            _busy += took

    @contextmanager
    def sampling(self):
        global _active
        self._tick(None, None)  # so that every window has a sample to fall back on
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        _active = self
        try:
            yield self
        finally:
            _active = None
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        return len(self.samples["python"])

    def pace(self, kernel: str, since: int) -> float:
        """Nominal seconds per clock second by ``kernel`` over the samples
        taken since ``mark()`` returned ``since``."""
        samples = self.samples[kernel]
        window = samples[since:] or samples[-3:]  # [-3:]: shorter than one tick
        return NOMINAL_S / statistics.median(window)


class Stopwatch:
    """Times a with-block: ``seconds`` in clock seconds, and ``pace`` over it
    by the kernel that slows most like the block's code."""

    seconds = 0.0
    pace = 1.0

    def __init__(self, kernel: str = "python"):
        self.kernel = kernel

    def __enter__(self) -> Stopwatch:
        self._mark = _active.mark() if _active else 0
        self._start = clock()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = clock() - self._start
        if _active:
            self.pace = _active.pace(self.kernel, self._mark)
