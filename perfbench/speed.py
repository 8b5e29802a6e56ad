"""Machine speed, sampled while the commands run.

On a shared machine the speed of one vCPU changes by tens of percent
from one second to the next, as neighbours come and go.  The probe
measures that speed with a fixed reference chunk of interpreter and
numpy work:

* a timer signal interrupts the run every INTERVAL seconds and times
  one chunk; the handler's own time is subtracted from the command it
  interrupted, so latencies stay those of the command alone;
* between commands the probe times a burst of chunks.

A command's time in reference units is its time divided by the mean
chunk time over the bursts on either side of it and the ticks during
it.  That ratio does not move when the whole machine slows down.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

import numpy as np

INTERVAL = 0.05   # seconds between ticks
BURST = 20        # chunks timed between commands

_ARRAY = np.arange(4096, dtype=np.int64)


def chunk_seconds() -> float:
    """Time of one reference chunk: an interpreter loop and a numpy pass.

    The garbage collector is held off meanwhile, so a collection of the
    command's heap is neither timed here nor taken out of the command."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = 0
        for i in range(1500):
            acc += i * i % 7
        np.bitwise_xor(_ARRAY, acc, out=np.empty_like(_ARRAY))
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Context manager: while active, a timer signal samples the speed."""

    def __init__(self):
        self.ticks: list[float] = []
        self.spent = 0.0   # wall time spent inside the signal handler
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        self.ticks.append(chunk_seconds())
        self.spent += perf_counter() - start

    def burst(self) -> list[float]:
        # a tick landing inside a chunk would be timed as part of it
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return [chunk_seconds() for _ in range(BURST)]
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self):
        self.burst()  # the first chunks of a process run slow
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
