"""How fast the machine is running right now, sampled all through a run.

The speed of a shared machine drifts by tens of percent within seconds and
by more over minutes, and it slows the program and any other Python code
alike.  ``Probe`` times a fixed pure-Python loop every ``EVERY_S`` seconds
from a ``SIGALRM`` handler.  The handler runs in the main thread between
bytecodes, so it samples the speed inside long calls too.  Its own time is
recorded so that callers can take it out of what they measure.

``Probe.scale(a, b)`` turns seconds spent between ``a`` and ``b`` into
reference seconds: the time the same work takes on a machine that runs the
loop in ``REF_S``.  It averages the loop times sampled from ``MARGIN_S``
before ``a`` to ``MARGIN_S`` after ``b``; one sample alone is too noisy.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

REF_S = 0.001  # one loop at the reference speed
EVERY_S = 0.05
MARGIN_S = 0.25


def _loop() -> int:
    d, s = {}, 0
    for i in range(2000):
        d[(i, i & 7, i >> 3)] = i
        s += d.get((i - 1, (i - 1) & 7, (i - 1) >> 3), 0)
    return s


class Probe:
    def __init__(self) -> None:
        self.starts = array("d")  # perf_counter() at the start of each sample
        self.loops = array("d")  # seconds the loop took
        self.spent = 0.0  # seconds spent in the handler so far
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside the handler is dropped
            return
        self._busy = True
        t0 = perf_counter()
        _loop()
        t1 = perf_counter()
        self.starts.append(t0)
        self.loops.append(t1 - t0)
        self.spent += t1 - t0
        self._busy = False

    def __enter__(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def scale(self, a: float, b: float) -> float:
        lo = bisect_left(self.starts, a - MARGIN_S)
        hi = bisect_right(self.starts, b + MARGIN_S)
        window = self.loops[lo:hi]
        return REF_S * len(window) / sum(window)

    def samples(self) -> list[tuple[float, float]]:
        """(start, seconds) of every sample taken."""
        return list(zip(self.starts, self.loops))
