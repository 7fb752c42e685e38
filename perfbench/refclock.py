"""Host-speed normalization for timings taken on a shared machine.

On a small shared VM the speed of the interpreter drifts with load from
neighbouring machines: a fixed pure-Python loop was measured taking
anywhere from 33 to 58 ms within one minute, and a whole analyze run
took from 6.4 to 10.4 s per capture within ten minutes.  Such drift
swamps any change the benchmark is meant to detect, so every
end-to-end timing is reported in *reference seconds*: the measured
span, minus the time spent sampling, divided by how much slower than
on a quiet host a fixed reference loop ran around that span.  On a
quiet host one reference second is one second.

:class:`ReferenceClock` samples the reference loop from a ``SIGALRM``
handler every ``PERIOD_S`` seconds, so the samples interleave with the
measured work on the same CPU at the same moments, and the sampling
time is subtracted from each span.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List

__all__ = ["ReferenceClock"]

PERIOD_S = 0.1
#: Samples on either side of a span that also count towards its speed,
#: so spans shorter than the sampling period still have samples.
_MARGIN = 2


class _Stepper:
    __slots__ = ("state", "limit")

    def __init__(self) -> None:
        self.state = 0
        self.limit = 1

    def step(self, value: int) -> bool:
        self.state = (self.state + value) & 0xFFFF
        return self.state > self.limit


_STEPPERS = [_Stepper() for _ in range(64)]


def _object_loop() -> int:
    """Method calls, slot updates and integer work: a simulator's mix."""
    hits = 0
    for index in range(6000):
        if _STEPPERS[index & 63].step(index):
            hits += 1
    return hits


def _text_loop() -> int:
    """String formatting, dict updates and small tuples: a parser's mix."""
    table = {}
    out = []
    for index in range(4000):
        key = f"k{index & 255}"
        table[key] = (index, key)
        out.append(table[key][0] + len(key))
    return len(out)


#: name -> (reference loop, its duration on a quiet host).  Quiet
#: durations were measured on a 2-vCPU x86-64 VM with CPython 3.11.
#: Host contention slows different kinds of interpreter work by
#: different amounts, so each workload divides by the loop closest to
#: its own hot path: over 150 s of drift, simulator timings divided by
#: the object loop varied by 6% between windows (14% divided by the
#: text loop, 40% undivided), and parser timings divided by the text
#: loop by 9% (42% undivided).
REFERENCES = {
    "objects": (_object_loop, 0.00095),
    "text": (_text_loop, 0.0017),
}


class ReferenceClock:
    """Samples host speed in the background while installed."""

    def __init__(self, reference: str) -> None:
        self._loop, self._quiet_s = REFERENCES[reference]
        self.stamps: List[float] = []
        self.costs: List[float] = []

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self._loop()
        self.stamps.append(start)
        self.costs.append(time.perf_counter() - start)

    def __enter__(self) -> "ReferenceClock":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Reference-loop slowdown around ``[start, end]`` (1.0 = quiet host)."""
        first = bisect.bisect_left(self.stamps, start)
        last = bisect.bisect_left(self.stamps, end)
        window = self.costs[max(0, first - _MARGIN):last + _MARGIN] or self.costs
        if not window:
            return 1.0
        return statistics.median(window) / self._quiet_s

    def reference_seconds(self, start: float, end: float) -> float:
        """The span ``[start, end]`` in reference seconds."""
        first = bisect.bisect_left(self.stamps, start)
        last = bisect.bisect_left(self.stamps, end)
        busy = end - start - sum(self.costs[first:last])
        return busy / self.speed(start, end)
