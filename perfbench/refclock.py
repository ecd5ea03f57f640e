"""Timings in reference seconds.

The benchmark's host is shared and its speed drifts: a fixed pure-Python
loop takes anywhere from 0.6x to 1.3x its usual time, changing within
seconds and over minutes, and the program slows down with it.  Raw seconds
from two runs therefore differ by more than any bound worth setting.

`Sampler` measures the host's speed from inside the process doing the
work: a timer signal interrupts it every ``PERIOD_S`` and the handler times
`reference_loop`, a fixed piece of pure-Python work of the kind the program
does (integer and big-integer bit operations, dict and tuple traffic).  An
operation's time is its raw time minus the time spent in the handler,
scaled by ``NOMINAL_S / reference time``, where the reference time is the
mean of the samples taken while the operation ran, or of the nearest
sample on each side for an operation shorter than the period.  The result
is the time the operation takes on this host when the reference loop takes
``NOMINAL_S``.  The loop never touches the program, so a change to the
program moves these times exactly as it moves raw ones.
"""
from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

#: About the median time of `reference_loop` on the development host (a
#: 2-core shared x86-64 VM, Python 3.11); it only sets the unit.
NOMINAL_S = 0.002
PERIOD_S = 0.05


def reference_loop() -> float:
    """Seconds taken by one fixed piece of pure-Python work."""
    start = perf_counter()
    acc = (1 << 2048) - 1
    table: dict[int, int] = {}
    for i in range(2000):
        mask = (i * 2654435761) & 0xFFFFFFFF
        table[mask] = table.get(mask, 0) + 1
        acc &= ~(1 << (i & 2047)) | (mask << 1000)
        pair = (mask.bit_count(), i & 7)
        table[pair[1]] = pair[0]
    sorted(table)
    return perf_counter() - start


class Sampler:
    """Reference samples taken on a timer while operations run.

    Use as a context manager around the timed operations and run each one
    through `timed`.  When the block ends, every operation's dict holds
    ``"raw_s"`` and ``"s"``, the latter in reference seconds.  A disabled
    sampler takes no samples and sets ``"s"`` to the raw time.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.times: list[float] = []
        self.loops: list[float] = []
        self.in_handler = 0.0
        self.pending: list[tuple[dict, float, float]] = []
        self._previous = None

    def _sample(self, *_signal) -> None:
        start = perf_counter()
        self.loops.append(reference_loop())
        self.times.append(start)
        self.in_handler += perf_counter() - start

    def __enter__(self) -> "Sampler":
        if self.enabled:
            self._sample()
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._sample()
        for op, start, end in self.pending:
            op["s"] = op["raw_s"]
            if self.enabled:
                lo, hi = bisect_left(self.times, start), bisect_right(self.times, end)
                window = self.loops[lo:hi] or self.loops[max(lo - 1, 0):lo + 1]
                op["s"] *= NOMINAL_S * len(window) / sum(window)
        self.pending.clear()

    def timed(self, op: dict, call, *args):
        """Return ``call(*args)``, recording its raw seconds, less the time
        the sampler took from it, in ``op["raw_s"]``."""
        in_handler = self.in_handler
        start = perf_counter()
        try:
            return call(*args)
        finally:
            end = perf_counter()
            op["raw_s"] = end - start - (self.in_handler - in_handler)
            self.pending.append((op, start, end))
