"""Interpreter speed, sampled while operations run, so that the host's slow
spells do not show up as changes in the program.

On a shared virtual machine the same Python code ran at two speeds, 1.4 to
1.8 times apart, switching every few seconds to minutes.  A run of the
benchmark lasts well under a minute, so whole runs landed in one state or
the other, and raw wall times of identical runs spread by over 30%.

`Speedometer` runs a fixed reference computation on a SIGALRM every 20 ms
while a pass runs (a signal, not a thread: the handler runs between
bytecodes of the one client) and records how long each sample took.
`setup_probe.py` times the same computation before and after a start.  An
operation's scaled time is its wall time, less the time spent in samples,
times NOMINAL_S over the mean sample time during the operation, or over
the last WINDOW samples when the operation took fewer.  It is the time the
operation would have taken at the speed where the reference takes
NOMINAL_S.  The raw wall time is kept alongside.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL_S = 8e-5  # near the reference's time on a 2-vCPU Xeon VM at its faster speed
PERIOD_S = 0.02
WINDOW = 25

# translate rows of the default CM-type of cyclic:10
_ROWS = tuple(sorted({sum(1 << ((s + t) % 10) for s in range(5)) for t in range(10)}))
_WEIGHT = [d.bit_count() for d in range(1 << 10)]


def reference_work() -> int:
    """Count the valid degree-2 monomials of cyclic:10 by brute force.
    Allocates no container, so it never triggers the garbage collector."""
    found = 0
    for delta in range(1 << 10):
        if _WEIGHT[delta] != 4:
            continue
        for row in _ROWS:
            if (delta & row).bit_count() != 2:
                break
        else:
            found += 1
    return found


def warm_reference_time() -> float:
    """Seconds of one `reference_work` run, after an untimed run that
    brings it into the caches, so that a program that evicts more of them
    does not change the sample."""
    reference_work()
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def reference_time(repeats: int) -> float:
    """Mean seconds of `reference_work` over `repeats` back-to-back runs."""
    start = time.perf_counter()
    for _ in range(repeats):
        reference_work()
    return (time.perf_counter() - start) / repeats


class Speedometer:
    """Used as `with speedometer:` around a pass, samples the reference on
    every SIGALRM; `timed` turns an operation's wall time into scaled time."""

    def __init__(self):
        self.samples = [warm_reference_time() for _ in range(WINDOW)]
        self.spent = 0.0  # seconds inside the signal handler
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(warm_reference_time())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, call):
        """Run `call()` inside `with speedometer:`; return its result, the
        scaled seconds and the wall seconds.  Exceptions propagate."""
        n, spent = len(self.samples), self.spent
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start - (self.spent - spent)
        own = self.samples[n:]
        window = own if len(own) >= WINDOW else self.samples[-WINDOW:]
        return result, wall * NOMINAL_S / statistics.fmean(window), wall
