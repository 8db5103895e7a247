"""Correct op timings for the machine's own speed, measured during the op.

On a shared machine the speed of one core drifts by half or more within
seconds, as neighbours come and go on the same cores and caches: a fixed
pure-Python loop timed back to back took anywhere from 15 to 26 ms.  Whole
runs of the benchmark then differ by more than any useful bound, however
long they are.  So each timed process samples its own speed while it works:
a ``SIGPROF`` interval timer fires every ``INTERVAL_S`` of the process's
CPU time, and its handler runs ``probe``, a fixed pure-Python loop, twice on
the same thread (and so the same core) as the program, and times the second
run: the first brings the loop back into the core's caches, so the sample
measures the core's speed, not how much of the cache the program used.  An
op's corrected time is its wall time, less the time spent in the handler,
scaled by ``NOMINAL_S`` over the median probe time seen during the op:

    corrected = (wall - probes) * NOMINAL_S / median(probe times)

so a corrected second is a second of a machine on which ``probe`` takes
``NOMINAL_S``.  The probe does not touch the program, so a change that makes
the program slower or faster moves the corrected time by the same share as
the wall time.  Probes cost about 1% of the op's CPU time.

Run as a script, this module is the cold child: ``python perfbench/speed.py
ARGV...`` starts sampling, calls ``singskein.cli.main(ARGV)`` and writes its
probe summary to the last line of stderr after ``SPEED_TAG``.
"""

from __future__ import annotations

import json
import signal
import sys
from time import perf_counter

SPEED_TAG = "perfbench-speed "
INTERVAL_S = 0.005  # CPU time between probes
NOMINAL_S = 25e-6  # probe time of the nominal machine
MIN_SAMPLES = 9  # an op with fewer probes also uses the ones before it


_TABLE: dict[int, int] = {}


def probe() -> int:
    """A fixed loop of small-int and dict work, about 25 us.  It creates no
    container, so it never sets off the cyclic garbage collector."""
    total = 0
    table = _TABLE
    table.clear()
    for i in range(150):
        table[i & 31] = table.get(i & 31, 0) + i * i
        total += (i * 31337) // 7
    return total


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    return (ordered[(n - 1) // 2] + ordered[n // 2]) / 2


class Sampler:
    def __init__(self) -> None:
        self.samples: list[float] = []  # time of each timed probe
        self.costs: list[float] = []  # time of each handler call

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        probe()
        timed = perf_counter()
        probe()
        end = perf_counter()
        self.samples.append(end - timed)
        self.costs.append(end - start)

    def install(self) -> None:
        for _ in range(MIN_SAMPLES):  # so that even the first op has a window
            self._tick(None, None)
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Disarm the timer; a tick after Python resets its handlers would kill the process."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def summary(self, since: int = 0) -> tuple[float, float]:
        """The median probe time over the samples since ``since`` (at least
        ``MIN_SAMPLES`` of them), and the time spent in the handler since."""
        samples = self.samples
        window = samples[max(0, min(since, len(samples) - MIN_SAMPLES)) :]
        return _median(window), sum(self.costs[since:])

    def correct(self, wall_s: float, since: int) -> float:
        return corrected(wall_s, *self.summary(since))


def corrected(wall_s: float, median_s: float, probes_s: float) -> float:
    return (wall_s - probes_s) * NOMINAL_S / median_s


def report(sampler: Sampler) -> None:
    median_s, probes_s = sampler.summary()
    print(SPEED_TAG + json.dumps([median_s, probes_s]), file=sys.stderr)


def read_report(stderr: str) -> tuple[float, float] | None:
    tag = stderr.rfind(SPEED_TAG)
    if tag < 0:
        return None
    median_s, probes_s = json.loads(stderr[tag + len(SPEED_TAG) :].splitlines()[0])
    return median_s, probes_s


def child_main(argv: list[str]) -> int:
    sampler = Sampler()
    sampler.install()
    try:
        from singskein import cli

        return cli.main(argv)
    finally:
        sampler.stop()
        sys.stdout.flush()
        report(sampler)


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
