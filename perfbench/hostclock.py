"""Wall time scaled to a nominal host speed by probes taken between intervals.

On the small shared hosts the benchmark runs on, the same code runs at
speeds that differ by up to half, in states that last from under a second to
several minutes: on a 2-vCPU Intel Xeon VM a fixed 1M-iteration Python loop
read about 42 ms in the fast state and about 60-65 ms in the slow one, and
rounds of the FAIR-BFL workloads slowed by the same factor.  CPU time
(``time.process_time``) follows wall time within a few percent, so the slow
state is not time stolen from the process; the host runs the same
instructions more slowly.  Any one 45-s run can fall wholly in one state, so
medians of wall time over a run, or over ten runs, move by the share of time
the host spent slow.

:class:`HostClock` takes a short probe, a fixed piece of work, at every
boundary between the intervals it times and, if given a period, on a timer
in between; probe time counts in no interval.  The probes cut each interval
into pieces, and a piece's scaled duration is its wall time times
``NOMINAL_MS / p``, where ``p`` is the mean of the probes at its two ends:
the time it would have taken had the host run the probe at its nominal
speed.  Probes at the ends alone serve short intervals such as rounds of
bfl-committee; the timer serves long ones, such as a 6-s key generation or a
2.7-s streamed round, over which the host's speed changes.  The probe is part
of the benchmark, not of the program, so a change to the program moves the
scaled time as much as the wall time.

The probe's kind should match the work it scales: the ``python`` loop for
interpreter-bound work, the ``numpy`` stacked matmul for array kernels, which
slow less in the slow state than the interpreter does.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

__all__ = ["NOMINAL_MS", "PROBES", "HostClock"]

_A = np.random.default_rng(0).standard_normal((64, 16, 32))
_B = np.random.default_rng(1).standard_normal((64, 32, 16))


def _python_probe() -> None:
    total = 0
    for i in range(50_000):
        total += i


def _numpy_probe() -> None:
    for _ in range(20):
        np.tanh(np.matmul(_A, _B))


PROBES = {"python": _python_probe, "numpy": _numpy_probe}

#: Each probe's reading in milliseconds on a 2-vCPU Intel Xeon VM in its fast
#: state; scaled times are in seconds at this speed.
NOMINAL_MS = {"python": 1.8, "numpy": 1.4}

#: Seconds of wall time between timer probes in untraced runs.
SAMPLE_PERIOD_S = 0.5

#: Repetitions per probe; the reading is their median, so one interrupt does
#: not skew it.
REPEATS = 3


class HostClock:
    """Marks boundaries between timed intervals, with a probe at each.

    With ``period`` set, a timer also probes every ``period`` seconds of wall
    time between :meth:`start` and :meth:`stop`, so a long interval is scaled
    by the host's speed along it rather than at its ends only.  Probe time is
    excluded from every interval.
    """

    def __init__(
        self, kind: str, *, period: float | None = None, clock=time.perf_counter, probe=None
    ) -> None:
        self.kind = kind
        self.nominal_ms = NOMINAL_MS[kind]
        self.period = period
        self._clock = clock
        self._probe = probe or PROBES[kind]
        #: (time the probe started, time it ended, reading in ms), in time order
        self.probes: list[tuple[float, float, float]] = []
        #: Indices into ``probes`` of the probes taken at boundaries.
        self.boundaries: list[int] = []
        self._busy = False

    def start(self) -> None:
        """Start the timer probes, if there is a period."""
        if self.period:
            signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        if self.period:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _take(self, boundary: bool) -> None:
        # The timer may fire at any bytecode; while busy it does nothing, so
        # probes never nest and a boundary always indexes its own probe.
        self._busy = True
        began = self._clock()
        readings = []
        for _ in range(REPEATS):
            start = self._clock()
            self._probe()
            readings.append((self._clock() - start) * 1000.0)
        self.probes.append((began, self._clock(), statistics.median(readings)))
        if boundary:
            self.boundaries.append(len(self.probes) - 1)
        self._busy = False

    def sample(self) -> None:
        """Probe between boundaries (the timer calls this)."""
        if not self._busy:
            self._take(boundary=False)

    def mark(self) -> None:
        """End the current interval and start the next; probe in between."""
        self._take(boundary=True)

    def intervals(self) -> list[tuple[float, float]]:
        """``(wall_s, scaled_s)`` of each interval between consecutive boundaries."""
        out = []
        for first, last in zip(self.boundaries, self.boundaries[1:]):
            wall = scaled = 0.0
            for (_, start, p0), (end, _, p1) in zip(
                self.probes[first:last], self.probes[first + 1 : last + 1]
            ):
                wall += end - start
                scaled += (end - start) * self.nominal_ms * 2.0 / (p0 + p1)
            out.append((wall, scaled))
        return out

    def probes_ms(self) -> list[float]:
        return [p for _, _, p in self.probes]
