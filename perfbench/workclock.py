"""Timings scaled to a reference CPU speed.

The benchmark runs on a shared host.  The speed of one vCPU swings by a
third or more within seconds as other tenants' load comes and goes, and
for stretches the hypervisor runs other guests on it instead (steal
time), so a raw wall time is as much a sample of the host as of the
program.  While it runs, a ``WorkClock`` interrupts the timed code every
``PERIOD_S`` with ``SIGALRM``, times a fixed probe loop in thread CPU
time -- how fast this vCPU runs right now -- and reads the kernel's
steal counter -- how much of the time it ran at all.  A span of the
timed code is then reported as the time it would have taken at the
probe's reference speed on a vCPU nobody else used.  The probes' own
time is taken out of every span.

The steal counter is that of the one vCPU the process is pinned to, or
the average over all of them.  A probe costs about 0.4 ms every 50 ms.
Child processes do not inherit the timer.
"""

from __future__ import annotations

import bisect
import os
import signal
from statistics import median
from time import perf_counter, thread_time

#: time between probes
PERIOD_S = 0.05
#: iterations of the probe loop
PROBE_LOOPS = 6000
#: the probe's CPU time on the reference host (a 2-vCPU Xeon VM) at its
#: usual speed; spans are reported in seconds at that speed
REFERENCE_PROBE_S = 400e-6
#: probes (and steal readings) on each side of a stretch that set its
#: speed; the median damps one-off readings, and the steal counter
#: moves in 10 ms ticks
SMOOTH = 2
STAT = "/proc/stat"
TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _probe() -> float:
    """CPU seconds one fixed loop of interpreter work takes now."""
    t = thread_time()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return thread_time() - t


def _stolen(prefix: str) -> float:
    """Steal seconds so far on the ``/proc/stat`` line ``prefix``."""
    try:
        with open(STAT, encoding="ascii") as stat:
            for line in stat:
                if line.startswith(prefix):
                    return int(line.split()[8]) * TICK_S
    except OSError:
        pass  # no steal accounting here: every span counts in full
    return 0.0


def at_reference(cpu_s: float) -> float:
    """``cpu_s`` CPU seconds just spent on this vCPU, in reference
    seconds (CPU time leaves steal out by itself)."""
    return cpu_s * REFERENCE_PROBE_S / median(_probe()
                                              for _ in range(2 * SMOOTH + 1))


class WorkClock:
    """A clock that leaves out its probes and converts to reference time.

    Use as a context manager around the timed code; take stamps with
    ``now()`` inside it and convert them with ``seconds()`` after it.
    """

    def __init__(self) -> None:
        self.probe_wall = 0.0
        # (now(), perf_counter(), probe CPU s, steal s so far)
        self.ticks: list[tuple[float, float, float, float]] = []
        self._previous = None
        self._probing = False
        cpus = os.sched_getaffinity(0)
        if len(cpus) == 1:
            self._line, self._share = f"cpu{min(cpus)} ", 1
        else:
            self._line, self._share = "cpu ", os.cpu_count() or 1

    def __enter__(self) -> WorkClock:
        _probe()  # warm the loop's code before it is timed
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        self._segments()

    def _on_alarm(self, signum, frame) -> None:
        # A vCPU stolen for longer than a period delivers the next alarm
        # inside this probe; a nested probe would count its time twice.
        if not self._probing:
            self._tick()

    def _tick(self) -> None:
        self._probing = True
        wall = perf_counter()
        cpu = _probe()
        stolen = _stolen(self._line) / self._share
        self.ticks.append((wall - self.probe_wall, wall, cpu, stolen))
        self.probe_wall += perf_counter() - wall
        self._probing = False

    def now(self) -> float:
        """Wall seconds so far, less the probes' time."""
        while True:
            before = self.probe_wall
            t = perf_counter()
            if self.probe_wall == before:  # no probe ran in between
                return t - before

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds between two ``now()`` stamps."""
        return self._reference(end) - self._reference(start)

    def _reference(self, t: float) -> float:
        k = bisect.bisect_right(self._times, t) - 1
        k = min(max(k, 0), len(self._scale) - 1)
        return self._cumulative[k] + (t - self._times[k]) * self._scale[k]

    def _segments(self) -> None:
        # Stretch k runs from probe k to probe k + 1; the first stretch
        # also covers what came before it, the last what came after.
        self._times = [at for at, _, _, _ in self.ticks]
        walls = [wall for _, wall, _, _ in self.ticks]
        cpus = [cpu for _, _, cpu, _ in self.ticks]
        steal = [stolen for _, _, _, stolen in self.ticks]
        last = len(self.ticks) - 1
        self._scale = []
        for k in range(max(1, last)):
            lo, hi = max(0, k - SMOOTH), min(last, k + 1 + SMOOTH)
            ran = 1.0
            if hi > lo:
                ran -= (steal[hi] - steal[lo]) / (walls[hi] - walls[lo])
            self._scale.append(REFERENCE_PROBE_S * ran
                               / median(cpus[lo:hi + 1]))
        self._cumulative = [0.0]
        for k in range(len(self._scale) - 1):
            self._cumulative.append(
                self._cumulative[-1]
                + (self._times[k + 1] - self._times[k]) * self._scale[k])
