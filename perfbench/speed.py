"""The machine's speed, sampled while the benchmark runs.

The shared machine switches between a fast and a slow state many times a
second, and how long it spends in each drifts from minute to minute, so a
cwkms operation's wall time moves by 20-30% between runs of the same code.
A SpeedSampler measures that speed in the process that does the work: every
SAMPLE_PERIOD_S a SIGALRM handler interrupts the work and times a short
fixed probe.  An operation's time is also reported scaled to the speed at
which the probe takes PROBE_REF_S, using the samples taken during the
operation and SAMPLE_WINDOW_S either side of it.

Set-up is scaled the same way, by the samples of the whole set-up; a
child process the set-up starts pauses the parent's sampler and hands over
its own samples (`running`, `merge`).

Standard library only: worker.py and cli_child.py import it before cwkms.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

PROBE_ITERS = 250
PROBE_REF_S = 0.001
SAMPLE_PERIOD_S = 0.05
SAMPLE_WINDOW_S = 0.1
# last line of a cli child's standard error: busy seconds, mean probe seconds
REPORT_PREFIX = "perfbench-speed"

_running: SpeedSampler | None = None


def running() -> SpeedSampler | None:
    """The sampler running in this process, if any."""
    return _running


class SpeedSampler:
    """Times a fixed pure-Python loop of the kind cwkms runs (Fraction
    arithmetic, tuple keys, dict stores) from a SIGALRM handler.  The
    collector is off while the probe runs, so that the heap the work holds
    does not slow the probe.  `busy_s` is the total time spent in probes;
    operation times leave it out."""

    def __init__(self):
        self.starts: list[float] = []
        self.probe_s: list[float] = []
        self.busy_s = 0.0
        self.paused = False
        self.merged_n = 0.0  # samples handed over by child processes
        self.merged_s = 0.0

    def _sample(self, _signum, _frame) -> None:
        if self.paused:
            return
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        seen = {}
        for i in range(PROBE_ITERS):
            x = Fraction(i % 97 + 1, i % 89 + 1) + Fraction(1, i % 7 + 1)
            seen[i % 512, i % 13] = [x, str(i)]
        sec = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.probe_s.append(sec)
        self.busy_s += sec

    def start(self) -> None:
        """The first sample at once, then one every SAMPLE_PERIOD_S."""
        global _running
        _running = self
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, 1e-3, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        global _running
        _running = None
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def merge(self, busy_s: float, probe_s: float) -> None:
        """Take over a child's samples, from its report."""
        self.merged_n += busy_s / probe_s
        self.merged_s += busy_s

    def overall_scale(self) -> float:
        """PROBE_REF_S over the mean time of every sample, merged ones too."""
        return PROBE_REF_S * (len(self.probe_s) + self.merged_n) / (self.busy_s + self.merged_s)

    def scale(self, t0: float, t1: float) -> float:
        """PROBE_REF_S over the mean probe time around [t0, t1]; the nearest
        samples on either side when none falls in the window."""
        i = bisect.bisect_left(self.starts, t0 - SAMPLE_WINDOW_S)
        j = bisect.bisect_right(self.starts, t1 + SAMPLE_WINDOW_S)
        if i == j:
            i, j = max(i - 1, 0), j + 1
        window = self.probe_s[i:j]
        return PROBE_REF_S * len(window) / sum(window)

    def report(self) -> str:
        if not self.probe_s:
            return ""
        return f"{REPORT_PREFIX} {self.busy_s!r} {self.busy_s / len(self.probe_s)!r}"


def parse_report(stderr: str) -> tuple[float, float] | None:
    """(busy seconds, mean probe seconds) from a cli child's standard error."""
    lines = stderr.rstrip().splitlines()
    if not lines or not lines[-1].startswith(REPORT_PREFIX + " "):
        return None
    busy, probe = lines[-1].split()[1:]
    return float(busy), float(probe)
