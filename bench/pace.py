"""Host-speed probe: time a phase in seconds at a fixed reference speed.

The reference host (README.md, Host noise) runs the same code up to 1.7
times slower for stretches of one to twenty-odd seconds, its two CPUs
change speed independently, and process CPU time slows with wall time.
So a workload process measures its host as it goes: every ``PERIOD_S`` a
timer signal runs a fixed pure-Python loop (``probe``) on the same thread
and records how long it took. Each stretch of the program's own time
between two probes is scaled by how fast the probe ran next to it:

    reference seconds = sum over stretches of  seconds * REFERENCE_S / probe seconds

so a stretch at the speed where the probe takes ``REFERENCE_S`` counts as
itself, and a stretch at half that speed counts half. The time the probes
take is left out. A change to the program moves the program's stretches
and not the probe, so it shows in full.

    pacer = Pacer(); pacer.start()
    ...                                   # the phase, from a to b (time.monotonic())
    pacer.stop(); pacer.reference_s(a, b)
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.1  # one probe per tenth of a second: about 1% of the time
REFERENCE_S = 0.001  # the probe's time at the reference speed


def probe() -> int:
    """A fixed mix of the interpreter's dict, tuple and int work, about 1 ms."""
    counts: dict = {}
    for i in range(3000):
        key = (i % 61, i & 7)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


class Pacer:
    def __init__(self) -> None:
        self.starts: list[float] = []  # time.monotonic() at each probe's start
        self.ends: list[float] = []

    def _probe(self, signum, frame) -> None:
        began = time.monotonic()
        probe()
        self.starts.append(began)
        self.ends.append(time.monotonic())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._probe(None, None)  # so even the shortest phase has a probe

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_s(self, a: float, b: float) -> float:
        """Seconds from a to b, without probes, at the reference speed.

        Each stretch is scaled by the probe that ends it; the stretch after
        the last probe (and a time before the first, such as interpreter
        start-up) by the nearest probe.
        """
        total, at = 0.0, a
        i = bisect.bisect_left(self.starts, a)
        while at < b:
            k = min(i, len(self.starts) - 1)
            until = min(b, self.starts[i]) if i < len(self.starts) else b
            total += max(0.0, until - at) * REFERENCE_S / (self.ends[k] - self.starts[k])
            if i >= len(self.starts) or self.starts[i] >= b:
                break
            at, i = self.ends[i], i + 1
        return total

    def probe_median_s(self) -> float:
        times = sorted(e - s for s, e in zip(self.starts, self.ends))
        return times[len(times) // 2]
