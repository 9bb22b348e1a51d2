"""Host-speed correction for the benchmark's times.

The cores of a shared host run the same job at different speeds from one
second to the next, as other tenants load them: forty runs of one identical
job took 1.2-2.1 s of CPU time on the machine this was built on (NOTES.md).  So every
timed region runs under a ``Clock``: every ``INTERVAL_S`` of the worker's CPU
time a SIGPROF handler asks a probe process, pinned to the worker's CPU, to
run a fixed set of small numpy calls, and blocks until it answers.  The probe
runs in a process of its own and times only a second pass over calls whose
first pass warmed its caches, so its time follows the core's speed and not
the state the program leaves in its heap or caches.

A region's time in reference seconds is its CPU time times
``REFERENCE_S / mean probe time``: its CPU time on a core where the probe's
timed pass takes ``REFERENCE_S``.  Run as a script, this file is the probe.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from time import perf_counter, process_time

INTERVAL_S = 0.05
WARM_PASSES, TIMED_PASSES = 30, 100
# The timed pass's CPU time on a quiet core of the machine this was built on
# (5th percentile of 600 samples; Xeon, 2.1 GHz, KVM); it only sets the unit.
REFERENCE_S = 2.3e-3


def _probe_loop() -> None:
    import numpy as np

    a = np.arange(3.0)
    m = np.eye(3) * 1.5

    def once():
        x = np.atleast_1d(a)
        y = m @ x
        np.allclose(y, x)
        np.concatenate([x, y])
        return np.linalg.norm(y)

    for _ in sys.stdin:
        for _ in range(WARM_PASSES):
            once()
        t0 = process_time()
        for _ in range(TIMED_PASSES):
            once()
        sys.stdout.write(f"{process_time() - t0!r}\n")
        sys.stdout.flush()


class Probe:
    """The probe process, on the CPU this process is pinned to."""

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.sample()  # waits until the probe has imported numpy

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


class Clock:
    """Context manager: CPU, wall and reference time of its region."""

    def __init__(self, probe: Probe):
        self.probe = probe

    def _on_tick(self, signum, frame):
        self.samples.append(self.probe.sample())

    def __enter__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._cpu0, self._wall0 = process_time(), perf_counter()
        return self

    def __exit__(self, *exc):
        self.cpu = process_time() - self._cpu0
        self.wall = perf_counter() - self._wall0
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        if not self.samples:
            self.samples.append(self.probe.sample())
        self.factor = REFERENCE_S * len(self.samples) / sum(self.samples)
        self.seconds = self.cpu * self.factor
        return False


if __name__ == "__main__":
    _probe_loop()
