"""Machine-speed probes and CPU clocks.

Shared hosts change speed by up to half within seconds, as other tenants
come and go, and take the CPU away from a guest for whole time slices.  The
benchmark therefore times CPU time (user + system) of the measured process,
which leaves out the stolen slices, and pairs every timed segment with a
probe: a fixed kernel that shares no code with lindsum, does the same kind
of work as the segment and is timed next to it on the same clock.  The
reported time is `cpu * NOMINAL_MS[kind] / probe_ms`, the time the segment
would take on this host when the probe runs at its nominal speed.  A change
to lindsum moves the segment's time and not the probe's, so it moves the
reported time in full.

  process  `python -c pass`, just before each CLI call and each set-up
  vector   log-sum-exp over a 51 x 10k array, just before the grid's vector slice
  scalar   numpy calls on one-element arrays, just before the grid's scalar
           calls, and on a timer throughout each verify pass
"""

from __future__ import annotations

import resource
import signal
import subprocess
import sys
import time

# Probe times on a 2-vCPU Xeon host at its faster speed.
NOMINAL_MS = {"process": 60.0, "vector": 8.0, "scalar": 0.35}
SAMPLE_INTERVAL_S = 0.2


def children_cpu_s() -> float:
    """CPU time of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def process_ms(cwd: str) -> float:
    before = children_cpu_s()
    subprocess.run([sys.executable, "-c", "pass"], cwd=cwd, check=True)
    return (children_cpu_s() - before) * 1e3


class Kernels:
    """The in-process probes; numpy is imported only by workloads that use them."""

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.matrix = np.random.default_rng(0).random((51, 10_000)) + 0.5
        self.points = [0.1 + 0.01 * i for i in range(50)]

    def vector_ms(self) -> float:
        np = self.np
        t0 = time.process_time_ns()
        logs = np.log(self.matrix)
        peak = logs.max(axis=0)
        np.log(np.exp(logs - peak).sum(axis=0))
        return (time.process_time_ns() - t0) / 1e6

    def scalar_ms(self) -> float:
        np = self.np
        t0 = time.process_time_ns()
        for x in self.points:
            flat = np.atleast_1d(np.asarray(x, dtype=float))
            out = np.zeros_like(flat)
            pos = flat > 0.0
            out[pos] = np.exp(-np.log(flat[pos]))
            float(out[0])
        return (time.process_time_ns() - t0) / 1e6


class ScalarSampler:
    """Times the scalar probe on an interval timer while a long pass runs.

    The handler runs between bytecodes of the pass, so it never splits a
    numpy call; `spent_s` is the probes' own CPU time, to subtract from the pass.
    """

    def __init__(self, kernels: Kernels) -> None:
        self.kernels = kernels
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.process_time()
        self.samples.append(self.kernels.scalar_ms())
        self.spent_s += time.process_time() - t0

    def __enter__(self) -> ScalarSampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
