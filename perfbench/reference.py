"""Reference kernels: fixed code that uses nothing of metriclab, timed
around and between the steps of a pass so that a run can give the pass's
wall time in units of what the host could do while it ran.

The speed of the shared host this benchmark was built on drifts over
minutes: one pass of ``generic_oracle`` took from 5 to 9 s within one
hour, and the process's CPU time rose with its wall time. A kernel that
runs the same kind of code, timed during the same pass, slows with it, and
the pass time over the kernel's median time keeps far less of the drift. A
change to metriclab cannot move the kernel, so the ratio moves with the
program's own cost.
"""

from __future__ import annotations

import math
import time

import numpy as np

REPEATS = 3  # kernel timings per sample
INTERVAL_S = 1.0  # least time between samples


class Reference:
    """One kind of reference kernel and every timing of it in a run.

    ``python`` walks dict-keyed sparse points and sums squared differences
    in the interpreter, as the scalar ``spaces.distance`` path does.
    ``numpy`` runs one broadcast 1-NN chunk (256 queries × 4000 points in
    the plane, 16 MB of temporaries), as the dense runners and the
    simulator's array code do. Each takes a few to a few tens of
    milliseconds.
    """

    def __init__(self, kind: str):
        self._kernel = {"python": self._python, "numpy": self._numpy}[kind]
        rng = np.random.default_rng(0)
        self._train, self._query = rng.random((4000, 2)), rng.random((256, 2))
        self._points = [
            {j: float((i * 7 + j * 3) % 11) for j in range(i % 5, i % 5 + 6)}
            for i in range(200)
        ]
        self.times: list[float] = []
        self._last = -math.inf

    def _python(self) -> float:
        total = 0.0
        for a in self._points[:30]:
            for b in self._points:
                s = 0.0
                for key in a.keys() | b.keys():
                    d = a.get(key, 0.0) - b.get(key, 0.0)
                    s += d * d
                total += math.sqrt(s)
        return total

    def _numpy(self) -> int:
        d2 = ((self._query[:, None, :] - self._train[None, :, :]) ** 2).sum(axis=2)
        return int(d2.argmin(axis=1).sum())

    def due(self) -> bool:
        """Whether ``INTERVAL_S`` has gone by since the last timing ended."""
        return time.perf_counter() - self._last >= INTERVAL_S

    def sample(self) -> list[float]:
        """Time the kernel ``REPEATS`` times and return the timings."""
        timings = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            self._last = time.perf_counter()
            timings.append(self._last - t0)
        self.times += timings
        return timings
