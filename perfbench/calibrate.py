"""Machine-speed calibration: a fixed piece of work timed between ops.

On a shared host the speed of a core drifts by tens of percent over seconds
to minutes, and CPU time drifts with wall time, so the host, not the
measured program, sets it.  The worker times this work after every op of
its timed passes.  A run's speed factor is ``REF_S`` over the median of
those samples; a time multiplied by it is the time at the reference speed,
so the run-to-run drift of the host cancels while a change to the program
does not (this is the benchmark's code, not the program's).

One sample is the sum of three parts, each of which tracked part of the
drift: vector work on buffers that fit in L2, vector work on 1 MiB buffers,
and plain interpreter work.  The buffers are allocated once and warmed
before timing, so what an op leaves in the caches or the allocator does not
change the sample.
"""

from __future__ import annotations

import time

import numpy as np

SMALL, SMALL_WARM, SMALL_ROUNDS = 4096, 20, 400
LARGE, LARGE_WARM, LARGE_ROUNDS = 131072, 2, 12
PY_ROUNDS = 40000
# the reference speed: on the 2-vCPU Xeon (2.1 GHz) virtual machine the
# benchmark was defined on, runs had median samples of 0.027 to 0.031 s
REF_S = 0.028


def _vector(a: np.ndarray, b: np.ndarray, warm: int, rounds: int) -> float:
    a[:] = np.linspace(0.0, 1.0, a.size)
    t0 = 0.0
    for i in range(warm + rounds):
        if i == warm:
            t0 = time.perf_counter()
        np.negative(a, out=b)
        np.exp(b, out=b)
        np.cumsum(b, out=a)
        np.divide(a, a[-1], out=a)
    return time.perf_counter() - t0


def _interpreter() -> float:
    t0 = time.perf_counter()
    s, d = 0, {}
    for i in range(PY_ROUNDS):
        s += i * i % 7
        d[i & 255] = s
    return time.perf_counter() - t0


class Calibration:
    def __init__(self):
        self.small = (np.empty(SMALL), np.empty(SMALL))
        self.large = (np.empty(LARGE), np.empty(LARGE))
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time the work once and keep the seconds it took."""
        self.samples.append(_vector(*self.small, SMALL_WARM, SMALL_ROUNDS)
                            + _vector(*self.large, LARGE_WARM, LARGE_ROUNDS)
                            + _interpreter())
