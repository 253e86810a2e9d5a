"""A fixed piece of work that measures how fast the host runs right now.

On a shared host the same computation can run 30-60% slower for tens of
seconds at a time, because other tenants load the same cores and caches.
A run's median cannot average out a slowdown that lasts longer than the run,
so wall-clock medians of two sets of runs minutes apart differ by more than
any useful bound.  The benchmark therefore times this reference work between
the program's operations (after every RK4 step, before every verify suite)
and reports the workload's times also in units of the reference time
measured around them (unit ``ref``).  A slowdown of the host stretches both,
so the ratio keeps mostly what the program itself changes.

The work uses NumPy only, never oddflow or ``scipy.fft``, so no change to
the program can make the reference faster or slower.  It mixes what an
oddflow step spends its time on: complex 2-D FFTs of a 128 x 128 field,
element-wise array arithmetic and interpreter-bound Python.
"""

from __future__ import annotations

import math
import time

import numpy as np

N = 128
FFT_ROUNDS = 12
PY_ROUNDS = 4000


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20221128)
        self.a = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        self.k = rng.standard_normal((N, N))
        self.chunks: list[tuple[float, float]] = []  # (start, end), in time order

    def begin(self) -> None:
        """Forget the chunks of the previous solution."""
        self.chunks = []

    def chunk(self) -> None:
        """Do the reference work once and record when it ran."""
        t0 = time.perf_counter()
        for _ in range(FFT_ROUNDS):
            c = np.fft.fft2(self.a)
            c *= self.k
            c += self.a
            np.fft.ifft2(c)
        acc = 0
        for i in range(PY_ROUNDS):
            acc += (i * i) % 7
        self.chunks.append((t0, time.perf_counter()))

    def durations(self) -> list[float]:
        return [end - start for start, end in self.chunks]

    def inside(self, start: float, end: float) -> float:
        """Seconds of reference work within [start, end]."""
        return sum(max(0.0, min(end, e) - max(start, s)) for s, e in self.chunks)

    def normalized(self, start: float, end: float) -> float:
        """The program's time within [start, end], reference work left out,
        in units of the reference time around it: each stretch between two
        chunks is divided by the mean of those two chunks' durations; time
        before the first chunk or after the last by that chunk's duration."""
        d = self.durations()
        if not d:
            return math.nan
        starts = [s for s, _ in self.chunks] + [math.inf]
        ends = [-math.inf] + [e for _, e in self.chunks]
        rates = [d[0]] + [0.5 * (a + b) for a, b in zip(d, d[1:])] + [d[-1]]
        return sum(max(0.0, min(end, hi) - max(start, lo)) / r
                   for lo, hi, r in zip(ends, starts, rates))
