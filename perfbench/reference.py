"""A fixed reference computation, timed between ops to track machine speed.

On a shared machine the same code can run up to 1.8x slower for tens of
seconds at a time, and no window a run can afford averages that out. The
bounded time metrics are therefore given in units of this computation, timed
in the same process between ops. It does not touch thermoelast, so a change
to the solver moves only the op times. It mixes the kinds of work the solver
does, at the array size of the workload's fields: FFTs, elementwise complex
arithmetic and interpreted Python.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SHARE = 0.1  # reference time kept at this share of the op time
ELEMENTS = 300_000  # array elements transformed per sample
PYTHON_LOOP = 100_000  # iterations of interpreted Python per sample


class Reference:
    """FFT pairs and a complex multiply on an array of the workload's field
    shape, then a plain Python loop; a sample is one such round."""

    def __init__(self, shape: tuple[int, ...]) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(shape)
        self.phase = np.exp(1j * rng.standard_normal(shape))
        self.axes = tuple(range(1 - len(shape), 0))
        self.reps = -(-ELEMENTS // self.x.size)
        self.run()  # FFT plans and first-touch pages are not part of a sample
        self.samples: list[float] = []
        self.total = 0.0

    def run(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self.reps):
            np.fft.ifftn(np.fft.fftn(self.x, axes=self.axes) * self.phase, axes=self.axes).real
        acc = 0
        for i in range(PYTHON_LOOP):
            acc += i * i
        return time.perf_counter() - t0

    def keep_up(self, op_time: float) -> None:
        """Run the reference until its total time reaches SHARE of op_time."""
        while self.total < SHARE * op_time:
            dt = self.run()
            self.samples.append(dt)
            self.total += dt

    @property
    def mean(self) -> float:
        return statistics.mean(self.samples)
