"""Keep the benchmark on the least contended of its CPUs.

On the shared host this benchmark was built on (2 vCPUs of a Xeon), each
vCPU switches on its own between a fast and a slow state up to 2x apart,
for seconds to minutes at a time, as the physical core under it is
shared with other machines. Left alone, the scheduler keeps the
single-threaded benchmark on whichever vCPU it last ran on, and a run's
times follow that vCPU's state. So the benchmark times a fixed kernel of
small array operations on each CPU it may use and pins itself to the
fastest: before each unit of work, and between the timed calls of an
untraced unit once the last choice is PICK_EVERY_S old. The kernel only
chooses the CPU; no reported time is scaled by it, and the time spent
choosing inside a unit is taken out of the unit's wall time.
"""

import os
import time

import numpy as np

PICK_EVERY_S = 1.0
KERNEL_ROUNDS = 4


class CpuPicker:
    """Pins this process, and the children it starts, to its fastest CPU."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((8, 256))
        self._w = 0.3 * rng.standard_normal((8, 8))
        self.picks = []  # (start, end, cpu) of each choice

    def _kernel(self):
        x = self._x
        for _ in range(KERNEL_ROUNDS):
            y = np.tanh(self._w @ x)
            s = y.T @ x
            s = np.exp(s - s.max(axis=0))
            s /= s.sum(axis=0)
            x = x + 0.1 * (y @ s)
        return x

    def _kernel_s(self, cpu: int) -> float:
        """Kernel time on `cpu`: the faster of two runs after a warm-up."""
        os.sched_setaffinity(0, {cpu})
        self._kernel()
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        return best

    def pick(self):
        t0 = time.perf_counter()
        cpu = min(self.cpus, key=self._kernel_s)
        os.sched_setaffinity(0, {cpu})
        self.picks.append((t0, time.perf_counter(), cpu))

    def maybe_pick(self):
        if time.perf_counter() - self.picks[-1][1] >= PICK_EVERY_S:
            self.pick()

    def time_in(self, start: float, end: float) -> float:
        """Time spent choosing within [start, end]."""
        return sum(e - s for s, e, _ in self.picks if start <= s and e <= end)
