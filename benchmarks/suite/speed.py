"""Machine-speed calibration, so that times from a shared host compare.

On the reference machine, a two-vCPU virtual machine on a shared host,
each vCPU intermittently runs 40-90% slower for seconds to minutes at a
time, and CPU time inflates with wall time.  A plain run's
medians therefore follow the host's load as much as the program.

A :class:`Calibrator` runs a fixed kernel between measured operations,
for a fixed share of the measured time, so that its samples see the same
host as the operations.  :meth:`Calibrator.factor` is the kernel's
reference time over its median time in this run; a measured time
multiplied by it is the time at reference speed, and a rate divided by
it the rate at reference speed.  The kernels are the benchmark's own
code, so a change to the program leaves them as they are.

Host contention does not slow every kind of work alike: in one
ten-minute episode, batch-1 work, bound by per-call interpreter
overhead, slowed about 1.6 times as much (in log terms) as batched
numeric work.  Each kernel is therefore a 1-D convolution in the
model's idiom (sliding windows and ``einsum``) at the batch size whose
slowdown matched a workload's: :data:`PER_CALL` at batch 1 and
:data:`BATCHED` at batch 64.  Over 15 s windows of that episode the
matched kernel's median correlated with the workload's at 0.97-0.98,
and dividing by it cut the windows' spread from 16-33% to 5-6%.

Work split across processes does not track a kernel run in one of
them: sessions of the durable gateway, whose stop-and-wait protocol
waits on a worker process on the other vCPU, correlated with neither
kernel at more than 0.5, also with the kernel pinned to each vCPU in
turn (see the README).
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

__all__ = ["Calibrator", "ConvKernel", "PER_CALL", "BATCHED", "SHARE"]

# Kernel time per second of measured time.
SHARE = 0.1
CHANNELS, FILTERS, LENGTH, WIDTH = 38, 32, 40, 3


class ConvKernel:
    """``calls`` convolutions of a fixed batch of ``batch`` windows."""

    def __init__(self, batch: int, calls: int, reference_s: float):
        rng = np.random.default_rng(0)
        self.inputs = rng.standard_normal((batch, CHANNELS, LENGTH + WIDTH - 1))
        self.weight = rng.standard_normal((FILTERS, CHANNELS, WIDTH))
        self.calls = calls
        # The kernel's time on the reference machine when the host is
        # quiet; measured times are reported at this speed.
        self.reference_s = reference_s

    def __call__(self) -> float:
        """Seconds taken by one run of the kernel."""
        started = time.perf_counter()
        for _ in range(self.calls):
            windows = np.lib.stride_tricks.sliding_window_view(
                self.inputs, WIDTH, axis=2)
            np.einsum("nclk,ock->nol", windows, self.weight,
                      optimize=True).sum()
        return time.perf_counter() - started


PER_CALL = ConvKernel(batch=1, calls=150, reference_s=0.010)
BATCHED = ConvKernel(batch=64, calls=12, reference_s=0.010)


class Calibrator:
    """Kernel samples interleaved with one run's measured work."""

    def __init__(self, kernel: ConvKernel, share: float = SHARE):
        self.kernel = kernel
        self.share = share
        self.samples: List[float] = []
        self.owed_s = 0.0

    def keep_up(self, measured_s: float) -> None:
        """Run the kernel for ``share`` of ``measured_s`` (carrying any
        remainder to the next call)."""
        self.owed_s += self.share * measured_s
        while self.owed_s > 0.0:
            sample = self.kernel()
            self.samples.append(sample)
            self.owed_s -= sample

    def factor(self) -> float:
        """Reference time over this run's median kernel time."""
        if not self.samples:
            self.samples.append(self.kernel())
        return self.kernel.reference_s / statistics.median(self.samples)
