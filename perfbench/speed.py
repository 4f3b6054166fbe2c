"""Machine-speed sampling, for steady timings on a shared virtual machine.

On a 2-vCPU cloud guest the speed of each vCPU drifts by up to ~2x over
seconds to minutes, because another tenant shares its physical core.  The
guest sees no steal time, CPU time inflates with wall time, and the two
vCPUs drift independently, so neither longer runs nor CPU time remove the
drift.  The benchmark therefore pins its main thread to one CPU (BLAS
worker threads, created at import, keep every CPU) and, during each timed
call, runs a :class:`SpeedSampler` thread pinned to the same CPU.  Every
``PERIOD_S`` the sampler runs a small kernel twice and times the second,
warm run.  A call's time times :meth:`SpeedSampler.factor`, which is
``REFERENCE_S`` over the mean sample, is its time at the reference speed.
Samples over ``PREEMPTED`` times the fastest are dropped: the scheduler
gave the CPU to another thread (a BLAS worker, or the main thread with the
GIL released) in mid-sample, which says nothing about the CPU's speed.
The kernel uses no ``diatomic_waves`` code and runs warm, so a change to the
package moves the rescaled time, not the factor.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

#: Mean warm-kernel seconds on the machine the bounds were set on, in its
#: fast state (2-vCPU KVM guest on an AVX-512 Intel Xeon, Python 3.11).
REFERENCE_S = 3.5e-5
PERIOD_S = 0.02
#: Core sharing slows a sample by up to ~2x; a time slice lost to another
#: thread costs milliseconds, 25x or more.
PREEMPTED = 5.0


def pin_main_thread() -> int:
    """Pin the calling thread (and processes it starts) to one CPU; return it."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _kernel(scratch: np.ndarray) -> None:
    total = 0
    for i in range(400):
        total += i * i
    for _ in range(20):
        scratch += 1.0


class SpeedSampler:
    """Context manager sampling the speed of ``cpu`` while its body runs."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        scratch = np.zeros(64)
        while True:
            _kernel(scratch)
            start = time.perf_counter()
            _kernel(scratch)
            self.samples.append(time.perf_counter() - start)
            if self._stop.wait(PERIOD_S):
                return

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self) -> float:
        """Rescaling to the reference speed: ``REFERENCE_S / mean sample``."""
        cutoff = PREEMPTED * min(self.samples)
        return REFERENCE_S / statistics.fmean(s for s in self.samples if s <= cutoff)
