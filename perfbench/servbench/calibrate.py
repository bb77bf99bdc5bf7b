"""Host speed: a fixed calibration kernel, timed beside the measured work.

The benchmark runs on a shared machine whose speed drifts with its
neighbours' load: a fixed single-threaded loop takes anywhere from 0.09
to 0.20 s there, and whole minutes run 20% slower or faster than the
ones before. CPU time drifts with wall time, so the drift is the
cores' speed, not scheduling. Every timing metric is therefore
reported at a reference host speed: the runner times :func:`kernel`
between steps, and a stretch of work measured while the kernel took
``s`` seconds is rescaled by ``REFERENCE_S / s`` (rates divided, times
multiplied). Per measurement window, the serving rate's log correlates
with the kernel time's at -0.84 on ``single_synth`` and -0.67 on the
churn workloads.

The kernel is the benchmark's own code and never calls the program,
so a faster program still reads faster. It mixes what the serving
tick does: small numpy reductions and FFTs on cache-resident arrays,
and interpreted Python loops.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Nominal kernel time, seconds: about its median on the 2-core Intel
#: Xeon container the baseline was measured on (Python 3.11, numpy 2.4).
#: A reported time is what the work would take on a host where the
#: kernel takes this long.
REFERENCE_S = 1.4e-3

_X = np.random.default_rng(0).standard_normal((8, 32, 256))


def kernel() -> float:
    """A fixed mix of numpy and interpreted work (~1.4 ms warm)."""
    total = 0.0
    for i in range(6):
        spectrum = np.abs(np.fft.rfft(_X[i], axis=-1))
        total += float(np.median(spectrum, axis=0).sum())
        acc = 0
        for j in range(300):
            acc += j * j
        total += acc
    return total


def time_kernel() -> float:
    """Seconds one warm :func:`kernel` call takes now.

    One call runs untimed first. Right after a serving step the kernel
    runs ~15% slower than warm, by an amount that depends on what the
    step left in the caches, so a cold time would move with the
    program's footprint."""
    kernel()
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def speed(samples: list[float]) -> float:
    """Host speed against the reference from kernel times (>1: faster)."""
    return REFERENCE_S / statistics.median(samples)


kernel()  # first-call costs (FFT plan, imports) stay out of every sample
