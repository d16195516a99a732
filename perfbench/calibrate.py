"""Machine-speed calibration: timings in reference seconds.

The box this benchmark was built on is shared, and its speed switches
between levels in episodes of seconds to tens of seconds: interpreter-bound
code runs about 1.6x slower in the slow level, LAPACK- and memory-bound
code about 1.2x.
Raw wall medians of five 20 s runs of recover_3q_cli, the same work each
time, spread over 11-17 ms for that reason alone.

So every timed interval is also measured against a fixed numpy kernel run
right next to it, and reported as ``wall * REF_S / kernel_time``: a
*reference second* is a wall second on a box where the kernel takes
``REF_S``.  The kernel is benchmark code that no change to the package can
speed up; each workload names the kernel whose mix matches its operation.
Raw wall times are printed next to the reference ones.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 3

_rng = np.random.default_rng(0)
_REAL_48 = _rng.standard_normal((48, 48))
_COMPLEX_256 = _rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))
_COMPLEX_32 = _rng.standard_normal((32, 32)) + 1j * _rng.standard_normal((32, 32))


def _interpreter_kernel() -> None:
    """Python loop plus a small eigensolve: the mix of a CLI operation."""
    acc = 0.0
    for i in range(5000):
        acc += i * 0.5
    np.linalg.eig(_REAL_48)


def _dense_kernel() -> None:
    """A complex ``zgeev`` plus memory-bound 1024x1024 kron accumulations:
    the mix of the dense 5-qubit pipeline (eigensolve and channel build)."""
    np.linalg.eig(_COMPLEX_256)
    acc = np.zeros((1024, 1024), dtype=complex)
    for _ in range(4):
        acc += 0.25 * np.kron(_COMPLEX_32.conj(), _COMPLEX_32)


# kernel, and its typical time on the box the benchmark was built on
# (2-core Xeon VM, OpenBLAS 0.3.31, numpy 2.4): the reference box.
KERNELS = {
    "interpreter": (_interpreter_kernel, 1.3e-3),
    "dense": (_dense_kernel, 0.18),
}


def kernel_time(kind: str) -> float:
    """Median wall time of ``REPEATS`` runs of the named kernel."""
    kernel, _ = KERNELS[kind]
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_scale(kind: str, measured: float) -> float:
    """Factor that turns wall seconds into reference seconds."""
    return KERNELS[kind][1] / measured
