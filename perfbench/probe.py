"""Fixed probes of the host's current speed.

A probe is a small, fixed piece of work that imports no oqsim code, so a
change to the program never changes it.  On a host that slows down for a
while, a probe slows by about the same factor as the work it resembles,
and a time scaled by the probe reads about the same in fast and slow
spells.  There are two kinds, one for each kind of workload:

- ``interpreter``: numpy calls on 8x8 complex arrays (matmul, reshape,
  transpose, conjugate, trace) and a plain loop with dict stores and
  integer arithmetic.  This is what sets the cost of oqsim's loop at small d.
- ``blas``: one product of two 256x256 complex matrices, a size at which
  BLAS uses all its threads.  This is what sets the cost of full-space
  matmuls at d=256, and it slows down when either core or the memory
  system is contended.  The 1 MiB matrix is made on the first call, so
  only workloads that use this probe hold it.
"""

from __future__ import annotations

import time

import numpy as np

_A = np.arange(64, dtype=complex).reshape(8, 8) / 64.0
_I = np.eye(8, dtype=complex)
_matrix = []


def _interpreter_work() -> float:
    x = _I
    for _ in range(60):
        y = (_A @ x).reshape(2, 4, 2, 4).transpose(1, 0, 3, 2).reshape(8, 8)
        x = (y + y.conj().T) / (2.0 + abs(np.trace(y)))
    table, s = {}, 0
    for i in range(6000):
        table[i & 63] = s
        s = (s + i * i) % 1000003
    return float(x[0, 0].real) + s


def _blas_work() -> float:
    if not _matrix:
        k = np.arange(256)
        _matrix.append(np.exp(2j * np.pi * np.outer(k, k) / 256) / 16)
    m = _matrix[0]
    return float((m @ m)[0, 0].real)


# kind -> (work, reference ms).  A scaled time is what the timed work would
# take on a host where one probe takes the reference time: about the
# probe's 5th-percentile time between units on a 2-vCPU Xeon VM, that is
# its time at the host's full speed.
KINDS = {
    "interpreter": (_interpreter_work, 1.2),
    "blas": (_blas_work, 1.4),
}


def timed(kind: str) -> int:
    """Wall time of one probe in ns."""
    work = KINDS[kind][0]
    t0 = time.perf_counter_ns()
    work()
    return time.perf_counter_ns() - t0


def scale(times_ns, probes_ns, kind: str) -> list:
    """Each time, taken between ``probes_ns[i]`` and ``probes_ns[i + 1]``,
    scaled to the reference speed by the mean of those two probes."""
    ref_ns = KINDS[kind][1] * 1e6
    return [
        t * ref_ns / (0.5 * (probes_ns[i] + probes_ns[i + 1])) for i, t in enumerate(times_ns)
    ]
