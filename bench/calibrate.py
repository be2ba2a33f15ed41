"""A fixed reference computation that measures how fast the host runs now.

On a shared host the speed of one core drifts by up to a factor of two over
tens of seconds: a job and this kernel slow down together, so CPU time rises
with wall time. The worker runs the kernel before every job and after the
last one, and rescales each job's time by REF_S over the kernel's time
around it. A pass's rescaled time is what it would take on a host where the
kernel takes REF_S; a change to ``hele_homog`` moves it as it moves the raw
time, because the kernel uses none of the package.

The kernel mixes the three kinds of work the workloads do: interpreted
scalar arithmetic, NumPy on arrays of 50 and 400 elements, and a sparse LU
solve of a five-point stencil (the kind of solve ``hs2d`` makes every step).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.sparse import diags, kron, identity
from scipy.sparse.linalg import spsolve

# median kernel time on the 2-core host the bounds were set on
REF_S = 0.035
# kernel time spent after a job, as a share of the job's wall time
KERNEL_SHARE = 0.05
GRID = 40


def _laplacian(n: int):
    d = diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = identity(n)
    return (kron(d, eye) + kron(eye, d) + 1e-3 * identity(n * n)).tocsr()


class HostSpeed:
    """Times the reference kernel; build it once, outside every timed section."""

    def __init__(self):
        self._mat = _laplacian(GRID)
        self._rhs = np.ones(GRID * GRID)
        self._x50 = np.linspace(0.0, 1.0, 50)
        self._x400 = np.linspace(0.0, 1.0, 400)
        self.sample()  # warm-up: first-call costs are not host speed

    def _kernel(self) -> float:
        s = 0.0
        for i in range(110000):
            s += math.sin(i * 1e-3) * 0.5
        a, b = self._x50, self._x400
        for _ in range(1000):
            a = a + 1e-3 * np.sin(np.pi * a) ** 2
            b = b + 1e-3 * np.sin(np.pi * b) ** 2
        u = sum(spsolve(self._mat, self._rhs)[0] for _ in range(3))
        return s + float(a.sum() + b.sum() + u)

    def sample(self, budget_s: float = 0.0) -> tuple[float, float]:
        """Median wall and process CPU seconds of one kernel run, over runs
        repeated until budget_s of wall time is spent (at least one run).

        One run is noisy; a long job is rescaled by the samples at its two
        ends only, so it gets a budget in proportion to its length.
        """
        runs = []
        while not runs or sum(w for w, _ in runs) < budget_s:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            self._kernel()
            runs.append((time.perf_counter() - wall0, time.process_time() - cpu0))
        return (statistics.median(w for w, _ in runs),
                statistics.median(c for _, c in runs))
