"""The benchmark's reference kernel, timed alternately with the work it scales.

Raw times on a small shared machine drift by up to 2x, and the slow and fast
spells last seconds, not minutes.  So a pass is not compared with one kernel
run timed before it.  Instead, after every operation of a pass the sampler
runs short *slices* of this kernel for a fixed share of the time the
operation took, and the pass's reference time is the mean slice time over
that pass.  Slices then sample the machine's slow and fast spells in the same
proportion as the operations do, and their ratio cancels the drift.

A slice has three parts, each timed on its own:

* ``interp`` - interpreter-bound complex arithmetic and small-object churn,
  the shape of the package's per-point closed forms and Newton loops;
* ``numpy`` - a time-stepping loop of small numpy array operations, the
  shape of RK4 propagation on a few hundred sites;
* ``lapack`` - row-by-row assembly and one dense complex solve, the shape
  of the lattice oracle on a few hundred sites.

A slice's time is the sum of its parts, and one ``ref`` unit is
``SLICES_PER_REF`` slices (0.25-0.45 s on the 2-vCPU reference machine).
The kernel is the benchmark's own code and never calls the package, so a
change to the package cannot move it.  Equal parts tracked all four
workloads about as well as the best per-workload mix (see README.md), so
every workload uses the same kernel.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time

import numpy as np

PARTS = ("interp", "numpy", "lapack")

#: Slices that make one ``ref`` unit of time.
SLICES_PER_REF = 10

#: Slice time run after each operation, as a share of the operation's time.
SAMPLE_SHARE = 0.3


def _interp() -> complex:
    acc = 0j
    rows = []
    for i in range(8000):
        k = 0.01 + 3.12 * i / 8000
        E = 1.0 - 4.0 * math.cos(k)
        den = (E - 1.0) * (E + 0.3) - 1.0
        v = (E + 0.3) / den if den else 0.0
        r = v / (4j * math.sin(k) - v)
        rows.append({"k": k, "r": r, "R": abs(r) ** 2})
        acc += cmath.exp(2j * k) * r
    return acc + len(rows)


def _numpy() -> complex:
    n = 300
    y = np.exp(-((np.arange(n) - 150.0) ** 2) / 64.0 + 1.3j * np.arange(n))
    diag = np.full(n, 1.0 + 0.0j)

    def rhs(u):
        out = diag * u
        out[:-1] -= 2.0 * u[1:]
        out[1:] -= 2.0 * u[:-1]
        return -1j * out

    dt = 0.002
    for _ in range(250):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return complex(np.vdot(y, y))


def _lapack() -> complex:
    n = 400
    M = np.zeros((n, n), dtype=complex)
    for j in range(1, n - 1):
        M[j, j - 1] = -2.0
        M[j, j] = 0.3 - 0.05j
        M[j, j + 1] = -2.0
    M[0, 0] = M[n - 1, n - 1] = 1.0
    b = np.zeros(n, dtype=complex)
    b[0] = 1.0
    return complex(np.linalg.solve(M, b)[n // 2])


_FUNCS = {"interp": _interp, "numpy": _numpy, "lapack": _lapack}


class Sampler:
    """Runs slices between operations and keeps their times."""

    def __init__(self):
        self.parts: dict[str, list[float]] = {name: [] for name in PARTS}
        self.slices: list[float] = []

    def slice(self) -> None:
        total = 0.0
        for name, times in self.parts.items():
            start = time.perf_counter()
            _FUNCS[name]()
            elapsed = time.perf_counter() - start
            times.append(elapsed)
            total += elapsed
        self.slices.append(total)

    def after(self, busy_s: float) -> None:
        """Run slices for ``SAMPLE_SHARE`` of ``busy_s`` (at least one)."""
        start = time.perf_counter()
        self.slice()
        while time.perf_counter() - start < SAMPLE_SHARE * busy_s:
            self.slice()

    def take_ref(self) -> float:
        """Seconds per ``ref`` unit over the slices since the last call."""
        ref = SLICES_PER_REF * statistics.fmean(self.slices)
        self.slices = []
        return ref
