"""Host-speed correction for the timed units of a pass.

The host's speed drifts by up to ~1.7x over seconds to minutes with load
from other tenants, and a run's raw times follow it.  A fixed reference
kernel (numpy and scipy only, no ``hfs`` code, so no change to the package
can move it) runs between units, at least every ``BLOCK_S`` seconds of unit
time.  Each unit's raw seconds are scaled by ``REF_KERNEL_S / k``: the time
the unit would take on a host where the kernel takes ``REF_KERNEL_S``.  ``k``
is the median kernel time over the ``WINDOW`` boundaries nearest the unit's
block; one kernel sample is too short to be trusted alone, because the host
also stalls for tens to hundreds of milliseconds at a time.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

# the kernel's time on the machine where the benchmark was defined, at the
# faster of its speed levels (see README, "Why host-speed corrected")
REF_KERNEL_S = 0.020
BLOCK_S = 0.4
WINDOW = 6                      # kernel samples per block: 2 before, 2 after

_RNG = np.random.default_rng(0)
_A = _RNG.random((16, 16)) + 1j * _RNG.random((16, 16))
_B = np.ones(16, dtype=complex)
_EYE = 16.0 * np.eye(16)


def kernel() -> float:
    """Seconds taken by a fixed mix of the package's kind of work: column
    assembly in Python, 16 x 16 complex solves, a few expm calls."""
    # imported here, so that the set-up probes, which import this module
    # through workloads.py, time only what hfs itself imports
    import scipy.linalg
    t0 = time.perf_counter()
    for r in range(240):
        m = np.zeros((16, 16), dtype=complex)
        for j in range(16):
            m[:, j] = _A[:, j] * (1.0 + 0.01 * r) - 0.5 * _A[j, :]
        np.linalg.solve(m + _EYE, _B)
        if r % 6 == 0:
            scipy.linalg.expm(0.01 * m)
    return time.perf_counter() - t0


class UnitTimer:
    """Times named units; runs the kernel between them every BLOCK_S."""

    def __init__(self):
        self.raw = {}                   # key -> (seconds, block index)
        self.kernel_s = [kernel()]      # kernel time at each block boundary
        self._since = 0.0

    @contextmanager
    def unit(self, key, calls: int = 1):
        """Times the block as one unit, per call of the ``calls`` it makes."""
        t0 = time.perf_counter()
        yield
        dt = time.perf_counter() - t0
        self.raw[key] = (dt / calls, len(self.kernel_s) - 1)
        self._since += dt
        if self._since >= BLOCK_S:
            self.kernel_s.append(kernel())
            self._since = 0.0

    def close(self) -> dict:
        """key -> corrected seconds."""
        if self._since > 0.0 or len(self.kernel_s) == 1:
            self.kernel_s.append(kernel())
        ks = self.kernel_s
        lo = WINDOW // 2 - 1
        scale = [REF_KERNEL_S / statistics.median(ks[max(0, b - lo):
                                                     b + 1 + WINDOW // 2])
                 for b in range(len(ks) - 1)]
        return {key: dt * scale[b] for key, (dt, b) in self.raw.items()}
