"""A fixed reference computation that times how fast the host runs now.

On a shared host other tenants slow this process by up to about half
for seconds to minutes at a time, so the wall time of a benchmark unit
says as much about the neighbours as about nvscope. `calibrate()` runs
the same work every call, on fixed data and without nvscope: vectorised
numpy passes over a point array, like the field kernel's pair sums. A
unit's wall time divided by the calibration time taken beside it is the
unit's cost in calibration runs, which moves with nvscope and much less
with the host's load. On a 2-vCPU x86-64 VM whose speed drifted by 35%
over a few minutes, the Rabi fitter's time over this calibration's time
stayed within about 5%; over small scipy least-squares fits (the
fitter's own kind of work) it varied twice as much, because those
slowed more than the fitter did.
"""

import time

import numpy as np

_POINTS = np.random.default_rng(20180220).standard_normal((20000, 3))
_PASSES = 100


def calibrate():
    """Seconds the fixed reference work takes now."""
    t0 = time.perf_counter()
    for k in range(_PASSES):
        d = _POINTS - _POINTS[k]
        r = np.sqrt(np.einsum("ij,ij->i", d, d)) + 1.0
        np.cross(d, _POINTS) / r[:, None] ** 3
    return time.perf_counter() - t0
