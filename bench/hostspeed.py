"""Host-speed index for normalizing wall times.

On shared hosts the CPU's speed drifts with the load of other tenants. On
a shared 2-vCPU Xeon virtual machine a fixed Python loop was measured
running 1.6x slower for a minute at a time, and the wall times of whole
30-second runs spread by 27% (interquartile range over median, 10 runs).

The probe times a fixed piece of work shaped like the library's own: small
dicts keyed by tuples, float arithmetic and NumPy calls on tiny arrays.
No change to ``pnpsubdiv`` can speed it up or slow it down. Each timed job
sits between two probes, and its normalized time is
``wall * PROBE_REF_S / probe``: the time the job would take on a host
where the probe takes ``PROBE_REF_S``. The end-to-end times are
normalized this way; the readable report prints the raw wall times next
to them. Of the probes tried (a pure float loop, dict building, and this
mix), the mix tracked the wall time of refine jobs most closely.
"""

from __future__ import annotations

import math
import time

import numpy as np

# probe time of the reference host; any fixed value works, this one keeps
# normalized times close to the wall times of the 2-vCPU Xeon host above
PROBE_REF_S = 0.008
_TRIES = 3


def _work() -> float:
    rows = np.arange(12.0).reshape(4, 3)
    acc = 0.0
    for r in range(150):
        table = {}
        for i in range(60):
            table[(i, i + r)] = (i * 0.5, math.sqrt(i + 1.0), [i])
        cross = np.cross(rows, np.roll(rows, -1, axis=0))
        acc += float(np.linalg.norm(cross, axis=1).sum())
    return acc


def probe() -> float:
    """Seconds of the fixed work, best of three so that one preemption does not count."""
    best = float("inf")
    for _ in range(_TRIES):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best


def normalize(wall: float, probe_s: float) -> float:
    """``wall`` seconds measured while the probe took ``probe_s``, at the reference speed."""
    return wall * PROBE_REF_S / probe_s
