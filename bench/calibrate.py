"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared machines whose speed drifts.  On the 2-core
Xeon VM it was written on, repeated passes over the same inputs spread by
20-45% in raw wall time (quartile distance over median), and the drift
changed every few seconds, so no choice of workload could hide it.  A fixed
calibration kernel -- a pure-Python loop and a chain of small numpy
products, the same mix as flatdetect's own work -- is therefore timed next
to every measured operation, and each wall time is scaled by ``REF_S / c``,
where ``c`` is the median kernel time around it.  The result reads as
seconds on a host where the kernel takes ``REF_S``.  On that VM the spread
of the scaled timing metrics over ten seeds was 2-8%.

The kernel shares nothing with flatdetect, so a change to the program moves
the scaled times exactly as it moves its own cost.  The program must leave
no work running between operations: the kernel would absorb it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 1.5e-3
WINDOW = 10  # kernel samples taken on each side of an operation

# orthogonal, so the product chain neither grows nor decays into denormals
_Q = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 8)))[0]


def kernel() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    m = _Q
    for _ in range(200):
        m = m @ _Q
    return time.perf_counter() - t0


def scale(times: list[float], cals: list[float]) -> list[float]:
    """Scale op i's wall time by REF_S over the median kernel time in its
    window.  ``cals`` holds one kernel sample before the first op and one
    after each op."""
    if len(cals) != len(times) + 1:
        raise ValueError("need one kernel sample before the first op and one after each")
    return [
        t * REF_S / statistics.median(cals[max(0, i - WINDOW + 1):i + WINDOW + 1])
        for i, t in enumerate(times)
    ]
