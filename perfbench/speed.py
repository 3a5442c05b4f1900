"""Reference kernel that gauges how fast the host runs at this moment.

On a shared host the speed of one CPU swings by up to 1.6x within seconds
as other tenants come and go, and that swing moves every host time the
benchmark takes far more than the bounds it sets. The benchmark runs this
fixed kernel between every two requests and scales each request's host
time by REFERENCE_S over the mean time of the two passes around it: the
result is the time the request would take on a host where the kernel
takes exactly REFERENCE_S. The kernel mixes the three kinds of work the
program does (a Python float loop, dataclass churn as in the harvester
tick loop, and an `lfilter` pass as in the front end), so its slowdown
follows the program's. The program never runs this code, so a change to
the program moves the scaled times exactly as it moves the host times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
from scipy import signal

REFERENCE_S = 1e-3
_SAMPLES = np.random.default_rng(0).normal(size=20_000)


@dataclass
class _Pair:
    a: float = 0.0
    b: float = 0.0


def kernel_seconds() -> float:
    """Host time of one pass of the fixed reference kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(5000):
        acc += k * 0.5
    pair = _Pair()
    for _ in range(300):
        pair = replace(pair, a=pair.a + 1.0)
    signal.lfilter([0.1], [1.0, -0.9], _SAMPLES)
    return time.perf_counter() - t0
