"""Host-speed index: a fixed kernel of the benchmark's own, timed in bursts.

The 2-CPU host the benchmark was sized on runs the same code at speeds
up to 2x apart, in states that last from seconds to minutes, so whole
runs of the same code differ by more than the bounds the benchmark
sets.  A run therefore times this kernel in a short burst after each
piece of measured work.  The burst's median kernel time over
:data:`REFERENCE_MS`, the kernel's median on the sizing host, is the
host's slowdown while that work ran.  The workloads report each timed
figure at the sizing host's speed: times divided by the slowdown,
rates multiplied by it.

The kernel is not program code, so a change to the program moves the
reported figures and a change in host speed does not.  It does the three
kinds of work the program's hot paths do, in about equal parts: a
projection through a freshly widened int8 matrix (memory bound, as in
``RandomProjectionEncoder.encode``), a float64 matrix product (compute
bound, as in k-means and float AM scoring) and a JSON decode (as in the
request handler).
"""

from __future__ import annotations

import json
import statistics
import time
from typing import List

import numpy as np

#: Median kernel time on the sizing host, in ms.
REFERENCE_MS = 3.66


class HostSpeed:
    """Times the kernel in bursts; each burst gives the host's slowdown."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._row = rng.standard_normal((1, 784))
        self._projection = rng.integers(-1, 2, size=(784, 2048), dtype=np.int8)
        self._left = rng.standard_normal((2048, 128))
        self._right = rng.standard_normal((128, 128))
        self._body = json.dumps({"features": rng.standard_normal((8, 784)).tolist()})
        #: The slowdown of every burst so far.
        self.slowdowns: List[float] = []

    def kernel_ms(self) -> float:
        start = time.perf_counter()
        (self._row @ self._projection.astype(np.float64)).sum()
        (self._left @ self._right).sum()
        json.loads(self._body)
        return 1000.0 * (time.perf_counter() - start)

    def slowdown(self, seconds: float) -> float:
        """Run the kernel for ``seconds``; its median time over the reference."""
        times: List[float] = []
        end = time.perf_counter() + seconds
        while not times or time.perf_counter() < end:
            times.append(self.kernel_ms())
        slowdown = statistics.median(times) / REFERENCE_MS
        self.slowdowns.append(slowdown)
        return slowdown
