"""Host-speed calibration: a fixed kernel that never calls the library.

The host shares its cores and caches with other machines, and its speed
drifts by a fifth or more within minutes.  ``run.py`` times this kernel
before and after every pass and between its sweep points, in the thread
that runs the passes, and reports end-to-end times relative to it.

The kernel cancels the drift only as far as it uses the host the way a
workload does, so its mix follows the library's: square roots and dot
products over an array that fits the core's L2 cache, dict-heavy
interpreter work, many small matrix products and hypot sweeps over an
array larger than L2.  It does not follow memory-bound passes (such as
the (candidates x nodes x points) blocks of ``pairwise_lp_distance``),
whose drift on this kind of host is larger and of another shape.
"""

from time import perf_counter

import numpy as np


class Calibration:
    def __init__(self):
        self.small = np.linspace(0.0, 1.0, 200_000)
        self.small_out = np.empty_like(self.small)
        self.big = np.linspace(0.0, 1.0, 400_000)
        self.big_out = np.empty_like(self.big)
        self.seconds()      # touch every page before anything is timed

    def seconds(self):
        """Wall time of one run of the kernel."""
        small, s_out, big, b_out = (self.small, self.small_out, self.big,
                                    self.big_out)
        t0 = perf_counter()
        for k in range(10):
            np.subtract(small, 0.3 + 0.01 * k, out=s_out)
            np.abs(s_out, out=s_out)
            np.sqrt(s_out, out=s_out)
            float(s_out @ small)
        table = {}
        for i in range(20_000):
            table[(i & 1023, i >> 10)] = float(i)
        m = np.eye(40)
        for _ in range(400):
            m = np.sin(m @ m * 1e-2 + 0.5)
        for k in range(10):
            np.subtract(big, 0.01 * k, out=b_out)
            np.hypot(b_out, 0.5, out=b_out)
            np.sqrt(b_out, out=b_out)
            float(b_out @ big)
        return perf_counter() - t0
