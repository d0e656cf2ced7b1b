"""A fixed speed probe that puts latencies on one scale across runs.

The machine this benchmark was built on gives a few cores of a shared
host, and its speed drifts: a fixed Python loop ran 1.2-1.6x slower in
some 10-20 s windows than in others, for a minute at a time, and CPU time
drifted exactly as wall time did. A latency read from such a window
measures the neighbours as much as the program.

The probe is a fixed piece of work, independent of fixlab and of the
workload seed, of the two kinds fixlab's time goes to: a pure-Python loop
over lists and dicts (the event loop, the chain build, call overhead)
and numpy/scipy calls on sparse and dense arrays (the kernel steps). It
runs between questions, for about one twentieth of the time, and every
latency of a pass is scaled by ``NOMINAL_S`` over the mean duration of
that pass's probes: the latency the question would have had on a machine
where the probe takes ``NOMINAL_S``. The mean, not the median, because
a slice of CPU lost to a neighbour stretches a long question by the
share of time lost, and the mean of many short probes by the same share. A change to fixlab moves a scaled latency as it moves the
raw one, since the probe does not touch fixlab; a change in the machine's
speed moves the probe as well and cancels.
"""

import time

import numpy as np
import scipy.sparse as sp

# the probe's typical best time on the 2-vCPU machine the benchmark was
# built on, so that scaled seconds read close to seconds there
NOMINAL_S = 0.010


class Probe:
    def __init__(self):
        rng = np.random.default_rng(20161)  # fixed: the probe never depends on the workload
        n = 5000
        rows = np.repeat(np.arange(n), 5)
        cols = rng.integers(n, size=rows.size)
        self.matrix = sp.csr_matrix((rng.random(rows.size), (rows, cols)), shape=(n, n))
        self.vector = rng.random(n)
        self.small = rng.random(300)

    def _python(self):
        counts = {}
        items = list(range(400))
        total = 0
        for i in range(40000):
            k = items[(i * 7919) % 400]
            counts[k] = counts.get(k, 0) + 1
            total += k * i
        return total

    def _numpy(self):
        x = self.vector
        for _ in range(80):
            x = self.matrix @ x
            x = x / x.sum()
        y = self.small
        for _ in range(400):
            y = np.minimum(y, y[::-1]) + 0.001 * y.max()
        return float(x[0] + y[0])

    def __call__(self):
        """Run the probe once; return (start, end) on ``perf_counter``."""
        t0 = time.perf_counter()
        self._python()
        self._numpy()
        return t0, time.perf_counter()


def scale(probes):
    """NOMINAL_S over the mean duration of ``probes``, (start, end) pairs."""
    return NOMINAL_S * len(probes) / sum(end - start for start, end in probes)
