"""Gauge how fast the machine runs while a timed call runs.

On a shared host the same call on the same input can take 1.4 times as long
in one minute as in the next, and such phases last about as long as a run.
So while a call runs, a timer signal interrupts it every ``INTERVAL_S`` and
times one fixed probe: a Cholesky step at K+P = 200, the kind of work the
package's likelihood does.  The probe uses only numpy and scipy, never the
package, so a change to the package moves the call and leaves the probe
alone.  It runs in the caller's own thread, between two bytecodes of the
call, so it meets whatever contention the call meets at that moment.

The probes' own time is taken off the call.  The call's slowdown is the
probes' mean time over ``REFERENCE_S``, their time on the reference machine
(Intel Xeon, 2 vCPU, 1 BLAS thread) in a calm phase.  Over a five-minute
series of identical fit calls of 16 to 23 s, the probes' mean correlated
0.97 with the call time; kernels timed just before and after each call
correlated about 0.6.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy.linalg

REFERENCE_S = 1.0e-3
INTERVAL_S = 0.1
SIZE = 200

# Set-up is gauged the same way, inside the fresh interpreter whose import
# of the package it times.  Before that import there is no numpy, so the
# probe is a pure-Python loop, the kind of work an import does.  Over 97
# imports its mean correlated 0.91 with the import time; probes timed in the
# parent just before and after each import did not correlate at all.
SETUP_REFERENCE_S = 0.35e-3
SETUP_INTERVAL_S = 0.01
SETUP_CHILD = f"""
import signal, time
times = []
def probe(*_):
    t0 = time.perf_counter()
    d = {{}}
    for i in range(2000):
        d[i % 97] = d.get(i % 97, 0) + i
    times.append(time.perf_counter() - t0)
signal.signal(signal.SIGALRM, probe)
signal.setitimer(signal.ITIMER_REAL, {SETUP_INTERVAL_S}, {SETUP_INTERVAL_S})
import snvc
signal.setitimer(signal.ITIMER_REAL, 0, 0)
if not times:
    probe()
print(sum(times), sum(times) / len(times))
"""


def setup_seconds(env: dict) -> tuple[float, float]:
    """Wall time from starting a fresh interpreter to ``import snvc`` done,
    less its probes' time, and the slowdown gauged during it."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD], env=env, check=True, capture_output=True, text=True, timeout=120
    )
    wall = time.perf_counter() - t0
    cost, mean = map(float, proc.stdout.split())
    return wall - cost, mean / SETUP_REFERENCE_S


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(20050998)
        e = rng.standard_normal((2 * SIZE, SIZE))
        self.system = e.T @ e / SIZE, rng.uniform(0.5, 1.5, SIZE), rng.standard_normal(SIZE)
        self.times: list[float] = []
        for _ in range(20):  # first calls pay one-time costs
            self.probe()

    def probe(self, *_signal_args):
        t0 = time.perf_counter()
        ete, v, ety = self.system
        g = (v[:, None] * ete) * v[None, :]
        g[np.diag_indices_from(g)] += 1.0
        factor = scipy.linalg.cho_factor(g, lower=True)
        scipy.linalg.cho_solve(factor, v * ety)
        self.times.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def during(self):
        """Probe every INTERVAL_S while the block runs.

        Yields a dict that gets ``cost``, the probes' seconds inside the
        block, and ``slowdown``.  A block shorter than the interval has no
        probe inside it, so one probe right after it stands in.
        """
        out: dict[str, float] = {}
        self.times = []
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        out["cost"] = sum(self.times)
        if not self.times:
            self.probe()
        out["slowdown"] = statistics.fmean(self.times) / REFERENCE_S
