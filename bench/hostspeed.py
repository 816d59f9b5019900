"""Host-speed probe: a fixed piece of work, timed between requests.

The benchmark's host is a share of a machine whose CPU runs up to about
2x slower for seconds to minutes at a time, whatever the benchmark does.
A run that falls into a slow phase would read slower although the
program did the same work.  So the harness times this probe between
requests and scales every request's time by ``REFERENCE_S / probe time``
measured next to it: timings are reported as they would read on a host
where the probe takes ``REFERENCE_S``.  The raw timings are recorded
beside them.

The probe mixes what limachor's requests spend their time on: a
pure-Python loop, float maths and shortest-repr formatting with small
numpy arrays, and numpy arithmetic on (N, 2) arrays.  Its inputs are
fixed, and it never calls the program, so a change to the program cannot
change it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median probe time on the reference host: a 2-vCPU Intel Xeon VM
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31) in one of its fast phases.
REFERENCE_S = 0.0125

_BODIES = 8
_ANGLES = np.linspace(0.0, math.tau, _BODIES, endpoint=False)
_COUPLING = np.cos(np.add.outer(_ANGLES, 2.0 * _ANGLES))
_ROW_SUM = _COUPLING.sum(axis=1)
_START = np.stack([np.cos(_ANGLES), np.sin(_ANGLES)], axis=1)


def _interpreter(count=30000):
    total = 0
    for i in range(count):
        total += i * i % 7
    return total


def _formatting(rows=1500):
    lines = []
    for i in range(rows):
        t = i * 1e-3
        c, s = math.cos(t), math.sin(t)
        pos = np.array([c + 0.5 * s, s - 0.5 * c])
        vel = np.array([c * c, s])
        lines.append(f"{t!r},{i},{float(pos[0])!r},{float(pos[1])!r},"
                     f"{float(vel[0])!r},{float(vel[1])!r}")
    return "\n".join(lines)


def _small_arrays(steps=300):
    x = _START
    for _ in range(steps):
        x = x + 1e-3 * (_COUPLING @ x - _ROW_SUM[:, None] * x)
    return x


def probe() -> float:
    """Wall time of one probe, in seconds."""
    start = time.perf_counter()
    _interpreter()
    _formatting()
    _small_arrays()
    return time.perf_counter() - start
