"""Shared helpers for the test suite."""

import numpy as np

from limachor.admissibility import is_admissible
from limachor.constants import drift_report
from limachor.kinematics import Trajectory


def admissible_pairs(max_abs_p: int, max_n: int, min_n: int = 4):
    """All admissible (p, N) with 2 <= |p| <= max_abs_p, min_n <= N <= max_n."""
    pairs = []
    for n in range(min_n, max_n + 1):
        for mag in range(2, max_abs_p + 1):
            for p in (mag, -mag):
                if is_admissible(p, n).admissible:
                    pairs.append((p, n))
    return pairs


def measure(state, couplings):
    """Conserved quantities of one SystemState: drift_report on a one-sample trajectory."""
    one = Trajectory(np.array([state.t]), state.positions[None], state.velocities[None])
    return drift_report(one, couplings)
