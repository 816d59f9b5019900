"""The verify pipeline: one solved system checked against every oracle.

The analytic orbit is certified on a residual grid and compared with the
RK4 and spectral engines; the RK4 trajectory's conserved quantities and
inertia rate are measured.  Gates scale with the amplitudes, so the
verdict does not depend on the curve's size.  RK4 is folded chunk by
chunk into per-sample conserved quantities, so memory is
O(chunk * N + N^2 + samples), never the whole trajectory.
"""

from __future__ import annotations

import math

import numpy as np

from limachor import constants, dynamics, kinematics
from limachor.coefficients import CouplingVector


def verify(config: kinematics.ChoreoConfig, couplings: CouplingVector, dt: float,
           steps: int, grid: int, *, residual: float, rk4: float, spectral: float,
           drift: float, inertia_rate: float) -> dict:
    """Check one solved system against every oracle; return the verify report.

    The residual, RK4, spectral and ``drift:g`` tolerances are multiplied
    by |a| + |b| and the inertia-rate tolerance by N (a^2 + b^2); the
    other drifts are relative.  ``failures`` names the failed gates in
    order, and ``ok`` is true when there are none.  ``t_end`` is the last
    RK4 time and ``periods`` the number of orbit periods (tau) it covers.
    A layer's ValueError (bad input, or a quantity that overflows)
    propagates.
    """
    n, a, b, p = config.N, config.a, config.b, config.p
    residual_max = kinematics.eom_residual(
        config, couplings, kinematics.certification_grid(grid))

    spec = dynamics.build_interaction(n, couplings)
    init = kinematics.state_at(config, 0.0)
    # Each RK4 chunk is folded into per-sample conserved quantities and
    # dropped; the last chunk's final sample is what the rk4 gate reads.
    series = constants.ConservedSeries(couplings, steps + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in dynamics.rk4_chunks(init, spec, dt, steps):
            series.add(chunk)
            t_end, final = float(chunk.t[-1]), chunk.q[-1].copy()
            # Freed before the next chunk is allocated.
            del chunk
    probes = np.array([0.3, 1.7, 5.9, t_end])
    reference = kinematics.bodies_at(config, np.arange(n), probes[:, None], 1)[0]
    propagated = dynamics.spectral_propagate(init, spec, probes).q
    # An error whose square overflows is inf and fails its gate.
    with np.errstate(over="ignore"):
        rk4_error = float(np.max(np.linalg.norm(final - reference[-1], axis=-1)))
        spectral_error = float(np.max(np.linalg.norm(propagated - reference, axis=-1)))

    # Checked after the last chunk, so that RK4 leaving the float range
    # is reported ahead of the quantities it overflows.
    report = series.report()
    # The closed form of c, N (a^2 + p b^2), vanishes on a^2 = -p b^2,
    # so c drift is scaled by N (a^2 + |p| b^2), which bounds |c| and
    # never vanishes.
    relative_drift = {
        "c": report.drift["c"] / (n * (a * a + abs(p) * b * b)),
        "I": report.drift["I"] / abs(report.moment_of_inertia),
        "K": report.drift["K"] / abs(report.kinetic),
        "V": report.drift["V"] / abs(report.potential),
        "E": report.drift["E"] / abs(report.kinetic + report.potential),
    }
    inertia_rate_max = series.inertia_rate_max()

    # Positions and accelerations scale like |a| + |b|, and I like its
    # closed form N (a^2 + b^2).
    scale = abs(a) + abs(b)
    gates = [
        ("residual", residual_max, residual * scale),
        ("rk4", rk4_error, rk4 * scale),
        ("spectral", spectral_error, spectral * scale),
        ("drift:g", report.drift["g"], drift * scale),
    ]
    gates += [(f"drift:{key}", value, drift) for key, value in relative_drift.items()]
    gates.append(("inertia_rate", inertia_rate_max, inertia_rate * (n * (a * a + b * b))))
    # Written so that a NaN value or tolerance fails the gate.
    failures = [name for name, value, limit in gates if not value <= limit]

    return {
        "N": n,
        "p": p,
        "a": a,
        "b": b,
        "kappa": couplings.as_dict(),
        "residual_max": residual_max,
        "rk4_final_error": rk4_error,
        "t_end": t_end,
        "periods": t_end / math.tau,
        "spectral_error": spectral_error,
        "drift": report.drift,
        "relative_drift": relative_drift,
        "inertia_rate_max": inertia_rate_max,
        "ok": not failures,
        "failures": failures,
    }
