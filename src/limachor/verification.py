"""The verify pipeline: one solved system checked against every oracle.

The analytic orbit is certified on a residual grid and compared with the
RK4 and spectral engines; the RK4 trajectory's conserved quantities and
inertia rate are measured.  Gates scale with the amplitudes, and the
pipeline runs on the curve scaled by a power of two (``unit_scaled``),
so the verdict does not depend on the curve's size down to the
smallest amplitudes, whose squares underflow.  RK4 is folded chunk by
chunk into per-sample conserved quantities, read in place from each
chunk's coordinate-major sample rows, so memory is
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
    Every check runs on ``kinematics.unit_scaled(config)``, and the
    report scales lengths and quadratic quantities back to ``config``'s
    amplitudes.  A layer's ValueError (bad input, or a quantity that overflows)
    propagates.

    Raises:
        ValueError: If steps < 2 (the inertia rate needs 3 samples),
            before any work.
    """
    if steps < 2:
        raise ValueError(f"verify needs at least 2 steps, got steps={steps}")
    scaled, e = kinematics.unit_scaled(config)
    n, a, b, p = scaled.N, scaled.a, scaled.b, scaled.p
    residual_max = kinematics.eom_residual(
        scaled, couplings, kinematics.certification_grid(grid))

    init = kinematics.state_at(scaled, 0.0)
    # Each RK4 chunk is folded into per-sample conserved quantities and
    # dropped; the last chunk's final sample is what the rk4 gate reads.
    series = constants.ConservedSeries(couplings, steps + 1)
    for chunk in dynamics.rk4_chunks(init, couplings, dt, steps):
        series.add(chunk)
        t_end, final = float(chunk.t[-1]), chunk.q[-1].copy()
        # Freed before the next chunk is allocated.
        del chunk
    probes = np.array([0.3, 1.7, 5.9, t_end])
    reference = kinematics.bodies_at(scaled, np.arange(n), probes[:, None], 1)[0]
    propagated = dynamics.spectral_propagate(init, couplings, probes).q
    # An error whose square overflows is inf and fails its gate.
    with np.errstate(over="ignore"):
        rk4_error = float(np.max(kinematics.planar_norm(final - reference[-1])))
        spectral_error = float(np.max(kinematics.planar_norm(propagated - reference)))

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

    # Lengths scale back by 2^e and quadratic quantities by 2^2e.
    return {
        "N": n,
        "p": p,
        "a": config.a,
        "b": config.b,
        "kappa": couplings.as_dict(),
        "residual_max": math.ldexp(residual_max, e),
        "rk4_final_error": math.ldexp(rk4_error, e),
        "t_end": t_end,
        "periods": t_end / math.tau,
        "spectral_error": math.ldexp(spectral_error, e),
        "drift": {key: math.ldexp(value, e if key == "g" else 2 * e)
                  for key, value in report.drift.items()},
        "relative_drift": relative_drift,
        "inertia_rate_max": math.ldexp(inertia_rate_max, 2 * e),
        "ok": not failures,
        "failures": failures,
    }
