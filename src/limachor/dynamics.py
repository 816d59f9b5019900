"""Independent verification engines for the coupled linear system.

The force network is circulant over the body index, so the motion
splits into discrete Fourier modes whose stiffnesses are set by the
couplings.  Two engines exercise that system without reference to the
analytic orbit: a classical fixed-step RK4 integrator whose step
matrix is built from the direct O(N^2) pairwise force matrix, and an
exact spectral propagator in the real circulant eigenbasis.  The two
share no force code, which is what makes their agreement a meaningful
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from limachor.coefficients import CouplingVector
from limachor.kinematics import SystemState, Trajectory


@dataclass(frozen=True)
class InteractionSpec:
    """A coupling network with its precomputed spectral data.

    ``mode_stiffness[m]`` is the restoring stiffness of Fourier mode m
    over the body index; mode 0 (rigid translation) always has
    stiffness exactly zero, and mode m mirrors mode N - m.  The dense
    ``pair_matrix`` drives the direct force path; ``mode_basis`` is an
    orthonormal real cos/sin eigenbasis with ``basis_stiffness`` giving
    the stiffness of each basis column.
    """

    N: int
    couplings: CouplingVector
    mode_stiffness: np.ndarray    # (N,)
    pair_matrix: np.ndarray       # (N, N)
    pair_row_sum: np.ndarray      # (N,)
    mode_basis: np.ndarray        # (N, N), orthonormal columns
    basis_stiffness: np.ndarray   # (N,), stiffness per basis column


def _stiffness_spectrum(N: int, kappas: np.ndarray) -> np.ndarray:
    n = N // 2
    m = np.arange(n + 1)
    half = np.zeros(n + 1)
    for ell in range(1, n + 1):
        # The diametral bond of even N has no mirror partner, so it
        # enters once instead of twice.
        weight = 1.0 if (N % 2 == 0 and ell == n) else 2.0
        half += kappas[ell - 1] * weight * (1.0 - np.cos(math.tau * ell * m / N))
    # Mode m mirrors mode N - m.
    k = np.arange(N)
    return half[np.minimum(k, N - k)]


def _real_mode_basis(N: int, lam: np.ndarray):
    """Orthonormal cos/sin eigenbasis of any symmetric circulant on Z_N."""
    basis = np.empty((N, N))
    stiff = np.empty(N)
    k = np.arange(N)
    basis[:, 0] = 1.0 / math.sqrt(N)
    stiff[0] = lam[0]
    col = 1
    for m in range(1, (N - 1) // 2 + 1):
        ang = math.tau * m * k / N
        basis[:, col] = math.sqrt(2.0 / N) * np.cos(ang)
        basis[:, col + 1] = math.sqrt(2.0 / N) * np.sin(ang)
        stiff[col] = stiff[col + 1] = lam[m]
        col += 2
    if N % 2 == 0:
        basis[:, N - 1] = np.where(k % 2 == 0, 1.0, -1.0) / math.sqrt(N)
        stiff[N - 1] = lam[N // 2]
    return basis, stiff


def build_interaction(N: int, couplings: CouplingVector) -> InteractionSpec:
    """Precompute force and spectral data for a coupling network.

    For couplings solved on an admissible (N, p), the spectrum pins
    mode 1 to stiffness 1 and mode p mod N to stiffness p^2; that is
    the mode-space restatement of the balance condition.

    Raises:
        ValueError: If the coupling vector is not sized for N.
    """
    if couplings.N != N:
        raise ValueError(
            f"couplings sized for N={couplings.N}, expected N={N}"
        )
    lam = _stiffness_spectrum(N, couplings.kappas)
    pair = couplings.pair_matrix()
    basis, stiff = _real_mode_basis(N, lam)
    return InteractionSpec(N, couplings, lam, pair, pair.sum(axis=1), basis, stiff)


def accel(state: SystemState, spec: InteractionSpec) -> np.ndarray:
    """Direct pairwise force sum: sum over partners of kappa * (q_l - q_j).

    This is the O(N^2) reference path; the spectral engine never calls it.

    Raises:
        ValueError: If state and spec disagree on the body count.
    """
    if state.n_bodies != spec.N:
        raise ValueError(
            f"state has {state.n_bodies} bodies, spec expects {spec.N}"
        )
    pos = state.positions
    return spec.pair_matrix @ pos - spec.pair_row_sum[:, None] * pos


def rk4_integrate(initial: SystemState, spec: InteractionSpec,
                  dt: float, steps: int) -> Trajectory:
    """Classical fixed-step 4th-order Runge-Kutta integration.

    The system y' = A y, y = (q, v), is linear, so one RK4 step is
    exactly y <- R(dt A) y with the RK4 stability polynomial
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24.  R(dt A) is built once from
    the direct pair matrix (no eigenbasis), and each step is one
    matrix product.  Deterministic for fixed inputs; the returned
    trajectory includes the initial state and one sample per step.

    Raises:
        ValueError: If dt is not finite and positive, steps < 1, or on
            a dimension mismatch.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"step size must be finite and positive, got dt={dt}")
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    if initial.n_bodies != spec.N:
        raise ValueError(
            f"state has {initial.n_bodies} bodies, spec expects {spec.N}"
        )
    n = spec.N
    eye = np.eye(2 * n)
    h_a = np.zeros((2 * n, 2 * n))
    h_a[:n, n:] = dt * np.eye(n)
    h_a[n:, :n] = dt * (spec.pair_matrix - np.diag(spec.pair_row_sum))
    # Horner form of R(z) = 1 + z (1 + z/2 (1 + z/3 (1 + z/4))).
    step = eye
    for k in (4.0, 3.0, 2.0, 1.0):
        step = eye + (h_a @ step) / k

    y = np.empty((steps + 1, 2 * n, 2))
    y[0, :n] = initial.positions
    y[0, n:] = initial.velocities
    for i in range(steps):
        np.matmul(step, y[i], out=y[i + 1])
    t = initial.t + np.arange(steps + 1) * dt
    return Trajectory.from_arrays(t, y[:, :n], y[:, n:])


def spectral_propagate(initial: SystemState, spec: InteractionSpec,
                       t: float) -> SystemState:
    """Exact propagation by time t through the circulant eigenbasis.

    Each mode evolves in closed form: harmonically for positive
    stiffness, linearly for zero, hyperbolically for negative (free
    coupling tails can produce unstable modes; the choreography never
    excites them, but perturbed states may).  Exact for every t up to
    roundoff.

    Raises:
        ValueError: On a dimension mismatch.
    """
    if initial.n_bodies != spec.N:
        raise ValueError(
            f"state has {initial.n_bodies} bodies, spec expects {spec.N}"
        )
    if t == 0.0:
        return SystemState(initial.t, initial.positions.copy(),
                           initial.velocities.copy())
    basis = spec.mode_basis
    lam = spec.basis_stiffness
    # Mode amplitudes of each coordinate.
    aq = basis.T @ initial.positions
    av = basis.T @ initial.velocities
    # q(t) = C q0 + S v0, v(t) = -lam S q0 + C v0 in every branch.
    cos_f = np.empty_like(lam)
    sin_f = np.empty_like(lam)
    for i, lm in enumerate(lam):
        if lm > 0.0:
            w = math.sqrt(lm)
            cos_f[i] = math.cos(w * t)
            sin_f[i] = math.sin(w * t) / w
        elif lm < 0.0:
            mu = math.sqrt(-lm)
            cos_f[i] = math.cosh(mu * t)
            sin_f[i] = math.sinh(mu * t) / mu
        else:
            cos_f[i] = 1.0
            sin_f[i] = t
    new_aq = cos_f[:, None] * aq + sin_f[:, None] * av
    new_av = (-lam * sin_f)[:, None] * aq + cos_f[:, None] * av
    return SystemState(initial.t + t, basis @ new_aq, basis @ new_av)
