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

# Samples per RK4 block: each block after the first is one product
# with R^64 (see rk4_integrate).
_RK4_BLOCK = 64


@dataclass(frozen=True)
class InteractionSpec:
    """A coupling network with its precomputed spectral data.

    ``mode_stiffness[m]`` is the restoring stiffness of Fourier mode m
    over the body index; mode 0 (rigid translation) always has
    stiffness exactly zero, and mode m mirrors mode N - m.  The dense
    ``pair_matrix`` drives the direct force path; ``mode_basis`` is an
    orthonormal real cos/sin eigenbasis whose column c belongs to mode
    (c + 1) // 2.
    """

    N: int
    mode_stiffness: np.ndarray    # (N,)
    pair_matrix: np.ndarray       # (N, N)
    mode_basis: np.ndarray        # (N, N), orthonormal columns


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


def _real_mode_basis(N: int) -> np.ndarray:
    """Orthonormal cos/sin eigenbasis of any symmetric circulant on Z_N.

    Columns 2m - 1 and 2m are the cosine and sine of mode m, and the
    last column of even N is mode N / 2, so column c belongs to mode
    (c + 1) // 2.
    """
    basis = np.empty((N, N))
    k = np.arange(N)
    basis[:, 0] = 1.0 / math.sqrt(N)
    for m in range(1, (N - 1) // 2 + 1):
        ang = math.tau * m * k / N
        basis[:, 2 * m - 1] = math.sqrt(2.0 / N) * np.cos(ang)
        basis[:, 2 * m] = math.sqrt(2.0 / N) * np.sin(ang)
    if N % 2 == 0:
        basis[:, N - 1] = np.where(k % 2 == 0, 1.0, -1.0) / math.sqrt(N)
    return basis


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
    return InteractionSpec(N, lam, couplings.pair_matrix(), _real_mode_basis(N))


def rk4_integrate(initial: SystemState, spec: InteractionSpec,
                  dt: float, steps: int) -> Trajectory:
    """Classical fixed-step 4th-order Runge-Kutta integration.

    The system y' = A y, y = (q, v), is linear, so one RK4 step is
    exactly y <- R(dt A) y with the RK4 stability polynomial
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, and B steps are exactly
    y <- R(dt A)^B y.  R(dt A) is built once from the direct pair
    matrix (no eigenbasis).  The first B = 64 samples are taken one
    step at a time; every later block of B samples is then the block
    before it times R^B, one matrix product per block.  Each product
    has 2B rows, few enough that BLAS runs it on one thread at small
    N.  Deterministic for fixed inputs; the returned trajectory
    includes the initial state and one sample per step.

    Raises:
        ValueError: If dt is not finite and positive, steps < 1, on a
            dimension mismatch, or if a sample leaves the finite float
            range.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"step size must be finite and positive, got dt={dt}")
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    if initial.n_bodies != spec.N:
        raise ValueError(
            f"state has {initial.n_bodies} bodies, spec expects {spec.N}"
        )
    n, pair = spec.N, spec.pair_matrix
    eye = np.eye(2 * n)
    h_a = np.zeros((2 * n, 2 * n))
    h_a[:n, n:] = dt * np.eye(n)
    h_a[n:, :n] = dt * (pair - np.diag(pair.sum(axis=1)))

    # Sample, coordinate, state entry: a run of consecutive samples is
    # one contiguous (2 * rows, 2N) matrix, advanced by right products.
    y = np.empty((steps + 1, 2, 2 * n))
    y[0, :, :n] = initial.positions.T
    y[0, :, n:] = initial.velocities.T
    rows = y.reshape(2 * (steps + 1), 2 * n)
    with np.errstate(over="ignore", invalid="ignore"):
        # Horner form of R(z) = 1 + z (1 + z/2 (1 + z/3 (1 + z/4))).
        step = eye
        for k in (4.0, 3.0, 2.0, 1.0):
            step = eye + (h_a @ step) / k
        step_t = step.T
        for i in range(min(_RK4_BLOCK, steps)):
            np.matmul(y[i], step_t, out=y[i + 1])
        if steps > _RK4_BLOCK:
            jump = np.linalg.matrix_power(step_t, _RK4_BLOCK)
            for start in range(_RK4_BLOCK + 1, steps + 1, _RK4_BLOCK):
                stop = min(start + _RK4_BLOCK, steps + 1)
                np.matmul(rows[2 * (start - _RK4_BLOCK):2 * (stop - _RK4_BLOCK)],
                          jump, out=rows[2 * start:2 * stop])
    if not np.isfinite(y).all():
        raise ValueError(
            f"RK4 left the finite float range with dt={dt}, steps={steps}: "
            f"the step is beyond RK4's stability limit or the motion "
            f"outgrows float64")
    t = initial.t + np.arange(steps + 1) * dt
    state = y.transpose(0, 2, 1)
    return Trajectory(t, state[:, :n], state[:, n:])


def _overflow(t: float, lam: np.ndarray) -> ValueError:
    cause = (f"mode stiffness {lam.min()} is unstable" if lam.min() < 0.0
             else "the motion outgrows float64")
    return ValueError(
        f"spectral propagation to t={t} left the finite float range: {cause}")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def spectral_propagate(initial: SystemState, spec: InteractionSpec,
                       times) -> Trajectory:
    """Exact propagation through the circulant eigenbasis, at a vector of times.

    ``times`` is a 1-D array of offsets in any order, repeats allowed;
    sample i of the result is the state at ``initial.t + times[i]``, and
    an offset of zero returns the initial state exactly.  Each mode
    evolves in closed form: harmonically for positive stiffness,
    linearly for zero, hyperbolically for negative (free coupling tails
    can produce unstable modes; the choreography never excites them,
    but perturbed states may).  Exact for every time up to roundoff,
    and each sample is the same, bit for bit, whatever else is in the
    batch.

    Raises:
        ValueError: On a dimension mismatch, if times is not 1-D or
            holds a non-finite time, or if a sample overflows.
    """
    if initial.n_bodies != spec.N:
        raise ValueError(
            f"state has {initial.n_bodies} bodies, spec expects {spec.N}"
        )
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D array, got shape {times.shape}")
    bad = ~np.isfinite(times)
    if bad.any():
        raise ValueError(
            f"spectral propagation needs finite times, got t={times[bad][0]}")
    basis = spec.mode_basis
    # Stiffness of each basis column.
    lam = spec.mode_stiffness[(np.arange(spec.N) + 1) // 2]
    rate = np.sqrt(np.abs(lam))
    phase = times[:, None] * rate
    # q(t) = C q0 + S v0, v(t) = -lam S q0 + C v0 in every branch; the
    # (T, N) tables hold C and S for every time and basis column.
    cos_f = np.where(lam > 0.0, np.cos(phase), 1.0)
    sin_f = np.where(lam > 0.0, np.sin(phase) / rate, times[:, None])
    # Unstable entries use math.cosh and math.sinh, which raise on
    # overflow; numpy's versions differ from them in the last bit.
    for i, j in zip(*np.nonzero(np.broadcast_to(lam < 0.0, phase.shape))):
        try:
            cos_f[i, j] = math.cosh(phase[i, j])
            sin_f[i, j] = math.sinh(phase[i, j]) / rate[j]
        except OverflowError:
            raise _overflow(float(times[i]), lam) from None
    # Mode amplitudes of each coordinate.
    aq = basis.T @ initial.positions
    av = basis.T @ initial.velocities
    cos_f, sin_f = cos_f[:, :, None], sin_f[:, :, None]
    q = basis @ (cos_f * aq + sin_f * av)
    v = basis @ ((-lam[:, None] * sin_f) * aq + cos_f * av)
    at_start = times == 0.0
    q[at_start] = initial.positions
    v[at_start] = initial.velocities
    finite = np.isfinite(q).all(axis=(1, 2)) & np.isfinite(v).all(axis=(1, 2))
    if not finite.all():
        raise _overflow(float(times[np.argmin(finite)]), lam)
    return Trajectory(initial.t + times, q, v)
