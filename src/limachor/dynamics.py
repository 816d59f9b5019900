"""Independent verification engines for the coupled linear system.

The force network is circulant over the body index, so the motion
splits into discrete Fourier modes whose stiffnesses are set by the
couplings.  Two engines exercise that system without reference to the
analytic orbit: a classical fixed-step RK4 integrator whose step
matrix is built from the direct O(N^2) pairwise force matrix, and an
exact spectral propagator in the real circulant eigenbasis.  The two
share no force code, which is what makes their agreement a meaningful
oracle.  RK4 yields its run in bounded chunks (``rk4_chunks``), so a
caller that reduces each chunk never holds the whole trajectory;
``rk4_integrate`` joins them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from limachor.coefficients import CouplingVector
from limachor.kinematics import SystemState, Trajectory

# Samples per RK4 block: each block after the first is one product
# with R^64 (see rk4_chunks).
_RK4_BLOCK = 64
# Samples per RK4 chunk after the first: 32 blocks.  Each chunk costs a
# fixed number of numpy calls, so shorter chunks cost time per run.
_RK4_CHUNK = 32 * _RK4_BLOCK


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


def _rk4_step(spec: InteractionSpec, dt: float) -> np.ndarray:
    """R(dt A), built from the direct pair matrix (no eigenbasis)."""
    n, pair = spec.N, spec.pair_matrix
    eye = np.eye(2 * n)
    h_a = np.zeros((2 * n, 2 * n))
    h_a[:n, n:] = dt * np.eye(n)
    h_a[n:, :n] = dt * (pair - np.diag(pair.sum(axis=1)))
    with np.errstate(over="ignore", invalid="ignore"):
        # Horner form of R(z) = 1 + z (1 + z/2 (1 + z/3 (1 + z/4))).
        step = eye
        for k in (4.0, 3.0, 2.0, 1.0):
            step = eye + (h_a @ step) / k
    return step


def rk4_chunks(initial: SystemState, spec: InteractionSpec,
               dt: float, steps: int) -> Iterator[Trajectory]:
    """Classical fixed-step 4th-order Runge-Kutta, yielded in chunks of samples.

    The system y' = A y, y = (q, v), is linear, so one RK4 step is
    exactly y <- R(dt A) y with the RK4 stability polynomial
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, and B steps are exactly
    y <- R(dt A)^B y.  R(dt A) is built once from the direct pair
    matrix (no eigenbasis).  The first B = 64 samples are taken one
    step at a time; every later block of B samples is then the block
    before it times R^B, one matrix product per block.  Each product
    has 2B rows, few enough that BLAS runs it on one thread at small
    N.  Deterministic for fixed inputs.

    The chunks together hold the initial state and one sample per step,
    in order.  The first chunk holds the initial state and _RK4_CHUNK
    samples, each later one at most _RK4_CHUNK; every chunk but the last
    ends on a block boundary, so each product groups its rows as one
    whole-run array would, and the samples have the same bits whatever
    the chunking.  Each chunk is a new array (the B samples before it
    are copied in front of it), so a chunk the caller keeps never
    changes.  Memory is O(_RK4_CHUNK * N + N^2).

    Raises:
        ValueError: If dt is not finite and positive, steps < 1 or on a
            dimension mismatch (when the first chunk is requested), or
            if a sample leaves the finite float range (in place of the
            chunk that holds it).
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
    step_t = _rk4_step(spec, dt).T
    if steps > _RK4_BLOCK:
        with np.errstate(over="ignore", invalid="ignore"):
            jump = np.linalg.matrix_power(step_t, _RK4_BLOCK)

    tail = None   # the last _RK4_BLOCK samples before the chunk
    start, stop = 0, min(_RK4_CHUNK + 1, steps + 1)
    while start <= steps:
        # Sample, coordinate, state entry: a run of consecutive samples
        # is one contiguous (2 * rows, 2N) matrix, advanced by right
        # products.  y holds `lead` samples before the chunk's first.
        lead = 0 if tail is None else _RK4_BLOCK
        y = np.empty((lead + stop - start, 2, 2 * n))
        rows = y.reshape(-1, 2 * n)
        with np.errstate(over="ignore", invalid="ignore"):
            if tail is None:
                y[0, :, :n] = initial.positions.T
                y[0, :, n:] = initial.velocities.T
                for i in range(min(_RK4_BLOCK, steps)):
                    np.matmul(y[i], step_t, out=y[i + 1])
                first = _RK4_BLOCK + 1
            else:
                y[:lead] = tail
                first = lead
            for block in range(first, len(y), _RK4_BLOCK):
                end = min(block + _RK4_BLOCK, len(y))
                np.matmul(rows[2 * (block - _RK4_BLOCK):2 * (end - _RK4_BLOCK)],
                          jump, out=rows[2 * block:2 * end])
        if not np.isfinite(y[lead:]).all():
            raise ValueError(
                f"RK4 left the finite float range with dt={dt}, steps={steps}: "
                f"the step is beyond RK4's stability limit or the motion "
                f"outgrows float64")
        tail = y[-_RK4_BLOCK:].copy()
        state = y[lead:].transpose(0, 2, 1)
        yield Trajectory(initial.t + np.arange(start, stop) * dt,
                         state[:, :n], state[:, n:])
        # The caller's reference is then the only one, so a chunk the
        # caller drops is freed before the next one is allocated.
        del y, rows, state
        start, stop = stop, min(stop + _RK4_CHUNK, steps + 1)


def rk4_integrate(initial: SystemState, spec: InteractionSpec,
                  dt: float, steps: int) -> Trajectory:
    """The whole RK4 run of ``rk4_chunks``, as one trajectory.

    The samples are the chunks' samples, in one (steps + 1, 2, 2N)
    array (sample, coordinate, state entry) of which ``q`` and ``v``
    are views: the chunks' own layout, so that a kernel run over the
    whole trajectory sees the strides it sees over the chunks.

    Raises:
        ValueError: As ``rk4_chunks``.
    """
    chunks = list(rk4_chunks(initial, spec, dt, steps))
    n = spec.N
    state = np.empty((steps + 1, 2, 2 * n)).transpose(0, 2, 1)
    start = 0
    for chunk in chunks:
        stop = start + chunk.t.size
        state[start:stop, :n] = chunk.q
        state[start:stop, n:] = chunk.v
        start = stop
    return Trajectory(np.concatenate([chunk.t for chunk in chunks]),
                      state[:, :n], state[:, n:])


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
