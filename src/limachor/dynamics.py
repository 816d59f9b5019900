"""Independent verification engines for the coupled linear system.

The force network is circulant over the body index, so the motion
splits into discrete Fourier modes whose stiffnesses are set by the
couplings.  Two engines exercise that system without reference to the
analytic orbit: a classical fixed-step RK4 integrator whose step
matrix is built from the couplings' dense Laplacian, and an exact
spectral propagator over the discrete Fourier modes via rfft, which
reads only the mode spectrum (``build_interaction``).  Both take the
same arguments, a one-sample ``Trajectory`` to start from and the
couplings, and each builds its own operator from the couplings; they
share no force code, which is what makes their agreement a meaningful
oracle.  RK4 yields its run in bounded chunks (``rk4_chunks``), so a
caller that reduces each chunk never holds the whole trajectory;
``rk4_integrate`` joins them.  RK4 stores its state coordinate-major,
each coordinate a (2N, samples) matrix with the samples contiguous, so
a block of samples advances in one stacked product and a reduction
over bodies reads whole sample rows.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from limachor.coefficients import CouplingVector
from limachor.kinematics import Trajectory

# Samples per RK4 block: each block after the first is one product
# with R^128 (see rk4_chunks).
_RK4_BLOCK = 128
# Samples per RK4 chunk: 16 blocks.  Each chunk costs a fixed number of
# numpy calls, so shorter chunks cost time per run.
_RK4_CHUNK = 16 * _RK4_BLOCK


def build_interaction(couplings: CouplingVector) -> np.ndarray:
    """The mode spectrum of a coupling network, in O(N bonds) work.

    Entry m of the (N // 2 + 1,) result is the restoring stiffness of
    rfft bin m over the body index: Fourier mode p shares bin
    min(p mod N, N - p mod N) with mode N - p, and bin 0 (rigid
    translation) always has stiffness exactly zero.  For couplings
    solved on an admissible (N, p), the spectrum pins mode 1 to
    stiffness 1 and mode p to stiffness p^2: the mode-space restatement
    of the balance condition.
    """
    m = np.arange(couplings.N // 2 + 1)
    lam = np.zeros(m.size)
    for ell, coupling in couplings.bonds():
        # The bond's stencil q_{k+ell} + q_{k-ell} - 2 q_k, in mode m.
        lam += 2.0 * coupling * (1.0 - np.cos(math.tau * ell * m / couplings.N))
    return lam


def _start(initial: Trajectory, n: int):
    """``initial``'s one sample as (t, q, v); a ValueError unless it is one sample of n bodies."""
    if initial.t.size != 1:
        raise ValueError(f"initial state must be one sample, got {initial.t.size} samples")
    if initial.n_bodies != n:
        raise ValueError(f"state has {initial.n_bodies} bodies, couplings are for N={n}")
    return initial.t[0], initial.q[0], initial.v[0]


def _rk4_step(couplings: CouplingVector, dt: float) -> np.ndarray:
    """R(dt A), A = [[0, I], [-L, 0]] for the couplings' Laplacian L (no eigenbasis)."""
    n = couplings.N
    eye = np.eye(2 * n)
    h_a = np.zeros((2 * n, 2 * n))
    h_a[:n, n:] = dt * np.eye(n)
    h_a[n:, :n] = -dt * couplings.laplacian()
    with np.errstate(over="ignore", invalid="ignore"):
        # Horner form of R(z) = 1 + z (1 + z/2 (1 + z/3 (1 + z/4))).
        step = eye
        for k in (4.0, 3.0, 2.0, 1.0):
            step = eye + (h_a @ step) / k
    return step


def rk4_chunks(initial: Trajectory, couplings: CouplingVector,
               dt: float, steps: int) -> Iterator[Trajectory]:
    """Classical fixed-step 4th-order Runge-Kutta, yielded in chunks of samples.

    The system y' = A y, y = (q, v), is linear, so one RK4 step is
    exactly y <- R(dt A) y with the RK4 stability polynomial
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, and k steps are exactly
    y <- R(dt A)^k y.  R(dt A) is built once from the couplings'
    Laplacian (no eigenbasis).  The first B = 128 samples come from 7
    doubling products: samples [k, 2k) are R^k times samples [0, k),
    for k = 1, 2, 4, ..., 64, each power the square of the last.  Every
    later block of B samples is then R^B times the block before it.

    Each chunk is coordinate-major: one (2, 2N, samples) array, whose
    coordinate c is the (2N, samples) matrix of state columns (q_c, v_c)
    with the samples contiguous; ``q`` and ``v`` are (S, N, 2) views of
    it.  So each block is one stacked product over both coordinates.
    Deterministic for fixed inputs.

    Chunk i holds samples [i * _RK4_CHUNK, (i + 1) * _RK4_CHUNK), and
    the last one runs through sample ``steps`` (2 to _RK4_CHUNK + 1
    samples).  Chunks start on block boundaries, so each product
    groups its columns as one whole-run array would, and the samples
    have the same bits whatever the chunking.  Each chunk is a new
    array (the B samples before it are kept as a copy), so a chunk the
    caller keeps never changes.  Memory is O(_RK4_CHUNK * N + N^2).

    Raises:
        ValueError: If dt is not finite and positive, steps < 1, or
            ``initial`` is not one sample of N bodies (when the first
            chunk is requested), or if a sample leaves the finite float
            range (in place of the chunk that holds it).
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"step size must be finite and positive, got dt={dt}")
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    n = couplings.N
    t0, q0, v0 = _start(initial, n)
    jump = _rk4_step(couplings, dt)
    tail = None   # the last _RK4_BLOCK samples computed so far
    # Every chunk array has room for the longest chunk, so the allocator
    # can give each chunk the memory the one before it freed.
    room = min(_RK4_CHUNK + 1, steps + 1)
    for start in range(0, steps, _RK4_CHUNK):
        # The last chunk takes the final sample too, so none holds one.
        stop = start + _RK4_CHUNK if start + _RK4_CHUNK < steps else steps + 1
        size = stop - start
        y = np.empty((2, 2 * n, room))[:, :, :size]
        with np.errstate(over="ignore", invalid="ignore"):
            if tail is None:
                y[:, :n, 0] = q0.T
                y[:, n:, 0] = v0.T
                # Doubling; on exit jump is R^_RK4_BLOCK if a block follows.
                k = 1
                while k < min(_RK4_BLOCK, size):
                    np.matmul(jump, y[:, :, :min(k, size - k)], out=y[:, :, k:2 * k])
                    if 2 * k < size:
                        jump = jump @ jump
                    k *= 2
            else:
                np.matmul(jump, tail[:, :, :size], out=y[:, :, :_RK4_BLOCK])
            for block in range(_RK4_BLOCK, size, _RK4_BLOCK):
                np.matmul(jump, y[:, :, block - _RK4_BLOCK:min(block, size - _RK4_BLOCK)],
                          out=y[:, :, block:block + _RK4_BLOCK])
        if not np.isfinite(y).all():
            raise ValueError(
                f"RK4 left the finite float range with dt={dt}, steps={steps}: "
                f"the step is beyond RK4's stability limit or the motion "
                f"outgrows float64")
        if stop <= steps:
            tail = y[:, :, -_RK4_BLOCK:].copy()
        state = y.transpose(2, 1, 0)
        yield Trajectory(t0 + np.arange(start, stop) * dt, state[:, :n], state[:, n:])
        # The caller's reference is then the only one, so a chunk the
        # caller drops is freed before the next one is allocated.
        del y, state


def rk4_integrate(initial: Trajectory, couplings: CouplingVector,
                  dt: float, steps: int) -> Trajectory:
    """The whole RK4 run of ``rk4_chunks``, as one trajectory.

    The samples are the chunks' samples, in one (2, 2N, steps + 1)
    array of which ``q`` and ``v`` are views: the chunks' own layout,
    so that a kernel run over the whole trajectory sees the strides it
    sees over the chunks.  It is allocated after the first chunk, so a
    size numpy refuses fails early.

    Raises:
        ValueError: As ``rk4_chunks``.
    """
    n, start = couplings.N, 0
    for chunk in rk4_chunks(initial, couplings, dt, steps):
        if start == 0:   # the first chunk has passed the input checks
            state = np.empty((2, 2 * n, steps + 1)).transpose(2, 1, 0)
            times = np.empty(steps + 1)
        stop = start + chunk.t.size
        times[start:stop] = chunk.t
        state[start:stop, :n] = chunk.q
        state[start:stop, n:] = chunk.v
        start = stop
        del chunk   # freed before the next chunk is allocated
    return Trajectory(times, state[:, :n], state[:, n:])


def _overflow(t: float, lam: np.ndarray) -> ValueError:
    cause = (f"mode stiffness {lam.min()} is unstable" if lam.min() < 0.0
             else "the motion outgrows float64")
    return ValueError(
        f"spectral propagation to t={t} left the finite float range: {cause}")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def spectral_propagate(initial: Trajectory, couplings: CouplingVector,
                       times) -> Trajectory:
    """Exact propagation of the discrete Fourier modes via rfft, at a vector of times.

    ``initial`` is one sample, and the modes evolve under the couplings'
    ``build_interaction`` spectrum.  ``times`` is a 1-D array of offsets
    in any order, repeats allowed; sample i of the result is the state
    at ``initial.t[0] + times[i]``, and an offset of zero returns the
    initial state exactly.  Each mode
    evolves in closed form: harmonically for positive stiffness,
    linearly for zero, hyperbolically for negative (free coupling tails
    can produce unstable modes; the choreography never excites them,
    but perturbed states may).  Exact for every time up to roundoff,
    and each sample is the same, bit for bit, whatever else is in the
    batch.

    Raises:
        ValueError: If ``initial`` is not one sample of N bodies, if
            times is not 1-D or holds a non-finite time, or if a sample
            overflows.
    """
    t0, q0, v0 = _start(initial, couplings.N)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D array, got shape {times.shape}")
    bad = ~np.isfinite(times)
    if bad.any():
        raise ValueError(
            f"spectral propagation needs finite times, got t={times[bad][0]}")
    lam = build_interaction(couplings)
    rate = np.sqrt(np.abs(lam))
    phase = times[:, None] * rate
    # q(t) = C q0 + S v0, v(t) = -lam S q0 + C v0 in every branch; the
    # (T, N // 2 + 1) tables hold C and S for every time and mode.
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
    # Mode amplitudes of each coordinate.  Positions and velocities go
    # through one transform each way: every call has a fixed cost that
    # dominates at small N.
    aq, av = np.fft.rfft(np.stack((q0, v0)), axis=1)
    cos_f, sin_f = cos_f[:, :, None], sin_f[:, :, None]
    q, v = np.fft.irfft(np.stack((cos_f * aq + sin_f * av,
                                  (-lam[:, None] * sin_f) * aq + cos_f * av)),
                        n=couplings.N, axis=2)
    at_start = times == 0.0
    q[at_start] = q0
    v[at_start] = v0
    finite = np.isfinite(q).all(axis=(1, 2)) & np.isfinite(v).all(axis=(1, 2))
    if not finite.all():
        raise _overflow(float(times[np.argmin(finite)]), lam)
    return Trajectory(t0 + times, q, v)
