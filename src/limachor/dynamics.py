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
``rk4_integrate`` joins them.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from limachor.coefficients import CouplingVector
from limachor.kinematics import Trajectory

# Samples per RK4 block: each block after the first is one product
# with R^64 (see rk4_chunks).
_RK4_BLOCK = 64
# Samples per RK4 chunk after the first: 32 blocks.  Each chunk costs a
# fixed number of numpy calls, so shorter chunks cost time per run.
_RK4_CHUNK = 32 * _RK4_BLOCK


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
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, and B steps are exactly
    y <- R(dt A)^B y.  R(dt A) is built once from the couplings'
    Laplacian (no eigenbasis).  The first B = 64 samples are taken one
    step at a time; every later block of B samples is then the block
    before it times R^B, one matrix product per block.  Each product
    has 2B rows, few enough that BLAS runs it on one thread at small
    N.  Deterministic for fixed inputs.

    Chunk i holds samples [i * _RK4_CHUNK, (i + 1) * _RK4_CHUNK), and
    the last one runs through sample ``steps``.  Each chunk's products
    end on a block boundary, one sample past the chunk: that sample
    opens the next chunk.  So each product groups its rows as one
    whole-run array would, and the samples have the same bits whatever
    the chunking.  Each chunk is a new array (the B samples before its
    products are copied in front of them), so a chunk the caller keeps
    never changes.  Memory is O(_RK4_CHUNK * N + N^2).

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
    step_t = _rk4_step(couplings, dt).T
    if steps > _RK4_BLOCK:
        with np.errstate(over="ignore", invalid="ignore"):
            jump = np.linalg.matrix_power(step_t, _RK4_BLOCK)

    tail = None   # the last _RK4_BLOCK samples computed so far
    start, stop = 0, min(_RK4_CHUNK + 1, steps + 1)
    while start <= steps:
        # Sample, coordinate, state entry: a run of consecutive samples
        # is one contiguous (2 * rows, 2N) matrix, advanced by right
        # products.  y computes samples [start, stop) after `lead`
        # samples copied from the ones before.
        lead = 0 if tail is None else _RK4_BLOCK
        y = np.empty((lead + stop - start, 2, 2 * n))
        rows = y.reshape(-1, 2 * n)
        with np.errstate(over="ignore", invalid="ignore"):
            if tail is None:
                y[0, :, :n] = q0.T
                y[0, :, n:] = v0.T
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
        # Chunk i starts at sample i * _RK4_CHUNK: every chunk but the
        # last leaves the last sample it computed to open the next.
        begin = max(start - 1, 0)
        piece = y[max(lead - 1, 0):len(y) - (stop <= steps)]
        if not np.isfinite(piece).all():
            raise ValueError(
                f"RK4 left the finite float range with dt={dt}, steps={steps}: "
                f"the step is beyond RK4's stability limit or the motion "
                f"outgrows float64")
        tail = y[-_RK4_BLOCK:].copy()
        state = piece.transpose(0, 2, 1)
        yield Trajectory(t0 + np.arange(begin, begin + len(piece)) * dt,
                         state[:, :n], state[:, n:])
        # The caller's reference is then the only one, so a chunk the
        # caller drops is freed before the next one is allocated.
        del y, rows, piece, state
        start, stop = stop, min(stop + _RK4_CHUNK, steps + 1)


def rk4_integrate(initial: Trajectory, couplings: CouplingVector,
                  dt: float, steps: int) -> Trajectory:
    """The whole RK4 run of ``rk4_chunks``, as one trajectory.

    The samples are the chunks' samples, in one (steps + 1, 2, 2N)
    array (sample, coordinate, state entry) of which ``q`` and ``v``
    are views: the chunks' own layout, so that a kernel run over the
    whole trajectory sees the strides it sees over the chunks.  It is
    allocated after the first chunk, so a size numpy refuses fails early.

    Raises:
        ValueError: As ``rk4_chunks``.
    """
    n, start = couplings.N, 0
    for chunk in rk4_chunks(initial, couplings, dt, steps):
        if start == 0:   # the first chunk has passed the input checks
            state = np.empty((steps + 1, 2, 2 * n)).transpose(0, 2, 1)
            times = np.empty(steps + 1)
        stop = start + chunk.t.size
        times[start:stop] = chunk.t
        state[start:stop, :n] = chunk.q
        state[start:stop, n:] = chunk.v
        start = stop
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
