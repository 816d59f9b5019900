"""Analytic evaluation of the p-limacon choreography.

The shared orbit is a(cos t, sin t) + b(cos pt, sin pt); body k runs
the same curve with its parameter advanced by 2*pi*k/N.  Positions,
velocities and accelerations are exact trigonometric expressions, all
computed by one array evaluator over any grid of bodies and times; a
caller asks it for only the leading derivatives it reads.  Every
motion value is a ``Trajectory`` of array samples: ``state_at`` gives
the one-sample state that both dynamics engines start from, and
``sample_trajectory`` a uniform run.  ``unit_scaled`` rescales a
curve exactly by a power of two, for the analyses (``verify``,
``has_collision``, ``min_pair_distance``) whose squares would underflow
at tiny amplitudes.
The equations-of-motion residual measures how well a given coupling
vector reproduces those accelerations.  Both CSV exports hand their
text out one sample block at a time, so it is never held whole.  The
analytic export evaluates and formats each distinct curve angle once,
since body k at time t sits at angle t + 2*pi*k/N and the bodies
retrace the same points; any other trajectory is formatted row by row.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from limachor.coefficients import CouplingVector

# Distinct CSV rows formatted by one ``%``: their Python floats exist
# one chunk at a time, so they never outweigh the text they become.
_FORMAT_CHUNK = 1 << 12
_CSV_HEADER = "t,body,x,y,vx,vy\n"


@dataclass(frozen=True)
class ChoreoConfig:
    """N bodies sharing the p-limacon a(cos t, sin t) + b(cos pt, sin pt).

    Needs finite a, b with a*b != 0, |p| >= 2 and N >= 4, checked in
    that order.  Admissibility of (p, N) is enforced at solver entry,
    not here, so inadmissible configurations can still be inspected.
    """

    N: int
    p: int
    a: float = 1.2
    b: float = 1.0

    def __post_init__(self):
        a, b, p = self.a, self.b, self.p
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"curve amplitudes must be finite, got a={a}, b={b}")
        if a == 0 or b == 0:
            raise ValueError("curve requires a != 0 and b != 0")
        if p in (-1, 0, 1):
            raise ValueError(f"p={p} degenerates the curve; need |p| >= 2")
        if self.N < 4:
            raise ValueError(f"need at least 4 bodies, got N={self.N}")
        # N (a^2 + p^2 b^2) is twice the closed-form kinetic energy; where
        # it overflows, so do the conserved quantities computed from it.
        try:
            twice_kinetic = self.N * (a * a + p * p * b * b)
        except OverflowError:  # the int p * p (or N) is beyond any float
            raise ValueError(
                f"p={p} too large: N (a^2 + p^2 b^2) does not fit in a float "
                f"for N={self.N}") from None
        if not math.isfinite(twice_kinetic):
            raise ValueError(
                f"curve amplitudes a={a}, b={b} too large: N (a^2 + p^2 b^2) "
                f"overflows for p={p}, N={self.N}")


def unit_scaled(config: ChoreoConfig) -> tuple[ChoreoConfig, int]:
    """``config`` with a and b scaled by 2^-e, and e = min(frexp(|a| + |b|)[1], 0).

    IEEE arithmetic commutes with power-of-two scaling wherever nothing
    underflows, so a length computed from the scaled curve is 2^-e
    times the original's and a quadratic quantity 2^-2e times, bit for
    bit.  On the scaled curve |a| + |b| >= 1/2, so the squares of tiny
    amplitudes no longer underflow; callers scale their results back
    with ``ldexp``.  Only curves with |a| + |b| < 1/2 are scaled, up,
    which is exact for every float: scaling down would round a
    subnormal amplitude, and ChoreoConfig already keeps N (a^2 + p^2 b^2)
    finite.
    """
    e = min(math.frexp(abs(config.a) + abs(config.b))[1], 0)
    return ChoreoConfig(config.N, config.p, math.ldexp(config.a, -e),
                        math.ldexp(config.b, -e)), e


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States at a sequence of times, stored as arrays.

    ``t`` has shape (S,); ``q`` and ``v`` have shape (S, N, 2) and hold
    every body's position and velocity at every sample.  Other shapes
    raise ValueError.  One instant is a one-sample trajectory (S = 1).
    """

    t: np.ndarray
    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        t, q, v = self.t, self.q, self.v
        if (t.ndim != 1 or q.ndim != 3 or q.shape[0] != t.size or q.shape[2] != 2
                or v.shape != q.shape):
            raise ValueError(
                f"trajectory arrays must be (S,), (S, N, 2), (S, N, 2); got "
                f"{t.shape}, {q.shape}, {v.shape}")

    @property
    def n_bodies(self) -> int:
        return self.q.shape[1]


def bodies_at(config: ChoreoConfig, k, t, count: int = 3):
    """Position, velocity, acceleration of body k at time t, elementwise.

    The curve's evaluator; only the collision oracle's pair kernel
    repeats its position expression, bit for bit.  Returns the first
    ``count`` of the three: 1 gives ``(pos,)``, 2 gives ``(pos, vel)``
    and 3 (the default) ``(pos, vel, acc)``; each array is bit-identical
    whatever the count.  ``k`` and ``t`` broadcast against each other, and each
    result has shape ``broadcast(k, t).shape + (2,)``; e.g.
    ``k = np.arange(N)`` and ``t`` of shape (S, 1) give (S, N, 2).
    Indices are not checked: every k must lie in [0, N).

    Angles are used as computed: cos and sin reduce them exactly.

    Raises:
        ValueError: If count is not 1, 2 or 3, or if t is not finite or
            p*t overflows.
    """
    if count not in (1, 2, 3):
        raise ValueError(f"derivative count must be 1, 2 or 3, got {count}")
    a, b, p = config.a, config.b, config.p
    # Same operation order on every path, so the k-shift identity holds
    # bit-for-bit.
    theta = t + (math.tau * k) / config.N
    with np.errstate(over="ignore"):
        tp = p * theta
    finite = np.isfinite(tp)
    if not finite.all():
        bad = float(np.broadcast_to(t, finite.shape)[~finite][0])
        raise ValueError(f"curve angle p*t is not finite for p={p}, got t={bad!r}")
    c1, s1 = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(tp), np.sin(tp)
    out = [np.stack((a * c1 + b * cp, a * s1 + b * sp), axis=-1)]
    if count > 1:
        out.append(np.stack((-a * s1 - p * b * sp, a * c1 + p * b * cp), axis=-1))
    if count > 2:
        out.append(np.stack((-a * c1 - p * p * b * cp, -a * s1 - p * p * b * sp), axis=-1))
    return tuple(out)


def body_state(config: ChoreoConfig, k: int, t: float):
    """Position and velocity of body k at time t.

    Raises:
        IndexError: If k is not in [0, N).
    """
    if not 0 <= k < config.N:
        raise IndexError(f"body index {k} outside [0, {config.N})")
    return bodies_at(config, k, t, 2)


def state_at(config: ChoreoConfig, t: float) -> Trajectory:
    """Analytic state of the whole system at time t, as a one-sample trajectory.

    Raises:
        ValueError: If t is not finite or p*t overflows.
    """
    pos, vel = bodies_at(config, np.arange(config.N), t, 2)
    return Trajectory(np.array([t], dtype=float), pos[None], vel[None])


def planar_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean length along v's last axis, of length 2.

    sqrt(x*x + y*y) is what np.linalg.norm(v, axis=-1) computes, bit for
    bit, inf and NaN included, without its generic reduction.
    """
    x, y = v[..., 0], v[..., 1]
    return np.sqrt(x * x + y * y)


def certification_grid(count: int = 64) -> np.ndarray:
    """Uniform grid on [0, 2*pi), the default residual-certification grid.

    The residual is a low-degree trigonometric polynomial, so 64 points
    vastly oversample it.
    """
    return np.linspace(0.0, math.tau, count, endpoint=False)


@np.errstate(over="ignore", invalid="ignore")
def eom_residual(config: ChoreoConfig, couplings: CouplingVector,
                 t_grid=None) -> float:
    """Worst equations-of-motion defect of the analytic choreography.

    For each grid time and each body, compares the exact acceleration
    against the coupling force, summed over the couplings' ``bonds()`` in
    O(grid * N * bonds) time (O(grid * N^2) for a dense free tail) and
    O(grid * N) memory; returns the largest Euclidean mismatch, not
    finite if it overflows.  Zero (to roundoff) certifies the couplings.

    Args:
        config: Curve and body count.
        couplings: Candidate coupling vector, sized for config.N.
        t_grid: Times to check; defaults to 64 uniform points on
            [0, 2*pi).

    Raises:
        ValueError: If the coupling vector does not match config.N, or
            the grid is empty (it would certify nothing).
    """
    if couplings.N != config.N:
        raise ValueError(
            f"couplings sized for N={couplings.N}, config has N={config.N}"
        )
    grid = certification_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("residual grid is empty, so it would certify nothing")
    n = config.N
    pos, _, acc = bodies_at(config, np.arange(n), grid[:, None])
    # Bodies k + ell and k - ell, for all k, are slices of this.
    ring = np.concatenate((pos, pos), axis=1)
    force = np.zeros_like(pos)
    for ell, coupling in couplings.bonds():
        force += coupling * (ring[:, ell:ell + n] + ring[:, n - ell:2 * n - ell] - 2.0 * pos)
    return float(np.max(planar_norm(acc - force)))


def _sample_times(t0: float, t1: float, count: int) -> np.ndarray:
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ValueError(f"bad range: t1={t1} must exceed t0={t0}, both finite")
    if count < 2:
        raise ValueError(f"need at least 2 samples, got {count}")
    return np.linspace(t0, t1, count)


def sample_trajectory(config: ChoreoConfig, t0: float, t1: float,
                      count: int) -> Trajectory:
    """Uniform analytic samples on [t0, t1], both ends included.

    Raises:
        ValueError: If t0 or t1 is not finite, t1 <= t0, or count < 2.
    """
    times = _sample_times(t0, t1, count)
    q, v = bodies_at(config, np.arange(config.N), times[:, None], 2)
    return Trajectory(times, q, v)


def _angle_texts(config: ChoreoConfig, times: np.ndarray):
    """Each distinct angle's ``x,y,vx,vy\\n`` text, formatted once, and its use.

    Returns the texts as an object array and, of shape (S, N), the
    index of the text every (sample, body) row reads.
    """
    # bodies_at's own expression, so every angle has the bits it computes.
    theta = times[:, None] + (math.tau * np.arange(config.N)) / config.N
    angles = theta.view(np.int64)
    # Sorted distinct bit patterns, then a binary search for each angle:
    # beside the angles this holds two S*N integer arrays at most, where
    # np.unique's inverse holds five.
    ordered = np.sort(angles, axis=None)
    bits = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    inverse = np.searchsorted(bits, angles)
    rows = np.concatenate(bodies_at(config, 0, bits.view(np.float64), 2), axis=1)
    texts = np.empty(len(rows), dtype=object)
    # One ``%`` per chunk of rows, split after the newline ending each.
    for start in range(0, len(rows), _FORMAT_CHUNK):
        chunk = rows[start:start + _FORMAT_CHUNK]
        texts[start:start + len(chunk)] = (("%r,%r,%r,%r\n" * len(chunk))
                                           % tuple(chunk.reshape(-1).tolist())
                                           ).splitlines(keepends=True)
    return texts, inverse


def _orbit_blocks(times: np.ndarray, texts: np.ndarray,
                  inverse: np.ndarray) -> Iterator[str]:
    """The CSV header, then each sample's N rows, built by one join."""
    yield _CSV_HEADER
    n_bodies = inverse.shape[1]
    # Body k's row is its three slots: the time, ",k," and its angle's text.
    slots = [""] * (3 * n_bodies)
    slots[1::3] = [f",{k}," for k in range(n_bodies)]
    for t, row in zip(times.tolist(), inverse):
        slots[0::3] = [repr(t)] * n_bodies
        slots[2::3] = texts[row].tolist()
        yield "".join(slots)


def orbit_csv(config: ChoreoConfig, t0: float, t1: float, count: int) -> Iterator[str]:
    """``trajectory_csv(sample_trajectory(config, t0, t1, count))`` in blocks.

    Returns an iterator of text blocks: the header, then one block of N
    rows per sample.  Joined, they are that export byte for byte.

    Body k at time t sits at curve angle t + 2*pi*k/N, so the export is
    built from the distinct angles: each is evaluated and its
    ``x,y,vx,vy`` text formatted once, and every (sample, body) row
    reuses the text of its angle.  Angles are grouped by bit pattern.
    An angle is never -0.0, so re-evaluating it as body 0 (adding
    2*pi*0/N = +0.0) leaves it unchanged.

    Every check, the one curve evaluation and the formatting of each
    distinct row happen before this returns, so a ValueError comes
    before any block.  The iterator only joins each sample's block from
    the formatted texts; beside them it holds one block at a time.

    Raises:
        ValueError: As ``sample_trajectory``.
    """
    times = _sample_times(t0, t1, count)
    texts, inverse = _angle_texts(config, times)
    return _orbit_blocks(times, texts, inverse)


def trajectory_blocks(traj: Trajectory) -> Iterator[str]:
    """``trajectory_csv(traj)`` in blocks: the header, then each sample's N rows.

    Each sample's block is its time joined between per-body pieces that
    carry the body index, filled by one ``%`` with its 4N floats.  Only
    one sample's floats and text are held at a time, beside ``traj``.
    """
    yield _CSV_HEADER
    pieces = [""] + [f",{k},%r,%r,%r,%r\n" for k in range(traj.q.shape[1])]
    for t, q, v in zip(traj.t.tolist(), traj.q, traj.v):
        yield repr(t).join(pieces) % tuple(
            np.concatenate((q, v), axis=1, dtype=np.float64).reshape(-1).tolist())


def trajectory_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV: t,body,x,y,vx,vy.

    One row per (sample, body), sorted by t then body.  Coordinates are
    formatted as float64 in the shortest representation that round-trips
    exactly.  This is ``trajectory_blocks`` joined; ``orbit_csv`` writes
    the same bytes for an analytic trajectory without sampling it.
    """
    return "".join(trajectory_blocks(traj))
