"""Analytic evaluation of the p-limacon choreography.

The shared orbit is a(cos t, sin t) + b(cos pt, sin pt); body k runs
the same curve with its parameter advanced by 2*pi*k/N.  Positions,
velocities and accelerations are exact trigonometric expressions, all
computed by one array evaluator over any grid of bodies and times; a
caller asks it for only the leading derivatives it reads.  The
equations-of-motion residual measures how well a given coupling vector
reproduces those accelerations.  The analytic CSV export evaluates and
formats each distinct curve angle once, since body k at time t sits at
angle t + 2*pi*k/N and the bodies retrace the same points; any other
trajectory is formatted row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from limachor.coefficients import CouplingVector

# Beyond this magnitude, trig arguments are reduced mod 2*pi first so
# long integrations do not lose phase accuracy.
_REDUCE_ABOVE = 1e6

# Distinct CSV rows formatted by one ``%``: their Python floats exist
# one chunk at a time, so they never outweigh the text they become.
_FORMAT_CHUNK = 1 << 12


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


@dataclass(frozen=True)
class SystemState:
    """Positions and velocities of all bodies at one instant."""

    t: float
    positions: np.ndarray   # shape (N, 2)
    velocities: np.ndarray  # shape (N, 2)

    @property
    def n_bodies(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States at a sequence of times, stored as arrays.

    ``t`` has shape (S,); ``q`` and ``v`` have shape (S, N, 2) and hold
    every body's position and velocity at every sample.  Other shapes
    raise ValueError.
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


def _angle(theta: np.ndarray) -> np.ndarray:
    big = np.abs(theta) > _REDUCE_ABOVE
    if big.any():
        theta = np.array(theta)
        theta[big] = [math.remainder(x, math.tau) for x in theta[big].tolist()]
    return theta


def bodies_at(config: ChoreoConfig, k, t, count: int = 3):
    """Position, velocity, acceleration of body k at time t, elementwise.

    The only evaluator of the curve.  Returns the first ``count`` of the
    three: 1 gives ``(pos,)``, 2 gives ``(pos, vel)`` and 3 (the
    default) ``(pos, vel, acc)``; each array is bit-identical whatever
    the count.  ``k`` and ``t`` broadcast against each other, and each
    result has shape ``broadcast(k, t).shape + (2,)``; e.g.
    ``k = np.arange(N)`` and ``t`` of shape (S, 1) give (S, N, 2).
    Indices are not checked: every k must lie in [0, N).

    Raises:
        ValueError: If count is not 1, 2 or 3.
    """
    if count not in (1, 2, 3):
        raise ValueError(f"derivative count must be 1, 2 or 3, got {count}")
    a, b, p = config.a, config.b, config.p
    # Same operation order on every path, so the k-shift identity holds
    # bit-for-bit.
    theta = t + (math.tau * k) / config.N
    t1 = _angle(theta)
    tp = _angle(p * theta)
    c1, s1 = np.cos(t1), np.sin(t1)
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


def state_at(config: ChoreoConfig, t: float) -> SystemState:
    """Analytic state of the whole system at time t.

    Raises:
        ValueError: If t is not finite.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got t={t}")
    pos, vel = bodies_at(config, np.arange(config.N), t, 2)
    return SystemState(t, pos, vel)


def certification_grid(count: int = 64) -> np.ndarray:
    """Uniform grid on [0, 2*pi), the default residual-certification grid.

    The residual is a low-degree trigonometric polynomial, so 64 points
    vastly oversample it.
    """
    return np.linspace(0.0, math.tau, count, endpoint=False)


def eom_residual(config: ChoreoConfig, couplings: CouplingVector,
                 t_grid=None) -> float:
    """Worst equations-of-motion defect of the analytic choreography.

    For each grid time and each body, compares the exact acceleration
    against the coupling force sum over all partners; returns the
    largest Euclidean mismatch.  Zero (to roundoff) certifies the
    couplings as a solution.

    Args:
        config: Curve and body count.
        couplings: Candidate coupling vector, sized for config.N.
        t_grid: Times to check; defaults to 64 uniform points on
            [0, 2*pi).

    Raises:
        ValueError: If the coupling vector does not match config.N.
    """
    if couplings.N != config.N:
        raise ValueError(
            f"couplings sized for N={couplings.N}, config has N={config.N}"
        )
    grid = certification_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    kmat = couplings.pair_matrix()
    row_sum = kmat.sum(axis=1)
    pos, _, acc = bodies_at(config, np.arange(config.N), grid[:, None])
    force = np.matmul(kmat, pos) - row_sum[:, None] * pos
    return float(np.max(np.linalg.norm(acc - force, axis=-1), initial=0.0))


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


def _csv(times: np.ndarray, n_bodies: int, row_format: str, rows) -> str:
    """The CSV header, then one block of N rows per sample.

    ``rows`` yields one sequence per sample: the values that fill
    ``row_format`` for body 0, then body 1, and so on.  Each block is
    its time joined between per-body pieces that carry the body index,
    filled by one ``%``.
    """
    pieces = [""] + [f",{k},{row_format}\n" for k in range(n_bodies)]
    return "".join(["t,body,x,y,vx,vy\n"] + [
        repr(t).join(pieces) % tuple(row) for t, row in zip(times.tolist(), rows)])


def _angle_texts(config: ChoreoConfig, times: np.ndarray) -> list[list[str]]:
    """``x,y,vx,vy`` text of every (sample, body), each distinct angle formatted once."""
    # bodies_at's own expression, so every angle has the bits it computes.
    theta = times[:, None] + (math.tau * np.arange(config.N)) / config.N
    bits, inverse = np.unique(theta.reshape(-1).view(np.int64), return_inverse=True)
    rows = np.concatenate(bodies_at(config, 0, bits.view(np.float64), 2), axis=1)
    texts = np.empty(len(rows), dtype=object)
    # One ``%`` per chunk of rows, split at the newlines between them.
    for start in range(0, len(rows), _FORMAT_CHUNK):
        chunk = rows[start:start + _FORMAT_CHUNK]
        texts[start:start + len(chunk)] = ("\n".join(["%r,%r,%r,%r"] * len(chunk))
                                           % tuple(chunk.reshape(-1).tolist())).split("\n")
    return texts[inverse.reshape(theta.shape)].tolist()


def orbit_csv(config: ChoreoConfig, t0: float, t1: float, count: int) -> str:
    """``trajectory_csv(sample_trajectory(config, t0, t1, count))``, byte for byte.

    Body k at time t sits at curve angle t + 2*pi*k/N, so the export is
    built from the distinct angles: each is evaluated and its
    ``x,y,vx,vy`` text formatted once, and every (sample, body) row
    reuses the text of its angle.  Angles are grouped by bit pattern.
    An angle is never -0.0, so re-evaluating it as body 0 (adding
    2*pi*0/N = +0.0) leaves it unchanged.  The angle and row arrays are
    freed before the blocks are built.

    Raises:
        ValueError: As ``sample_trajectory``.
    """
    times = _sample_times(t0, t1, count)
    return _csv(times, config.N, "%s", _angle_texts(config, times))


def trajectory_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV: t,body,x,y,vx,vy.

    One row per (sample, body), sorted by t then body.  Coordinates are
    formatted as float64 in the shortest representation that round-trips
    exactly, row by row: each sample's block is filled by one ``%`` with
    its 4N floats.  Memory is O(S*N), the text itself; only one sample's
    floats are held as Python objects at a time.  ``orbit_csv`` writes
    the same bytes for an analytic trajectory without sampling it.
    """
    rows = (np.concatenate((q, v), axis=1, dtype=np.float64).reshape(-1).tolist()
            for q, v in zip(traj.q, traj.v))
    return _csv(traj.t, traj.q.shape[1], "%r,%r,%r,%r", rows)
