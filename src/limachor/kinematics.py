"""Analytic evaluation of the p-limacon choreography.

The shared orbit is a(cos t, sin t) + b(cos pt, sin pt); body k runs
the same curve with its parameter advanced by 2*pi*k/N.  Positions,
velocities and accelerations are exact trigonometric expressions, all
computed by one array evaluator over any grid of bodies and times; a
caller asks it for only the leading derivatives it reads.  The
equations-of-motion residual measures how well a given coupling vector
reproduces those accelerations, and the CSV export formats each
distinct (x, y, vx, vy) row once, since every body retraces the same
curve points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from limachor.coefficients import CouplingVector

# Beyond this magnitude, trig arguments are reduced mod 2*pi first so
# long integrations do not lose phase accuracy.
_REDUCE_ABOVE = 1e6

# Distinct CSV rows formatted per batch.
_FORMAT_CHUNK = 1 << 16


@dataclass(frozen=True)
class CurveParams:
    """The p-limacon a(cos t, sin t) + b(cos pt, sin pt), a*b != 0."""

    a: float
    b: float
    p: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(
                f"curve amplitudes must be finite, got a={self.a}, b={self.b}")
        if self.a == 0 or self.b == 0:
            raise ValueError("curve requires a != 0 and b != 0")
        if self.p in (-1, 0, 1):
            raise ValueError(f"p={self.p} degenerates the curve; need |p| >= 2")


@dataclass(frozen=True)
class ChoreoConfig:
    """A curve plus the number of bodies sharing it.

    Admissibility of (p, N) is enforced at solver entry, not here, so
    inadmissible configurations can still be inspected.
    """

    curve: CurveParams
    N: int

    def __post_init__(self):
        if self.N < 4:
            raise ValueError(f"need at least 4 bodies, got N={self.N}")
        a, b, p = self.curve.a, self.curve.b, self.curve.p
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


def make_config(N: int, p: int, a: float = 1.2, b: float = 1.0) -> ChoreoConfig:
    """Convenience constructor for a choreography configuration."""
    return ChoreoConfig(CurveParams(a, b, p), N)


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
    """States at strictly increasing times, stored as arrays.

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


def _derivatives(curve: CurveParams, theta, count: int = 3):
    """The first ``count`` of position, velocity, acceleration at parameters theta.

    The only evaluator of the curve.  ``theta`` is an array (or a
    scalar); each result has shape ``theta.shape + (2,)`` and is the
    same, bit for bit, whatever the count.
    """
    if count not in (1, 2, 3):
        raise ValueError(f"derivative count must be 1, 2 or 3, got {count}")
    a, b, p = curve.a, curve.b, curve.p
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


def _phase(t, k, N: int):
    # Same operation order on every path, so the k-shift identity holds
    # bit-for-bit.
    return t + (math.tau * k) / N


def bodies_at(config: ChoreoConfig, k, t, count: int = 3):
    """Position, velocity, acceleration of body k at time t, elementwise.

    Returns the first ``count`` of the three: 1 gives ``(pos,)``, 2
    gives ``(pos, vel)`` and 3 (the default) ``(pos, vel, acc)``; each
    array is bit-identical whatever the count.  ``k`` and ``t``
    broadcast against each other, and each result has shape
    ``broadcast(k, t).shape + (2,)``; e.g. ``k = np.arange(N)`` and
    ``t`` of shape (S, 1) give (S, N, 2).  Indices are not checked:
    every k must lie in [0, N).

    Raises:
        ValueError: If count is not 1, 2 or 3.
    """
    return _derivatives(config.curve, _phase(t, k, config.N), count)


def body_state(config: ChoreoConfig, k: int, t: float):
    """Position and velocity of body k at time t.

    Raises:
        IndexError: If k is not in [0, N).
    """
    if not 0 <= k < config.N:
        raise IndexError(f"body index {k} outside [0, {config.N})")
    return bodies_at(config, k, t, 2)


def state_at(config: ChoreoConfig, t: float) -> SystemState:
    """Analytic state of the whole system at time t."""
    pos, vel = bodies_at(config, np.arange(config.N), t, 2)
    return SystemState(t, pos, vel)


def initial_state(config: ChoreoConfig) -> SystemState:
    """Analytic state at t = 0."""
    return state_at(config, 0.0)


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


def sample_trajectory(config: ChoreoConfig, t0: float, t1: float,
                      count: int) -> Trajectory:
    """Uniform analytic samples on [t0, t1], both ends included.

    Raises:
        ValueError: If t0 or t1 is not finite, t1 <= t0, or count < 2.
    """
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ValueError(f"bad range: t1={t1} must exceed t0={t0}, both finite")
    if count < 2:
        raise ValueError(f"need at least 2 samples, got {count}")
    times = np.linspace(t0, t1, count)
    q, v = bodies_at(config, np.arange(config.N), times[:, None], 2)
    return Trajectory(times, q, v)


def _row_texts(traj: Trajectory) -> np.ndarray:
    """``x,y,vx,vy`` text of every (sample, body), as an (S, N) object array.

    Each distinct row is formatted once: the bodies of a choreography
    retrace the same curve points, so an analytic export repeats its rows
    many times over.  Rows are grouped by the bit patterns of all four
    floats, not by value, because -0.0 == 0.0 while their reprs differ.
    """
    n_samples, n_bodies = traj.q.shape[:2]
    rows = np.concatenate((traj.q, traj.v), axis=2, dtype=np.float64)
    bits = rows.reshape(n_samples * n_bodies, 4).view(np.int64)
    order = np.lexsort(bits.T)
    ranked = bits[order]
    # A run of bit-identical rows starts wherever a row differs from the
    # one sorted before it.
    starts = np.ones(len(ranked), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    distinct = ranked[starts].view(np.float64)
    formatted = np.empty(len(distinct), dtype=object)
    # Python floats are made one chunk of rows at a time, so they never
    # outweigh the text they become.
    for start in range(0, len(distinct), _FORMAT_CHUNK):
        columns = distinct[start:start + _FORMAT_CHUNK].T.tolist()
        formatted[start:start + _FORMAT_CHUNK] = [
            "%r,%r,%r,%r" % row for row in zip(*columns)]
    texts = np.empty(len(ranked), dtype=object)
    texts[order] = formatted[np.cumsum(starts) - 1]
    return texts.reshape(n_samples, n_bodies)


def _sample_blocks(traj: Trajectory) -> list[str]:
    """The CSV rows of each sample, one string per sample."""
    # A sample's block is its time joined between these pieces, which
    # carry the body index and the row text of each body.
    pieces = [""] + [f",{k},%s\n" for k in range(traj.q.shape[1])]
    return [repr(t).join(pieces) % tuple(row)
            for t, row in zip(traj.t.tolist(), _row_texts(traj).tolist())]


def trajectory_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV: t,body,x,y,vx,vy.

    One row per (sample, body), sorted by t then body.  Coordinates are
    formatted as float64 in the shortest representation that round-trips
    exactly.  Each distinct (x, y, vx, vy) row is formatted once, so an
    analytic choreography, whose bodies retrace the same curve points,
    costs one format per distinct row, and each sample's block is filled
    by one ``%`` with N substitutions.  Memory is O(S*N): every distinct
    row's text is held until the blocks are formatted, and freed before
    they are joined.
    """
    return "".join(["t,body,x,y,vx,vy\n"] + _sample_blocks(traj))
