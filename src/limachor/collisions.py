"""Collision analysis for choreographies on a p-limacon.

Bodies 0 and k stay at squared distance
A^2 + B^2 + 2AB cos((p - 1)t + phase) with A = 2|a| sin(pi k / N) and
B = 2|b sin(pi p k / N)|, so the pair can meet exactly when A = B, and
only at the |p - 1| instants per period where the two rotating terms
anti-align.  The analytic predicate built on that condition is
cross-checked by a numeric minimum-distance oracle that knows nothing
about it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from limachor.kinematics import ChoreoConfig, bodies_at

# Relative to |a| + |b|: a configuration this close to the ratio locus
# is examined by the refined oracle; it is certified as colliding only
# below CERTIFY_TOL, otherwise flagged as suspect.
SUSPECT_TOL = 1e-8
CERTIFY_TOL = 1e-10

# Coarse samples per period in min_pair_distance's first pass.
_PAIR_GRID = 1024


@dataclass(frozen=True)
class CollisionRatio:
    """One dangerous value of a/b, tagged by the separation that causes it."""

    k: int
    ratio: float


@dataclass(frozen=True)
class CollisionWitness:
    """A concrete collision event: who meets whom, when, and where."""

    k: int
    t_star: float
    bodies: tuple[int, int]
    point: np.ndarray  # (2,)
    min_distance: float

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "t": self.t_star,
            "bodies": [self.bodies[0], self.bodies[1]],
            "point": self.point.tolist(),
            "distance": self.min_distance,
        }


@dataclass(frozen=True)
class CollisionReport:
    """Collision verdict with witnesses sorted by separation then time.

    ``suspects`` lists separations that sit within SUSPECT_TOL * (|a| + |b|)
    of the collision locus without being certified by the oracle.
    """

    collides: bool
    witnesses: list[CollisionWitness]
    suspects: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class PairMinimum:
    """Numeric minimum of |q_0(t) - q_k(t)| over one period."""

    min_distance: float
    argmin_t: float


def collision_ratios(N: int, p: int) -> list[CollisionRatio]:
    """All a/b values at which some body pair can collide.

    For each separation k the dangerous quotient is
    +- sin(pi p k / N) / sin(pi k / N); exact zeros are excluded (they
    would require a = 0) and values repeated across separations are
    deduplicated, keeping the smallest k.  Separation N - k mirrors k
    exactly, so only k <= N/2 is evaluated.  At most 2(N - 1) values.

    Raises:
        ValueError: If |p| < 2 or N < 4, as ChoreoConfig does.
    """
    # With a = b = 1 the pair amplitudes are the two sines themselves.
    unit = ChoreoConfig(N, p, 1.0, 1.0)
    found: list[CollisionRatio] = []
    for k in range(1, N // 2 + 1):
        first, second = _pair_amplitudes(unit, k)
        if second == 0.0:
            continue  # sine vanishes exactly: no finite a/b
        magnitude = abs(second / first)
        for value in (magnitude, -magnitude):
            if not any(abs(value - r.ratio) <= 1e-12 for r in found):
                found.append(CollisionRatio(k, value))
    return sorted(found, key=lambda r: (r.k, r.ratio))


def _pair_amplitudes(config: ChoreoConfig, k: int) -> tuple[float, float]:
    """Signed phasor amplitudes of q_0 - q_k: (a sin(pi k/N), b sin(pi p k/N)).

    The second sine is zeroed exactly when p*k is a multiple of N.
    """
    n, p = config.N, config.p
    first = config.a * math.sin(math.pi * k / n)
    if (p * k) % n == 0:
        second = 0.0
    else:
        second = config.b * math.sin(math.pi * p * k / n)
    return first, second


def _pair_sq_dist(config: ChoreoConfig, k: int, ts: np.ndarray) -> np.ndarray:
    """Squared distance between bodies 0 and k at times ts."""
    pos = bodies_at(config, np.array([0, k]), ts[:, None], 1)[0]
    dx, dy = (pos[:, 0] - pos[:, 1]).T
    return dx * dx + dy * dy


def min_pair_distance(config: ChoreoConfig, k: int) -> PairMinimum:
    """Numeric minimum of |q_0(t) - q_k(t)| over t in [0, 2*pi).

    Samples the squared distance on a uniform grid, then repeatedly
    resamples one grid step either side of the best sample on a grid
    32 times finer, until the step is at most 1e-12 in t.  The squared
    distance is a trigonometric polynomial of degree |p| + 1, smooth on
    the scale of the grid, so its minimum lies within a step of the best
    sample.  This oracle is independent of the analytic collision
    predicate.

    Raises:
        IndexError: If k is outside [1, N-1].
    """
    if not 1 <= k <= config.N - 1:
        raise IndexError(f"separation {k} outside [1, {config.N - 1}]")
    ts = np.linspace(0.0, math.tau, _PAIR_GRID, endpoint=False)
    step = math.tau / _PAIR_GRID
    while True:
        sq = _pair_sq_dist(config, k, ts)
        best = int(np.argmin(sq))
        if step <= 1e-12:
            break
        ts = ts[best] + np.linspace(-step, step, 65)
        step /= 32
    return PairMinimum(math.sqrt(max(float(sq[best]), 0.0)),
                       float(ts[best]) % math.tau)


def _witnesses_for(config: ChoreoConfig, k: int) -> list[CollisionWitness]:
    """All collision events with separation k, assuming the locus is hit."""
    n, p = config.N, config.p
    first, second = _pair_amplitudes(config, k)
    # Bodies 0 and k meet when the two rotating terms of their
    # difference anti-align: (p-1) t + pi (p-1) k / N = phase0 mod 2*pi.
    phase0 = math.pi if first * second > 0 else 0.0
    base = (phase0 - math.pi * (p - 1) * k / n) / (p - 1)
    roots = (base + math.tau * np.arange(abs(p - 1)) / (p - 1)) % math.tau
    # Bodies j and j + k meet 2*pi*j/N earlier than bodies 0 and k.
    js = np.arange(n)
    times = (roots[:, None] - math.tau * js / n) % math.tau
    pairs = np.stack((js, (js + k) % n), axis=-1)
    pos = bodies_at(config, pairs, times[:, :, None], 1)[0]
    diff = pos[..., 0, :] - pos[..., 1, :]
    # np.linalg.norm of one event's 1-D difference is sqrt(x . x); a
    # stacked (1, 2) @ (2, 1) product takes the same dot product, bit
    # for bit, where norm(axis=-1), einsum and hypot can differ in the
    # last bit.
    distances = np.sqrt(np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0])
    points = 0.5 * (pos[..., 0, :] + pos[..., 1, :])
    bodies = list(zip(range(n), pairs[:, 1].tolist())) * len(roots)
    return [CollisionWitness(k, t_j, pair, point, distance)
            for t_j, pair, point, distance in zip(
                times.ravel().tolist(), bodies, points.reshape(-1, 2),
                distances.ravel().tolist())]


def has_collision(config: ChoreoConfig) -> CollisionReport:
    """Decide whether the choreography collides, with explicit witnesses.

    A separation k is a candidate when the two phasor magnitudes of
    q_0 - q_k agree to within SUSPECT_TOL * (|a| + |b|); candidates are
    certified by the refined numeric oracle at CERTIFY_TOL * (|a| + |b|)
    and expanded into the full set of colliding body pairs.  Candidates
    the oracle cannot certify are reported as suspects.  Both tolerances
    scale with the curve, so the verdict does not depend on its size.
    """
    scale = abs(config.a) + abs(config.b)
    suspect_tol, certify_tol = SUSPECT_TOL * scale, CERTIFY_TOL * scale
    witnesses: list[CollisionWitness] = []
    suspects: list[int] = []
    for k in range(1, config.N):
        first, second = _pair_amplitudes(config, k)
        gap = abs(2.0 * abs(first) - 2.0 * abs(second))
        if gap > suspect_tol or second == 0.0:
            continue
        oracle = min_pair_distance(config, k)
        if oracle.min_distance <= certify_tol:
            witnesses.extend(_witnesses_for(config, k))
        else:
            suspects.append(k)
    witnesses.sort(key=lambda w: (w.k, w.t_star, w.bodies))
    return CollisionReport(bool(witnesses), witnesses, suspects)
