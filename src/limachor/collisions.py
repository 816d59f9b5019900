"""Collision analysis for choreographies on a p-limacon.

Bodies 0 and k stay at squared distance
A^2 + B^2 + 2AB cos((p - 1)t + phase) with A = 2|a| sin(pi k / N) and
B = 2|b sin(pi p k / N)|, so the pair can meet exactly when A = B, and
only at the |p - 1| instants per period where the two rotating terms
anti-align.  The dangerous ratios and the predicate's candidates read A
and B off the balance matrix's ``coefficients.sine_table``, which
reduces p k mod N in integers, so both are exactly the same under
p -> p + j N and p -> -p.  The analytic predicate is cross-checked by
a numeric minimum-distance oracle that knows nothing about it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from limachor.coefficients import sine_table
from limachor.kinematics import ChoreoConfig, bodies_at, unit_scaled

# Relative to |a| + |b|: a configuration this close to the ratio locus
# is examined by the refined oracle; it is certified as colliding only
# below CERTIFY_TOL, otherwise flagged as suspect.
SUSPECT_TOL = 1e-8
CERTIFY_TOL = 1e-10

# min_pair_distance's first pass samples a uniform grid of
# min(_PAIR_GRID, 64 (|p| + 1)) points over one period.  The squared pair
# distance is a trigonometric polynomial of degree at most |p| + 1, so
# that is at least 64 samples per oscillation, as many as the 1024-point
# grid gives at |p| = 15; more only cost time.  From |p| = 15 on the cap
# holds, and every larger |p| samples np.linspace(0, 2 pi, 1024,
# endpoint=False) bit for bit, the grid its verdicts were established
# on.  64 * 3 = 192 points are enough for the first pass and three
# 1024-fold passes to reach a spacing of 1e-12.  Each later pass samples
# _ZOOM_OFFSETS times a half-width: the current spacing around the best
# sample, then the spacing / 32 around the vertex of the parabola through
# the best sample and its neighbours.
_PAIR_GRID = 1024
_ZOOM_OFFSETS = np.linspace(-1.0, 1.0, 65)
# A zoom window's edge sample within this relative margin of its best
# interior sample ties with it, to rounding.
_TIE_RTOL = 16 * np.finfo(float).eps


# At most 14 sizes, 192, 256, ..., 1024, each built on first use.
@functools.cache
def _pair_times(size: int) -> np.ndarray:
    """The first pass's uniform grid of size points on [0, 2*pi), read-only."""
    times = np.linspace(0.0, math.tau, size, endpoint=False)
    times.flags.writeable = False
    return times


class CollisionWitness(NamedTuple):
    """One collision event: who meets whom, when, and where."""

    k: int
    t_star: float
    bodies: tuple[int, int]
    point: np.ndarray  # (2,)
    min_distance: float


@dataclass(frozen=True, eq=False)
class WitnessColumns:
    """Collision events as columns, one row per event.

    ``k`` (M,) separations, ``t`` (M,) times, ``bodies`` (M, 2) body
    pairs, ``point`` (M, 2) midpoints and ``distance`` (M,) pair
    distances.  ``len()`` is M; iterating yields each event as a
    CollisionWitness.
    """

    k: np.ndarray
    t: np.ndarray
    bodies: np.ndarray
    point: np.ndarray
    distance: np.ndarray

    def __len__(self) -> int:
        return len(self.k)

    def __iter__(self) -> Iterator[CollisionWitness]:
        return map(CollisionWitness, self.k.tolist(), self.t.tolist(),
                   map(tuple, self.bodies.tolist()), self.point, self.distance.tolist())


@dataclass(frozen=True)
class CollisionReport:
    """Collision verdict with witnesses sorted by separation, time, then bodies.

    ``suspects`` lists separations that sit within SUSPECT_TOL * (|a| + |b|)
    of the collision locus without being certified by the oracle.
    """

    collides: bool
    witnesses: WitnessColumns
    suspects: list[int] = field(default_factory=list)


def collision_ratios(N: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """All a/b values at which some body pair can collide, as (k, ratio) columns.

    For each separation k <= N/2 (N - k mirrors k exactly) the dangerous
    quotients are +- sin(pi p k / N) / sin(pi k / N), unless the numerator
    is exactly 0 (they would need a = 0).  Both sines come from
    ``sine_table``: the columns are bit for bit the same under
    p -> p + j N and p -> -p, and exactly equal quotients are equal
    floats.  Taken in order of k, + before -, a value within 1e-12 of one
    already taken is dropped, so a repeated value keeps its smallest k.
    At most 2(N - 1) values, as an int64 column k and a float64 column
    ratio, sorted by (k, ratio).

    Raises:
        ValueError: If |p| < 2 or N < 4, as ChoreoConfig does.
    """
    ChoreoConfig(N, p, 1.0, 1.0)  # only for its checks
    first, second = sine_table(N, p)
    k = second.nonzero()[0]  # a vanishing sine has no finite a/b
    # Candidate i, of separation k[i // 2] + 1, is -|ratio| for even i and
    # +|ratio| for odd i; taken + before -, its turn is i ^ 1.
    ratio = ((second[k] / first[k])[:, None] * (-1.0, 1.0)).ravel()
    order = ratio.argsort()  # ndarray methods: this runs on every collide
    turns, values = order ^ 1, ratio[order]
    # Runs of gaps <= 1e-12, values[start:end], lie more than 1e-12 apart: a run
    # that spans at most 1e-12 keeps its first turn, and a longer one replays the rule.
    padded = np.concatenate(([-np.inf], values, [np.inf]))
    breaks = (padded[1:] - padded[:-1] > 1e-12).nonzero()[0]
    starts, ends = breaks[:-1], breaks[1:]
    tight = values[ends - 1] - values[starts] <= 1e-12
    keep = np.zeros(ratio.size, dtype=bool)
    keep[np.minimum.reduceat(turns, starts)[tight] ^ 1] = True
    for start, end in zip(starts[~tight].tolist(), ends[~tight].tolist()):
        run, blocked = values[start:end].tolist(), np.zeros(end - start, dtype=bool)
        for j in turns[start:end].argsort().tolist():
            if not blocked[j]:
                keep[turns[start + j] ^ 1] = True
                lo, hi = j, j + 1  # to the stretch of values within 1e-12 of run[j]
                while lo > 0 and run[j] - run[lo - 1] <= 1e-12:
                    lo -= 1
                while hi < len(run) and run[hi] - run[j] <= 1e-12:
                    hi += 1
                blocked[lo:hi] = True
    kept = keep.nonzero()[0]
    return k[kept // 2] + 1, ratio[kept]


def _pair_sq_dist(config: ChoreoConfig, k: int, ts: np.ndarray) -> np.ndarray:
    """Squared distance between bodies 0 and k at the 1-D times ts.

    Each body's position is ``bodies_at``'s expression, the same
    operations in the same order (theta = ts + 2 pi k / N, then p theta,
    a cos theta + b cos p theta and a sin theta + b sin p theta), so every
    value is bit-identical to the squared difference of its positions.
    It skips ``bodies_at``'s finiteness check: ChoreoConfig refuses |p|
    beyond about 1.34e154, where N (a^2 + p^2 b^2) no longer fits a float,
    and the oracle's times stay within a few periods of 0, so p theta is
    always finite.
    """
    a, b, p = config.a, config.b, config.p
    theta0, theta = ts + 0.0, ts + (math.tau * k) / config.N
    tp0, tp = p * theta0, p * theta
    dx = (a * np.cos(theta0) + b * np.cos(tp0)) - (a * np.cos(theta) + b * np.cos(tp))
    dy = (a * np.sin(theta0) + b * np.sin(tp0)) - (a * np.sin(theta) + b * np.sin(tp))
    return dx * dx + dy * dy


def min_pair_distance(config: ChoreoConfig, k: int) -> float:
    """Numeric minimum of |q_0(t) - q_k(t)| over t in [0, 2*pi), as a float.

    Samples the squared distance (``_pair_sq_dist``) on a uniform grid of
    min(1024, 64 (|p| + 1)) points, then resamples one grid step either
    side of the best sample on a grid 32 times finer.  Each later pass
    centres its samples on the vertex of the parabola through the best
    sample and its two neighbours, one spacing / 32 either side, so the
    spacing shrinks 1024-fold.  A narrowed pass whose best sample lands
    on the window's edge is redone one spacing either side of that
    sample, 32 times finer, unless the best interior sample ties with it
    to 16 ulps, as in a window flat to rounding.  It stops once the
    spacing is at most 1e-12 in t, which takes 5 evaluations when no
    pass is redone, from the smallest grid (192 points at |p| = 2) as
    from the largest.  The grid takes at least 64 samples per oscillation
    (see _PAIR_GRID), so the minimum lies within a step of the best
    sample.  The grid itself is not fitted, as it can alias the pair
    distance's oscillation at large |p|.  This oracle is independent of the
    analytic collision predicate.  It runs on ``unit_scaled(config)``
    and scales the distance back, so the squares of tiny amplitudes do
    not underflow.

    Raises:
        IndexError: If k is outside [1, N-1].
    """
    if not 1 <= k <= config.N - 1:
        raise IndexError(f"separation {k} outside [1, {config.N - 1}]")
    config, e = unit_scaled(config)
    size = min(_PAIR_GRID, 64 * (abs(config.p) + 1))
    grid = _pair_times(size)
    step = math.tau / size
    sq = _pair_sq_dist(config, k, grid)
    ts = grid[int(np.argmin(sq))] + step * _ZOOM_OFFSETS
    step /= 32  # the spacing of ts
    narrowed = False
    while True:
        sq = _pair_sq_dist(config, k, ts)
        best = int(np.argmin(sq))
        if best in (0, ts.size - 1):
            # An edge sample that ties with the best interior one is noise.
            interior = 1 + int(np.argmin(sq[1:-1]))
            if sq[interior] - sq[best] <= _TIE_RTOL * sq[best]:
                best = interior
        inside = 0 < best < ts.size - 1
        if narrowed and not inside:
            step *= 1024  # the minimum may lie outside: redo the pass
        elif step <= 1e-12:
            break
        elif inside:
            before, here, after = sq[best - 1:best + 2].tolist()
            curvature = before - 2.0 * here + after
            shift = 0.5 * (before - after) / curvature if curvature > 0.0 else 0.0
            ts = ts[best] + shift * step + step / 32 * _ZOOM_OFFSETS
            step /= 1024
            narrowed = True
            continue
        ts = ts[best] + step * _ZOOM_OFFSETS
        step /= 32
        narrowed = False
    return math.ldexp(math.sqrt(max(float(sq[best]), 0.0)), e)


def _witnesses_for(config: ChoreoConfig, k: int) -> tuple[np.ndarray, ...]:
    """All collision events with separation k, assuming the locus is hit.

    Returns WitnessColumns' five columns, unsorted.

    Raises:
        ValueError: If the |p - 1| N events' (2, 2) float64 positions
            pass numpy's byte limit, before anything is allocated.
    """
    n, p = config.N, config.p
    events = abs(p - 1) * n
    if 32 * events > np.iinfo(np.intp).max:
        raise ValueError(
            f"separation k={k} with N={n}, p={p} has |p - 1| N = {events} "
            f"collision events, whose positions ({32 * events} bytes) are more "
            f"than numpy can allocate ({np.iinfo(np.intp).max} bytes)")
    # Bodies 0 and k meet when the rotating terms of their difference
    # anti-align: (p-1) t + pi (p-1) k / N = phase0 mod 2*pi, phase0 = pi if
    # a and b sin(pi p k/N) (> 0 iff p k mod 2N < N) have the same sign.
    same_sign = (config.a > 0) == (config.b > 0)
    phase0 = math.pi if same_sign == ((p * k) % (2 * n) < n) else 0.0
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
    return (np.full(times.size, k), times.ravel(), np.tile(pairs, (len(roots), 1)),
            points.reshape(-1, 2), distances.ravel())


# WitnessColumns' columns with no event.
_NO_EVENTS = (np.empty(0, np.int64), np.empty(0), np.empty((0, 2), np.int64),
              np.empty((0, 2)), np.empty(0))


def has_collision(config: ChoreoConfig) -> CollisionReport:
    """Decide whether the choreography collides, with explicit witnesses.

    A separation k is a candidate when the two phasor magnitudes of
    q_0 - q_k, 2 |a| and 2 |b| times the rows of ``sine_table``, agree to
    within SUSPECT_TOL * (|a| + |b|) and the second is not 0.  The table
    reduces p k mod N in integers, so the candidates are exactly the same
    under p -> p + j N and p -> -p.  Candidates are certified by the
    refined numeric oracle at CERTIFY_TOL * (|a| + |b|) and expanded into
    the full set of colliding body pairs.  Candidates the oracle cannot
    certify are reported as suspects.  Both tolerances scale with the
    curve, and the analysis runs on ``unit_scaled(config)`` (its witness
    points and distances scaled back), so the verdict does not depend on
    the curve's size down to the smallest amplitudes, whose squared
    distances underflow.

    Only k <= N/2 is examined, and the oracle runs once per mirror pair
    {k, N - k}: bodies 0 and N - k are bodies k and 0 shifted in index,
    so |q_0 - q_(N-k)| is |q_0 - q_k| shifted in time, with the same
    minimum, and k's verdict holds for N - k.  Witnesses are still
    built for each separation of a certified pair, as columns that one
    lexsort orders by (k, t, bodies).
    """
    config, e = unit_scaled(config)
    n = config.N
    scale = abs(config.a) + abs(config.b)
    suspect_tol, certify_tol = SUSPECT_TOL * scale, CERTIFY_TOL * scale
    first, second = 2.0 * np.abs(sine_table(n, config.p) * [[config.a], [config.b]])
    candidates = ((np.abs(first - second) <= suspect_tol) & (second != 0.0)).nonzero()[0] + 1
    found = []
    suspects: list[int] = []
    for k in candidates.tolist():
        pair = (k,) if 2 * k == n else (k, n - k)
        if min_pair_distance(config, k) <= certify_tol:
            found.extend(_witnesses_for(config, j) for j in pair)
        else:
            suspects.extend(pair)
    suspects.sort()
    if not found:
        return CollisionReport(False, WitnessColumns(*_NO_EVENTS), suspects)
    ks, times, bodies, points, distances = (np.concatenate(column) for column in zip(*found))
    columns = (ks, times, bodies, np.ldexp(points, e), np.ldexp(distances, e))
    order = np.lexsort((bodies[:, 1], bodies[:, 0], times, ks))
    return CollisionReport(True, WitnessColumns(*(column[order] for column in columns)),
                           suspects)
