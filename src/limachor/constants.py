"""Conserved quantities of the choreography and their closed forms.

On a solved system the first moment of mass vanishes and the angular
momentum, moment of inertia, kinetic and potential energies are all
constant, with simple closed forms in a, b, p, N.  The cyclic symmetry
yields further constants: the per-separation parts of the potential,
and for composite N = m*n, conserved sub-sums over each Z_m subgroup
orbit of the body indices.

One kernel, ``_conserved``, evaluates the quantities per sample from
the couplings' Laplacian (``CouplingVector.laplacian``).  It reads each
coordinate of a trajectory as an (N, S) matrix, the layout in which
RK4's chunks store it with the samples contiguous.  A
``ConservedSeries`` folds a trajectory into them piece by piece, keeping
only the per-sample values; ``drift_report`` folds a whole trajectory
as one piece, and ``verify`` folds RK4's chunks as they come.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from limachor.admissibility import InadmissibleError, is_admissible
from limachor.coefficients import CouplingVector
from limachor.dynamics import _RK4_CHUNK
from limachor.kinematics import ChoreoConfig, Trajectory, planar_norm, state_at

# Samples per Laplacian product in _conserved: one RK4 chunk, so that
# the products over RK4's chunks group their columns as one product
# over the whole run would.
_CONSERVED_BLOCK = _RK4_CHUNK


@dataclass(frozen=True)
class ConservedReport:
    """Conserved quantities at one instant, with their drifts.

    Angular momentum is signed, positive counterclockwise.  ``drift``
    maps quantity keys (g, c, I, K, V, E) to the largest absolute
    excursion from the first sample of a trajectory.
    """

    first_moment: np.ndarray  # (2,)
    angular_momentum: float
    moment_of_inertia: float
    kinetic: float
    potential: float
    drift: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "g": [float(self.first_moment[0]), float(self.first_moment[1])],
            "c": self.angular_momentum,
            "I": self.moment_of_inertia,
            "K": self.kinetic,
            "V": self.potential,
            "drift": dict(self.drift),
        }


@dataclass(frozen=True)
class PotentialParts:
    """Separation-ell parts of the potential: sums of |q_k -+ q_{k+ell}|^2.

    The minus part weighted by kappa_ell builds the potential; plus and
    minus always sum to four times the moment of inertia.
    """

    ell: int
    v_minus: float
    v_plus: float


@dataclass(frozen=True)
class PartialSumReport:
    """Sub-sums over one Z_m subgroup orbit of the body indices, N = m*n.

    The orbit is {ell + k*n : k = 0..m-1}.  Measured values come from
    the analytic state at the requested time; predicted values are set
    only in the integer-gated regimes where they are actually constant:
    the sub-sums of inertia, angular momentum and kinetic energy are
    constant when n*(p - 1) != 0 mod N, and the sub-moment has modulus
    |b|*m when n*p == 0 mod N and vanishes otherwise.
    ``pair_sq_sum`` is the sum of squared separations within the orbit.
    """

    m: int
    n: int
    ell: int
    t: float
    first_moment: np.ndarray
    moment_of_inertia: float
    angular_momentum: float
    kinetic: float
    pair_sq_sum: float
    subgroup_constant: bool          # n*(p-1) == 0 mod N fails => constant sums
    first_moment_full: bool          # n*p == 0 mod N => |g| = |b|*m
    predicted: dict[str, float] = field(default_factory=dict)


def _inertia(q: np.ndarray) -> np.ndarray:
    """Moment of inertia per sample of (2, N, S) coordinate rows."""
    return np.einsum("cks,cks->s", q, q)


def _conserved(pos: np.ndarray, vel: np.ndarray, laplacian: np.ndarray):
    """First moment, angular momentum, inertia, kinetic and potential energy per sample.

    ``pos`` and ``vel`` are (S, N, 2) and ``laplacian`` is the N x N
    L = D - K; each quantity comes back with leading dimension S.  The
    potential, half the sum over unordered pairs of
    kappa_jl |q_j - q_l|^2, is evaluated as the Laplacian quadratic form
    1/2 sum_c q_c^T L q_c, so memory stays O(S*N).  The work is
    coordinate-major: it views each coordinate as an (N, S) matrix (for
    an RK4 trajectory, rows of its state array with the samples
    contiguous).  L q is one stacked product per _CONSERVED_BLOCK
    samples; the first moment is the sum over bodies, and the other
    quantities are sums over bodies of products of sample rows.  Each
    sample's value is computed alone, whatever the other samples.
    """
    q = pos.transpose(2, 1, 0)
    v = vel.transpose(2, 1, 0)
    potential = np.empty(pos.shape[0])
    for start in range(0, potential.size, _CONSERVED_BLOCK):
        block = q[:, :, start:start + _CONSERVED_BLOCK]
        np.einsum("cks,cks->s", block, laplacian @ block,
                  out=potential[start:start + _CONSERVED_BLOCK])
    g = q.sum(axis=1).T
    c = np.einsum("ks,ks->s", q[0], v[1]) - np.einsum("ks,ks->s", q[1], v[0])
    kinetic = 0.5 * np.einsum("cks,cks->s", v, v)
    return g, c, _inertia(q), kinetic, 0.5 * potential


class ConservedSeries:
    """Per-sample conserved quantities of a trajectory that arrives in pieces.

    ``add`` takes consecutive pieces of one trajectory of ``samples``
    samples (``dynamics.rk4_chunks``' chunks, say) and stores t, g, c,
    I, K and V for every sample, O(S) memory; the pieces are not kept.
    Once the last piece is in, ``report`` and ``inertia_rate_max`` read
    the stored values, so the rate reuses the inertia of the fold.

    Each piece is one _conserved call, whose Laplacian products of
    _CONSERVED_BLOCK samples count from the piece's first sample.
    ``rk4_chunks``' chunks start on multiples of _RK4_CHUNK samples, so
    each of their products is one of the whole run's, and every stored
    value has the bits of one _conserved call on the whole run.
    """

    def __init__(self, couplings: CouplingVector, samples: int):
        self._laplacian = couplings.laplacian()
        self.t = np.empty(samples)
        self.g = np.empty((samples, 2))
        self.c, self.inertia, self.kinetic, self.potential = (
            np.empty(samples) for _ in range(4))
        self._stored = 0

    @np.errstate(over="ignore", invalid="ignore")
    def add(self, piece: Trajectory) -> None:
        """Fold in the next piece; an overflow is stored, and ``report`` raises on it."""
        start, stop = self._stored, self._stored + piece.t.size
        self.t[start:stop] = piece.t
        values = _conserved(piece.q, piece.v, self._laplacian)
        for series, value in zip(
                (self.g, self.c, self.inertia, self.kinetic, self.potential), values):
            series[start:stop] = value
        self._stored = stop

    def _check_complete(self) -> None:
        if self._stored != self.t.size:
            raise ValueError(f"series holds {self._stored} of its "
                             f"{self.t.size} samples")

    @np.errstate(over="ignore", invalid="ignore")
    def report(self) -> ConservedReport:
        """First-sample values and the largest excursion of each quantity.

        Raises:
            ValueError: If a sample is missing or a quantity overflows.
        """
        self._check_complete()
        g, c, inertia = self.g, self.c, self.inertia
        kinetic, potential = self.kinetic, self.potential
        energy = kinetic + potential
        drift = {
            "g": float(np.max(planar_norm(g - g[0]))),
            "c": float(np.max(np.abs(c - c[0]))),
            "I": float(np.max(np.abs(inertia - inertia[0]))),
            "K": float(np.max(np.abs(kinetic - kinetic[0]))),
            "V": float(np.max(np.abs(potential - potential[0]))),
            "E": float(np.max(np.abs(energy - energy[0]))),
        }
        # A drift spans every sample, so it is finite iff its quantity is.
        if bad := [key for key, value in drift.items() if not math.isfinite(value)]:
            raise ValueError(f"conserved quantities {', '.join(bad)} overflow "
                             f"float64 on t in [{self.t[0]}, {self.t[-1]}]")
        return ConservedReport(g[0].copy(), float(c[0]), float(inertia[0]),
                               float(kinetic[0]), float(potential[0]), drift)

    def inertia_rate_max(self) -> float:
        """Largest centered-difference rate of the stored moment of inertia.

        Raises:
            ValueError: If a sample is missing, with fewer than 3 samples,
                or if a rate overflows.
        """
        self._check_complete()
        return _rate_max(self.t, self.inertia)


def closed_form_constants(config: ChoreoConfig) -> ConservedReport:
    """Predicted constants of a solved system, with zero drift.

    g = 0, I = (a^2 + b^2) N, c = (a^2 + p b^2) N (signed through p),
    and K = V = (a^2 + p^2 b^2) N / 2.

    Raises:
        InadmissibleError: If (p, N) is inadmissible.
    """
    n, p = config.N, config.p
    decision = is_admissible(p, n)
    if not decision.admissible:
        raise InadmissibleError(decision)
    a2, b2 = config.a ** 2, config.b ** 2
    energy = 0.5 * (a2 + p * p * b2) * n
    zero = {key: 0.0 for key in ("g", "c", "I", "K", "V", "E")}
    return ConservedReport(
        first_moment=np.zeros(2),
        angular_momentum=(a2 + p * b2) * n,
        moment_of_inertia=(a2 + b2) * n,
        kinetic=energy,
        potential=energy,
        drift=zero,
    )


def potential_parts(config: ChoreoConfig, ell: int) -> PotentialParts:
    """Closed-form separation-ell parts of the potential.

    v_-+ = 2N (a^2 (1 -+ cos(2 pi ell / N)) + b^2 (1 -+ cos(2 pi p ell / N))).

    Raises:
        IndexError: If ell is outside [1, floor(N/2)].
    """
    n_half = config.N // 2
    if not 1 <= ell <= n_half:
        raise IndexError(f"separation {ell} outside [1, {n_half}]")
    a2, b2 = config.a ** 2, config.b ** 2
    ca = math.cos(math.tau * ell / config.N)
    cb = math.cos(math.tau * config.p * ell / config.N)
    v_minus = 2.0 * config.N * (a2 * (1.0 - ca) + b2 * (1.0 - cb))
    v_plus = 2.0 * config.N * (a2 * (1.0 + ca) + b2 * (1.0 + cb))
    return PotentialParts(ell, v_minus, v_plus)


def potential_from_parts(config: ChoreoConfig, couplings: CouplingVector) -> float:
    """Assemble the potential from its per-separation closed forms.

    Each of the couplings' ``bonds()`` weights its part, so the
    diametral part of even N counts half: each such bond exists once.
    """
    if couplings.N != config.N:
        raise ValueError(
            f"couplings sized for N={couplings.N}, config has N={config.N}"
        )
    total = 0.0
    for ell, coupling in couplings.bonds():
        total += coupling * potential_parts(config, ell).v_minus
    return 0.5 * total


def partial_sums(config: ChoreoConfig, m: int, n: int, ell: int,
                 t: float) -> PartialSumReport:
    """Sub-sums over the body-index orbit {ell + k*n} at time t.

    Requires N = m*n with m, n >= 2.  The constancy gates are decided
    in integer arithmetic, never inferred from floats.

    Raises:
        ValueError: If m*n != N, a factor is < 2, or t is not finite.
        IndexError: If ell is outside [0, n).
    """
    if m < 2 or n < 2 or m * n != config.N:
        raise ValueError(
            f"need N = m*n with m, n >= 2; got m={m}, n={n}, N={config.N}"
        )
    if not 0 <= ell < n:
        raise IndexError(f"orbit label {ell} outside [0, {n})")
    p = config.p
    state = state_at(config, t)
    idx = ell + n * np.arange(m)
    # Unit coupling between every pair of the orbit, Laplacian m I - J:
    # its potential is half the sum of squared separations.
    g, ang, inertia, kin, half_pair_sq = _conserved(
        state.q[:, idx], state.v[:, idx], m * np.eye(m) - np.ones((m, m)))

    first_moment_full = (n * p) % config.N == 0
    subgroup_constant = (n * (p - 1)) % config.N != 0

    a2, b2 = config.a ** 2, config.b ** 2
    predicted: dict[str, float] = {
        "g_abs": abs(config.b) * m if first_moment_full else 0.0,
    }
    if subgroup_constant:
        predicted["I"] = m * (a2 + b2)
        predicted["c"] = m * (a2 + p * b2)
        predicted["K"] = 0.5 * m * (a2 + p * p * b2)
        predicted["pair_sq_sum"] = (
            m * m * a2 if first_moment_full else m * m * (a2 + b2)
        )
    return PartialSumReport(
        m=m, n=n, ell=ell, t=t,
        first_moment=g[0],
        moment_of_inertia=float(inertia[0]),
        angular_momentum=float(ang[0]),
        kinetic=float(kin[0]),
        pair_sq_sum=2.0 * float(half_pair_sq[0]),
        subgroup_constant=subgroup_constant,
        first_moment_full=first_moment_full,
        predicted=predicted,
    )


def drift_report(traj: Trajectory, couplings: CouplingVector) -> ConservedReport:
    """Largest excursion of each conserved quantity along a trajectory.

    Drift is measured against the first sample, not against closed
    forms, so the same machinery certifies solved and perturbed systems
    alike.  Total energy drift is reported under key "E".  The
    trajectory is folded into a ``ConservedSeries`` as one piece.

    Raises:
        ValueError: If the trajectory is empty, sizes disagree or a quantity overflows.
    """
    if traj.t.size == 0:
        raise ValueError("cannot measure drift of an empty trajectory")
    n = traj.q.shape[1]
    if couplings.N != n:
        raise ValueError(
            f"couplings sized for N={couplings.N}, trajectory has {n} bodies"
        )
    series = ConservedSeries(couplings, traj.t.size)
    series.add(traj)
    return series.report()


@np.errstate(over="ignore", invalid="ignore")
def _rate_max(t: np.ndarray, inertia: np.ndarray) -> float:
    if t.size < 3:
        raise ValueError("need at least 3 samples for a centered difference")
    rates = (inertia[2:] - inertia[:-2]) / (t[2:] - t[:-2])
    rate_max = float(np.max(np.abs(rates)))
    if not math.isfinite(rate_max):
        raise ValueError(f"moment of inertia rate overflows float64 on t in "
                         f"[{t[0]}, {t[-1]}]")
    return rate_max


def inertia_rate_max(traj: Trajectory) -> float:
    """Largest centered-difference time derivative of the moment of inertia.

    A solved choreography keeps this at integrator-noise level despite
    not being a relative equilibrium.

    Raises:
        ValueError: With fewer than 3 samples, or if a rate overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        inertia = _inertia(traj.q.transpose(2, 1, 0))
    return _rate_max(traj.t, inertia)
