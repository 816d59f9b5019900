"""Force coefficients that balance a choreography on a p-limacon.

The two rotating components of the orbit must be balanced independently
by the cyclic coupling strengths kappa_1 .. kappa_n, n = floor(N/2).
That balance is a 2 x n linear system; its leading 2 x 2 block is
invertible for every admissible pair, so kappa_1 and kappa_2 follow
uniquely from any choice of the free tail kappa_3 .. kappa_n.  The
solve trusts is_admissible's exact decision; its one guard is det == 0.

All arithmetic is real: each matrix entry is a 2(cos x - 1) form,
evaluated as -4 sin^2(x/2) so that it keeps its relative accuracy at
the small angles of large N, and no complex numbers are ever
materialized.  The entries, like the collision analysis, read
``sine_table``, which reduces each phase ell * p to [0, N/2] in
integers: every entry is exactly the same under p -> p + j N and
p -> -p, and every solve exactly symmetric under p -> -p.

A ``CouplingVector`` is read by separation, ``bonds()``, or whole as
its dense N x N Laplacian D - K, ``laplacian()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from limachor.admissibility import InadmissibleError, is_admissible
from limachor.admissibility import is_admissible_restricted


@dataclass(frozen=True)
class CouplingVector:
    """Cyclic coupling strengths kappa_1 .. kappa_n, n = floor(N/2).

    kappa_ell couples every pair of bodies whose cyclic index
    separation is ell.
    """

    N: int
    kappas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kappas", np.asarray(self.kappas, dtype=float))
        if self.kappas.shape != (self.N // 2,):
            raise ValueError(
                f"expected {self.N // 2} couplings for N={self.N}, "
                f"got {self.kappas.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(self.kappas))
        if bad.size:
            raise ValueError("couplings must be finite, got " + ", ".join(
                f"kappa_{ell + 1}={self.kappas[ell]}" for ell in bad))

    def bonds(self) -> list[tuple[int, float]]:
        """The nonzero couplings as (ell, w * kappa_ell), in ascending ell.

        The force on body k sums w kappa_ell (q_{k+ell} + q_{k-ell} - 2 q_k)
        over the bonds, indices mod N.  w = 1/2 for the diametral bond
        ell = N/2 of even N, which joins each body to one partner once.
        """
        return [(ell, float(self.kappas[ell - 1]) * (0.5 if 2 * ell == self.N else 1.0))
                for ell in (np.flatnonzero(self.kappas) + 1).tolist()]

    def laplacian(self) -> np.ndarray:
        """The N x N Laplacian D - K of the coupling network.

        K couples bodies j and l with kappa at separation
        min(|j - l|, N - |j - l|), zero on the diagonal, and D holds
        K's row sums, so (D - K) q is minus the force on every body.
        """
        idx = np.arange(self.N)
        diff = np.abs(idx[:, None] - idx[None, :])
        # Separation 0, the diagonal, gathers the leading zero.
        pair = np.concatenate(([0.0], self.kappas))[np.minimum(diff, self.N - diff)]
        return np.diag(pair.sum(axis=1)) - pair

    def as_dict(self) -> dict[str, float]:
        """Couplings keyed by 1-based separation, for JSON reports."""
        return {str(ell + 1): float(k) for ell, k in enumerate(self.kappas)}


@dataclass(frozen=True)
class RestrictedCoupling:
    """Alternating coupling pattern: odd separations share kappa_o,
    even separations share kappa_e."""

    kappa_o: float
    kappa_e: float

    def expand(self, N: int) -> CouplingVector:
        """Unfold into the full coupling vector for N bodies."""
        ell = np.arange(1, N // 2 + 1)
        return CouplingVector(N, np.where(ell % 2, self.kappa_o, self.kappa_e))


def _rhs(p: int) -> np.ndarray:
    return np.array([-1.0, -float(p * p)])


def sine_table(N: int, p: int) -> np.ndarray:
    """|sin(pi q k / N)| for q in (1, p), k = 1 .. N // 2, as a (2, N // 2) float64 array.

    Each phase q k is reduced to m = q k mod N in integers and folded to
    min(m, N - m), so every angle is at most pi/2, the table is bit for
    bit the same under p -> p + j N and p -> -p, and an entry is exactly
    0.0 where N divides q k.  Preallocated, so an N // 2 that no memory
    holds fails at once.
    """
    n = N // 2
    # m steps through q, 2q, .., n q; q = 0 stands as N, whose multiples reduce to 0.
    return np.fromiter((math.sin(math.pi * (m if (m := j % N) <= n else N - m) / N)
                        for q in (1, p % N or N) for j in range(q, q * n + 1, q)),
                       dtype=float, count=2 * n).reshape(2, n)


def build_matrix(N: int, p: int) -> np.ndarray:
    """The 2 x n balance matrix for (N, p), n = floor(N/2), as a (2, n) array.

    Column ell - 1 belongs to coupling kappa_ell: it holds
    2(cos(2*pi*ell/N) - 1) in row 0 and 2(cos(2*pi*ell*p/N) - 1) in
    row 1, except that for even N the last column carries half the
    generic value because the diametral bond has no mirror partner.

    Raises:
        ValueError: If N < 4.
    """
    if N < 4:
        raise ValueError(f"balance matrix needs N >= 4, got {N}")
    s = sine_table(N, p)
    entries = -4.0 * s * s
    if N % 2 == 0:
        # Diametral bond: single term, half the generic pair value.
        entries[:, -1] /= 2.0
    return entries


def leading_det(N: int, p: int) -> float:
    """Determinant of the 2 x 2 block multiplying (kappa_1, kappa_2).

    Nonzero for every admissible pair.  For N >= 5 both columns are
    generic and the value equals the closed form
    8(cos(2pi/N) - 1)(cos(2pi p/N) - 1)(cos(2pi p/N) - cos(2pi/N));
    for N = 4 the second column is the halved diametral one and only
    the direct determinant applies.
    """
    return _det2(build_matrix(N, p))


def _det2(m: np.ndarray) -> float:
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def _solve2(mat: np.ndarray, rhs: np.ndarray) -> tuple[float, float]:
    """Solve a 2 x 2 system by the adjugate formula; refuse only det == 0."""
    det = _det2(mat)
    if det == 0.0:
        raise ValueError(f"ill-posed 2x2 system, determinant {det:.3e}")
    x0 = (mat[1, 1] * rhs[0] - mat[0, 1] * rhs[1]) / det
    x1 = (mat[0, 0] * rhs[1] - mat[1, 0] * rhs[0]) / det
    return float(x0), float(x1)


@np.errstate(over="ignore", invalid="ignore")
def solve_couplings(N: int, p: int, free=None) -> CouplingVector:
    """Couplings that balance the (N, p) choreography, given a free tail.

    kappa_3 .. kappa_n may be chosen freely (they default to zero);
    kappa_1 and kappa_2 are then determined uniquely.

    Args:
        N: Number of bodies.
        p: Harmonic index; (p, N) must be admissible.
        free: Values for kappa_3 .. kappa_n.  Empty for N in {4, 5};
            None means all zeros.

    Returns:
        CouplingVector whose residual against the balance system is
        (0, 0) to solver accuracy.

    Raises:
        InadmissibleError: If (p, N) is inadmissible.
        ValueError: If the tail is not floor(N/2) - 2 finite values or the solve overflows.
    """
    decision = is_admissible(p, N)
    if not decision.admissible:
        raise InadmissibleError(decision)
    n = N // 2
    tail = np.zeros(n - 2) if free is None else np.asarray(free, dtype=float)
    if tail.shape != (n - 2,):
        raise ValueError(
            f"free tail must supply kappa_3..kappa_{n} "
            f"({n - 2} values), got {tail.shape}"
        )
    if not np.all(np.isfinite(tail)):
        raise ValueError(f"free tail must be finite, got {tail.tolist()}")
    mat = build_matrix(N, p)
    k1, k2 = _solve2(mat[:, :2], _rhs(p) - mat[:, 2:] @ tail)
    return CouplingVector(N, np.concatenate(([k1, k2], tail)))


def fold_matrix(N: int, p: int) -> np.ndarray:
    """Collapse the balance matrix onto the alternating pattern.

    Odd columns sum into the first output column, even columns into the
    second; rows of the result always sum to -N when N does not divide p.
    """
    entries = build_matrix(N, p)
    # Running sums in ascending ell, added to 0.0 so that a parity whose
    # entries are all -0.0 (N | 2p) sums to +0.0, as a fold from zeros does.
    return 0.0 + np.column_stack([np.cumsum(entries[:, parity::2], axis=1)[:, -1]
                                  for parity in (0, 1)])


def solve_restricted(N: int, p: int) -> RestrictedCoupling:
    """Solve the balance system under the alternating coupling pattern.

    For even N (with p == N/2 mod N) the solution is the closed pair
    kappa_o = p^2/N, kappa_e = (2 - p^2)/N; for odd N the folded 2 x 2
    system has full rank and is solved directly.

    Raises:
        InadmissibleError: If (p, N) is not admissible under the
            restriction (for even N with p != N/2 mod N the folded
            system is inconsistent).
    """
    decision = is_admissible_restricted(p, N)
    if not decision.admissible:
        raise InadmissibleError(decision)
    if N % 2 == 0:
        return RestrictedCoupling(p * p / N, (2.0 - p * p) / N)
    ko, ke = _solve2(fold_matrix(N, p), _rhs(p))
    return RestrictedCoupling(ko, ke)


def restricted_from_mass_charge(m: float, e: float) -> RestrictedCoupling:
    """Alternating couplings of equal masses m with staggered charges +-e.

    Gravitational-type attraction m^2 plus electrostatic-type
    interaction between alternating charges gives kappa_o = m^2 + e^2,
    kappa_e = m^2 - e^2.  The staggered charge assignment is consistent
    only for even N; that is the caller's responsibility.
    """
    if m <= 0:
        raise ValueError(f"mass must be positive, got {m}")
    return RestrictedCoupling(m * m + e * e, m * m - e * e)


def residual(N: int, p: int, couplings: CouplingVector) -> tuple[float, float]:
    """Balance defect of a coupling vector: A @ kappa - (-1, -p^2).

    The zero vector certifies that the couplings support the (N, p)
    choreography.

    Raises:
        ValueError: If the coupling vector is not sized for N.
    """
    if couplings.N != N:
        raise ValueError(
            f"coupling vector is for N={couplings.N}, expected N={N}"
        )
    defect = build_matrix(N, p) @ couplings.kappas - _rhs(p)
    return float(defect[0]), float(defect[1])
