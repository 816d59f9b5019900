"""Which (p, N) pairs admit a choreography on a p-limacon curve.

N equally spaced bodies can share a p-limacon orbit under harmonic
coupling exactly when p is not in {-1, 0, 1}, N >= 4, and none of
p - 1, p, p + 1 is divisible by N.  Everything here is exact integer
arithmetic; no floating point is involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Rejection tags, in the order they are reported.
P_EXCLUDED = "P_EXCLUDED"
N_TOO_SMALL = "N_TOO_SMALL"
P_DIV_N = "P_DIV_N"
P_MINUS_1_DIV_N = "P_MINUS_1_DIV_N"
P_PLUS_1_DIV_N = "P_PLUS_1_DIV_N"
RESTRICTED_PARITY = "RESTRICTED_PARITY"

# Which branch of the alternating-coupling criterion applied.
EVEN_N_HALF_MOD = "EVEN_N_HALF_MOD"
ODD_N = "ODD_N"


@dataclass(frozen=True)
class AdmissibilityDecision:
    """Outcome of an admissibility check, with the reasons for rejection.

    ``admissible`` is true exactly when ``violated_conditions`` is empty.
    ``restricted_case`` records which parity branch applied when the
    decision came from :func:`is_admissible_restricted`, else ``None``.
    """

    p: int
    N: int
    admissible: bool
    violated_conditions: tuple[str, ...] = field(default=())
    restricted_case: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "p": self.p,
            "N": self.N,
            "admissible": self.admissible,
            "violated_conditions": list(self.violated_conditions),
        }
        if self.restricted_case is not None:
            out["restricted_case"] = self.restricted_case
        return out


class InadmissibleError(ValueError):
    """A (p, N) pair its criterion rejects; ``decision`` says why."""

    def __init__(self, decision: AdmissibilityDecision):
        pattern = ("" if decision.restricted_case is None
                   else " under the alternating pattern")
        super().__init__(
            f"(p={decision.p}, N={decision.N}) is not admissible{pattern}: "
            f"{', '.join(decision.violated_conditions)}")
        self.decision = decision


def _check_n(N: int) -> None:
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")


def is_admissible(p: int, N: int) -> AdmissibilityDecision:
    """Decide whether N bodies admit a choreography on a p-limacon.

    Total function: degenerate inputs (p in {-1, 0, 1}, N < 4) yield a
    structured rejection rather than an error, so callers can explain
    why a pair fails.

    Args:
        p: Harmonic index of the curve.
        N: Number of bodies, N >= 1.

    Returns:
        AdmissibilityDecision with ``admissible`` true iff p is not in
        {-1, 0, 1}, N >= 4, and N divides none of p - 1, p, p + 1.
    """
    _check_n(N)
    tags: list[str] = []
    if p in (-1, 0, 1):
        # Excluded by fiat: the curve degenerates to a circle or oval,
        # so the divisibility tags would only add noise.
        tags.append(P_EXCLUDED)
    if N < 4:
        # N = 3 with cyclic symmetry forces equal couplings, i.e. free
        # oscillators; N < 3 is not an interaction network at all.
        tags.append(N_TOO_SMALL)
    if p not in (-1, 0, 1):
        if p % N == 0:
            tags.append(P_DIV_N)
        if (p - 1) % N == 0:
            tags.append(P_MINUS_1_DIV_N)
        if (p + 1) % N == 0:
            tags.append(P_PLUS_1_DIV_N)
    return AdmissibilityDecision(p, N, not tags, tuple(tags))


def is_admissible_restricted(p: int, N: int) -> AdmissibilityDecision:
    """Admissibility under the alternating coupling pattern.

    On top of :func:`is_admissible`, even N additionally requires
    p == N/2 (mod N); odd N adds no further condition.
    """
    base = is_admissible(p, N)
    tags = list(base.violated_conditions)
    if N % 2 == 0:
        case = EVEN_N_HALF_MOD
        if (p - N // 2) % N != 0:
            tags.append(RESTRICTED_PARITY)
    else:
        case = ODD_N
    return AdmissibilityDecision(p, N, not tags, tuple(tags), case)


def _divisors(m: int) -> set[int]:
    divs = set()
    d = 1
    while d * d <= m:
        if m % d == 0:
            divs.add(d)
            divs.add(m // d)
        d += 1
    return divs


def divisor_blockset(p: int) -> list[int]:
    """All N blocked for a given p: the divisors of |p-1|, |p|, |p+1|.

    An N >= 4 is admissible for this p exactly when it is not in the
    returned list.

    Args:
        p: Harmonic index with |p| >= 2.

    Returns:
        Sorted list of every positive divisor of |p - 1|, |p|, |p + 1|.

    Raises:
        ValueError: If |p| <= 1.
    """
    if abs(p) < 2:
        raise ValueError(f"divisor_blockset requires |p| >= 2, got p={p}")
    blocked: set[int] = set()
    for m in (abs(p - 1), abs(p), abs(p + 1)):
        if m:
            blocked |= _divisors(m)
    return sorted(blocked)


def admissible_span(p: int, max_n: int) -> list[int]:
    """Admissible body counts N in [4, max_n] for a given p."""
    blocked = set(divisor_blockset(p))
    return [n for n in range(4, max_n + 1) if n not in blocked]
