"""N-body choreographies on p-limacon curves under harmonic coupling.

Decides which (p, N) pairs admit a choreography, solves for the force
coefficients, evaluates the analytic motion, verifies it against
independent dynamics engines and conserved-quantity closed forms, and
analyzes collisions.  Entry points given an inadmissible (p, N) raise
InadmissibleError, a ValueError that carries the decision.
"""

from limachor.admissibility import (
    AdmissibilityDecision,
    InadmissibleError,
    admissible_span,
    divisor_blockset,
    is_admissible,
    is_admissible_restricted,
)
from limachor.coefficients import (
    CouplingVector,
    RestrictedCoupling,
    build_matrix,
    fold_matrix,
    leading_det,
    residual,
    restricted_from_mass_charge,
    solve_couplings,
    solve_restricted,
)
from limachor.kinematics import (
    ChoreoConfig,
    Trajectory,
    bodies_at,
    body_state,
    eom_residual,
    orbit_csv,
    sample_trajectory,
    state_at,
    trajectory_blocks,
    trajectory_csv,
)
from limachor.dynamics import (
    build_interaction,
    rk4_integrate,
    spectral_propagate,
)
from limachor.constants import (
    ConservedReport,
    PartialSumReport,
    PotentialParts,
    closed_form_constants,
    drift_report,
    inertia_rate_max,
    partial_sums,
    potential_from_parts,
    potential_parts,
)
from limachor.collisions import (
    CollisionReport,
    CollisionWitness,
    WitnessColumns,
    collision_ratios,
    has_collision,
    min_pair_distance,
)
from limachor.verification import verify

__version__ = "0.1.0"
