"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion.  The heavyweight RK4 sweeps are shared between criteria via
module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from limachor.admissibility import (
    admissible_span,
    divisor_blockset,
    is_admissible,
)
from limachor.coefficients import (
    CouplingVector,
    build_matrix,
    solve_couplings,
    solve_restricted,
)
from limachor.collisions import (
    collision_ratios,
    has_collision,
    min_pair_distance,
)
from limachor.constants import (
    closed_form_constants,
    drift_report,
    inertia_rate_max,
    partial_sums,
    potential_from_parts,
)
from limachor.dynamics import rk4_integrate, spectral_propagate
from limachor.kinematics import (
    ChoreoConfig,
    certification_grid,
    eom_residual,
    state_at,
)

A_REF, B_REF = 1.2, 0.7
PERIOD_STEPS = 8192
DT_REF = math.tau / PERIOD_STEPS


def criterion_pass(number: int, detail: str) -> None:
    print(f"PASS criterion {number}: {detail}")


@pytest.fixture(scope="module")
def systems():
    """Every admissible (p, N) with N <= 12, |p| <= 7."""
    pairs = []
    for n in range(4, 13):
        for mag in range(2, 8):
            for p in (mag, -mag):
                if is_admissible(p, n).admissible:
                    pairs.append((p, n))
    return pairs


@pytest.fixture(scope="module")
def solved(systems):
    out = {}
    for p, n in systems:
        config = ChoreoConfig(n, p, A_REF, B_REF)
        out[(p, n)] = (config, solve_couplings(n, p))
    return out


@pytest.fixture(scope="module")
def rk4_runs(solved):
    """One full RK4 period per system at the reference step size."""
    runs = {}
    for (p, n), (config, couplings) in solved.items():
        runs[(p, n)] = rk4_integrate(state_at(config, 0.0), couplings,
                                     DT_REF, PERIOD_STEPS)
    return runs


def test_criterion_1_coefficient_reproduction():
    start = time.perf_counter()
    assert solve_couplings(4, 2, []).kappas == pytest.approx(
        [1.0, -0.5], abs=1e-12)
    assert solve_couplings(6, 2, [0.0]).kappas[:2] == pytest.approx(
        [1.5, -1.0 / 6.0], abs=1e-12)
    assert solve_couplings(6, 3, [0.0]).kappas[:2] == pytest.approx(
        [2.25, -5.0 / 12.0], abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    criterion_pass(1, f"reference coupling values reproduced in {elapsed * 1e3:.1f} ms")


def test_criterion_2_restricted_solver():
    pair = solve_restricted(4, 2)
    assert (pair.kappa_o, pair.kappa_e) == pytest.approx((1.0, -0.5), abs=1e-12)
    pair = solve_restricted(6, 3)
    assert (pair.kappa_o, pair.kappa_e) == pytest.approx(
        (1.5, -7.0 / 6.0), abs=1e-12)
    pair = solve_restricted(5, 2)
    root = 3.0 * math.sqrt(5.0) / 10.0
    assert (pair.kappa_o, pair.kappa_e) == pytest.approx(
        (0.5 + root, 0.5 - root), abs=1e-10)
    with pytest.raises(ValueError):
        solve_restricted(6, 2)
    criterion_pass(2, "alternating-pattern solver matches closed forms, "
                      "inconsistent case rejected")


def test_criterion_3_admissibility_sweep():
    start = time.perf_counter()
    for mag in range(2, 13):
        for p in (mag, -mag):
            blocked = set(divisor_blockset(p))
            for n in range(4, 41):
                assert is_admissible(p, n).admissible == (n not in blocked)
    assert admissible_span(6, 40) == [4] + list(range(8, 41))
    assert admissible_span(7, 40) == [5] + list(range(9, 41))
    assert admissible_span(8, 40) == [5, 6] + list(range(10, 41))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    criterion_pass(3, f"decision/blockset agree on full sweep in {elapsed:.2f} s")


def test_criterion_4_equations_of_motion_certification(systems, solved):
    start = time.perf_counter()
    grid = certification_grid(64)
    worst = 0.0
    for key in systems:
        config, couplings = solved[key]
        worst = max(worst, eom_residual(config, couplings, grid))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    criterion_pass(4, f"{len(systems)} systems certified, worst residual "
                      f"{worst:.2e}, in {elapsed:.2f} s")


def test_criterion_5_dynamics_oracle_equivalence(systems, solved, rk4_runs):
    rng = np.random.default_rng(20260809)
    probe_times = rng.uniform(0.0, math.tau, size=8)

    worst_rk4 = 0.0
    worst_spectral = 0.0
    for key in systems:
        config, couplings = solved[key]
        traj = rk4_runs[key]
        reference = state_at(config, float(traj.t[-1]))
        worst_rk4 = max(worst_rk4, float(np.max(np.linalg.norm(
            traj.q[-1] - reference.q[0], axis=1))))
        # Agreement must hold along the whole trajectory, not just at
        # the end; spot-check a 32-point grid of stored samples.
        for t, q in zip(traj.t[:: PERIOD_STEPS // 32].tolist(),
                        traj.q[:: PERIOD_STEPS // 32]):
            target = state_at(config, t)
            assert float(np.max(np.linalg.norm(
                q - target.q[0], axis=1))) <= 1e-6

        init = state_at(config, 0.0)
        propagated = spectral_propagate(init, couplings, probe_times)
        for t, q in zip(probe_times, propagated.q):
            target = state_at(config, float(t))
            worst_spectral = max(worst_spectral, float(np.max(np.linalg.norm(
                q - target.q[0], axis=1))))
    assert worst_rk4 <= 1e-6
    assert worst_spectral <= 1e-9

    def final_error(config, couplings, steps):
        traj = rk4_integrate(state_at(config, 0.0), couplings,
                             math.tau / steps, steps)
        ref = state_at(config, float(traj.t[-1]))
        return float(np.max(np.linalg.norm(
            traj.q[-1] - ref.q[0], axis=1)))

    ratios = []
    for key in systems:
        config, couplings = solved[key]
        ratio = final_error(config, couplings, 512) / final_error(config, couplings, 1024)
        assert 12.0 <= ratio <= 20.0
        ratios.append(ratio)
    criterion_pass(5, f"worst RK4 error {worst_rk4:.2e}, worst spectral error "
                      f"{worst_spectral:.2e}, convergence ratios in "
                      f"[{min(ratios):.1f}, {max(ratios):.1f}]")


def test_criterion_6_conserved_quantities(systems, solved, rk4_runs):
    sample_times = np.linspace(0.0, math.tau, 5)
    for key in systems:
        config, couplings = solved[key]
        predicted = closed_form_constants(config)
        for t in sample_times:
            report = drift_report(state_at(config, float(t)), couplings)
            assert report.moment_of_inertia == pytest.approx(
                predicted.moment_of_inertia, abs=1e-10)
            assert report.angular_momentum == pytest.approx(
                predicted.angular_momentum, abs=1e-10)
            assert report.kinetic == pytest.approx(predicted.kinetic, abs=1e-10)
            assert report.potential == pytest.approx(predicted.kinetic, abs=1e-10)

        drifts = drift_report(rk4_runs[key], couplings)
        assert drifts.drift["g"] <= 1e-8
        for drift_key, baseline in (
                ("c", drifts.angular_momentum),
                ("I", drifts.moment_of_inertia),
                ("K", drifts.kinetic),
                ("V", drifts.potential),
                ("E", drifts.kinetic + drifts.potential)):
            assert drifts.drift[drift_key] / abs(baseline) <= 1e-8
        assert inertia_rate_max(rk4_runs[key]) <= 1e-6
    criterion_pass(6, f"closed forms, RK4 drift and inertia flatness verified "
                      f"on {len(systems)} systems")


def test_criterion_7_necessity_witnesses():
    # (p + 1)/N integral: the balance system has no solution; even the
    # least-squares best couplings leave a macroscopic defect.
    entries = build_matrix(4, 5)
    best, *_ = np.linalg.lstsq(entries, np.array([-1.0, -25.0]), rcond=None)
    config = ChoreoConfig(4, 5, 1.2, 1.0)
    assert eom_residual(config, CouplingVector(4, best)) > 0.01

    # (p - 1)/N integral: angular momentum of the forced motion swings.
    zero = CouplingVector(4, [0.0, 0.0])
    values = [drift_report(state_at(config, float(t)), zero).angular_momentum
              for t in np.linspace(0.0, math.tau, 64, endpoint=False)]
    swing = max(values) - min(values)
    assert swing > 0.5 * abs(1.2 * 1.0) * 4
    criterion_pass(7, f"least-squares defect and angular-momentum swing "
                      f"{swing:.1f} confirm the blocked cases")


def test_criterion_8_collisions():
    start = time.perf_counter()

    report = has_collision(ChoreoConfig(6, 2, 1.0, 1.0))
    assert report.collides
    witness = [w for w in report.witnesses if w.bodies == (2, 4)][0]
    assert witness.t_star == pytest.approx(0.0, abs=1e-12)
    assert witness.point == pytest.approx([-1.0, 0.0], abs=1e-12)
    assert witness.min_distance <= 1e-10

    miss = has_collision(ChoreoConfig(4, 2, 1.0, 1.0))
    assert not miss.collides
    best = min(min_pair_distance(ChoreoConfig(4, 2, 1.0, 1.0), k)
               for k in range(1, 4))
    assert best >= 0.1

    for n in range(4, 21):
        for mag in range(2, 8):
            for p in (mag, -mag):
                assert len(collision_ratios(n, p)) <= 2 * (n - 1)

    checked = 0
    for n in range(4, 11):
        for mag in range(2, 6):
            for p in (mag, -mag):
                if not is_admissible(p, n).admissible:
                    continue
                for ab in (0.5, 1.0, math.sqrt(2.0), 2.0):
                    config = ChoreoConfig(n, p, ab, 1.0)
                    oracle = min(
                        min_pair_distance(config, k)
                        for k in range(1, n))
                    assert has_collision(config).collides == (oracle <= 1e-8)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    criterion_pass(8, f"witnesses verified and predicate/oracle agree on "
                      f"{checked} configurations in {elapsed:.2f} s")


def test_criterion_9_additional_constants(systems, solved):
    for key in systems:
        config, couplings = solved[key]
        expected = drift_report(state_at(config, 0.0), couplings).potential
        assert potential_from_parts(config, couplings) == pytest.approx(
            expected, abs=1e-10)

    sample_times = np.linspace(0.0, math.tau, 16, endpoint=False)
    checked_orbits = 0
    for n in (4, 6, 8, 9, 10, 12):
        for p in (2, 3, 4, 5, 7):
            if not is_admissible(p, n).admissible:
                continue
            config = ChoreoConfig(n, p, A_REF, B_REF)
            for m in range(2, n):
                if n % m != 0 or n // m < 2:
                    continue
                cosets = n // m
                for ell in range(cosets):
                    reports = [partial_sums(config, m, cosets, ell, float(t))
                               for t in sample_times]
                    first = reports[0]
                    g_expected = abs(B_REF) * m if first.first_moment_full else 0.0
                    for report in reports:
                        assert np.linalg.norm(report.first_moment) == \
                            pytest.approx(g_expected, abs=1e-10)
                    if first.subgroup_constant:
                        a2, b2 = A_REF ** 2, B_REF ** 2
                        for report in reports:
                            assert report.moment_of_inertia == pytest.approx(
                                m * (a2 + b2), abs=1e-9)
                            assert report.angular_momentum == pytest.approx(
                                m * (a2 + p * b2), abs=1e-9)
                            assert report.kinetic == pytest.approx(
                                0.5 * m * (a2 + p * p * b2), abs=1e-9)
                    checked_orbits += 1
    criterion_pass(9, f"potential parts and {checked_orbits} subgroup orbits "
                      f"match their gated closed forms")
