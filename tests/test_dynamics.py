import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limachor.coefficients import CouplingVector, solve_couplings
from limachor.dynamics import (
    _stiffness_spectrum,
    accel,
    build_interaction,
    rk4_integrate,
    spectral_propagate,
)
from limachor.kinematics import (
    SystemState,
    analytic_accel,
    initial_state,
    make_config,
    state_at,
)
from util import admissible_pairs


def solved_spec(N, p):
    return build_interaction(N, solve_couplings(N, p))


def staged_rk4(initial, spec, dt, steps):
    """Reference: the textbook four-stage RK4 on direct pairwise forces.

    Returns the stacked (steps + 1, 2N, 2) states, positions first.
    """
    kmat = spec.pair_matrix
    row_sum = spec.pair_row_sum[:, None]

    def force(q):
        return kmat @ q - row_sum * q

    pos = initial.positions.copy()
    vel = initial.velocities.copy()
    states = [np.concatenate([pos, vel])]
    for _ in range(steps):
        k1p = vel
        k1v = force(pos)
        k2p = vel + 0.5 * dt * k1v
        k2v = force(pos + 0.5 * dt * k1p)
        k3p = vel + 0.5 * dt * k2v
        k3v = force(pos + 0.5 * dt * k2p)
        k4p = vel + dt * k3v
        k4v = force(pos + dt * k3p)
        pos = pos + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        vel = vel + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        states.append(np.concatenate([pos, vel]))
    return np.array(states)


def reference_stiffness_spectrum(N, kappas):
    """The double loop over modes m and bond lengths ell, one cosine at a time."""
    n = N // 2
    lam = np.zeros(N)
    for m in range(n + 1):
        total = 0.0
        for ell in range(1, n + 1):
            weight = 1.0 if (N % 2 == 0 and ell == n) else 2.0
            total += kappas[ell - 1] * weight * (1.0 - math.cos(math.tau * ell * m / N))
        lam[m] = total
        if 0 < m < N - m:
            lam[N - m] = total
    return lam


def _solved_case():
    config = make_config(6, 2, 1.2, 0.7)
    return initial_state(config), solved_spec(6, 2), math.tau / 8192


def _perturbed_case():
    initial, spec, dt = _solved_case()
    rng = np.random.default_rng(11)
    return (SystemState(0.0,
                        initial.positions + rng.normal(size=(6, 2), scale=0.1),
                        initial.velocities + rng.normal(size=(6, 2), scale=0.1)),
            spec, dt)


def _free_case():
    rng = np.random.default_rng(7)
    return (SystemState(0.0, rng.normal(size=(4, 2)), rng.normal(size=(4, 2))),
            build_interaction(4, CouplingVector(4, [0.0, 0.0])), 0.01)


def _hyperbolic_case():
    rng = np.random.default_rng(3)
    return (SystemState(0.0, rng.normal(size=(4, 2)), rng.normal(size=(4, 2))),
            build_interaction(4, CouplingVector(4, [-1.0, 0.0])), 0.5 / 4096)


class TestBuildInteraction:
    def test_four_body_spectrum(self):
        spec = build_interaction(4, CouplingVector(4, [1.0, -0.5]))
        assert spec.mode_stiffness == pytest.approx([0.0, 1.0, 4.0, 1.0])

    def test_six_body_spectrum_pins_modes(self):
        spec = build_interaction(6, CouplingVector(6, [1.5, -1 / 6, 0.0]))
        assert spec.mode_stiffness[1] == pytest.approx(1.0)
        assert spec.mode_stiffness[2] == pytest.approx(4.0)

    def test_no_couplings_no_stiffness(self):
        spec = build_interaction(4, CouplingVector(4, [0.0, 0.0]))
        assert np.array_equal(spec.mode_stiffness, np.zeros(4))

    def test_translation_mode_exactly_zero(self):
        for p, n in admissible_pairs(5, 11):
            assert solved_spec(n, p).mode_stiffness[0] == 0.0

    def test_mirror_symmetry_exact(self):
        spec = solved_spec(9, 4)
        for m in range(9):
            assert spec.mode_stiffness[m] == spec.mode_stiffness[(9 - m) % 9]

    def test_mode_pinning_across_sweep(self):
        for p, n in admissible_pairs(7, 12):
            lam = solved_spec(n, p).mode_stiffness
            assert lam[1 % n] == pytest.approx(1.0, abs=1e-10)
            assert lam[p % n] == pytest.approx(p * p, abs=1e-10)

    def test_basis_is_orthonormal(self):
        spec = solved_spec(7, 2)
        gram = spec.mode_basis.T @ spec.mode_basis
        assert gram == pytest.approx(np.eye(7), abs=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_interaction(6, CouplingVector(4, [1.0, -0.5]))

    @pytest.mark.parametrize("N, p", [(4, 2), (5, 2), (12, 5), (64, 7), (256, 5)])
    def test_spectrum_matches_double_loop(self, N, p):
        rng = np.random.default_rng(N)
        tail = rng.normal(size=N // 2 - 2)
        for kappas in (solve_couplings(N, p).kappas,
                       solve_couplings(N, p, tail).kappas):
            got = _stiffness_spectrum(N, kappas)
            want = reference_stiffness_spectrum(N, kappas)
            # Relative to the terms' magnitudes: modes can cancel to ~0.
            scale = 4.0 * np.abs(kappas).sum()
            assert np.max(np.abs(got - want)) <= 1e-13 * scale
            assert got[0] == 0.0
            assert np.array_equal(got[1:], got[1:][::-1])


class TestEnginesShareNoData:
    # Their agreement is the oracle, so neither may read the other's data.
    def test_rk4_never_reads_the_eigenbasis(self):
        initial, spec, dt = _solved_case()
        blind = dataclasses.replace(
            spec, mode_stiffness=np.full(6, np.nan),
            mode_basis=np.full((6, 6), np.nan), basis_stiffness=np.full(6, np.nan))
        assert np.array_equal(rk4_integrate(initial, blind, dt, 64).q,
                              rk4_integrate(initial, spec, dt, 64).q)

    def test_spectral_never_reads_the_pair_matrix(self):
        initial, spec, _ = _solved_case()
        blind = dataclasses.replace(spec, pair_matrix=np.full((6, 6), np.nan),
                                    pair_row_sum=np.full(6, np.nan))
        assert np.array_equal(spectral_propagate(initial, blind, 1.3).positions,
                              spectral_propagate(initial, spec, 1.3).positions)


class TestAccel:
    def test_coincident_bodies_feel_nothing(self):
        spec = build_interaction(4, CouplingVector(4, [1.0, -0.5]))
        state = SystemState(0.0, np.ones((4, 2)), np.zeros((4, 2)))
        assert accel(state, spec) == pytest.approx(np.zeros((4, 2)))

    def test_matches_analytic_acceleration_on_solution(self):
        config = make_config(4, 2, 1.2, 1.0)
        spec = solved_spec(4, 2)
        state = initial_state(config)
        forces = accel(state, spec)
        for k in range(4):
            assert forces[k] == pytest.approx(
                analytic_accel(config, k, 0.0), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_newtons_third_law(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        kappas = rng.normal(size=n // 2)
        state = SystemState(0.0, rng.normal(size=(n, 2), scale=3.0),
                            np.zeros((n, 2)))
        spec = build_interaction(n, CouplingVector(n, kappas))
        total = accel(state, spec).sum(axis=0)
        assert np.linalg.norm(total) <= 1e-12 * n * (1 + np.abs(kappas).max())

    def test_dimension_mismatch(self):
        spec = build_interaction(4, CouplingVector(4, [1.0, -0.5]))
        state = SystemState(0.0, np.zeros((6, 2)), np.zeros((6, 2)))
        with pytest.raises(ValueError):
            accel(state, spec)


class TestRk4:
    def test_free_particles_move_linearly(self):
        spec = build_interaction(4, CouplingVector(4, [0.0, 0.0]))
        rng = np.random.default_rng(7)
        state = SystemState(0.0, rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
        traj = rk4_integrate(state, spec, 0.01, 100)
        final = traj.samples[-1]
        expected = state.positions + final.t * state.velocities
        assert final.positions == pytest.approx(expected, abs=1e-12)
        assert final.velocities == pytest.approx(state.velocities, abs=1e-14)

    def test_tracks_analytic_choreography(self):
        config = make_config(4, 2, 1.2, 1.0)
        traj = rk4_integrate(initial_state(config), solved_spec(4, 2),
                             math.tau / 4096, 4096)
        final = traj.samples[-1]
        reference = state_at(config, final.t)
        err = np.max(np.linalg.norm(final.positions - reference.positions, axis=1))
        assert err <= 1e-8

    def test_fourth_order_convergence(self):
        config = make_config(4, 2, 1.2, 1.0)
        spec = solved_spec(4, 2)
        init = initial_state(config)

        def final_error(steps):
            traj = rk4_integrate(init, spec, math.tau / steps, steps)
            ref = state_at(config, traj.samples[-1].t)
            return np.max(np.linalg.norm(
                traj.samples[-1].positions - ref.positions, axis=1))

        ratio = final_error(256) / final_error(512)
        assert 12.0 <= ratio <= 20.0

    def test_sample_times(self):
        spec = build_interaction(4, CouplingVector(4, [0.0, 0.0]))
        state = SystemState(0.0, np.zeros((4, 2)), np.zeros((4, 2)))
        traj = rk4_integrate(state, spec, 0.25, 4)
        assert traj.times() == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("case", [_solved_case, _perturbed_case,
                                      _free_case, _hyperbolic_case])
    def test_matches_staged_reference(self, case):
        initial, spec, dt = case()
        steps = 2048
        reference = staged_rk4(initial, spec, dt, steps)
        traj = rk4_integrate(initial, spec, dt, steps)
        got = np.concatenate([traj.q, traj.v], axis=1)
        gap = np.max(np.abs(got - reference), axis=(1, 2))
        scale = np.max(np.abs(reference), axis=(1, 2))
        assert np.all(gap <= 1e-12 * scale)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_step_rejected(self, dt):
        spec = build_interaction(4, CouplingVector(4, [0.0, 0.0]))
        state = SystemState(0.0, np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="dt"):
            rk4_integrate(state, spec, dt, 10)

    def test_bad_step_rejected(self):
        spec = build_interaction(4, CouplingVector(4, [0.0, 0.0]))
        state = SystemState(0.0, np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            rk4_integrate(state, spec, 0.0, 10)
        with pytest.raises(ValueError):
            rk4_integrate(state, spec, 0.1, 0)


class TestSpectralPropagate:
    def test_zero_time_is_identity(self):
        config = make_config(5, 2, 1.1, 0.3)
        init = initial_state(config)
        out = spectral_propagate(init, solved_spec(5, 2), 0.0)
        assert np.array_equal(out.positions, init.positions)
        assert np.array_equal(out.velocities, init.velocities)

    @pytest.mark.parametrize("t", [0.3, 1.7, 5.9])
    def test_matches_analytic_choreography(self, t):
        config = make_config(4, 2, 1.2, 1.0)
        init = initial_state(config)
        out = spectral_propagate(init, solved_spec(4, 2), t)
        ref = state_at(config, t)
        assert np.max(np.abs(out.positions - ref.positions)) <= 1e-10
        assert np.max(np.abs(out.velocities - ref.velocities)) <= 1e-10

    def test_agrees_with_rk4_over_one_period(self):
        config = make_config(4, 2, 1.2, 1.0)
        spec = solved_spec(4, 2)
        init = initial_state(config)
        traj = rk4_integrate(init, spec, math.tau / 8192, 8192)
        spectral = spectral_propagate(init, spec, traj.samples[-1].t)
        gap = np.max(np.linalg.norm(
            spectral.positions - traj.samples[-1].positions, axis=1))
        assert gap <= 1e-7

    def test_hyperbolic_branch_against_rk4(self):
        # Repulsive nearest-neighbor coupling: every non-translation mode
        # has negative stiffness, so the motion grows hyperbolically.
        spec = build_interaction(4, CouplingVector(4, [-1.0, 0.0]))
        assert spec.mode_stiffness[1] < 0
        rng = np.random.default_rng(3)
        init = SystemState(0.0, rng.normal(size=(4, 2)),
                           rng.normal(size=(4, 2)))
        traj = rk4_integrate(init, spec, 0.5 / 4096, 4096)
        out = spectral_propagate(init, spec, 0.5)
        assert out.positions == pytest.approx(
            traj.samples[-1].positions, abs=1e-9)

    def test_perturbed_state_agreement_between_engines(self):
        # Perturbations leave the solution manifold; both engines must
        # still integrate the same linear system.
        config = make_config(6, 2, 1.2, 0.7)
        spec = solved_spec(6, 2)
        rng = np.random.default_rng(11)
        base = initial_state(config)
        init = SystemState(0.0,
                           base.positions + rng.normal(size=(6, 2), scale=0.1),
                           base.velocities + rng.normal(size=(6, 2), scale=0.1))
        traj = rk4_integrate(init, spec, math.tau / 8192, 2048)
        out = spectral_propagate(init, spec, traj.samples[-1].t)
        assert out.positions == pytest.approx(
            traj.samples[-1].positions, abs=1e-8)

    def test_engine_agreement_across_small_sweep(self):
        for p, n in admissible_pairs(4, 8):
            config = make_config(n, p, 1.2, 0.7)
            spec = solved_spec(n, p)
            init = initial_state(config)
            for t in (0.9, 4.2):
                out = spectral_propagate(init, spec, t)
                ref = state_at(config, t)
                assert np.max(np.abs(out.positions - ref.positions)) <= 1e-9
