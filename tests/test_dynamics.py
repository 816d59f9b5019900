import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limachor.coefficients import CouplingVector, solve_couplings
from limachor.dynamics import (
    _RK4_BLOCK,
    _RK4_CHUNK,
    _rk4_step,
    _stiffness_spectrum,
    build_interaction,
    rk4_chunks,
    rk4_integrate,
    spectral_propagate,
)
from limachor.kinematics import (
    ChoreoConfig,
    SystemState,
    bodies_at,
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
    row_sum = kmat.sum(axis=1)[:, None]

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
    config = ChoreoConfig(6, 2, 1.2, 0.7)
    return state_at(config, 0.0), solved_spec(6, 2), math.tau / 8192


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
            mode_basis=np.full((6, 6), np.nan))
        assert np.array_equal(rk4_integrate(initial, blind, dt, 64).q,
                              rk4_integrate(initial, spec, dt, 64).q)

    def test_spectral_never_reads_the_pair_matrix(self):
        initial, spec, _ = _solved_case()
        blind = dataclasses.replace(spec, pair_matrix=np.full((6, 6), np.nan))
        assert np.array_equal(spectral_propagate(initial, blind, [1.3]).q,
                              spectral_propagate(initial, spec, [1.3]).q)


class TestRk4Force:
    # RK4's step matrix and eom_residual both apply the direct force
    # K q - D q, K the pair matrix and D its row sums.

    def test_coincident_bodies_feel_nothing(self):
        spec = build_interaction(4, CouplingVector(4, [1.0, -0.5]))
        state = SystemState(0.0, np.ones((4, 2)), np.zeros((4, 2)))
        traj = rk4_integrate(state, spec, 0.1, 10)
        assert traj.q == pytest.approx(np.ones((11, 4, 2)), abs=1e-15)
        assert traj.v == pytest.approx(np.zeros((11, 4, 2)), abs=1e-15)

    def test_matches_analytic_acceleration_on_solution(self):
        # From rest, one step of size h gives v = h F(q) + O(h^3).
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        start = state_at(config, 0.0)
        at_rest = SystemState(0.0, start.positions, np.zeros((4, 2)))
        h = 1e-8
        forces = rk4_integrate(at_rest, solved_spec(4, 2), h, 1).v[1] / h
        acc = bodies_at(config, np.arange(4), 0.0)[2]
        assert forces == pytest.approx(acc, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_newtons_third_law(self, seed):
        # Internal forces cancel, so the total momentum never changes.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        kappas = rng.normal(size=n // 2)
        state = SystemState(0.0, rng.normal(size=(n, 2), scale=3.0),
                            rng.normal(size=(n, 2)))
        spec = build_interaction(n, CouplingVector(n, kappas))
        traj = rk4_integrate(state, spec, 0.01, 20)
        drift = traj.v.sum(axis=1) - state.velocities.sum(axis=0)
        scale = n * (1 + np.abs(kappas).max()) * np.abs(traj.q).max()
        assert np.max(np.abs(drift)) <= 1e-12 * scale

    def test_dimension_mismatch(self):
        spec = build_interaction(4, CouplingVector(4, [1.0, -0.5]))
        state = SystemState(0.0, np.zeros((6, 2)), np.zeros((6, 2)))
        with pytest.raises(ValueError, match="6 bodies"):
            rk4_integrate(state, spec, 0.1, 10)
        with pytest.raises(ValueError, match="6 bodies"):
            spectral_propagate(state, spec, [0.1])


class TestRk4:
    def test_free_particles_move_linearly(self):
        spec = build_interaction(4, CouplingVector(4, [0.0, 0.0]))
        rng = np.random.default_rng(7)
        state = SystemState(0.0, rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
        traj = rk4_integrate(state, spec, 0.01, 100)
        expected = state.positions + float(traj.t[-1]) * state.velocities
        assert traj.q[-1] == pytest.approx(expected, abs=1e-12)
        assert traj.v[-1] == pytest.approx(state.velocities, abs=1e-14)

    def test_tracks_analytic_choreography(self):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        traj = rk4_integrate(state_at(config, 0.0), solved_spec(4, 2),
                             math.tau / 4096, 4096)
        reference = state_at(config, float(traj.t[-1]))
        err = np.max(np.linalg.norm(traj.q[-1] - reference.positions, axis=1))
        assert err <= 1e-8

    def test_fourth_order_convergence(self):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        spec = solved_spec(4, 2)
        init = state_at(config, 0.0)

        def final_error(steps):
            traj = rk4_integrate(init, spec, math.tau / steps, steps)
            ref = state_at(config, float(traj.t[-1]))
            return np.max(np.linalg.norm(
                traj.q[-1] - ref.positions, axis=1))

        ratio = final_error(256) / final_error(512)
        assert 12.0 <= ratio <= 20.0

    def test_sample_times(self):
        spec = build_interaction(4, CouplingVector(4, [0.0, 0.0]))
        state = SystemState(0.0, np.zeros((4, 2)), np.zeros((4, 2)))
        traj = rk4_integrate(state, spec, 0.25, 4)
        assert traj.t == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

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

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("N, p", [(4, 2), (7, 2), (12, 5), (64, 7)])
    @pytest.mark.parametrize("steps", [1, 2, 63, 64, 65, 128, 129, 1000])
    def test_block_boundaries_match_staged_reference(self, steps, N, p,
                                                     perturbed):
        # Samples past the first 64 come from 64-sample blocks, so runs
        # that end inside, on and just past a block edge all count.
        initial = state_at(ChoreoConfig(N, p, 1.2, 0.7), 0.0)
        if perturbed:
            rng = np.random.default_rng(N)
            initial = SystemState(
                0.0, initial.positions + rng.normal(size=(N, 2), scale=0.1),
                initial.velocities + rng.normal(size=(N, 2), scale=0.1))
        spec, dt = solved_spec(N, p), math.tau / 8192
        reference = staged_rk4(initial, spec, dt, steps)
        traj = rk4_integrate(initial, spec, dt, steps)
        assert traj.q.shape == traj.v.shape == (steps + 1, N, 2)
        assert np.array_equal(traj.t, initial.t + np.arange(steps + 1) * dt)
        got = np.concatenate([traj.q, traj.v], axis=1)
        gap = np.max(np.abs(got - reference), axis=(1, 2))
        scale = np.max(np.abs(reference), axis=(1, 2))
        assert np.all(gap <= 1e-12 * scale)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unstable_step_raises_instead_of_returning_nan(self):
        initial = state_at(ChoreoConfig(8, 3, 1.2, 1.0), 0.0)
        with pytest.raises(ValueError, match="dt=0.9"):
            rk4_integrate(initial, solved_spec(8, 3), 0.9, 2000)

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


def whole_run_rk4(initial, spec, dt, steps):
    """Reference: RK4's block products over one (steps + 1, 2, 2N) array.

    The same step matrix and the same row groups as rk4_chunks, with
    nothing chunked, so the two must agree bit for bit.
    """
    n = spec.N
    step_t = _rk4_step(spec, dt).T
    y = np.empty((steps + 1, 2, 2 * n))
    y[0, :, :n] = initial.positions.T
    y[0, :, n:] = initial.velocities.T
    rows = y.reshape(2 * (steps + 1), 2 * n)
    for i in range(min(_RK4_BLOCK, steps)):
        np.matmul(y[i], step_t, out=y[i + 1])
    if steps > _RK4_BLOCK:
        jump = np.linalg.matrix_power(step_t, _RK4_BLOCK)
        for start in range(_RK4_BLOCK + 1, steps + 1, _RK4_BLOCK):
            stop = min(start + _RK4_BLOCK, steps + 1)
            np.matmul(rows[2 * (start - _RK4_BLOCK):2 * (stop - _RK4_BLOCK)],
                      jump, out=rows[2 * start:2 * stop])
    state = y.transpose(0, 2, 1)
    return initial.t + np.arange(steps + 1) * dt, state[:, :n], state[:, n:]


class TestRk4Chunks:
    STEPS = [1, 2, 63, 64, 65, 2048, 2049, 2112, 2113, 2114, 4161, 8192]

    @pytest.mark.parametrize("steps", STEPS)
    @pytest.mark.parametrize("N, p", [(5, 2), (9, 2), (12, 5), (64, 7)])
    def test_chunks_are_the_whole_run(self, N, p, steps):
        initial = state_at(ChoreoConfig(N, p, 1.2, 0.7), 0.0)
        spec, dt = solved_spec(N, p), math.tau / 8192
        chunks, kept = [], []
        for chunk in rk4_chunks(initial, spec, dt, steps):
            chunks.append(chunk)
            kept.append((chunk.t.copy(), chunk.q.copy(), chunk.v.copy()))
        # The first chunk holds the initial state and _RK4_CHUNK samples;
        # every chunk but the last ends on an RK4 block boundary.
        ends = np.cumsum([chunk.t.size for chunk in chunks])
        assert ends[-1] == steps + 1
        assert all((end - 1) % _RK4_BLOCK == 0 for end in ends[:-1])
        assert chunks[0].t.size <= _RK4_CHUNK + 1
        assert all(chunk.t.size <= _RK4_CHUNK for chunk in chunks[1:])
        # Later chunks never write into earlier ones.
        for chunk, (t, q, v) in zip(chunks, kept):
            assert np.array_equal(chunk.t, t)
            assert np.array_equal(chunk.q, q) and np.array_equal(chunk.v, v)
        joined = [np.concatenate([getattr(chunk, key) for chunk in chunks])
                  for key in ("t", "q", "v")]
        whole = rk4_integrate(initial, spec, dt, steps)
        for got, integrated, reference in zip(
                joined, (whole.t, whole.q, whole.v),
                whole_run_rk4(initial, spec, dt, steps)):
            assert np.array_equal(got, reference)
            assert np.array_equal(integrated, reference)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_raises_the_integrator_message(self):
        initial = state_at(ChoreoConfig(8, 3, 1.2, 1.0), 0.0)
        with pytest.raises(ValueError) as err:
            for _ in rk4_chunks(initial, solved_spec(8, 3), 0.9, 2000):
                pass
        assert str(err.value) == (
            "RK4 left the finite float range with dt=0.9, steps=2000: the step "
            "is beyond RK4's stability limit or the motion outgrows float64")


class TestSpectralPropagate:
    def test_zero_time_is_identity(self):
        config = ChoreoConfig(5, 2, 1.1, 0.3)
        init = state_at(config, 0.0)
        out = spectral_propagate(init, solved_spec(5, 2), [0.0, 1.0, -0.0])
        for row in (0, 2):
            assert np.array_equal(out.q[row], init.positions)
            assert np.array_equal(out.v[row], init.velocities)

    @pytest.mark.parametrize("t", [0.3, 1.7, 5.9])
    def test_matches_analytic_choreography(self, t):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        init = state_at(config, 0.0)
        out = spectral_propagate(init, solved_spec(4, 2), [t])
        ref = state_at(config, t)
        assert out.t[0] == t
        assert np.max(np.abs(out.q[0] - ref.positions)) <= 1e-10
        assert np.max(np.abs(out.v[0] - ref.velocities)) <= 1e-10

    def test_agrees_with_rk4_over_one_period(self):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        spec = solved_spec(4, 2)
        init = state_at(config, 0.0)
        traj = rk4_integrate(init, spec, math.tau / 8192, 8192)
        spectral = spectral_propagate(init, spec, traj.t[-1:])
        gap = np.max(np.linalg.norm(
            spectral.q[0] - traj.q[-1], axis=1))
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
        out = spectral_propagate(init, spec, [0.5])
        assert out.q[0] == pytest.approx(traj.q[-1], abs=1e-9)

    def test_perturbed_state_agreement_between_engines(self):
        # Perturbations leave the solution manifold; both engines must
        # still integrate the same linear system.
        config = ChoreoConfig(6, 2, 1.2, 0.7)
        spec = solved_spec(6, 2)
        rng = np.random.default_rng(11)
        base = state_at(config, 0.0)
        init = SystemState(0.0,
                           base.positions + rng.normal(size=(6, 2), scale=0.1),
                           base.velocities + rng.normal(size=(6, 2), scale=0.1))
        traj = rk4_integrate(init, spec, math.tau / 8192, 2048)
        out = spectral_propagate(init, spec, traj.t[-1:])
        assert out.q[0] == pytest.approx(traj.q[-1], abs=1e-8)

    def test_engine_agreement_across_small_sweep(self):
        for p, n in admissible_pairs(4, 8):
            config = ChoreoConfig(n, p, 1.2, 0.7)
            spec = solved_spec(n, p)
            init = state_at(config, 0.0)
            out = spectral_propagate(init, spec, [0.9, 4.2])
            for q, t in zip(out.q, (0.9, 4.2)):
                ref = state_at(config, t)
                assert np.max(np.abs(q - ref.positions)) <= 1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t, amplitude", [
        (400.0, 1.0),     # cosh(2 t) itself overflows
        (300.0, 1e100),   # cosh(2 t) is finite, its product with the state is not
    ])
    def test_overflow_names_time_and_stiffness(self, t, amplitude):
        # Repulsive nearest-neighbour coupling: the alternating mode has
        # stiffness -4, so it grows like cosh(2 t).
        spec = build_interaction(4, CouplingVector(4, [-1.0, 0.0]))
        alternating = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        init = SystemState(0.0, amplitude * alternating, np.zeros((4, 2)))
        with pytest.raises(ValueError, match=rf"t={t}\b.*stiffness -4\.0"):
            spectral_propagate(init, spec, [t])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stable_overflow_says_the_motion_outgrows_float64(self):
        # No mode is unstable (the spectrum is 0, 1, 4, 1); the state
        # itself is too large to propagate.
        spec = build_interaction(4, CouplingVector(4, [1.0, -0.5]))
        init = SystemState(0.0, np.full((4, 2), 1e308), np.full((4, 2), 1e308))
        with pytest.raises(ValueError, match=r"t=0\.3\b.*outgrows float64") as err:
            spectral_propagate(init, spec, [0.0, 0.3])
        assert "stiffness" not in str(err.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, bad):
        init = state_at(ChoreoConfig(4, 2), 0.0)
        with pytest.raises(ValueError, match=rf"finite times, got t={bad}$"):
            spectral_propagate(init, solved_spec(4, 2), [0.5, bad])

    @pytest.mark.parametrize("times", [0.5, [[0.5]]])
    def test_times_must_be_one_dimensional(self, times):
        init = state_at(ChoreoConfig(4, 2), 0.0)
        with pytest.raises(ValueError, match="1-D"):
            spectral_propagate(init, solved_spec(4, 2), times)


def _spec_of_kind(kind, n):
    """Harmonic, free or hyperbolic: nearest-neighbour coupling 1, 0 or -1."""
    kappas = np.zeros(n // 2)
    kappas[0] = {"harmonic": 1.0, "free": 0.0, "hyperbolic": -1.0}[kind]
    return build_interaction(n, CouplingVector(n, kappas))


spec_kinds = st.sampled_from(["harmonic", "free", "hyperbolic"])
offsets = st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)


class TestSpectralProperties:
    @settings(max_examples=40, deadline=None)
    @given(spec_kinds, st.integers(4, 9), st.integers(0, 2 ** 32 - 1),
           st.lists(offsets, min_size=1, max_size=6), st.randoms())
    def test_batch_matches_each_time_alone(self, kind, n, seed, drawn, shuffle):
        rng = np.random.default_rng(seed)
        init = SystemState(0.5, rng.normal(size=(n, 2)), rng.normal(size=(n, 2)))
        spec = _spec_of_kind(kind, n)
        # Unordered, with a repeat and a zero.
        times = drawn + [drawn[0], 0.0]
        shuffle.shuffle(times)
        batch = spectral_propagate(init, spec, times)
        assert np.array_equal(batch.t, 0.5 + np.array(times))
        for row, t in enumerate(times):
            alone = spectral_propagate(init, spec, [t])
            assert np.array_equal(batch.q[row], alone.q[0])
            assert np.array_equal(batch.v[row], alone.v[0])

    @settings(max_examples=40, deadline=None)
    @given(spec_kinds, st.integers(4, 9), st.integers(0, 2 ** 32 - 1),
           offsets, offsets)
    def test_semigroup(self, kind, n, seed, t1, t2):
        rng = np.random.default_rng(seed)
        init = SystemState(0.0, rng.normal(size=(n, 2)), rng.normal(size=(n, 2)))
        spec = _spec_of_kind(kind, n)
        first = spectral_propagate(init, spec, [t1])
        mid = SystemState(float(first.t[0]), first.q[0], first.v[0])
        stepped = spectral_propagate(mid, spec, [t2])
        direct = spectral_propagate(init, spec, [t1 + t2])
        assert stepped.t[0] == direct.t[0]
        # Relative to the largest amplitude the path reaches, times the
        # condition number cosh(mu t1) cosh(mu t2) of the two steps, mu
        # the fastest unstable rate: roundoff in a growing mode feeds the
        # decaying one, and stepping back amplifies it.
        scale = max(np.abs(s).max() for s in (init.positions, init.velocities,
                                              first.q, first.v, direct.q, direct.v))
        mu = math.sqrt(max(0.0, -spec.mode_stiffness.min()))
        bound = 1e-13 * scale * math.cosh(mu * t1) * math.cosh(mu * t2)
        assert np.max(np.abs(stepped.q - direct.q)) <= bound
        assert np.max(np.abs(stepped.v - direct.v)) <= bound
