import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limachor.admissibility import InadmissibleError, is_admissible
from limachor.coefficients import CouplingVector, solve_couplings
from limachor.constants import (
    _CONSERVED_BLOCK,
    ConservedSeries,
    _conserved,
    closed_form_constants,
    drift_report,
    inertia_rate_max,
    partial_sums,
    potential_from_parts,
    potential_parts,
)
from limachor.dynamics import _RK4_CHUNK, rk4_chunks, rk4_integrate
from limachor.kinematics import (
    ChoreoConfig,
    Trajectory,
    planar_norm,
    sample_trajectory,
    state_at,
)
from limachor.verification import verify
from util import admissible_pairs, one_state, pair_matrix, tailed_couplings


def pairwise_potential(positions, pair):
    """Reference: 1/4 sum over ordered pairs of kappa_jl |q_j - q_l|^2,
    with the absolute-value sum of the same terms as its scale."""
    diff = positions[:, None, :] - positions[None, :, :]
    terms = pair * np.einsum("jlc,jlc->jl", diff, diff)
    return 0.25 * terms.sum(), 0.25 * np.abs(terms).sum()


def factorizations(n):
    return [(m, n // m) for m in range(2, n) if n % m == 0 and n // m >= 2]


class TestMeasure:
    def test_solved_four_body_values(self):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        report = drift_report(state_at(config, 0.0), solve_couplings(4, 2))
        assert report.moment_of_inertia == pytest.approx(9.76, abs=1e-12)
        assert report.angular_momentum == pytest.approx(13.76, abs=1e-12)
        assert report.kinetic == pytest.approx(10.88, abs=1e-12)
        assert report.potential == pytest.approx(10.88, abs=1e-12)
        assert report.first_moment == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_bodies_at_rest(self):
        state = one_state(np.array([[1.0, 0.0], [0.0, 1.0],
                                           [-1.0, 0.0], [0.0, -1.0]]),
                            np.zeros((4, 2)))
        report = drift_report(state, CouplingVector(4, [1.0, -0.5]))
        assert report.angular_momentum == 0.0
        assert report.kinetic == 0.0

    def test_everything_zero_at_origin(self):
        state = one_state(np.zeros((4, 2)), np.zeros((4, 2)))
        report = drift_report(state, CouplingVector(4, [1.0, -0.5]))
        for value in (report.angular_momentum, report.moment_of_inertia,
                      report.kinetic, report.potential):
            assert value == 0.0

    def test_dimension_mismatch(self):
        state = one_state(np.zeros((6, 2)), np.zeros((6, 2)))
        with pytest.raises(ValueError):
            drift_report(state, CouplingVector(4, [1.0, -0.5]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_potential_matches_pairwise_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        couplings = CouplingVector(n, rng.normal(size=n // 2))
        states = [one_state(rng.normal(size=(n, 2), scale=3.0),
                              rng.normal(size=(n, 2))) for _ in range(5)]
        # Mixed-sign couplings can cancel the sum itself, so the error is
        # measured against the sum of the terms' magnitudes.
        reference = [pairwise_potential(s.q[0], pair_matrix(couplings))
                     for s in states]
        for state, (value, scale) in zip(states, reference):
            assert abs(drift_report(state, couplings).potential - value) <= 1e-12 * scale
        traj = Trajectory(np.concatenate([s.t for s in states]),
                          np.concatenate([s.q for s in states]),
                          np.concatenate([s.v for s in states]))
        report = drift_report(traj, couplings)
        values = [value for value, _ in reference]
        want = max(abs(v - values[0]) for v in values)
        assert abs(report.drift["V"] - want) <= 2e-12 * max(s for _, s in reference)


def per_body_reference(pos, vel, pair):
    """Reference g, c, I, K, V per sample from plain per-body formulas,
    each as (value, sum of the terms' magnitudes).

    ``pos`` and ``vel`` are (S, N, 2) in any memory layout.  V is
    1/2 sum over unordered pairs j < l of kappa_jl |q_j - q_l|^2, one
    pair at a time: no Laplacian.
    """
    def summed(terms):
        return sum(terms), sum(np.abs(term) for term in terms)

    n = pos.shape[1]
    x, y, vx, vy = pos[..., 0], pos[..., 1], vel[..., 0], vel[..., 1]
    pair_terms = []
    for j in range(n):
        for ell in range(j + 1, n):
            dx, dy = x[:, j] - x[:, ell], y[:, j] - y[:, ell]
            pair_terms.append(0.5 * pair[j, ell] * (dx * dx + dy * dy))
    return {
        "g": summed([pos[:, k] for k in range(n)]),
        "c": summed([x[:, k] * vy[:, k] for k in range(n)]
                    + [-y[:, k] * vx[:, k] for k in range(n)]),
        "I": summed([x[:, k] * x[:, k] + y[:, k] * y[:, k] for k in range(n)]),
        "K": summed([0.5 * (vx[:, k] * vx[:, k] + vy[:, k] * vy[:, k])
                     for k in range(n)]),
        "V": summed(pair_terms),
    }


def assert_matches_reference(got, pos, vel, pair):
    """``got``, the g, c, I, K, V of ``_conserved``, to 1e-13 of each term scale."""
    for key, value in zip("gcIKV", got):
        want, scale = per_body_reference(pos, vel, pair)[key]
        assert value.shape == want.shape, key
        assert np.all(np.abs(value - want) <= 1e-13 * scale), key


class TestBlockedKernel:
    """The conserved-quantity kernel against plain per-body formulas.

    The kernel reads each coordinate as an (N, S) matrix.  It must give
    the same values on every layout it is handed: RK4's coordinate-major
    chunks, C-ordered (S, N, 2) analytic trajectories, and the
    fancy-indexed copies of ``partial_sums``.  The sample counts end
    below, on and past the kernel's 2048-sample Laplacian products, so
    full and partial last products are both covered.
    """

    SAMPLES = [2, 2047, 2048, 2049, 4097]

    @pytest.mark.parametrize("tail", ["zero", "random", "diametral"])
    @pytest.mark.parametrize("n, p", [(4, 2), (5, 2), (7, 2), (12, 5), (64, 7)])
    def test_laplacian_keeps_the_pair_matrix_bits(self, n, p, tail):
        # The reference builds D - K from the pair matrix K itself.
        couplings = tailed_couplings(n, p, tail)
        pair = pair_matrix(couplings)
        old = np.diag(pair.sum(axis=1)) - pair
        got = couplings.laplacian()
        assert np.array_equal(got, old)
        assert np.array_equal(np.signbit(got), np.signbit(old))

    @pytest.mark.parametrize("samples", SAMPLES)
    @pytest.mark.parametrize("p, n, tail", [(2, 5, None), (-3, 7, [0.25]), (5, 12, None),
                                            (7, 64, None)])
    def test_rk4_trajectory(self, samples, p, n, tail):
        config = ChoreoConfig(n, p, 1.2, 0.7)
        couplings = solve_couplings(n, p, tail)
        laplacian, pair = couplings.laplacian(), pair_matrix(couplings)
        for chunk in rk4_chunks(state_at(config, 0.0), couplings, math.tau / 8192,
                                samples - 1):
            # RK4's q and v are views of its (2, 2N, S) chunk array.
            assert chunk.q.strides[0] == chunk.q.itemsize
            assert_matches_reference(_conserved(chunk.q, chunk.v, laplacian),
                                     chunk.q, chunk.v, pair)

    @pytest.mark.parametrize("samples", SAMPLES)
    def test_contiguous_trajectory(self, samples):
        config = ChoreoConfig(9, 4, 0.8, 1.3)
        couplings = solve_couplings(9, 4)
        traj = sample_trajectory(config, 0.0, math.tau, samples)
        assert traj.q.flags.c_contiguous
        assert_matches_reference(_conserved(traj.q, traj.v, couplings.laplacian()),
                                 traj.q, traj.v, pair_matrix(couplings))

    @pytest.mark.parametrize("m, n", factorizations(12))
    def test_partial_sums_orbit_copies(self, m, n):
        # partial_sums hands the kernel fancy-indexed copies of one
        # orbit's bodies, with unit couplings between all of them.
        config = ChoreoConfig(12, 5, 1.1, 0.6)
        traj = sample_trajectory(config, 0.0, math.tau, 65)
        pair = np.ones((m, m)) - np.eye(m)
        for ell in range(n):
            idx = ell + n * np.arange(m)
            pos, vel = traj.q[:, idx], traj.v[:, idx]
            assert_matches_reference(_conserved(pos, vel, m * np.eye(m) - np.ones((m, m))),
                                     pos, vel, pair)
            report = partial_sums(config, m, n, ell, 0.83)
            state = state_at(config, 0.83)
            want = per_body_reference(state.q[:, idx], state.v[:, idx], pair)
            for got, key in ((report.first_moment, "g"), (report.angular_momentum, "c"),
                             (report.moment_of_inertia, "I"), (report.kinetic, "K"),
                             (report.pair_sq_sum / 2.0, "V")):
                value, scale = want[key]
                assert np.all(np.abs(got - value[0]) <= 1e-13 * scale[0]), key


class TestClosedFormConstants:
    def test_four_body_values(self):
        report = closed_form_constants(ChoreoConfig(4, 2, 1.2, 1.0))
        assert report.moment_of_inertia == pytest.approx(9.76)
        assert report.angular_momentum == pytest.approx(13.76)
        assert report.kinetic == pytest.approx(10.88)

    def test_angular_momentum_signed_through_p(self):
        report = closed_form_constants(ChoreoConfig(5, -2, 1.0, 1.0))
        assert report.angular_momentum == pytest.approx(-5.0)

    def test_potential_always_equals_kinetic(self):
        for p, n in admissible_pairs(7, 12):
            report = closed_form_constants(ChoreoConfig(n, p, 0.9, 1.4))
            assert report.potential == report.kinetic

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError, match="not admissible"):
            closed_form_constants(ChoreoConfig(4, 5))

    def test_inadmissible_error_carries_decision(self):
        with pytest.raises(InadmissibleError) as caught:
            closed_form_constants(ChoreoConfig(4, 5))
        assert caught.value.decision == is_admissible(5, 4)

    def test_measured_matches_closed_form_at_many_times(self):
        for p, n in [(2, 4), (3, 7), (-4, 9), (5, 12)]:
            config = ChoreoConfig(n, p, 1.2, 0.7)
            couplings = solve_couplings(n, p)
            predicted = closed_form_constants(config)
            for t in np.linspace(0.0, math.tau, 7):
                report = drift_report(state_at(config, float(t)), couplings)
                assert report.moment_of_inertia == pytest.approx(
                    predicted.moment_of_inertia, abs=1e-10)
                assert report.angular_momentum == pytest.approx(
                    predicted.angular_momentum, abs=1e-10)
                assert report.kinetic == pytest.approx(
                    predicted.kinetic, abs=1e-10)
                assert report.potential == pytest.approx(
                    predicted.potential, abs=1e-10)


class TestPotentialParts:
    def test_closed_form_value(self):
        part = potential_parts(ChoreoConfig(4, 2, 1.2, 1.0), 2)
        assert part.v_minus == pytest.approx(23.04, abs=1e-12)

    def test_plus_and_minus_sum_to_four_inertia(self):
        config = ChoreoConfig(9, 4, 1.1, 0.8)
        inertia = closed_form_constants(config).moment_of_inertia
        for ell in range(1, 5):
            part = potential_parts(config, ell)
            assert part.v_plus + part.v_minus == pytest.approx(
                4 * inertia, abs=1e-10)

    def test_state_sums_constant_and_equal_to_closed_form(self):
        config = ChoreoConfig(6, 2, 1.2, 0.7)
        for ell in range(1, 4):
            expected = potential_parts(config, ell).v_minus
            for t in np.linspace(0.0, math.tau, 16, endpoint=False):
                pos = state_at(config, float(t)).q[0]
                total = sum(
                    float(np.sum((pos[k] - pos[(k + ell) % 6]) ** 2))
                    for k in range(6))
                assert total == pytest.approx(expected, abs=1e-10)

    def test_potential_from_parts_matches_energy(self):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        value = potential_from_parts(config, solve_couplings(4, 2))
        assert value == pytest.approx(10.88, abs=1e-12)

    def test_index_bounds(self):
        config = ChoreoConfig(6, 2)
        with pytest.raises(IndexError):
            potential_parts(config, 0)
        with pytest.raises(IndexError):
            potential_parts(config, 4)


class TestPartialSums:
    def test_first_moment_full_case(self):
        # N = 4 = 2*2, p = 2: n*p = 0 mod N, so |g| = 2|b|.
        config = ChoreoConfig(4, 2, 1.2, 0.9)
        report = partial_sums(config, 2, 2, 0, 0.37)
        assert report.first_moment_full
        assert np.linalg.norm(report.first_moment) == pytest.approx(
            2 * 0.9, abs=1e-12)

    def test_subgroup_constants_case(self):
        # N = 6 = 3*2, p = 2: the gate holds, sums are constant.
        config = ChoreoConfig(6, 2, 1.2, 0.7)
        expected = 3 * (1.2 ** 2 + 0.7 ** 2)
        for t in np.linspace(0.0, math.tau, 16, endpoint=False):
            report = partial_sums(config, 3, 2, 1, float(t))
            assert report.subgroup_constant
            assert report.moment_of_inertia == pytest.approx(expected, abs=1e-10)

    def test_partition_identities(self):
        config = ChoreoConfig(12, 5, 1.1, 0.6)
        couplings = solve_couplings(12, 5)
        t = 0.83
        whole = drift_report(state_at(config, t), couplings)
        for m, n in factorizations(12):
            reports = [partial_sums(config, m, n, ell, t) for ell in range(n)]
            assert sum(r.moment_of_inertia for r in reports) == pytest.approx(
                whole.moment_of_inertia, abs=1e-10)
            assert sum(r.angular_momentum for r in reports) == pytest.approx(
                whole.angular_momentum, abs=1e-10)
            assert sum(r.kinetic for r in reports) == pytest.approx(
                whole.kinetic, abs=1e-10)
            total_g = np.sum([r.first_moment for r in reports], axis=0)
            assert total_g == pytest.approx(whole.first_moment, abs=1e-10)

    def test_pair_sq_sum_prediction(self):
        # Gate holds and n*p = 0 mod N: within-orbit spread is m^2 a^2.
        config = ChoreoConfig(4, 2, 1.2, 0.9)
        report = partial_sums(config, 2, 2, 1, 1.21)
        assert report.predicted["pair_sq_sum"] == pytest.approx(4 * 1.2 ** 2)
        assert report.pair_sq_sum == pytest.approx(
            report.predicted["pair_sq_sum"], abs=1e-10)

    def test_gate_failure_reports_without_predictions(self):
        # N = 9 = 3*3, p = 4: (p-1)*n = 9 = 0 mod 9, so no constancy claim.
        config = ChoreoConfig(9, 4, 1.0, 1.0)
        report = partial_sums(config, 3, 3, 0, 0.5)
        assert not report.subgroup_constant
        assert "I" not in report.predicted

    def test_rejects_bad_factorization(self):
        config = ChoreoConfig(6, 2)
        with pytest.raises(ValueError):
            partial_sums(config, 2, 2, 0, 0.0)
        with pytest.raises(ValueError):
            partial_sums(config, 6, 1, 0, 0.0)
        with pytest.raises(IndexError):
            partial_sums(config, 3, 2, 2, 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match=rf"got t={t}$"):
            partial_sums(ChoreoConfig(6, 5), 2, 3, 0, t)


class TestDriftReport:
    def test_analytic_trajectory_of_solved_system(self):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        couplings = solve_couplings(4, 2)
        traj = sample_trajectory(config, 0.0, math.tau, 65)
        report = drift_report(traj, couplings)
        for key in ("g", "c", "I", "K", "V", "E"):
            assert report.drift[key] <= 1e-10

    def test_rk4_trajectory_drift(self):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        couplings = solve_couplings(4, 2)
        traj = rk4_integrate(state_at(config, 0.0), couplings, math.tau / 8192, 8192)
        report = drift_report(traj, couplings)
        for key in ("c", "I", "K", "V", "E"):
            baseline = {
                "c": report.angular_momentum, "I": report.moment_of_inertia,
                "K": report.kinetic, "V": report.potential,
                "E": report.kinetic + report.potential}[key]
            assert report.drift[key] / abs(baseline) <= 1e-8

    def test_wrong_couplings_keep_angular_momentum_only(self):
        # Rotationally invariant force: c stays put even off the curve.
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        couplings = CouplingVector(4, [1.0, 1.0])
        traj = rk4_integrate(state_at(config, 0.0), couplings, math.tau / 2048, 2048)
        report = drift_report(traj, couplings)
        assert report.drift["c"] <= 1e-7
        assert report.drift["I"] > 0.01   # the motion has left the curve

    def test_memory_is_linear_in_samples_times_bodies(self):
        # A pairwise-difference tensor for 257 samples of 256 bodies alone
        # would take 257 * 256 * 256 * 2 * 8 B, about 270 MB.
        config = ChoreoConfig(256, 3, 1.2, 0.7)
        couplings = solve_couplings(256, 3)
        traj = sample_trajectory(config, 0.0, math.tau, 257)
        tracemalloc.start()
        try:
            report = drift_report(traj, couplings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert report.drift["V"] <= 1e-10 * report.potential

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            drift_report(Trajectory(np.zeros(0), np.zeros((0, 0, 2)),
                                    np.zeros((0, 0, 2))),
                         CouplingVector(4, [1.0, -0.5]))


class TestInertiaRate:
    def test_flat_along_solved_motion(self):
        config = ChoreoConfig(5, 3, 1.2, 0.7)
        couplings = solve_couplings(5, 3)
        traj = rk4_integrate(state_at(config, 0.0), couplings, math.tau / 4096, 4096)
        assert inertia_rate_max(traj) <= 1e-6

    def test_requires_three_samples(self):
        config = ChoreoConfig(4, 2)
        traj = sample_trajectory(config, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            inertia_rate_max(traj)


class TestChunkedFold:
    """verify folds RK4 chunk by chunk; the values must be the whole run's.

    Step counts end a run just before, on, just past and well past RK4
    chunk boundaries.  N = 16 and 64 are included because there the
    Laplacian product rounds differently when its columns are grouped
    differently.
    """

    DT = math.tau / 8192

    @staticmethod
    def run(n, p, tail, a=1.2, b=0.7):
        config = ChoreoConfig(n, p, a, b)
        couplings = solve_couplings(n, p, tail)
        return config, couplings, state_at(config, 0.0)

    def test_rk4_chunks_are_whole_kernel_blocks(self):
        # ConservedSeries folds each chunk in one _conserved call, whose
        # Laplacian products of _CONSERVED_BLOCK samples count from the
        # chunk's first sample; they are the whole run's products only
        # if every chunk starts on one.
        assert _RK4_CHUNK % _CONSERVED_BLOCK == 0

    @pytest.mark.parametrize("steps", [2, 2047, 2048, 2049, 2113, 4095, 4096, 4161, 8192])
    @pytest.mark.parametrize("n, p, tail", [
        (5, 2, None), (9, 2, None), (10, 3, [0.05, -0.03, 0.02]),
        (16, 3, None), (64, 7, None)])
    def test_series_has_the_whole_run_bits(self, n, p, tail, steps):
        _, couplings, init = self.run(n, p, tail)
        series = ConservedSeries(couplings, steps + 1)
        for chunk in rk4_chunks(init, couplings, self.DT, steps):
            series.add(chunk)
        traj = rk4_integrate(init, couplings, self.DT, steps)
        whole = _conserved(traj.q, traj.v, couplings.laplacian())
        assert np.array_equal(series.t, traj.t)
        for got, expected in zip((series.g, series.c, series.inertia,
                                  series.kinetic, series.potential), whole):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n, p, tail, steps", [
        (4, 2, None, 8192), (9, 2, None, 8192), (9, 2, None, 2113),
        (7, -2, None, 4161), (10, 3, [0.05, -0.03, 0.02], 8192),
        (12, 5, None, 8192)])
    def test_verify_reports_the_whole_run_values(self, n, p, tail, steps):
        config, couplings, init = self.run(n, p, tail)
        payload = verify(config, couplings, self.DT, steps, 64, residual=1e-10,
                         rk4=1e-6, spectral=1e-9, drift=1e-8, inertia_rate=1e-6)
        traj = rk4_integrate(init, couplings, self.DT, steps)
        report = drift_report(traj, couplings)
        a, b = config.a, config.b
        assert payload["drift"] == report.drift
        assert payload["relative_drift"] == {
            "c": report.drift["c"] / (n * (a * a + abs(p) * b * b)),
            "I": report.drift["I"] / abs(report.moment_of_inertia),
            "K": report.drift["K"] / abs(report.kinetic),
            "V": report.drift["V"] / abs(report.potential),
            "E": report.drift["E"] / abs(report.kinetic + report.potential),
        }
        assert payload["inertia_rate_max"] == inertia_rate_max(traj)
        assert payload["t_end"] == traj.t[-1]

    def test_incomplete_series_is_refused(self):
        _, couplings, init = self.run(9, 2, None)
        series = ConservedSeries(couplings, 4097)
        # Two chunks of 2048 and 2049 samples; only the first is in.
        for chunk in rk4_chunks(init, couplings, self.DT, 4096):
            series.add(chunk)
            break
        for read in (series.report, series.inertia_rate_max):
            with pytest.raises(ValueError, match="holds 2048 of its 4097 samples"):
                read()

    @pytest.mark.parametrize("steps", [1, 0, -1, -2])
    def test_verify_refuses_too_few_steps_before_any_work(self, steps):
        # The residual grid is more than any memory holds, so work begun
        # before the check would fail on it instead.
        config, couplings, _ = self.run(9, 2, None)
        with pytest.raises(ValueError) as err:
            verify(config, couplings, self.DT, steps, 10**15, residual=1e-10,
                   rk4=1e-6, spectral=1e-9, drift=1e-8, inertia_rate=1e-6)
        assert str(err.value) == f"verify needs at least 2 steps, got steps={steps}"

    def test_verify_refuses_an_empty_grid_before_any_work(self):
        # The conserved series for 10**15 steps is more than any memory
        # holds, so RK4 work begun before the check would fail on it.
        config, couplings, _ = self.run(9, 2, None)
        with pytest.raises(ValueError, match="residual grid is empty"):
            verify(config, couplings, self.DT, 10**15, 0, residual=1e-10,
                   rk4=1e-6, spectral=1e-9, drift=1e-8, inertia_rate=1e-6)

    def test_verify_never_holds_the_trajectory(self):
        # At N = 64 and 8192 steps the RK4 array alone took 16.8 MB and
        # the Laplacian product array 8.5 MB; folding chunk by chunk
        # peaks at about 8 MB.
        config, couplings, _ = self.run(64, 5, None)
        tracemalloc.start()
        try:
            payload = verify(config, couplings, self.DT, 8192, 64, residual=1e-10,
                             rk4=1e-6, spectral=1e-9, drift=1e-8, inertia_rate=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload["ok"]
        assert peak < 12e6


class TestOverflowingTrajectory:
    @staticmethod
    def huge_trajectory():
        # Finite coordinates whose squares are not.
        t = np.arange(4) * 0.5
        q = np.full((4, 4, 2), 1e200) * np.arange(1, 5)[:, None, None]
        return Trajectory(t, q, q.copy())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_drift_report_names_quantities_and_times(self):
        with pytest.raises(ValueError, match=r"I, K, V, E .*t in \[0\.0, 1\.5\]"):
            drift_report(self.huge_trajectory(), CouplingVector(4, [1.0, -0.5]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_inertia_rate_names_times(self):
        with pytest.raises(ValueError, match=r"inertia rate overflows .*t in \[0\.0, 1\.5\]"):
            inertia_rate_max(self.huge_trajectory())


class TestPlanarNorm:
    """planar_norm is np.linalg.norm(axis=-1) over the 2-long coordinate axis, bit for bit."""

    @staticmethod
    def rk4_g_series():
        config, couplings = ChoreoConfig(7, 3, 1.2, 1.0), solve_couplings(7, 3)
        traj = rk4_integrate(state_at(config, 0.0), couplings, 0.01, 3000)
        series = ConservedSeries(couplings, traj.t.size)
        series.add(traj)
        return series

    def test_bits_match_linalg_norm_with_inf_and_nan(self):
        series = self.rk4_g_series()
        g = series.g - series.g[0]
        g[[5, 9, 13, 17, 21, 25]] = [[np.inf, 1.0], [np.nan, 0.0], [-np.inf, np.nan],
                                     [1e200, -1e200], [-np.inf, -np.inf], [0.0, -0.0]]
        with np.errstate(over="ignore", invalid="ignore"):
            for v in (g, g[:3000].reshape(60, 50, 2)):
                assert planar_norm(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()

    def test_drift_of_g_matches_linalg_norm(self):
        series = self.rk4_g_series()
        want = float(np.max(np.linalg.norm(series.g - series.g[0], axis=1)))
        assert series.report().drift["g"] == want
