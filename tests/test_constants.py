import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limachor.admissibility import InadmissibleError, is_admissible
from limachor.coefficients import CouplingVector, solve_couplings
from limachor.constants import (
    ConservedSeries,
    _conserved,
    _kernel,
    closed_form_constants,
    drift_report,
    inertia_rate_max,
    partial_sums,
    potential_from_parts,
    potential_parts,
)
from limachor.dynamics import build_interaction, rk4_chunks, rk4_integrate
from limachor.kinematics import (
    ChoreoConfig,
    SystemState,
    Trajectory,
    sample_trajectory,
    state_at,
)
from limachor.verification import verify
from util import admissible_pairs, measure


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
        report = measure(state_at(config, 0.0), solve_couplings(4, 2))
        assert report.moment_of_inertia == pytest.approx(9.76, abs=1e-12)
        assert report.angular_momentum == pytest.approx(13.76, abs=1e-12)
        assert report.kinetic == pytest.approx(10.88, abs=1e-12)
        assert report.potential == pytest.approx(10.88, abs=1e-12)
        assert report.first_moment == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_bodies_at_rest(self):
        state = SystemState(0.0, np.array([[1.0, 0.0], [0.0, 1.0],
                                           [-1.0, 0.0], [0.0, -1.0]]),
                            np.zeros((4, 2)))
        report = measure(state, CouplingVector(4, [1.0, -0.5]))
        assert report.angular_momentum == 0.0
        assert report.kinetic == 0.0

    def test_everything_zero_at_origin(self):
        state = SystemState(0.0, np.zeros((4, 2)), np.zeros((4, 2)))
        report = measure(state, CouplingVector(4, [1.0, -0.5]))
        for value in (report.angular_momentum, report.moment_of_inertia,
                      report.kinetic, report.potential):
            assert value == 0.0

    def test_dimension_mismatch(self):
        state = SystemState(0.0, np.zeros((6, 2)), np.zeros((6, 2)))
        with pytest.raises(ValueError):
            measure(state, CouplingVector(4, [1.0, -0.5]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_potential_matches_pairwise_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        couplings = CouplingVector(n, rng.normal(size=n // 2))
        states = [SystemState(0.0, rng.normal(size=(n, 2), scale=3.0),
                              rng.normal(size=(n, 2))) for _ in range(5)]
        # Mixed-sign couplings can cancel the sum itself, so the error is
        # measured against the sum of the terms' magnitudes.
        reference = [pairwise_potential(s.positions, couplings.pair_matrix())
                     for s in states]
        for state, (value, scale) in zip(states, reference):
            assert abs(measure(state, couplings).potential - value) <= 1e-12 * scale
        traj = Trajectory(np.array([s.t for s in states]),
                          np.stack([s.positions for s in states]),
                          np.stack([s.velocities for s in states]))
        report = drift_report(traj, couplings)
        values = [value for value, _ in reference]
        want = max(abs(v - values[0]) for v in values)
        assert abs(report.drift["V"] - want) <= 2e-12 * max(s for _, s in reference)


def conserved_reference(pos, vel, pair):
    """Reference g, c, I, K, V per sample from explicit per-body terms,
    each as (value, sum of the terms' magnitudes)."""
    def summed(terms, axes):
        return terms.sum(axis=axes), np.abs(terms).sum(axis=axes)

    diff = pos[:, :, None, :] - pos[:, None, :, :]
    pair_terms = 0.25 * pair * np.einsum("sjlc,sjlc->sjl", diff, diff)
    return {
        "g": summed(pos, 1),
        "c": summed(pos[:, :, 0] * vel[:, :, 1] - pos[:, :, 1] * vel[:, :, 0], 1),
        "I": summed(pos * pos, (1, 2)),
        "K": summed(0.5 * vel * vel, (1, 2)),
        "V": summed(pair_terms, (1, 2)),
    }


class TestBlockedKernel:
    """The conserved-quantity kernel against explicit per-body sums.

    The sample counts put 2S coordinate rows below, on, just past and
    well past the kernel's 1024-row product blocks, so full and partial
    last blocks are both covered.
    """

    SAMPLES = [2, 511, 512, 513, 1025, 8193]

    def check(self, traj, couplings):
        pair = couplings.pair_matrix()
        got = dict(zip("gcIKV", _conserved(traj.q, traj.v, _kernel(pair))))
        for key, (value, scale) in conserved_reference(traj.q, traj.v, pair).items():
            assert got[key].shape == value.shape
            assert np.all(np.abs(got[key] - value) <= 1e-12 * scale), key

    @pytest.mark.parametrize("samples", SAMPLES)
    @pytest.mark.parametrize("p, n, tail", [(2, 5, None), (-3, 7, [0.25]), (5, 12, None)])
    def test_rk4_trajectory(self, samples, p, n, tail):
        config = ChoreoConfig(n, p, 1.2, 0.7)
        couplings = solve_couplings(n, p, tail)
        spec = build_interaction(n, couplings)
        # RK4's q and v are strided views of its (S, 2, 2N) state array.
        traj = rk4_integrate(state_at(config, 0.0), spec, math.tau / 8192, samples - 1)
        assert not traj.q.flags.c_contiguous
        self.check(traj, couplings)

    @pytest.mark.parametrize("samples", SAMPLES)
    def test_contiguous_trajectory(self, samples):
        config = ChoreoConfig(9, 4, 0.8, 1.3)
        traj = sample_trajectory(config, 0.0, math.tau, samples)
        assert traj.q.flags.c_contiguous
        self.check(traj, solve_couplings(9, 4))


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
                report = measure(state_at(config, float(t)), couplings)
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
                pos = state_at(config, float(t)).positions
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
        whole = measure(state_at(config, t), couplings)
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
        spec = build_interaction(4, couplings)
        traj = rk4_integrate(state_at(config, 0.0), spec, math.tau / 8192, 8192)
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
        spec = build_interaction(4, couplings)
        traj = rk4_integrate(state_at(config, 0.0), spec, math.tau / 2048, 2048)
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
        spec = build_interaction(5, couplings)
        traj = rk4_integrate(state_at(config, 0.0), spec, math.tau / 4096, 4096)
        assert inertia_rate_max(traj) <= 1e-6

    def test_requires_three_samples(self):
        config = ChoreoConfig(4, 2)
        traj = sample_trajectory(config, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            inertia_rate_max(traj)


class TestChunkedFold:
    """verify folds RK4 chunk by chunk; the values must be the whole run's.

    Step counts end a run on, just past and well past RK4 chunk
    boundaries.  N = 16 and 64 are included because there the Laplacian
    product rounds differently when its rows are grouped differently.
    """

    DT = math.tau / 8192

    @staticmethod
    def run(n, p, tail, a=1.2, b=0.7):
        config = ChoreoConfig(n, p, a, b)
        couplings = solve_couplings(n, p, tail)
        return config, couplings, build_interaction(n, couplings), state_at(config, 0.0)

    @pytest.mark.parametrize("steps", [2, 2048, 2049, 2113, 4161, 8192])
    @pytest.mark.parametrize("n, p, tail", [
        (5, 2, None), (9, 2, None), (10, 3, [0.05, -0.03, 0.02]),
        (16, 3, None), (64, 7, None)])
    def test_series_has_the_whole_run_bits(self, n, p, tail, steps):
        _, couplings, spec, init = self.run(n, p, tail)
        series = ConservedSeries(couplings, steps + 1)
        for chunk in rk4_chunks(init, spec, self.DT, steps):
            series.add(chunk)
        traj = rk4_integrate(init, spec, self.DT, steps)
        whole = _conserved(traj.q, traj.v, _kernel(couplings.pair_matrix()))
        assert np.array_equal(series.t, traj.t)
        for got, expected in zip((series.g, series.c, series.inertia,
                                  series.kinetic, series.potential), whole):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n, p, tail, steps", [
        (4, 2, None, 8192), (9, 2, None, 8192), (9, 2, None, 2113),
        (7, -2, None, 4161), (10, 3, [0.05, -0.03, 0.02], 8192),
        (12, 5, None, 8192)])
    def test_verify_reports_the_whole_run_values(self, n, p, tail, steps):
        config, couplings, spec, init = self.run(n, p, tail)
        payload = verify(config, couplings, self.DT, steps, 64, residual=1e-10,
                         rk4=1e-6, spectral=1e-9, drift=1e-8, inertia_rate=1e-6)
        traj = rk4_integrate(init, spec, self.DT, steps)
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
        _, couplings, spec, init = self.run(9, 2, None)
        series = ConservedSeries(couplings, 4097)
        # Two chunks of 2049 and 2048 samples; the last sample is held
        # back until the next piece, so nothing is complete yet.
        for chunk in rk4_chunks(init, spec, self.DT, 4096):
            series.add(chunk)
            break
        for read in (series.report, series.inertia_rate_max):
            with pytest.raises(ValueError, match="holds 2048 of its 4097 samples"):
                read()

    def test_verify_never_holds_the_trajectory(self):
        # At N = 64 and 8192 steps the RK4 array alone took 16.8 MB and
        # the Laplacian product array 8.5 MB; folding chunk by chunk
        # peaks at about 8 MB.
        config, couplings, _, _ = self.run(64, 5, None)
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
