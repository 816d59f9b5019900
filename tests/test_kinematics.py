import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from limachor import kinematics
from limachor.coefficients import CouplingVector, solve_couplings
from limachor.dynamics import build_interaction, rk4_integrate
from limachor.kinematics import (
    ChoreoConfig,
    Trajectory,
    bodies_at,
    body_state,
    eom_residual,
    orbit_csv,
    sample_trajectory,
    state_at,
    trajectory_csv,
)
from util import admissible_pairs


def reference_derivatives(config, theta):
    """The scalar curve evaluator, one parameter at a time with math.cos/sin.

    The array evaluator keeps its operation order, so it must match this
    bit for bit.
    """
    a, b, p = config.a, config.b, config.p

    def angle(x):
        return math.remainder(x, math.tau) if abs(x) > 1e6 else x

    t1, tp = angle(theta), angle(p * theta)
    c1, s1 = math.cos(t1), math.sin(t1)
    cp, sp = math.cos(tp), math.sin(tp)
    pos = np.array([a * c1 + b * cp, a * s1 + b * sp])
    vel = np.array([-a * s1 - p * b * sp, a * c1 + p * b * cp])
    acc = np.array([-a * c1 - p * p * b * cp, -a * s1 - p * p * b * sp])
    return pos, vel, acc


def reference_body(config, k, t):
    return reference_derivatives(config, t + (math.tau * k) / config.N)


def reference_bodies(config, t):
    """(N, 2) positions, velocities, accelerations, one body at a time."""
    rows = [reference_body(config, k, t) for k in range(config.N)]
    return tuple(np.array(column) for column in zip(*rows))


def reference_csv(traj):
    """The per-row formatter: one f-string with five reprs per (sample, body).

    The block formatter must reproduce it byte for byte.
    """
    lines = ["t,body,x,y,vx,vy"]
    for t, q, v in zip(traj.t.tolist(), traj.q, traj.v):
        for k, ((x, y), (vx, vy)) in enumerate(zip(q.tolist(), v.tolist())):
            lines.append(f"{t!r},{k},{x!r},{y!r},{vx!r},{vy!r}")
    return "\n".join(lines) + "\n"


def rk4_export(N, steps):
    """RK4 output over one period, where almost no coordinate repeats."""
    config = ChoreoConfig(N, 5, 1.3, -0.7)
    spec = build_interaction(N, solve_couplings(N, 5))
    return rk4_integrate(state_at(config, 0.0), spec, math.tau / steps, steps)


# Signed zeros, the smallest subnormal, both sides of repr's switch to
# exponent notation (1e16 and 1e-05) and the largest finite magnitudes.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-05,
               0.0001, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def float_trajectories(draw):
    shape = (draw(st.integers(0, 6)), draw(st.integers(0, 5)), 2)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    # Drawing from a short list too makes repeats (and -0.0 beside 0.0) common.
    pool = st.one_of(finite, st.sampled_from(EDGE_FLOATS))
    t = draw(arrays(np.float64, shape[:1], elements=pool))
    q = draw(arrays(np.float64, shape, elements=pool))
    v = draw(arrays(np.float64, shape, elements=pool))
    return Trajectory(t, q, v)


def _neighbour(row, slot, up):
    """``row`` with one slot moved to the nearest distinct bit pattern.

    A zero flips its sign (-0.0 == 0.0, but the reprs differ); any
    other value moves one ulp, towards zero where a step away would
    overflow.
    """
    x = row[slot]
    if x == 0.0:
        y = -x
    else:
        y = math.nextafter(x, math.inf if up else -math.inf)
        y = y if math.isfinite(y) else math.nextafter(x, 0.0)
    return row[:slot] + (y,) + row[slot + 1:]


@st.composite
def row_pool_trajectories(draw):
    """Trajectories whose (x, y, vx, vy) rows come from a small pool.

    The pool holds a few drawn rows and chains of one-slot neighbours of
    them, so many rows repeat exactly and many differ from another row
    in a sign of zero or the last bit of one or more slots.
    """
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from(EDGE_FLOATS))
    rows = draw(st.lists(st.tuples(value, value, value, value), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 8))):
        row = draw(st.sampled_from(rows))
        rows.append(_neighbour(row, draw(st.integers(0, 3)), draw(st.booleans())))
    n_samples, n_bodies = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    size = n_samples * n_bodies
    picks = draw(st.lists(st.sampled_from(rows), min_size=size, max_size=size))
    table = np.array(picks, dtype=np.float64).reshape(n_samples, n_bodies, 4)
    t = draw(arrays(np.float64, (n_samples,), elements=value))
    return Trajectory(t, table[..., :2].copy(), table[..., 2:].copy())


def bit_equal(x, y):
    """Same shape and the same float64 bits (so -0.0 differs from 0.0)."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


REFERENCE_CONFIGS = [ChoreoConfig(4, 2, 1.2, 1.0), ChoreoConfig(7, -3, 0.3, -2.5),
                     ChoreoConfig(12, 9, -1e3, 1e-3), ChoreoConfig(64, 5, 1.7, 0.2)]
# Both sides of the 1e6 angle reduction, for t and for p * t.
REFERENCE_TIMES = [0.0, 0.37, -5.1, 1e6 / 9, 1e6 / 5, 999_999.9, 2e6 * math.pi, -7.7e7]


class TestCurveParams:
    def test_rejects_zero_amplitudes(self):
        with pytest.raises(ValueError):
            ChoreoConfig(4, 2, 0.0, 1.0)
        with pytest.raises(ValueError):
            ChoreoConfig(4, 2, 1.0, 0.0)

    @pytest.mark.parametrize("p", [-1, 0, 1])
    def test_rejects_degenerate_p(self, p):
        with pytest.raises(ValueError):
            ChoreoConfig(4, p, 1.0, 1.0)

    def test_config_needs_four_bodies(self):
        with pytest.raises(ValueError):
            ChoreoConfig(3, 2, 1.0, 1.0)

    @pytest.mark.parametrize("p, N", [(10**200, 4), (-(10**155), 4), (3, 10**400)])
    def test_p_or_n_beyond_float_range_is_value_error_naming_p(self, p, N):
        # p * p (or N) is an int no float holds; not an OverflowError.
        with pytest.raises(ValueError, match=f"p={p} too large"):
            ChoreoConfig(N, p, 1.0, 1.0)

    def test_largest_p_whose_square_fits_is_accepted(self):
        assert ChoreoConfig(4, 10**150, 1.0, 1e-10).p == 10**150


class TestCurvePoint:
    def test_at_zero(self):
        assert bodies_at(ChoreoConfig(4, 2, 1.2, 1.0), 0, 0.0)[0] == \
            pytest.approx([2.2, 0.0])

    @pytest.mark.parametrize("t", [2 * math.pi / 3, 4 * math.pi / 3])
    def test_self_intersection_of_equal_amplitude_curve(self, t):
        # a = b, p = 2: the curve crosses itself at (-a, 0).
        assert bodies_at(ChoreoConfig(4, 2, 1.0, 1.0), 0, t)[0] == \
            pytest.approx([-1.0, 0.0], abs=1e-15)


class TestBodyState:
    def test_coincident_bodies_at_equal_amplitudes(self):
        config = ChoreoConfig(6, 2, 1.0, 1.0)
        pos2, _ = body_state(config, 2, 0.0)
        pos4, _ = body_state(config, 4, 0.0)
        assert pos2 == pytest.approx([-1.0, 0.0], abs=1e-15)
        assert pos4 == pytest.approx([-1.0, 0.0], abs=1e-15)

    def test_body_zero_at_time_zero(self):
        config = ChoreoConfig(5, 3, 0.7, -0.4)
        pos, vel = body_state(config, 0, 0.0)
        assert pos == pytest.approx([0.7 - 0.4, 0.0])
        assert vel == pytest.approx([0.0, 0.7 + 3 * (-0.4)])

    def test_index_bounds(self):
        config = ChoreoConfig(4, 2)
        with pytest.raises(IndexError):
            body_state(config, 4, 0.0)
        with pytest.raises(IndexError):
            body_state(config, -1, 0.0)

    def test_choreography_shift_identity(self):
        config = ChoreoConfig(7, 3, 1.1, 0.6)
        for k in range(7):
            for t in (0.0, 0.421, 3.9):
                direct, _ = body_state(config, k, t)
                shifted, _ = body_state(config, 0, t + (math.tau * k) / 7)
                assert direct == pytest.approx(shifted, abs=1e-12)


class TestInitialState:
    def test_four_body_positions(self):
        state = state_at(ChoreoConfig(4, 2, 1.0, 0.5), 0.0)
        expected = np.array([[1.5, 0.0], [-0.5, 1.0], [-0.5, 0.0], [-0.5, -1.0]])
        assert state.positions == pytest.approx(expected, abs=1e-15)

    def test_center_of_mass_at_origin_when_p_not_multiple_of_n(self):
        for p, n in admissible_pairs(7, 12):
            state = state_at(ChoreoConfig(n, p, 1.2, 0.7), 0.0)
            assert np.linalg.norm(state.positions.sum(axis=0)) <= 1e-10 * n
            assert np.linalg.norm(state.velocities.sum(axis=0)) <= 1e-10 * n

    def test_first_moment_rotates_when_n_divides_p(self):
        # p a multiple of N: the first moment is a rotating vector of
        # norm |b| N, nowhere near constant.
        config = ChoreoConfig(6, 6, 1.0, 0.8)
        g0 = state_at(config, 0.0).positions.sum(axis=0)
        variation = max(
            float(np.linalg.norm(state_at(config, t).positions.sum(axis=0) - g0))
            for t in np.linspace(0.0, math.tau, 32, endpoint=False))
        assert variation > 0.1 * 0.8 * 6

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_state_at_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match=rf"got t={t}$"):
            state_at(ChoreoConfig(6, 5), t)


class TestAnalyticAccel:
    def test_at_time_zero(self):
        config = ChoreoConfig(4, 2, 1.0, 0.5)
        assert bodies_at(config, 0, 0.0)[2] == pytest.approx([-3.0, 0.0])

    def test_matches_finite_difference_of_velocity(self):
        config = ChoreoConfig(4, 2, 1.0, 0.5)
        h = 1e-5
        for t in (0.0, 1.3, 4.0):
            _, v_plus = body_state(config, 0, t + h)
            _, v_minus = body_state(config, 0, t - h)
            fd = (v_plus - v_minus) / (2 * h)
            assert bodies_at(config, 0, t)[2] == pytest.approx(fd, abs=1e-8)

    def test_derivative_consistency_across_parameter_ranges(self):
        h = 1e-5
        for p in (-12, -5, -2, 2, 3, 7, 12):
            for a, b in ((1.2, 1.0), (10.0, 10.0), (-3.0, 0.5)):
                config = ChoreoConfig(8, p, a, b)
                # Centered-difference truncation grows like the third
                # derivative; budget for it on top of the 1e-7 floor.
                tol_v = 1e-7 + (h * h / 6) * (abs(a) + abs(p) ** 3 * abs(b))
                tol_a = 1e-7 + (h * h / 6) * (abs(a) + abs(p) ** 4 * abs(b))
                for t in (0.0, 0.9, 2.7):
                    p_plus, v_plus = body_state(config, 1, t + h)
                    p_minus, v_minus = body_state(config, 1, t - h)
                    _, vel = body_state(config, 1, t)
                    assert vel == pytest.approx(
                        (p_plus - p_minus) / (2 * h), abs=tol_v)
                    assert bodies_at(config, 1, t)[2] == pytest.approx(
                        (v_plus - v_minus) / (2 * h), abs=tol_a)

    def test_large_time_angle_reduction_keeps_periodicity(self):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        t_big = 2.0e6 * math.pi  # even multiple of pi: same phase as t = 0
        pos_big, _ = body_state(config, 0, t_big)
        pos_ref, _ = body_state(config, 0, 0.0)
        assert pos_big == pytest.approx(pos_ref, abs=1e-8)


class TestEomResidual:
    def test_certifies_four_body_solution(self):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        assert eom_residual(config, solve_couplings(4, 2)) < 1e-12

    def test_amplitudes_are_irrelevant(self):
        couplings = solve_couplings(6, 2, [0.0])
        assert eom_residual(ChoreoConfig(6, 2, 1.0, 2.0), couplings) < 1e-12

    def test_equal_couplings_are_not_a_solution(self):
        config = ChoreoConfig(6, 2, 1.2, 1.0)
        assert eom_residual(config, CouplingVector(6, [1.0, 1.0, 1.0])) > 0.1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eom_residual(ChoreoConfig(6, 2), CouplingVector(4, [1.0, -0.5]))

    def test_custom_grid(self):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        assert eom_residual(config, solve_couplings(4, 2), [0.0, 2.0]) < 1e-12


class TestSampleTrajectory:
    def test_endpoints_and_spacing(self):
        traj = sample_trajectory(ChoreoConfig(4, 2), 0.0, math.tau, 3)
        assert traj.t == pytest.approx([0.0, math.pi, math.tau])

    def test_periodicity(self):
        config = ChoreoConfig(5, 2, 0.9, 0.4)
        for t in (0.0, 1.1, 3.7):
            now = state_at(config, t)
            later = state_at(config, t + math.tau)
            assert now.positions == pytest.approx(later.positions, abs=1e-12)
            assert now.velocities == pytest.approx(later.velocities, abs=1e-12)

    def test_bad_ranges(self):
        config = ChoreoConfig(4, 2)
        with pytest.raises(ValueError):
            sample_trajectory(config, 1.0, 1.0, 5)
        with pytest.raises(ValueError):
            sample_trajectory(config, 0.0, 1.0, 1)


class TestTrajectoryShapes:
    @pytest.mark.parametrize("t, q, v", [
        (np.zeros((3, 1)), np.zeros((3, 4, 2)), np.zeros((3, 4, 2))),  # t 2-D
        (np.zeros(3), np.zeros((3, 8)), np.zeros((3, 8))),             # q 2-D
        (np.zeros(3), np.zeros((3, 4, 3)), np.zeros((3, 4, 3))),       # not planar
        (np.zeros(2), np.zeros((3, 4, 2)), np.zeros((3, 4, 2))),       # len(t) != S
        (np.zeros(3), np.zeros((3, 4, 2)), np.zeros((3, 5, 2))),       # v != q
    ], ids=["t-2d", "q-2d", "q-not-planar", "t-length", "v-shape"])
    def test_malformed_arrays_rejected(self, t, q, v):
        with pytest.raises(ValueError, match=r"must be \(S,\), \(S, N, 2\)"):
            Trajectory(t, q, v)

    def test_fields_are_the_arrays(self):
        assert [f.name for f in dataclasses.fields(Trajectory)] == ["t", "q", "v"]
        t, q, v = np.zeros(3), np.zeros((3, 4, 2)), np.ones((3, 4, 2))
        traj = Trajectory(t, q, v)
        assert traj.t is t and traj.q is q and traj.v is v


class TestTrajectoryCsv:
    def test_layout_and_roundtrip(self):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        traj = sample_trajectory(config, 0.0, 1.0, 3)
        lines = trajectory_csv(traj).strip().split("\n")
        assert lines[0] == "t,body,x,y,vx,vy"
        assert len(lines) == 1 + 3 * 4
        # Rows ordered by t then body, floats round-trip exactly.
        t0, body, x, *_ = lines[1].split(",")
        assert float(t0) == 0.0 and body == "0"
        assert float(x) == traj.q[0, 0, 0]
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0 and last[1] == "3"


class TestTrajectoryCsvMatchesReference:
    def test_full_period_export_with_repeats(self):
        # 129 samples of one period at N = 256: most coordinates repeat.
        traj = sample_trajectory(ChoreoConfig(256, 5, 1.3, -0.7), 0.0,
                                 math.tau, 129)
        assert np.unique(np.concatenate((traj.q, traj.v))).size < 4000
        assert trajectory_csv(traj) == reference_csv(traj)

    def test_rk4_output_without_repeats(self):
        traj = rk4_export(16, 64)
        assert trajectory_csv(traj) == reference_csv(traj)

    def test_edge_floats(self):
        values = np.array(EDGE_FLOATS * 4).reshape(5, 4, 2)
        traj = Trajectory(np.array([-0.0, 0.0, 5e-324, 1e-05, 1e16]),
                          values, values[::-1].copy())
        csv = trajectory_csv(traj)
        assert csv == reference_csv(traj)
        assert "-0.0,0,0.0,-0.0," in csv

    def test_empty_trajectory(self):
        traj = Trajectory(np.zeros(0), np.zeros((0, 0, 2)), np.zeros((0, 0, 2)))
        assert trajectory_csv(traj) == reference_csv(traj) == "t,body,x,y,vx,vy\n"

    @settings(max_examples=200, deadline=None)
    @given(traj=float_trajectories())
    def test_any_finite_floats(self, traj):
        assert trajectory_csv(traj) == reference_csv(traj)

    @settings(max_examples=200, deadline=None)
    @given(traj=row_pool_trajectories())
    def test_rows_that_differ_in_one_bit(self, traj):
        assert trajectory_csv(traj) == reference_csv(traj)

    def test_rows_differing_only_in_signs_of_zero(self):
        # Every sign pattern of an all-zero row, each at two bodies.
        signs = np.array([[(-1.0) ** (m >> j & 1) for j in range(4)]
                          for m in range(16)])
        rows = np.concatenate((signs, signs[::-1])) * 0.0
        traj = Trajectory(np.array([0.0]), rows[None, :, :2].copy(),
                          rows[None, :, 2:].copy())
        csv = trajectory_csv(traj)
        assert csv == reference_csv(traj)
        assert len(set(line.split(",", 2)[2] for line in csv.splitlines()[1:])) == 16

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_non_float64_coordinates_print_as_float64(self, dtype):
        q = (np.arange(24).reshape(3, 4, 2) - 7.9).astype(dtype)
        t = np.array([0.0, 0.5, 1.0])
        as_float64 = Trajectory(t, q.astype(np.float64), (-q).astype(np.float64))
        assert trajectory_csv(Trajectory(t, q, -q)) == reference_csv(as_float64)

    def test_peak_memory_stays_linear(self):
        # RK4 at N = 256 over 128 steps: 33,024 rows, none repeated, and
        # every sample's block is held until they are joined.
        traj = rk4_export(256, 128)
        tracemalloc.start()
        try:
            csv = trajectory_csv(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert csv.count("\n") == 1 + 129 * 256
        assert peak < 32e6


@st.composite
def orbit_exports(draw):
    """(config, t0, t1, count): admissible signed p, signed a and b.

    t0 is 0, negative, or beyond the 1e6 angle reduction on either side;
    a span of exactly one period makes many curve angles repeat.
    """
    n_bodies = draw(st.integers(4, 300))
    p = draw(st.sampled_from([p for p, n in admissible_pairs(12, n_bodies, n_bodies)]))
    amplitude = st.floats(0.1, 10.0).flatmap(lambda x: st.sampled_from((x, -x)))
    config = ChoreoConfig(n_bodies, p, draw(amplitude), draw(amplitude))
    t0 = draw(st.one_of(st.just(0.0), st.floats(-1e3, -1e-3),
                        st.floats(1e6, 1e9), st.floats(-1e9, -1e6)))
    span = draw(st.one_of(st.just(math.tau), st.floats(1e-3, 1e3)))
    return config, t0, t0 + span, draw(st.integers(2, 300))


def distinct_angles(config, t0, t1, count):
    times = np.linspace(t0, t1, count)
    theta = times[:, None] + (math.tau * np.arange(config.N)) / config.N
    return np.unique(theta.view(np.int64)).size


class TestOrbitCsv:
    # Up to 90,000 rows formatted twice per example: few examples.
    @settings(max_examples=25, deadline=None)
    @given(case=orbit_exports())
    def test_matches_the_sampled_trajectory_export(self, case):
        assert orbit_csv(*case) == trajectory_csv(sample_trajectory(*case))

    @pytest.mark.parametrize("config", REFERENCE_CONFIGS)
    @pytest.mark.parametrize("t0, t1, count", [
        (0.0, math.tau, 129), (-3e7, -3e7 + math.tau, 65), (1e6 - 2.0, 1e6 + 2.0, 33)])
    def test_matches_on_reference_configs(self, config, t0, t1, count):
        expected = trajectory_csv(sample_trajectory(config, t0, t1, count))
        assert orbit_csv(config, t0, t1, count) == expected

    @pytest.mark.parametrize("t0, t1, count", [
        (1.0, 1.0, 5), (2.0, 1.0, 5), (0.0, 1.0, 1), (0.0, 1.0, 0),
        (math.nan, 1.0, 5), (0.0, math.nan, 5), (0.0, math.inf, 5), (-math.inf, 0.0, 5)])
    def test_bad_ranges_raise_as_sample_trajectory(self, t0, t1, count):
        config = ChoreoConfig(4, 2)
        with pytest.raises(ValueError) as expected:
            sample_trajectory(config, t0, t1, count)
        with pytest.raises(ValueError) as got:
            orbit_csv(config, t0, t1, count)
        assert str(got.value) == str(expected.value)

    def test_evaluates_each_distinct_angle_once(self, monkeypatch):
        # The analytic export's shape: N = 256, one period in 128 steps,
        # i.e. 33,024 (sample, body) rows.  The angles do not depend on p.
        config, steps = ChoreoConfig(256, 5, 1.3, -0.7), 128
        t1 = math.tau / steps * steps
        seen = []

        def counted(config, k, t, count=3):
            seen.append(np.broadcast(k, t).size)
            return bodies_at(config, k, t, count)

        monkeypatch.setattr(kinematics, "bodies_at", counted)
        orbit_csv(config, 0.0, t1, steps + 1)
        assert seen == [distinct_angles(config, 0.0, t1, steps + 1)]
        assert seen[0] <= 910


class TestArrayEvaluatorMatchesScalarReference:
    @pytest.mark.parametrize("config", REFERENCE_CONFIGS)
    def test_state_at(self, config):
        for t in REFERENCE_TIMES:
            state = state_at(config, t)
            pos, vel, _ = reference_bodies(config, t)
            assert np.array_equal(state.positions, pos)
            assert np.array_equal(state.velocities, vel)

    @pytest.mark.parametrize("config", REFERENCE_CONFIGS)
    def test_every_sample_trajectory_row(self, config):
        edge = 1e6 / abs(config.p)
        for t0, t1 in ((0.0, math.tau), (edge - 2.0, edge + 2.0),
                       (1e6 - 2.0, 1e6 + 2.0), (-3e7, -3e7 + 3.0)):
            traj = sample_trajectory(config, t0, t1, 17)
            for t, q, v in zip(traj.t.tolist(), traj.q, traj.v):
                pos, vel, _ = reference_bodies(config, t)
                assert np.array_equal(q, pos)
                assert np.array_equal(v, vel)

    @pytest.mark.parametrize("config", REFERENCE_CONFIGS)
    def test_body_state_and_analytic_accel(self, config):
        for t in REFERENCE_TIMES:
            for k in (0, 1, config.N - 1):
                pos, vel, acc = reference_body(config, k, t)
                got_pos, got_vel = body_state(config, k, t)
                assert np.array_equal(got_pos, pos)
                assert np.array_equal(got_vel, vel)
                assert np.array_equal(bodies_at(config, k, t)[2], acc)


class TestDerivativeCount:
    @pytest.mark.parametrize("config", REFERENCE_CONFIGS)
    def test_leading_outputs_bit_equal_the_full_evaluation(self, config):
        grids = [(np.arange(config.N), np.array(REFERENCE_TIMES)[:, None])]
        grids += [(config.N - 1, t) for t in REFERENCE_TIMES]
        for k, t in grids:
            full = bodies_at(config, k, t)
            for count in (1, 2, 3):
                got = bodies_at(config, k, t, count)
                assert len(got) == count
                assert all(bit_equal(x, y) for x, y in zip(got, full))

    @pytest.mark.parametrize("count", [0, 4, -1])
    def test_count_outside_one_to_three_is_value_error(self, count):
        with pytest.raises(ValueError, match="derivative count"):
            bodies_at(ChoreoConfig(4, 2), 0, 0.0, count)
