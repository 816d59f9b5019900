import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from limachor import dynamics
from limachor.admissibility import is_admissible_restricted
from limachor.coefficients import CouplingVector, solve_couplings, solve_restricted
from limachor.dynamics import (
    _RK4_BLOCK,
    _RK4_CHUNK,
    _rk4_step,
    build_interaction,
    rk4_chunks,
    rk4_integrate,
    spectral_propagate,
)
from limachor.kinematics import ChoreoConfig, Trajectory, bodies_at, state_at
from util import (
    PI_80,
    admissible_pairs,
    decimal_cos,
    decimal_sin,
    one_state,
    pair_matrix,
    tailed_couplings,
)


def staged_rk4(initial, couplings, dt, steps):
    """Reference: the textbook four-stage RK4 on direct pairwise forces.

    Returns the stacked (steps + 1, 2N, 2) states, positions first.
    """
    kmat = pair_matrix(couplings)
    row_sum = kmat.sum(axis=1)[:, None]

    def force(q):
        return kmat @ q - row_sum * q

    pos = initial.q[0].copy()
    vel = initial.v[0].copy()
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
    """The double loop over rfft bins m and bond lengths ell, one cosine at a time."""
    n = N // 2
    lam = np.zeros(n + 1)
    for m in range(n + 1):
        total = 0.0
        for ell in range(1, n + 1):
            weight = 1.0 if (N % 2 == 0 and ell == n) else 2.0
            total += kappas[ell - 1] * weight * (1.0 - math.cos(math.tau * ell * m / N))
        lam[m] = total
    return lam


def mode_bin(N, m):
    """The rfft bin of Fourier mode m: modes m and N - m share one."""
    return min(m % N, -m % N)


def _solved_case():
    config = ChoreoConfig(6, 2, 1.2, 0.7)
    return state_at(config, 0.0), solve_couplings(6, 2), math.tau / 8192


def _perturbed_case():
    initial, couplings, dt = _solved_case()
    rng = np.random.default_rng(11)
    return (one_state(initial.q[0] + rng.normal(size=(6, 2), scale=0.1),
                        initial.v[0] + rng.normal(size=(6, 2), scale=0.1)),
            couplings, dt)


def _free_case():
    rng = np.random.default_rng(7)
    return (one_state(rng.normal(size=(4, 2)), rng.normal(size=(4, 2))),
            CouplingVector(4, [0.0, 0.0]), 0.01)


def _hyperbolic_case():
    rng = np.random.default_rng(3)
    return (one_state(rng.normal(size=(4, 2)), rng.normal(size=(4, 2))),
            CouplingVector(4, [-1.0, 0.0]), 0.5 / 4096)


class TestBuildInteraction:
    def test_four_body_spectrum(self):
        lam = build_interaction(CouplingVector(4, [1.0, -0.5]))
        assert lam == pytest.approx([0.0, 1.0, 4.0])

    def test_six_body_spectrum_pins_modes(self):
        lam = build_interaction(CouplingVector(6, [1.5, -1 / 6, 0.0]))
        assert lam[1] == pytest.approx(1.0)
        assert lam[2] == pytest.approx(4.0)

    def test_no_couplings_no_stiffness(self):
        lam = build_interaction(CouplingVector(4, [0.0, 0.0]))
        assert np.array_equal(lam, np.zeros(3))

    def test_translation_mode_exactly_zero(self):
        for p, n in admissible_pairs(5, 11):
            assert build_interaction(solve_couplings(n, p))[0] == 0.0

    def test_mode_pinning_across_sweep(self):
        for p, n in admissible_pairs(7, 12):
            lam = build_interaction(solve_couplings(n, p))
            assert lam.shape == (n // 2 + 1,)
            assert lam[mode_bin(n, 1)] == pytest.approx(1.0, abs=1e-10)
            assert lam[mode_bin(n, p)] == pytest.approx(p * p, abs=1e-10)

    @pytest.mark.parametrize("N, p", [(4, 2), (5, 2), (12, 5), (64, 7), (256, 5)])
    def test_spectrum_matches_double_loop(self, N, p):
        rng = np.random.default_rng(N)
        tail = rng.normal(size=N // 2 - 2)
        for couplings in (solve_couplings(N, p), solve_couplings(N, p, tail)):
            got = build_interaction(couplings)
            want = reference_stiffness_spectrum(N, couplings.kappas)
            # Relative to the terms' magnitudes: modes can cancel to ~0.
            scale = 4.0 * np.abs(couplings.kappas).sum()
            assert got.shape == (N // 2 + 1,)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale
            assert got[0] == 0.0


# Every admissible pair with N <= 300 and |p| <= 60.
STABILITY_PAIRS = admissible_pairs(60, 300)


class TestDefaultChoreographyIsStable:
    # With the free tail at zero, every nonzero Fourier mode has
    # stiffness >= 1, with equality at mode 1 (README, "Linear stability").

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(STABILITY_PAIRS))
    def test_every_nonzero_mode_is_at_least_mode_one(self, pair):
        p, n = pair
        couplings = solve_couplings(n, p)
        lam = build_interaction(couplings)
        scale = sum(abs(coupling) for _, coupling in couplings.bonds())
        assert np.all(lam[1:] >= 1.0 - 4.0 * np.finfo(float).eps * scale)
        assert np.argmin(lam[1:]) == 0

    def test_key_step_holds_in_forty_digits(self):
        # f(x_p) / f(x_1) = p^2 sin^2(pi/N) / sin^2(pi p/N) > 1, with
        # p reduced in integers to [0, N/2] inside the sine.
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            pi, sin_sq = +PI_80, {}
            for p, n in STABILITY_PAIRS:
                k = min(p % n, -p % n)
                for j in (1, k):
                    if (j, n) not in sin_sq:
                        sin_sq[j, n] = decimal_sin(pi * j / n) ** 2
                assert p * p * sin_sq[1, n] > sin_sq[k, n], (p, n)


class TestRestrictedEvenChoreographyIsStable:
    # For even N, p = N/2 mod N, the restricted couplings give every bin
    # but 0 and N/2 stiffness exactly 1, and bin N/2 stiffness p^2
    # (README, "Linear stability").  A sweep of N <= 1024 peaked at 0.49
    # of this tolerance.

    @settings(max_examples=100, deadline=None)
    @given(half=st.integers(2, 512), turns=st.integers(-40, 40))
    def test_spectrum_is_one_except_the_diametral_bin(self, half, turns):
        n = 2 * half
        p = half + turns * n
        assume(abs(p) >= 2)
        couplings = solve_restricted(n, p).expand(n)
        lam = build_interaction(couplings)
        scale = sum(abs(coupling) for _, coupling in couplings.bonds())
        tol = n * np.finfo(float).eps * scale
        assert lam[0] == 0.0
        assert np.all(np.abs(lam[1:half] - 1.0) <= tol)
        assert abs(lam[half] - p * p) <= tol


# Every restricted-admissible pair with odd 7 <= N <= 61 and 2 <= p <= 30;
# p and -p give the same couplings.
ODD_RESTRICTED_PAIRS = [(p, n) for n in range(7, 62, 2) for p in range(2, 31)
                        if is_admissible_restricted(p, n).admissible]


def decimal_restricted_spectrum(n, p, cosines):
    """Bins 1 .. N // 2 of odd N's restricted spectrum and sum |w kappa|, in decimal.

    Solves the folded 2 x 2 balance system (odd separations into kappa_o,
    even into kappa_e) by the adjugate formula; ``cosines[j]`` is
    cos(2 pi j / N).  Odd N has no diametral bond, so every weight is 1.
    """
    half = n // 2
    fold = [[sum(2 * (cosines[ell * q % n] - 1) for ell in range(first, half + 1, 2))
             for first in (1, 2)] for q in (1, p)]
    rhs = (-1, -p * p)
    det = fold[0][0] * fold[1][1] - fold[0][1] * fold[1][0]
    kappa_o = (fold[1][1] * rhs[0] - fold[0][1] * rhs[1]) / det
    kappa_e = (fold[0][0] * rhs[1] - fold[1][0] * rhs[0]) / det
    kappas = [kappa_o if ell % 2 else kappa_e for ell in range(1, half + 1)]
    lam = [sum(2 * kappa * (1 - cosines[ell * m % n]) for ell, kappa in enumerate(kappas, 1))
           for m in range(1, half + 1)]
    return lam, sum(abs(kappa) for kappa in kappas)


class TestRestrictedOddChoreographyIsUnstable:
    # Conjecture (README, "Linear stability"): for odd N >= 7 the
    # restricted couplings leave some bin of negative stiffness.  On
    # these pairs the least negative minimum is -0.0365 sum |w kappa|.

    def test_negative_bin_in_forty_digits(self):
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            bound, tables = decimal.Decimal("-0.03"), {}
            for p, n in ODD_RESTRICTED_PAIRS:
                if n not in tables:
                    tables[n] = [decimal_cos(2 * PI_80 * min(j, n - j) / n) for j in range(n)]
                lam, scale = decimal_restricted_spectrum(n, p, tables[n])
                assert min(lam) < bound * scale, (p, n)

    def test_float_spectrum_goes_negative(self):
        for p, n in ODD_RESTRICTED_PAIRS:
            assert build_interaction(solve_restricted(n, p).expand(n)).min() < 0.0, (p, n)


def _refuse(*args, **kwargs):
    raise AssertionError("read by the other engine")


class TestEnginesShareNoData:
    # Their agreement is the oracle, so neither may read the other's
    # operator: with it made to raise, each gives the same bits.
    def test_spectral_never_reads_the_laplacian(self, monkeypatch):
        initial, couplings, _ = _perturbed_case()
        times = [0.0, 1.3, 5.9]
        want = spectral_propagate(initial, couplings, times)
        monkeypatch.setattr(CouplingVector, "laplacian", _refuse)
        got = spectral_propagate(initial, couplings, times)
        assert np.array_equal(got.q, want.q) and np.array_equal(got.v, want.v)

    def test_rk4_never_reads_the_mode_spectrum(self, monkeypatch):
        initial, couplings, dt = _perturbed_case()
        want = list(rk4_chunks(initial, couplings, dt, 2100))
        monkeypatch.setattr(dynamics, "build_interaction", _refuse)
        got = list(rk4_chunks(initial, couplings, dt, 2100))
        assert len(got) == len(want) == 2
        for chunk, expected in zip(got, want):
            for key in ("t", "q", "v"):
                assert np.array_equal(getattr(chunk, key), getattr(expected, key))


class TestEnginesCommuteWithSymmetries:
    # The couplings depend only on the cyclic separation and act on each
    # coordinate alike, so shifting the body index or rotating the plane
    # of the initial state shifts or rotates each engine's output.  The
    # bounds are relative to the largest state entry: over 400 draws of
    # N <= 100 the worst gaps were 7.5e-14 (RK4, 256 steps) and 4.0e-15
    # (spectral), 13 and 25 times below them.
    BOUNDS = {"rk4": 1e-12, "spectral": 1e-13}

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(admissible_pairs(9, 16) + [(7, 64)]),
           st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(-3.0, 3.0),
           st.sampled_from([1.0, -1.0]), st.floats(0.0, math.tau), st.booleans(),
           st.integers(0, 2 ** 32 - 1), st.integers(1, 63), st.floats(0.0, math.tau))
    def test_shift_and_rotation(self, pair, a, b, exponent, sign, t0, perturbed, seed,
                                shift, angle):
        p, n = pair
        scale = 10.0 ** exponent
        config = ChoreoConfig(n, p, sign * scale * a, scale * b)
        couplings = solve_couplings(n, p)
        start = state_at(config, t0)
        q, v = start.q[0], start.v[0]
        if perturbed:
            rng = np.random.default_rng(seed)
            q = q + rng.normal(size=q.shape, scale=0.1 * scale)
            v = v + rng.normal(size=v.shape, scale=0.1 * scale)
        shift = 1 + shift % (n - 1)
        rotation = np.array([[math.cos(angle), -math.sin(angle)],
                             [math.sin(angle), math.cos(angle)]])
        symmetries = (lambda x: np.roll(x, shift, axis=-2), lambda x: x @ rotation.T)
        engines = {
            "rk4": lambda state: rk4_integrate(state, couplings, math.tau / 512, 256),
            "spectral": lambda state: spectral_propagate(state, couplings, [0.3, 1.7, 5.9]),
        }
        for name, engine in engines.items():
            base = engine(one_state(q, v, t0))
            size = max(np.abs(x).max() for x in (q, v, base.q, base.v))
            for act in symmetries:
                moved = engine(one_state(act(q), act(v), t0))
                assert np.array_equal(moved.t, base.t)
                gap = max(np.abs(moved.q - act(base.q)).max(),
                          np.abs(moved.v - act(base.v)).max())
                assert gap <= self.BOUNDS[name] * size, name


class TestRk4Step:
    @pytest.mark.parametrize("dt", [math.tau / 8192, 0.9])
    @pytest.mark.parametrize("tail", ["zero", "random", "diametral"])
    @pytest.mark.parametrize("n, p", [(4, 2), (5, 2), (7, 2), (12, 5), (64, 7)])
    def test_laplacian_keeps_the_pair_matrix_bits(self, n, p, tail, dt):
        # The reference builds the step's lower block from the pair
        # matrix K as dt (K - D); the Laplacian must give its bits.
        couplings = tailed_couplings(n, p, tail)
        pair = pair_matrix(couplings)
        h_a = np.zeros((2 * n, 2 * n))
        h_a[:n, n:] = dt * np.eye(n)
        h_a[n:, :n] = dt * (pair - np.diag(pair.sum(axis=1)))
        eye = np.eye(2 * n)
        want = eye
        for k in (4.0, 3.0, 2.0, 1.0):
            want = eye + (h_a @ want) / k
        got = _rk4_step(couplings, dt)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestRk4Force:
    # RK4's step matrix applies the direct force -(D - K) q, K the
    # pair matrix and D its row sums.

    def test_coincident_bodies_feel_nothing(self):
        couplings = CouplingVector(4, [1.0, -0.5])
        state = one_state(np.ones((4, 2)), np.zeros((4, 2)))
        traj = rk4_integrate(state, couplings, 0.1, 10)
        assert traj.q == pytest.approx(np.ones((11, 4, 2)), abs=1e-15)
        assert traj.v == pytest.approx(np.zeros((11, 4, 2)), abs=1e-15)

    def test_matches_analytic_acceleration_on_solution(self):
        # From rest, one step of size h gives v = h F(q) + O(h^3).
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        start = state_at(config, 0.0)
        at_rest = one_state(start.q[0], np.zeros((4, 2)))
        h = 1e-8
        forces = rk4_integrate(at_rest, solve_couplings(4, 2), h, 1).v[1] / h
        acc = bodies_at(config, np.arange(4), 0.0)[2]
        assert forces == pytest.approx(acc, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_newtons_third_law(self, seed):
        # Internal forces cancel, so the total momentum never changes.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        kappas = rng.normal(size=n // 2)
        state = one_state(rng.normal(size=(n, 2), scale=3.0),
                            rng.normal(size=(n, 2)))
        traj = rk4_integrate(state, CouplingVector(n, kappas), 0.01, 20)
        drift = traj.v.sum(axis=1) - state.v[0].sum(axis=0)
        scale = n * (1 + np.abs(kappas).max()) * np.abs(traj.q).max()
        assert np.max(np.abs(drift)) <= 1e-12 * scale

    def test_dimension_mismatch(self):
        couplings = CouplingVector(4, [1.0, -0.5])
        state = one_state(np.zeros((6, 2)), np.zeros((6, 2)))
        with pytest.raises(ValueError, match="6 bodies, couplings are for N=4"):
            rk4_integrate(state, couplings, 0.1, 10)
        with pytest.raises(ValueError, match="6 bodies, couplings are for N=4"):
            spectral_propagate(state, couplings, [0.1])

    @pytest.mark.parametrize("samples", [0, 2])
    def test_initial_state_is_one_sample(self, samples):
        # Each engine starts from one sample: a longer (or empty)
        # trajectory has no one state to start from.
        couplings = CouplingVector(4, [1.0, -0.5])
        state = Trajectory(np.arange(samples, dtype=float), np.zeros((samples, 4, 2)),
                           np.zeros((samples, 4, 2)))
        message = f"one sample, got {samples} samples"
        with pytest.raises(ValueError, match=message):
            rk4_integrate(state, couplings, 0.1, 10)
        with pytest.raises(ValueError, match=message):
            spectral_propagate(state, couplings, [0.1])


class TestRk4:
    def test_free_particles_move_linearly(self):
        rng = np.random.default_rng(7)
        state = one_state(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)))
        traj = rk4_integrate(state, CouplingVector(4, [0.0, 0.0]), 0.01, 100)
        expected = state.q[0] + float(traj.t[-1]) * state.v[0]
        assert traj.q[-1] == pytest.approx(expected, abs=1e-12)
        assert traj.v[-1] == pytest.approx(state.v[0], abs=1e-14)

    def test_tracks_analytic_choreography(self):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        traj = rk4_integrate(state_at(config, 0.0), solve_couplings(4, 2),
                             math.tau / 4096, 4096)
        reference = state_at(config, float(traj.t[-1]))
        err = np.max(np.linalg.norm(traj.q[-1] - reference.q[0], axis=1))
        assert err <= 1e-8

    def test_fourth_order_convergence(self):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        couplings = solve_couplings(4, 2)
        init = state_at(config, 0.0)

        def final_error(steps):
            traj = rk4_integrate(init, couplings, math.tau / steps, steps)
            ref = state_at(config, float(traj.t[-1]))
            return np.max(np.linalg.norm(
                traj.q[-1] - ref.q[0], axis=1))

        ratio = final_error(256) / final_error(512)
        assert 12.0 <= ratio <= 20.0

    def test_sample_times(self):
        state = one_state(np.zeros((4, 2)), np.zeros((4, 2)))
        traj = rk4_integrate(state, CouplingVector(4, [0.0, 0.0]), 0.25, 4)
        assert traj.t == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("case", [_solved_case, _perturbed_case,
                                      _free_case, _hyperbolic_case])
    def test_matches_staged_reference(self, case):
        initial, couplings, dt = case()
        steps = 2048
        reference = staged_rk4(initial, couplings, dt, steps)
        traj = rk4_integrate(initial, couplings, dt, steps)
        got = np.concatenate([traj.q, traj.v], axis=1)
        gap = np.max(np.abs(got - reference), axis=(1, 2))
        scale = np.max(np.abs(reference), axis=(1, 2))
        assert np.all(gap <= 1e-12 * scale)

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("N, p", [(4, 2), (7, 2), (12, 5), (64, 7)])
    @pytest.mark.parametrize("steps", [1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1000])
    def test_block_boundaries_match_staged_reference(self, steps, N, p,
                                                     perturbed):
        # The first 128 samples come from doubling products and later
        # ones from 128-sample blocks, so runs that end inside, on and
        # just past a doubling or block edge all count.
        initial = state_at(ChoreoConfig(N, p, 1.2, 0.7), 0.0)
        if perturbed:
            rng = np.random.default_rng(N)
            initial = one_state(
                initial.q[0] + rng.normal(size=(N, 2), scale=0.1),
                initial.v[0] + rng.normal(size=(N, 2), scale=0.1))
        couplings, dt = solve_couplings(N, p), math.tau / 8192
        reference = staged_rk4(initial, couplings, dt, steps)
        traj = rk4_integrate(initial, couplings, dt, steps)
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
            rk4_integrate(initial, solve_couplings(8, 3), 0.9, 2000)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_step_rejected(self, dt):
        state = one_state(np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="dt"):
            rk4_integrate(state, CouplingVector(4, [0.0, 0.0]), dt, 10)

    def test_bad_step_rejected(self):
        couplings = CouplingVector(4, [0.0, 0.0])
        state = one_state(np.zeros((4, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            rk4_integrate(state, couplings, 0.0, 10)
        with pytest.raises(ValueError):
            rk4_integrate(state, couplings, 0.1, 0)


def whole_run_rk4(initial, couplings, dt, steps):
    """Reference: RK4's doubling and block products over one (2, 2N, steps + 1) array.

    The same step matrix, powers and column groups as rk4_chunks, with
    nothing chunked, so the two must agree bit for bit.
    """
    n = couplings.N
    step = _rk4_step(couplings, dt)
    y = np.empty((2, 2 * n, steps + 1))
    y[:, :n, 0] = initial.q[0].T
    y[:, n:, 0] = initial.v[0].T
    k = 1
    while k < min(_RK4_BLOCK, steps + 1):
        stop = min(2 * k, steps + 1)
        np.matmul(np.linalg.matrix_power(step, k), y[:, :, :stop - k], out=y[:, :, k:stop])
        k *= 2
    jump = np.linalg.matrix_power(step, _RK4_BLOCK)
    for start in range(_RK4_BLOCK, steps + 1, _RK4_BLOCK):
        stop = min(start + _RK4_BLOCK, steps + 1)
        np.matmul(jump, y[:, :, start - _RK4_BLOCK:stop - _RK4_BLOCK], out=y[:, :, start:stop])
    state = y.transpose(2, 1, 0)
    return initial.t + np.arange(steps + 1) * dt, state[:, :n], state[:, n:]


class TestRk4Chunks:
    STEPS = [1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 2047, 2048, 2049, 2112, 2113,
             2114, 4095, 4096, 4161, 8192]

    @pytest.mark.parametrize("steps", STEPS)
    @pytest.mark.parametrize("N, p", [(5, 2), (9, 2), (12, 5), (64, 7)])
    def test_chunks_are_the_whole_run(self, N, p, steps):
        initial = state_at(ChoreoConfig(N, p, 1.2, 0.7), 0.0)
        couplings, dt = solve_couplings(N, p), math.tau / 8192
        chunks, kept = [], []
        for chunk in rk4_chunks(initial, couplings, dt, steps):
            chunks.append(chunk)
            kept.append((chunk.t.copy(), chunk.q.copy(), chunk.v.copy()))
        # Chunk i starts at sample i * _RK4_CHUNK; the last one runs
        # through sample `steps`, so it holds 2 to _RK4_CHUNK + 1 samples.
        sizes = [chunk.t.size for chunk in chunks]
        assert sum(sizes) == steps + 1
        assert sizes[:-1] == [_RK4_CHUNK] * (len(sizes) - 1)
        assert 2 <= sizes[-1] <= _RK4_CHUNK + 1
        # Later chunks never write into earlier ones.
        for chunk, (t, q, v) in zip(chunks, kept):
            assert np.array_equal(chunk.t, t)
            assert np.array_equal(chunk.q, q) and np.array_equal(chunk.v, v)
        joined = [np.concatenate([getattr(chunk, key) for chunk in chunks])
                  for key in ("t", "q", "v")]
        whole = rk4_integrate(initial, couplings, dt, steps)
        for got, integrated, reference in zip(
                joined, (whole.t, whole.q, whole.v),
                whole_run_rk4(initial, couplings, dt, steps)):
            assert np.array_equal(got, reference)
            assert np.array_equal(integrated, reference)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_raises_the_integrator_message(self):
        initial = state_at(ChoreoConfig(8, 3, 1.2, 1.0), 0.0)
        with pytest.raises(ValueError) as err:
            for _ in rk4_chunks(initial, solve_couplings(8, 3), 0.9, 2000):
                pass
        assert str(err.value) == (
            "RK4 left the finite float range with dt=0.9, steps=2000: the step "
            "is beyond RK4's stability limit or the motion outgrows float64")


class TestSpectralPropagate:
    def test_zero_time_is_identity(self):
        config = ChoreoConfig(5, 2, 1.1, 0.3)
        init = state_at(config, 0.0)
        out = spectral_propagate(init, solve_couplings(5, 2), [0.0, 1.0, -0.0])
        for row in (0, 2):
            assert np.array_equal(out.q[row], init.q[0])
            assert np.array_equal(out.v[row], init.v[0])

    @pytest.mark.parametrize("t", [0.3, 1.7, 5.9])
    def test_matches_analytic_choreography(self, t):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        init = state_at(config, 0.0)
        out = spectral_propagate(init, solve_couplings(4, 2), [t])
        ref = state_at(config, t)
        assert out.t[0] == t
        assert np.max(np.abs(out.q[0] - ref.q[0])) <= 1e-10
        assert np.max(np.abs(out.v[0] - ref.v[0])) <= 1e-10

    def test_agrees_with_rk4_over_one_period(self):
        config = ChoreoConfig(4, 2, 1.2, 1.0)
        couplings = solve_couplings(4, 2)
        init = state_at(config, 0.0)
        traj = rk4_integrate(init, couplings, math.tau / 8192, 8192)
        spectral = spectral_propagate(init, couplings, traj.t[-1:])
        gap = np.max(np.linalg.norm(
            spectral.q[0] - traj.q[-1], axis=1))
        assert gap <= 1e-7

    def test_hyperbolic_branch_against_rk4(self):
        # Repulsive nearest-neighbor coupling: every non-translation mode
        # has negative stiffness, so the motion grows hyperbolically.
        couplings = CouplingVector(4, [-1.0, 0.0])
        assert build_interaction(couplings)[1] < 0
        rng = np.random.default_rng(3)
        init = one_state(rng.normal(size=(4, 2)),
                           rng.normal(size=(4, 2)))
        traj = rk4_integrate(init, couplings, 0.5 / 4096, 4096)
        out = spectral_propagate(init, couplings, [0.5])
        assert out.q[0] == pytest.approx(traj.q[-1], abs=1e-9)

    def test_perturbed_state_agreement_between_engines(self):
        # Perturbations leave the solution manifold; both engines must
        # still integrate the same linear system.
        config = ChoreoConfig(6, 2, 1.2, 0.7)
        couplings = solve_couplings(6, 2)
        rng = np.random.default_rng(11)
        base = state_at(config, 0.0)
        init = one_state(base.q[0] + rng.normal(size=(6, 2), scale=0.1),
                           base.v[0] + rng.normal(size=(6, 2), scale=0.1))
        traj = rk4_integrate(init, couplings, math.tau / 8192, 2048)
        out = spectral_propagate(init, couplings, traj.t[-1:])
        assert out.q[0] == pytest.approx(traj.q[-1], abs=1e-8)

    def test_engine_agreement_across_small_sweep(self):
        for p, n in admissible_pairs(4, 8):
            config = ChoreoConfig(n, p, 1.2, 0.7)
            couplings = solve_couplings(n, p)
            init = state_at(config, 0.0)
            out = spectral_propagate(init, couplings, [0.9, 4.2])
            for q, t in zip(out.q, (0.9, 4.2)):
                ref = state_at(config, t)
                assert np.max(np.abs(q - ref.q[0])) <= 1e-9

    @pytest.mark.parametrize("p", [2, 5, -3])
    def test_engine_agreement_at_n_1024(self, p):
        config = ChoreoConfig(1024, p, 1.2, 0.7)
        times = np.array([0.9, 4.2])
        out = spectral_propagate(state_at(config, 0.0), solve_couplings(1024, p), times)
        ref = bodies_at(config, np.arange(1024), times[:, None], 1)[0]
        assert np.max(np.abs(out.q - ref)) <= 1e-9 * (1.2 + 0.7)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t, amplitude", [
        (400.0, 1.0),     # cosh(2 t) itself overflows
        (300.0, 1e100),   # cosh(2 t) is finite, its product with the state is not
    ])
    def test_overflow_names_time_and_stiffness(self, t, amplitude):
        # Repulsive nearest-neighbour coupling: the alternating mode has
        # stiffness -4, so it grows like cosh(2 t).
        couplings = CouplingVector(4, [-1.0, 0.0])
        alternating = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        init = one_state(amplitude * alternating, np.zeros((4, 2)))
        with pytest.raises(ValueError, match=rf"t={t}\b.*stiffness -4\.0"):
            spectral_propagate(init, couplings, [t])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_stable_overflow_says_the_motion_outgrows_float64(self):
        # No mode is unstable (the spectrum is 0, 1, 4, 1); the state
        # itself is too large to propagate.
        couplings = CouplingVector(4, [1.0, -0.5])
        init = one_state(np.full((4, 2), 1e308), np.full((4, 2), 1e308))
        with pytest.raises(ValueError, match=r"t=0\.3\b.*outgrows float64") as err:
            spectral_propagate(init, couplings, [0.0, 0.3])
        assert "stiffness" not in str(err.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, bad):
        init = state_at(ChoreoConfig(4, 2), 0.0)
        with pytest.raises(ValueError, match=rf"finite times, got t={bad}$"):
            spectral_propagate(init, solve_couplings(4, 2), [0.5, bad])

    @pytest.mark.parametrize("times", [0.5, [[0.5]]])
    def test_times_must_be_one_dimensional(self, times):
        init = state_at(ChoreoConfig(4, 2), 0.0)
        with pytest.raises(ValueError, match="1-D"):
            spectral_propagate(init, solve_couplings(4, 2), times)


def _couplings_of_kind(kind, n):
    """Harmonic, free or hyperbolic: nearest-neighbour coupling 1, 0 or -1."""
    kappas = np.zeros(n // 2)
    kappas[0] = {"harmonic": 1.0, "free": 0.0, "hyperbolic": -1.0}[kind]
    return CouplingVector(n, kappas)


coupling_kinds = st.sampled_from(["harmonic", "free", "hyperbolic"])
offsets = st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)
# Small N, and large ones, even and odd, where the transforms take
# several factor stages.
body_counts = st.one_of(st.integers(4, 9), st.sampled_from([64, 255, 1000]))


def _mode_factors(lam, t):
    """(C, S) of one mode: q(t) = C q0 + S v0, and C', S' for v(t)."""
    if lam > 0.0:
        w = math.sqrt(lam)
        return (math.cos(w * t), math.sin(w * t) / w,
                -w * math.sin(w * t), math.cos(w * t))
    if lam < 0.0:
        mu = math.sqrt(-lam)
        return (math.cosh(mu * t), math.sinh(mu * t) / mu,
                mu * math.sinh(mu * t), math.cosh(mu * t))
    return 1.0, t, 0.0, 1.0


class TestModeMapping:
    # Couplings 1 and -1 at separations 1 and 2 give positive and
    # negative modes; mode 0 is the zero one.  N = 8 has a Nyquist mode,
    # and every m > N / 2 shares the bin of N - m.
    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("in_velocity", [False, True], ids=["position", "velocity"])
    def test_single_fourier_mode_evolves_with_its_stiffness(self, n, in_velocity):
        kappas = np.zeros(n // 2)
        kappas[:2] = [1.0, -1.0]
        couplings = CouplingVector(n, kappas)
        lam = build_interaction(couplings)
        assert lam.max() > 0.0 > lam.min() and lam[0] == 0.0
        times = [0.7, 2.3]
        for m in range(n):
            ang = math.tau * m * np.arange(n) / n
            pattern = np.stack((np.cos(ang), np.sin(ang)), axis=1)
            still = np.zeros((n, 2))
            init = (one_state(still, pattern) if in_velocity
                    else one_state(pattern, still))
            out = spectral_propagate(init, couplings, times)
            for row, t in enumerate(times):
                c, s, dc, ds = _mode_factors(float(lam[mode_bin(n, m)]), t)
                fq, fv = (s, ds) if in_velocity else (c, dc)
                scale = max(1.0, abs(fq), abs(fv))
                assert np.max(np.abs(out.q[row] - fq * pattern)) <= 1e-13 * scale
                assert np.max(np.abs(out.v[row] - fv * pattern)) <= 1e-13 * scale


class TestSpectralProperties:
    @settings(max_examples=40, deadline=None)
    @given(coupling_kinds, body_counts, st.integers(0, 2 ** 32 - 1),
           st.lists(offsets, min_size=1, max_size=6), st.randoms())
    def test_batch_matches_each_time_alone(self, kind, n, seed, drawn, shuffle):
        rng = np.random.default_rng(seed)
        init = one_state(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)), 0.5)
        couplings = _couplings_of_kind(kind, n)
        # Unordered, with a repeat and a zero.
        times = drawn + [drawn[0], 0.0]
        shuffle.shuffle(times)
        batch = spectral_propagate(init, couplings, times)
        assert np.array_equal(batch.t, 0.5 + np.array(times))
        for row, t in enumerate(times):
            alone = spectral_propagate(init, couplings, [t])
            assert np.array_equal(batch.q[row], alone.q[0])
            assert np.array_equal(batch.v[row], alone.v[0])

    @settings(max_examples=40, deadline=None)
    @given(coupling_kinds, body_counts, st.integers(0, 2 ** 32 - 1),
           offsets, offsets)
    def test_semigroup(self, kind, n, seed, t1, t2):
        rng = np.random.default_rng(seed)
        init = one_state(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)))
        couplings = _couplings_of_kind(kind, n)
        first = spectral_propagate(init, couplings, [t1])
        stepped = spectral_propagate(first, couplings, [t2])
        direct = spectral_propagate(init, couplings, [t1 + t2])
        assert stepped.t[0] == direct.t[0]
        # Relative to the largest amplitude the path reaches, times the
        # condition number cosh(mu t1) cosh(mu t2) of the two steps, mu
        # the fastest unstable rate: roundoff in a growing mode feeds the
        # decaying one, and stepping back amplifies it.
        scale = max(np.abs(s).max() for s in (init.q, init.v, first.q, first.v,
                                              direct.q, direct.v))
        mu = math.sqrt(max(0.0, -build_interaction(couplings).min()))
        bound = 1e-13 * scale * math.cosh(mu * t1) * math.cosh(mu * t2)
        assert np.max(np.abs(stepped.q - direct.q)) <= bound
        assert np.max(np.abs(stepped.v - direct.v)) <= bound
