import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from limachor.admissibility import (
    InadmissibleError,
    is_admissible,
    is_admissible_restricted,
)
from limachor.coefficients import (
    CouplingVector,
    build_matrix,
    fold_matrix,
    leading_det,
    residual,
    restricted_from_mass_charge,
    solve_couplings,
    solve_restricted,
)
from util import admissible_pairs

# For each |p|, the smallest admissible N whose leading determinant (which
# falls like N^-6) is below 1e-12 in magnitude, and N = 10^4 and 10^5 for
# every p; as (p, N) like admissible_pairs.
LARGE_N_PAIRS = ([(2, 951), (-2, 951), (3, 1282), (-3, 1282), (5, 1825), (7, 2292)]
                 + [(p, n) for n in (10_000, 100_000) for p in (2, -2, 3, -3, 5, 7)])


def residual_bound(p, kappas):
    """Balance defect allowed by roundoff: the solve's terms reach sum |kappa| and p^2."""
    return 1e-14 * max(1.0, float(np.abs(kappas).sum()), float(p * p))


def closed_form_det(N, p):
    """Independent determinant oracle, valid when both columns are generic."""
    c1 = math.cos(math.tau / N)
    cp = math.cos(math.tau * p / N)
    return 8.0 * (c1 - 1.0) * (cp - 1.0) * (cp - c1)


def closed_form_kappa(N, p):
    """(kappa_1, kappa_2) for a zero tail, N >= 5, from terms that never cancel.

    With x = pi/N, q = |p| and V_m = sin(m q x) / sin(m x) = U_{q-1}(cos m x),
    V_m - q = -2 sum_j sin^2((q - 1 - 2j) m x / 2) is a sum of like-signed
    terms, and Cramer's rule on the balance block reduces to
    kappa_1 = sin^2(2x) (V_2^2 - q^2) / (4 D) and
    kappa_2 = -sin^2(x) (V_1^2 - q^2) / (4 D), with
    D = -4 sin^2(x) sin^2(q x) sin((q - 1) x) sin((q + 1) x).
    """
    q, x = abs(p), math.pi / N

    def squares_gap(m):  # V_m^2 - q^2, as (V_m - q)(V_m + q)
        v = math.sin(m * q * x) / math.sin(m * x)
        below = -2.0 * sum(math.sin((q - 1 - 2 * j) * m * x / 2) ** 2 for j in range(q))
        return below * (v + q)

    det = (-4.0 * (math.sin(x) * math.sin(q * x)) ** 2
           * math.sin((q - 1) * x) * math.sin((q + 1) * x))
    return (math.sin(2 * x) ** 2 * squares_gap(2) / (4 * det),
            -math.sin(x) ** 2 * squares_gap(1) / (4 * det))


class TestBuildMatrix:
    def test_n4_p2(self):
        entries = build_matrix(4, 2)
        assert entries == pytest.approx(np.array([[-2.0, -2.0], [-4.0, 0.0]]))

    def test_n6_p3(self):
        entries = build_matrix(6, 3)
        expected = np.array([[-1.0, -3.0, -2.0], [-4.0, 0.0, -2.0]])
        assert entries == pytest.approx(expected, abs=1e-14)

    def test_n5_p2(self):
        entries = build_matrix(5, 2)
        c72 = 2 * (math.cos(math.radians(72)) - 1)
        c144 = 2 * (math.cos(math.radians(144)) - 1)
        expected = np.array([[c72, c144], [c144, c72]])
        assert entries == pytest.approx(expected, abs=1e-14)
        assert entries[0, 0] == pytest.approx(-1.381966, abs=1e-6)
        assert entries[0, 1] == pytest.approx(-3.618034, abs=1e-6)

    def test_entries_bounded(self):
        for p, n in admissible_pairs(9, 20):
            entries = build_matrix(n, p)
            assert np.all(entries <= 1e-15)
            assert np.all(entries >= -4.0 - 1e-15)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_matrix(3, 2)

    def test_diametral_column(self):
        assert build_matrix(6, 2)[:, 2] == pytest.approx([-2.0, 0.0])


class TestLeadingDet:
    def test_n6_p2_direct(self):
        # Direct 2x2 determinant of [[-1, -3], [-3, -3]].
        assert leading_det(6, 2) == pytest.approx(-6.0, abs=1e-12)

    def test_n5_p2(self):
        assert leading_det(5, 2) == pytest.approx(-5.0 * math.sqrt(5.0), abs=1e-12)
        assert leading_det(5, 2) == pytest.approx(-11.18034, abs=1e-5)

    def test_closed_form_matches_direct_for_generic_columns(self):
        for p, n in admissible_pairs(12, 40, min_n=5) + LARGE_N_PAIRS:
            assert leading_det(n, p) == pytest.approx(
                closed_form_det(n, p), abs=1e-12)
            assert leading_det(n, p) == pytest.approx(
                closed_form_det(n, p), rel=1e-6, abs=0.0)

    def test_nonzero_on_admissible_pairs(self):
        for p, n in admissible_pairs(12, 40):
            assert abs(leading_det(n, p)) > 1e-9

    def test_vanishes_on_divisibility_failures(self):
        for p, n in [(5, 4), (4, 4), (9, 8), (7, 6)]:
            assert leading_det(n, p) == pytest.approx(0.0, abs=1e-12)


class TestSolveCouplings:
    def test_four_bodies(self):
        kappas = solve_couplings(4, 2, []).kappas
        assert kappas == pytest.approx([1.0, -0.5], abs=1e-14)

    def test_six_bodies_p2(self):
        kappas = solve_couplings(6, 2, [0.0]).kappas
        assert kappas == pytest.approx([1.5, -1.0 / 6.0, 0.0], abs=1e-14)

    def test_six_bodies_p3(self):
        kappas = solve_couplings(6, 3, [0.0]).kappas
        assert kappas == pytest.approx([2.25, -5.0 / 12.0, 0.0], abs=1e-14)

    def test_p_sign_symmetry_exact(self):
        for p, n in admissible_pairs(7, 14) + LARGE_N_PAIRS:
            tail = 0.25 * np.arange(n // 2 - 2)
            plus = solve_couplings(n, p, tail).kappas
            minus = solve_couplings(n, -p, tail).kappas
            assert np.array_equal(plus, minus)

    def test_default_tail_is_zero(self):
        assert np.array_equal(solve_couplings(8, 3).kappas,
                              solve_couplings(8, 3, [0.0, 0.0]).kappas)

    def test_residual_vanishes_across_sweep(self):
        for p, n in admissible_pairs(7, 16) + LARGE_N_PAIRS:
            couplings = solve_couplings(n, p)
            assert np.all(np.isfinite(couplings.kappas[:2]))
            assert residual(n, p, couplings) == pytest.approx(
                (0.0, 0.0), abs=residual_bound(p, couplings.kappas))

    def test_head_matches_closed_form(self):
        # The residual reuses the solver's own matrix and cannot see its
        # rounding; this oracle can.  The block's terms cancel to about
        # N^-2 of their size, so the solve keeps a relative error near
        # eps N^2: at most 8.7e-17 N^2 over every admissible N <= 10^4
        # for p in {+-2, +-3, 5, 7}, about a twelfth of this bound.
        for p, n in admissible_pairs(12, 40, min_n=5) + LARGE_N_PAIRS:
            assert solve_couplings(n, p).kappas[:2] == pytest.approx(
                closed_form_kappa(n, p), rel=1e-15 * max(n, 10) ** 2, abs=0.0)

    def test_six_bodies_affine_in_tail(self):
        # kappa_1 = (p^2 - 1)/2 + kappa_3, kappa_2 = (3 - p^2)/6 - kappa_3.
        for kappa_3 in (-2.0, 0.0, 0.7, 31.25):
            kappas = solve_couplings(6, 2, [kappa_3]).kappas
            assert kappas[0] == pytest.approx(1.5 + kappa_3, abs=1e-12)
            assert kappas[1] == pytest.approx(-1.0 / 6.0 - kappa_3, abs=1e-12)

    def test_inadmissible_pair_rejected(self):
        with pytest.raises(ValueError, match="not admissible"):
            solve_couplings(4, 5, [])

    def test_inadmissible_error_carries_decision(self):
        with pytest.raises(InadmissibleError) as caught:
            solve_couplings(4, 5, [])
        assert caught.value.decision == is_admissible(5, 4)
        assert str(caught.value) == "(p=5, N=4) is not admissible: P_MINUS_1_DIV_N"

    def test_wrong_tail_length(self):
        with pytest.raises(ValueError, match="free tail"):
            solve_couplings(6, 2, [0.0, 0.0])

    def test_overflowing_tail_is_one_value_error(self):
        # The tail's products overflow to inf and the adjugate to NaN;
        # the solve says so as a ValueError, not as RuntimeWarnings.
        with pytest.raises(ValueError, match="kappa_1=nan, kappa_2=nan"):
            solve_couplings(8, 3, [1e308, 1e308])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_couplings_rejected(self, value):
        with pytest.raises(ValueError, match="free tail must be finite"):
            solve_couplings(6, 2, [value])
        with pytest.raises(ValueError, match="kappa_2="):
            CouplingVector(4, [1.0, value])

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_head_is_affine_in_tail(self, u, v):
        # Differences of solutions must be additive in tail differences.
        base = solve_couplings(10, 3, [0.0, 0.0, 0.0]).kappas[:2]
        du = solve_couplings(10, 3, [u, 0.0, 0.0]).kappas[:2] - base
        dv = solve_couplings(10, 3, [0.0, v, 0.0]).kappas[:2] - base
        both = solve_couplings(10, 3, [u, v, 0.0]).kappas[:2] - base
        assert both == pytest.approx(du + dv, abs=1e-9 * (1 + abs(u) + abs(v)))


class TestFoldMatrix:
    def test_n4_equals_full_matrix(self):
        assert np.array_equal(fold_matrix(4, 2), build_matrix(4, 2))

    def test_n5_equals_full_matrix(self):
        assert np.array_equal(fold_matrix(5, 2), build_matrix(5, 2))

    def test_n6_p3_folds_odd_columns_together(self):
        assert fold_matrix(6, 3) == pytest.approx(
            np.array([[-3.0, -3.0], [-6.0, 0.0]]), abs=1e-14)

    def test_row_sums_are_minus_n(self):
        for n in range(4, 61):
            for p in (2, 3, 5, 11, -7):
                if p % n == 0:
                    continue
                sums = fold_matrix(n, p) @ np.ones(2)
                assert sums == pytest.approx([-n, -n], abs=1e-10)

    def test_odd_n_second_eigenvalue_closed_form(self):
        for p, n in admissible_pairs(7, 31):
            if n % 2 == 0:
                continue
            term = (1.0 / (2.0 * math.cos(math.pi / n))
                    + (-1.0) ** p / (2.0 * math.cos(math.pi * p / n)))
            lam = term if n % 4 == 1 else -term
            eigs = sorted(np.linalg.eigvals(fold_matrix(n, p)).real)
            expected = sorted([-float(n), lam])
            assert eigs == pytest.approx(expected, abs=1e-10)


class TestSolveRestricted:
    def test_even_n4(self):
        pair = solve_restricted(4, 2)
        assert (pair.kappa_o, pair.kappa_e) == pytest.approx((1.0, -0.5), abs=1e-14)

    def test_even_n6(self):
        pair = solve_restricted(6, 3)
        assert (pair.kappa_o, pair.kappa_e) == pytest.approx(
            (1.5, -7.0 / 6.0), abs=1e-14)

    def test_odd_n5(self):
        pair = solve_restricted(5, 2)
        root = 3.0 * math.sqrt(5.0) / 10.0
        assert pair.kappa_o == pytest.approx(0.5 + root, abs=1e-12)
        assert pair.kappa_e == pytest.approx(0.5 - root, abs=1e-12)

    def test_even_inconsistent_case_rejected(self):
        with pytest.raises(ValueError, match="alternating"):
            solve_restricted(6, 2)

    def test_inadmissible_error_carries_restricted_decision(self):
        with pytest.raises(ValueError, match="not admissible") as caught:
            solve_restricted(6, 2)
        assert isinstance(caught.value, InadmissibleError)
        assert caught.value.decision == is_admissible_restricted(2, 6)
        assert str(caught.value) == ("(p=2, N=6) is not admissible under the "
                                     "alternating pattern: RESTRICTED_PARITY")

    def test_expansion_solves_full_system(self):
        for p, n in admissible_pairs(9, 21):
            if n % 2 == 0 and (p - n // 2) % n != 0:
                continue
            expanded = solve_restricted(n, p).expand(n)
            assert residual(n, p, expanded) == pytest.approx((0.0, 0.0), abs=1e-10)

    def test_even_agrees_with_general_solver(self):
        # Feeding the alternating tail back into the general solver must
        # reproduce the closed-form pair.
        pair = solve_restricted(6, 3)
        tail = [pair.kappa_o]  # kappa_3 is an odd separation
        kappas = solve_couplings(6, 3, tail).kappas
        assert kappas[0] == pytest.approx(pair.kappa_o, abs=1e-12)
        assert kappas[1] == pytest.approx(pair.kappa_e, abs=1e-12)


class TestRestrictedFromMassCharge:
    @pytest.mark.parametrize("m,e,expected", [
        (1.0, 0.0, (1.0, 1.0)),
        (1.0, 1.0, (2.0, 0.0)),
        (2.0, 1.0, (5.0, 3.0)),
    ])
    def test_values(self, m, e, expected):
        pair = restricted_from_mass_charge(m, e)
        assert (pair.kappa_o, pair.kappa_e) == expected

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            restricted_from_mass_charge(0.0, 1.0)


class TestResidual:
    def test_solution_certified(self):
        couplings = CouplingVector(4, [1.0, -0.5])
        assert residual(4, 2, couplings) == pytest.approx((0.0, 0.0), abs=1e-14)

    def test_six_body_solution(self):
        couplings = CouplingVector(6, [1.5, -1.0 / 6.0, 0.0])
        assert residual(6, 2, couplings) == pytest.approx((0.0, 0.0), abs=1e-14)

    def test_zero_couplings(self):
        assert residual(4, 2, CouplingVector(4, [0.0, 0.0])) == \
            pytest.approx((1.0, 4.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="N=4"):
            residual(6, 2, CouplingVector(4, [1.0, -0.5]))


class TestCouplingVector:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            CouplingVector(6, [1.0, 2.0])

    def test_laplacian_structure(self):
        mat = CouplingVector(5, [1.0, 2.0]).laplacian()
        assert np.array_equal(np.diag(mat), np.full(5, 6.0))
        assert mat[0, 1] == -1.0 and mat[0, 4] == -1.0
        assert mat[0, 2] == -2.0 and mat[0, 3] == -2.0
        assert np.array_equal(mat, mat.T)
        assert np.array_equal(mat.sum(axis=1), np.zeros(5))
        # Even N: the diametral partner is one body, counted once.
        assert np.array_equal(CouplingVector(4, [1.0, -0.5]).laplacian()[0],
                              [1.5, -1.0, 0.5, -1.0])

    def test_bonds_skip_zeros_and_halve_the_diametral_bond(self):
        # Ascending separations; 0.0 and -0.0 couplings are no bonds.
        assert CouplingVector(9, [0.0, -1.5, -0.0, 2.0]).bonds() == [(2, -1.5), (4, 2.0)]
        # Odd N has no diametral bond.
        assert CouplingVector(7, [1.0, 2.0, 3.0]).bonds() == [(1, 1.0), (2, 2.0), (3, 3.0)]
        # Even N: separation N / 2 joins each body to one partner, once.
        assert CouplingVector(8, [1.0, 0.0, -3.0, 5.0]).bonds() == \
            [(1, 1.0), (3, -3.0), (4, 2.5)]
        assert CouplingVector(4, [-0.0, -0.5]).bonds() == [(2, -0.25)]
        assert CouplingVector(6, [0.0, -0.0, 0.0]).bonds() == []
