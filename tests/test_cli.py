import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import limachor
from limachor import admissibility, cli, coefficients, constants, dynamics, kinematics
from util import admissible_pairs


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """``python -m limachor`` in a subprocess, where warnings reach stderr."""
    src = str(Path(limachor.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "limachor", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestAdmissibleCommand:
    def test_good_pair(self, capsys):
        code, out, err = run_cli(capsys, "admissible", "--p", "2", "--N", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["admissible"] is True
        assert err == ""

    def test_bad_pair_exits_two_with_stderr_decision(self, capsys):
        code, out, err = run_cli(capsys, "admissible", "--p", "3", "--N", "4")
        assert code == 2
        assert json.loads(err)["violated_conditions"] == ["P_PLUS_1_DIV_N"]

    def test_restricted_flag(self, capsys):
        code, out, _ = run_cli(capsys, "admissible", "--p", "3", "--N", "6",
                               "--restricted")
        assert code == 0
        assert json.loads(out)["restricted_case"] == "EVEN_N_HALF_MOD"
        code, _, err = run_cli(capsys, "admissible", "--p", "2", "--N", "6",
                               "--restricted")
        assert code == 2
        assert "RESTRICTED_PARITY" in json.loads(err)["violated_conditions"]


class TestScanCommand:
    def test_lists_admissible_span(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--p", "6", "--max-N", "12")
        assert code == 0
        payload = json.loads(out)
        assert payload["blockset"] == [1, 2, 3, 5, 6, 7]
        assert payload["admissible_N"] == [4, 8, 9, 10, 11, 12]

    def test_excluded_p(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--p", "1")
        assert code == 2
        assert "P_EXCLUDED" in json.loads(err)["violated_conditions"]

    def test_readme_example_is_unchanged(self, capsys):
        # Blocked: the divisors of 7, 8 and 9.
        payload = {"p": 8, "max_N": 40, "blockset": [1, 2, 3, 4, 7, 8, 9],
                   "admissible_N": [5, 6] + list(range(10, 41))}
        code, out, err = run_cli(capsys, "scan", "--p", "8", "--max-N", "40")
        assert (code, out, err) == (0, json.dumps(payload, indent=2) + "\n", "")

    @pytest.mark.parametrize("argv, flag", [
        (("--p", str(10**12 + 1)), "--p"),
        (("--p", str(-(10**12) - 1)), "--p"),
        (("--p", "5", "--max-N", str(10**6 + 1)), "--max-N"),
        (("--p", "5", "--max-N", str(10**23)), "--max-N"),
    ])
    def test_beyond_bound_is_usage_error_naming_flag(self, capsys, argv, flag):
        # Trial division up to sqrt(|p|) and the listed span would
        # otherwise run for seconds to forever.
        code, out, err = run_cli(capsys, "scan", *argv)
        assert code == 1
        assert out == ""
        assert f"argument {flag}:" in err

    def test_bounds_themselves_parse(self):
        args = cli.build_parser().parse_args(
            ["scan", "--p", str(-(10**12)), "--max-N", str(10**6)])
        assert (args.p, args.max_n) == (-(10**12), 10**6)


class TestCoeffsCommand:
    def test_six_body_solution(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--N", "6", "--p", "2",
                               "--tail", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa"]["1"] == pytest.approx(1.5)
        assert payload["kappa"]["2"] == pytest.approx(-1 / 6)
        assert payload["residual"] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert payload["det_Mt"] == pytest.approx(-6.0)

    def test_inadmissible_pair(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--N", "4", "--p", "5")
        assert code == 2
        assert json.loads(err)["admissible"] is False

    def test_wrong_tail_length_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--N", "6", "--p", "2",
                               "--tail", "0", "1")
        assert code == 1
        assert "free tail" in err


class TestLargeBodyCount:
    # The leading determinant falls like N^-6: at N = 1024 it is below
    # 1e-12, yet the pair is admissible and the system exactly solvable.
    def test_coeffs_solves(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--N", "1024", "--p", "2")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["det_Mt"] == pytest.approx(-6.404e-13, rel=1e-4)
        kappas = np.array(list(payload["kappa"].values()))
        assert payload["residual"] == pytest.approx(
            [0.0, 0.0], abs=1e-14 * max(1.0, np.abs(kappas).sum(), 4.0))

    def test_constants_match_closed_forms(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--N", "1024", "--p", "2")
        assert code == 0
        payload = json.loads(out)
        closed = payload["closed_form"]
        closed["E"] = closed["K"] + closed["V"]
        for key in ("c", "I", "K", "V", "E"):
            assert payload["drift"][key] <= 1e-10 * abs(closed[key])
        for key in ("c", "I", "K", "V"):
            assert payload[key] == pytest.approx(closed[key], rel=1e-10, abs=0.0)


class TestOverflowingFreeTail:
    # 1e308 overflows the solve's tail products; 1e200 solves, but the
    # squares of the residual's 1e200-sized defects overflow, and RK4
    # then leaves the float range.
    @pytest.mark.parametrize("command, tail", [
        ("coeffs", "1e308"), ("constants", "1e308"), ("verify", "1e200"),
    ])
    def test_is_one_error_line(self, command, tail):
        code, out, err = run_module(command, "--N", "8", "--p", "3",
                                    "--tail", tail, tail)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestRestrictedCommand:
    def test_even_solution(self, capsys):
        code, out, _ = run_cli(capsys, "restricted", "--N", "6", "--p", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa_o"] == pytest.approx(1.5)
        assert payload["kappa_e"] == pytest.approx(-7 / 6)
        assert payload["residual"] == pytest.approx([0.0, 0.0], abs=1e-10)

    def test_inconsistent_even_case(self, capsys):
        code, _, err = run_cli(capsys, "restricted", "--N", "6", "--p", "2")
        assert code == 2
        assert "RESTRICTED_PARITY" in json.loads(err)["violated_conditions"]


class TestSimulateCommand:
    def test_analytic_csv(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--N", "4", "--p", "2",
                               "--dt", "0.5", "--steps", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,body,x,y,vx,vy"
        assert len(lines) == 1 + 5 * 4

    def test_rk4_csv(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--N", "4", "--p", "2",
                               "--dt", "0.01", "--steps", "10",
                               "--engine", "rk4")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 11 * 4

    def test_deterministic_output(self, capsys):
        argv = ("simulate", "--N", "5", "--p", "2", "--dt", "0.3", "--steps", "3")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        code, out, _ = run_cli(capsys, "simulate", "--N", "4", "--p", "2",
                               "--dt", "0.5", "--steps", "2",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("t,body,x,y,vx,vy")

    @pytest.mark.parametrize("name", ["missing/traj.csv", "."])
    def test_unwritable_out_is_error_naming_path(self, capsys, tmp_path, name):
        # A missing parent directory, and a directory in place of a file.
        target = str(tmp_path / name)
        code, out, err = run_cli(capsys, "simulate", "--N", "4", "--p", "2",
                                 "--dt", "0.5", "--steps", "2", "--out", target)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert target in err


class TestVerifyCommand:
    def test_passing_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--N", "4", "--p", "2",
                               "--a", "1.2", "--b", "1",
                               "--dt", str(math.tau / 4096),
                               "--steps", "4096")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["failures"] == []
        assert payload["residual_max"] <= 1e-10
        assert payload["rk4_final_error"] <= 1e-6
        assert payload["spectral_error"] <= 1e-9

    def test_default_horizon_is_one_period(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--N", "5", "--p", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["t_end"] == pytest.approx(math.tau, abs=1e-12)
        assert abs(payload["periods"] - 1.0) <= 1e-12
        keys = list(payload)
        at = keys.index("rk4_final_error")
        assert keys[at + 1:at + 3] == ["t_end", "periods"]

    def test_short_horizon_is_reported(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--N", "4", "--p", "2", "--steps", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["t_end"] == 2 * cli.DEFAULT_DT
        assert payload["periods"] < 1e-3

    def test_impossible_tolerance_exits_three(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--N", "4", "--p", "2",
                               "--dt", str(math.tau / 512), "--steps", "512",
                               "--tol-rk4", "1e-18")
        assert code == 3
        assert "rk4" in json.loads(out)["failures"]

    def test_inadmissible_pair(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--N", "4", "--p", "5")
        assert code == 2
        assert json.loads(err)["admissible"] is False

    @pytest.mark.parametrize("flag", ["--a", "--b", "--dt", "--tail"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_is_usage_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "verify", "--N", "6", "--p", "2",
                                 flag, value)
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_amplitude_emits_no_report(self, capsys):
        # a^2 overflows: rejected at the input, before numpy computes
        # (and warns about) infinite or NaN drifts.
        code, out, err = run_cli(capsys, "verify", "--N", "4", "--p", "2",
                                 "--a", "1e200", "--dt", str(math.tau / 512),
                                 "--steps", "512")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "a=1e+200" in err

    def test_non_finite_tolerance_fails_its_gate(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--N", "4", "--p", "2",
                               "--dt", str(math.tau / 512), "--steps", "512",
                               "--tol-spectral", "nan")
        assert code == 3
        assert json.loads(out)["failures"] == ["spectral"]

    def test_vanishing_angular_momentum_is_not_a_drift_failure(self, capsys):
        # a^2 = -p b^2: the closed-form angular momentum is exactly zero.
        code, out, _ = run_cli(capsys, "verify", "--N", "4", "--p", "-2",
                               "--a", "1.4142135623730951", "--b", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["failures"] == []
        assert payload["relative_drift"]["c"] <= 1e-8

    # run_cli drains capsys on every call, so sharing it across examples is safe.
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pair=st.sampled_from([(p, n) for p, n in admissible_pairs(7, 12) if p > 0]),
           b=st.floats(0.5, 2.0), sign_a=st.sampled_from([1.0, -1.0]),
           ratio=st.one_of(st.floats(0.5, 2.0), st.just(None)))
    def test_verdict_symmetric_in_p(self, capsys, pair, b, sign_a, ratio):
        p, n = pair
        # ratio None puts a on a^2 = p b^2, where c vanishes for -p.
        a = sign_a * (math.sqrt(p) * b if ratio is None else ratio * b)
        verdicts = []
        for signed_p in (p, -p):
            code, out, _ = run_cli(capsys, "verify", "--N", str(n),
                                   "--p", str(signed_p), "--a", repr(a),
                                   "--b", repr(b))
            verdicts.append((code, json.loads(out)["failures"]))
        assert verdicts[0] == verdicts[1]

    @pytest.mark.parametrize("amplitude", ["1e3", "1e4", "1e-6"])
    def test_large_and_small_amplitudes_pass(self, capsys, amplitude):
        # The inertia rate grows like a^2 + b^2: 4.9e-6 at a = b = 1e3.
        code, out, _ = run_cli(capsys, "verify", "--N", "4", "--p", "2",
                               "--a", amplitude, "--b", amplitude)
        assert code == 0
        assert json.loads(out)["failures"] == []

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pair=st.sampled_from(admissible_pairs(7, 12)),
           a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0),
           sign_a=st.sampled_from([1.0, -1.0]), sign_b=st.sampled_from([1.0, -1.0]),
           exponent=st.floats(-6.0, 6.0))
    def test_verdict_independent_of_amplitude_scale(self, capsys, pair, a, b,
                                                    sign_a, sign_b, exponent):
        p, n = pair
        a, b = sign_a * a, sign_b * b
        s = 10.0 ** exponent
        verdicts = []
        for amp_a, amp_b in ((a, b), (s * a, s * b)):
            # --a=VALUE: argparse takes "-5e-05" for a flag, not a number.
            code, out, _ = run_cli(capsys, "verify", "--N", str(n), "--p", str(p),
                                   f"--a={amp_a!r}", f"--b={amp_b!r}")
            verdicts.append((code, json.loads(out)["failures"]))
        assert verdicts[0] == verdicts[1]


class TestCollideCommand:
    def test_known_collision(self, capsys):
        code, out, _ = run_cli(capsys, "collide", "--N", "6", "--p", "2",
                               "--a", "1", "--b", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["collides"] is True
        assert any(w["bodies"] == [2, 4] for w in payload["witnesses"])

    def test_known_miss(self, capsys):
        code, out, _ = run_cli(capsys, "collide", "--N", "4", "--p", "2",
                               "--a", "1", "--b", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["collides"] is False
        assert payload["ratios"]

    @pytest.mark.parametrize("argv, collides", [
        (("--N", "6", "--p", "2", "--a", "1e6", "--b", "1e6"), True),
        (("--N", "4", "--p", "2", "--a", "1e-12", "--b", "1e-12"), False),
    ])
    def test_verdict_independent_of_amplitude_scale(self, capsys, argv, collides):
        # Same a/b as the unit-scale hit and miss above.
        code, out, _ = run_cli(capsys, "collide", *argv)
        assert code == 0
        assert json.loads(out)["collides"] is collides

    def test_p_beyond_float_range_is_one_error_line(self, capsys):
        p = "1" + "0" * 200
        code, out, err = run_cli(capsys, "collide", "--N", "4", "--p", p)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"p={p}" in err


class TestConstantsCommand:
    def test_reports_closed_form_and_drift(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--N", "4", "--p", "2",
                               "--a", "1.2", "--b", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"]["I"] == pytest.approx(9.76)
        assert payload["I"] == pytest.approx(9.76, abs=1e-10)
        assert payload["potential_from_parts"] == pytest.approx(10.88)
        assert all(v <= 1e-10 for v in payload["drift"].values())


class TestUnstableRk4Step:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ("simulate", "--N", "8", "--p", "3", "--steps", "2000", "--dt", "0.9",
         "--engine", "rk4"),
        ("verify", "--N", "8", "--p", "3", "--steps", "2000", "--dt", "0.9"),
    ])
    def test_overflow_is_usage_error_naming_dt(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "dt=0.9" in err


class TestOverflowingHorizon:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("engine", ["analytic", "rk4"])
    def test_is_usage_error_naming_dt_and_steps(self, capsys, engine):
        code, out, err = run_cli(capsys, "simulate", "--N", "4", "--p", "2",
                                 "--dt", "1e308", "--steps", "8",
                                 "--engine", engine)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "--dt" in err and "--steps" in err


class TestGridBelowOne:
    @pytest.mark.parametrize("argv", [
        ("verify", "--N", "4", "--p", "2", "--grid", "0"),
        ("verify", "--N", "4", "--p", "2", "--grid", "-3"),
        ("constants", "--N", "4", "--p", "2", "--grid", "0"),
    ])
    def test_is_usage_error_naming_grid(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "argument --grid:" in err


class TestUnstableFreeTail:
    # Mode 3 of N = 6, p = 2 with kappa_3 = -50 has stiffness -294.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("steps, named", [
        ("8300", "t=41.5"),   # the spectral engine's cosh overflows
        ("8000", "t in [0.0, 40.0]"),   # RK4 stays finite, its squares do not
    ])
    def test_overflow_is_usage_error_naming_input(self, capsys, steps, named):
        code, out, err = run_cli(capsys, "verify", "--N", "6", "--p", "2",
                                 "--tail", "-50", "--dt", "0.005",
                                 "--steps", steps)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert named in err


class TestNegativeExponentValues:
    def test_exponent_amplitude_is_a_value_not_a_flag(self, capsys):
        base = ("verify", "--N", "4", "--p", "2",
                "--dt", str(math.tau / 512), "--steps", "512")
        code, spaced, _ = run_cli(capsys, *base, "--b", "-5e-05")
        assert code == 0
        _, joined, _ = run_cli(capsys, *base, "--b=-5e-05")
        assert spaced == joined
        assert json.loads(spaced)["b"] == -5e-05

    def test_exponent_tail_parses(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--N", "6", "--p", "2",
                               "--tail", "-1e-3")
        assert code == 0
        assert json.loads(out)["kappa"]["3"] == -1e-3


class TestParserReuse:
    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_runs_do_not_leak_into_each_other(self, capsys):
        verify = ("verify", "--N", "5", "--p", "2", "--b", "-0.5",
                  "--dt", str(math.tau / 512), "--steps", "512")
        collide = ("collide", "--N", "6", "--p", "2", "--a", "1", "--b", "1")
        first = run_cli(capsys, *verify)
        collided = run_cli(capsys, *collide)
        assert run_cli(capsys, *verify) == first
        assert run_cli(capsys, "verify", "--N", "5", "--b")[0] == 1
        assert run_cli(capsys, *verify) == first
        assert run_cli(capsys, *collide) == collided
        assert first[0] == 0 and collided[0] == 0


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "admissible", "--p", "2")
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0


class TestStepAndCountFlags:
    @pytest.mark.parametrize("argv, flag", [
        (("verify", "--N", "4", "--p", "2", "--steps", "1"), "--steps"),
        (("verify", "--N", "4", "--p", "2", "--steps", "0"), "--steps"),
        (("simulate", "--N", "4", "--p", "2", "--steps", "0"), "--steps"),
        (("simulate", "--N", "4", "--p", "2", "--dt", "-1"), "--dt"),
        (("simulate", "--N", "4", "--p", "2", "--dt", "0"), "--dt"),
    ])
    def test_is_usage_error_naming_flag(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"argument {flag}:" in err

    def test_smallest_counts_run(self, capsys):
        assert run_cli(capsys, "verify", "--N", "4", "--p", "2", "--steps", "2")[0] == 0
        code, out, _ = run_cli(capsys, "simulate", "--N", "4", "--p", "2",
                               "--steps", "1", "--dt", "0.5")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 2 * 4


_BEYOND_INDEX = [10**200, int(np.iinfo(np.intp).max) + 1]


class TestBodyCountBeyondIndexRange:
    # numpy rejects such N before allocating anything; the CLI rejects
    # them before numpy sees them.
    @pytest.mark.parametrize("n", _BEYOND_INDEX, ids=["1e200", "intp-max+1"])
    @pytest.mark.parametrize("command", ["coeffs", "restricted", "simulate",
                                         "verify", "constants", "collide"])
    def test_is_usage_error_naming_n(self, capsys, command, n):
        code, out, err = run_cli(capsys, command, "--N", str(n), "--p", "5")
        assert code == 1
        assert out == ""
        assert "argument --N:" in err
        assert "Traceback" not in err

    def test_failed_allocation_is_one_error_line(self, capsys):
        # N = 2**59 passes the index-range and byte-range checks, but its
        # 2 EiB coupling array exceeds any address space, so nothing is
        # really allocated.
        code, out, err = run_cli(capsys, "coeffs", "--N", str(2**59), "--p", "5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["coeffs", "verify", "simulate",
                                         "constants", "collide"])
    def test_array_beyond_byte_range_names_n(self, capsys, command):
        # Inside the index range, but 2**62 float64 values are 2**65
        # bytes, which numpy refuses without naming the flag.
        n = 2**62
        code, out, err = run_cli(capsys, command, "--p", "5", "--N", str(n))
        assert code == 1
        assert out == ""
        assert err == (f"error: --N {n} needs float64 arrays of {n} values "
                       f"({8 * n} bytes), more than numpy can allocate "
                       f"({np.iinfo(np.intp).max} bytes)\n")

    @pytest.mark.parametrize("n", _BEYOND_INDEX, ids=["1e200", "intp-max+1"])
    def test_admissibility_still_decides(self, capsys, n):
        code, out, _ = run_cli(capsys, "admissible", "--N", str(n), "--p", "5")
        assert code == 0
        assert json.loads(out) == {"p": 5, "N": n, "admissible": True,
                                   "violated_conditions": []}
        code, _, err = run_cli(capsys, "admissible", "--N", str(n),
                               "--p", str(n + 1))
        assert code == 2
        assert json.loads(err)["violated_conditions"] == ["P_MINUS_1_DIV_N"]


class TestInadmissibleDecisionOnStderr:
    @pytest.mark.parametrize("argv, tags", [
        (("simulate", "--N", "4", "--p", "5"), ["P_MINUS_1_DIV_N"]),
        (("constants", "--N", "6", "--p", "7"), ["P_MINUS_1_DIV_N"]),
        (("verify", "--N", "3", "--p", "2", "--a", "0"), ["N_TOO_SMALL", "P_PLUS_1_DIV_N"]),
    ])
    def test_exits_two_with_decision(self, capsys, argv, tags):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"p": int(argv[4]), "N": int(argv[2]),
                                   "admissible": False, "violated_conditions": tags}


class TestLibraryVerify:
    @pytest.mark.parametrize("tol_rk4", [1e-6, 0.0])
    def test_matches_cli_stdout(self, capsys, tol_rk4):
        code, out, _ = run_cli(capsys, "verify", "--N", "7", "--p", "-3",
                               "--a", "0.8", "--b", "1.1", "--tail", "0.25",
                               "--tol-rk4", repr(tol_rk4))
        payload = limachor.verify(
            limachor.ChoreoConfig(7, -3, 0.8, 1.1), limachor.solve_couplings(7, -3, [0.25]),
            cli.DEFAULT_DT, cli.DEFAULT_STEPS, cli.DEFAULT_GRID, residual=1e-10,
            rk4=tol_rk4, spectral=1e-9, drift=1e-8, inertia_rate=1e-6)
        assert code == (0 if payload["ok"] else 3)
        assert payload["failures"] == ([] if tol_rk4 else ["rk4"])
        assert json.loads(out) == payload
        assert list(json.loads(out)) == list(payload)


class TestVerifyCallsEveryLayer:
    # The bench tracer times a layer by replacing its module attribute,
    # so verify must look every layer up there at call time.
    def test_each_layer_is_called_through_its_module(self, capsys, monkeypatch):
        calls = {}

        def count(module, name):
            original = getattr(module, name)
            key = f"{module.__name__.split('.')[-1]}.{name}"

            def counted(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(kinematics, "eom_residual")
        for name in ("build_interaction", "rk4_chunks", "spectral_propagate"):
            count(dynamics, name)
        # RK4 is folded chunk by chunk: no whole trajectory for
        # rk4_integrate, drift_report or inertia_rate_max.
        for name in ("ConservedSeries", "drift_report", "inertia_rate_max"):
            count(constants, name)
        count(dynamics, "rk4_integrate")
        # The admissibility decision is taken once, by the solver.
        count(admissibility, "is_admissible")
        count(coefficients, "is_admissible")
        code, _, _ = run_cli(capsys, "verify", "--N", "5", "--p", "2",
                             "--dt", str(math.tau / 512), "--steps", "512")
        assert code == 0
        assert calls == {
            "kinematics.eom_residual": 1,
            "dynamics.build_interaction": 1,
            "dynamics.rk4_chunks": 1,
            "dynamics.spectral_propagate": 1,
            "constants.ConservedSeries": 1,
            "coefficients.is_admissible": 1,
        }


class TestModuleEntryPoint:
    def test_python_dash_m_matches_run(self, capsys):
        argv = ["admissible", "--N", "5", "--p", "2"]
        module_code, module_out, _ = run_module(*argv)
        code, out, _ = run_cli(capsys, *argv)
        assert (module_code, module_out) == (code, out)
        assert code == 0


def stdlib_dumps(value):
    return json.dumps(value, indent=2, allow_nan=False) + "\n"


_ESCAPES = st.text(alphabet=st.sampled_from(
    ['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f",
     "é", "ß", "€", " ", "\ud800", "😀", "a", " "]))
_KEYS = st.one_of(st.text(), _ESCAPES)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.sampled_from([-0.0, 0.0, 1e16, 1e17, 5e-324, -5e-324, 1e-7, 0.1,
                     1.7976931348623157e308, np.float64(-0.0), np.float64(1e16)]),
    st.text(),
    _ESCAPES,
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=6),
                            st.lists(inner, max_size=6).map(tuple),
                            st.dictionaries(_KEYS, inner, max_size=6)),
    max_leaves=25)


_NUMBERS = st.one_of(st.integers(), _FLOATS)
_ODD_SCALARS = st.sampled_from(
    [True, None, 'say "%s"\\\n\u00e9', np.float64(0.1), 10**400, -0.0, 1e16, 5e-324])


@st.composite
def _record_lists(draw):
    """A list of records that mostly share one flat shape, and sometimes do not.

    The shape is a key order and, per key, a scalar or a list length.
    Each kind of departure (another key order, another or zero list
    length, an odd scalar, a record nested in a record) is drawn on its
    own, so lists that hit the one-template path and lists that miss
    it both occur.
    """
    keys = draw(st.lists(st.sampled_from(["k", "t", "point", 'q"%s', "\u00e9", "a%"]),
                         min_size=1, max_size=4, unique=True))
    widths = [draw(st.integers(0, 3)) for _ in keys]  # 0: a scalar
    value = st.one_of(_NUMBERS, _ODD_SCALARS) if draw(st.booleans()) else _NUMBERS
    records = []
    for _ in range(draw(st.integers(1, 5))):
        records.append({key: draw(value) if not width
                        else draw(st.lists(value, min_size=width, max_size=width))
                        for key, width in zip(keys, widths)})
    record = draw(st.sampled_from(records))
    key = draw(st.sampled_from(keys))
    change = draw(st.sampled_from(["none", "order", "length", "nested"]))
    if change == "order":
        for key in reversed(keys):
            record[key] = record.pop(key)
    elif change == "length":
        item = record[key]
        record[key] = item[1:] if isinstance(item, list) else [item] * draw(st.integers(0, 2))
    elif change == "nested":
        inner = dict(records[0])  # a copy, so no record contains itself
        record[key] = draw(st.sampled_from([[inner], inner]))
    return records


class TestJsonEmitter:
    """``cli._dumps`` writes exactly what ``json.dumps(indent=2)`` writes."""

    @settings(max_examples=150, deadline=None)
    @given(value=_JSON_VALUES)
    def test_matches_stdlib(self, value):
        assert cli._dumps(value) == stdlib_dumps(value)

    @settings(max_examples=300, deadline=None)
    @given(records=_record_lists(), wrap=st.sampled_from([
        lambda v: v, lambda v: {"ratios": v, "suspects": [1, 2]}, lambda v: [[v], {"w": v}],
    ]))
    def test_record_lists_match_stdlib(self, records, wrap):
        value = wrap(records)
        assert cli._dumps(value) == json.dumps(value, indent=2) + "\n"

    def test_collide_lists_take_the_record_path(self):
        args = cli._parser().parse_args(
            ["collide", "--N", "6", "--p", "2", "--a", "1", "--b", "1"])
        payload, _ = cli._cmd_collide(args)
        for name in ("ratios", "witnesses"):
            assert payload[name]
            assert cli._records(payload[name], "\n    ") is not None

    @pytest.mark.parametrize("value", [
        [], {}, (), [[]], {"a": {}}, {"": [(), {}]}, [True, 1, 1.0, False, 0, None],
        {"k": [1, [2, [3, {"x": ()}]], "s"]}, 10**400, -0.0,
    ])
    def test_edge_cases_match_stdlib(self, value):
        assert cli._dumps(value) == stdlib_dumps(value)

    @pytest.mark.parametrize("bad", [
        math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"),
    ])
    @pytest.mark.parametrize("wrap", [
        lambda v: v, lambda v: [1, v], lambda v: {"a": {"b": (v,)}}, lambda v: [{"c": 2.0, "d": v}],
        lambda v: [{"c": 1, "d": [2.0, 3.0]}, {"c": 1, "d": [2.0, v]}],
    ])
    def test_non_finite_float_raises_as_stdlib_does(self, bad, wrap):
        value = wrap(bad)
        with pytest.raises(ValueError) as expected:
            stdlib_dumps(value)
        with pytest.raises(ValueError) as got:
            cli._dumps(value)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("value", [np.int64(3), [np.bool_(True)], {"a": object()}, {1, 2}])
    def test_unsupported_type_raises_type_error(self, value):
        with pytest.raises(TypeError):
            stdlib_dumps(value)
        with pytest.raises(TypeError):
            cli._dumps(value)
