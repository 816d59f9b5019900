import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import limachor
from limachor import admissibility, cli, coefficients, collisions, constants, dynamics
from limachor import kinematics
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
        args = cli._build()[0].parse_args(
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

    @pytest.mark.parametrize("engine", ["analytic", "rk4"])
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, engine):
        argv = ("simulate", "--N", "7", "--p", "3", "--dt", "0.37", "--steps", "40",
                "--engine", engine)
        target = tmp_path / "traj.csv"
        _, expected, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_bytes() == expected.encode()
        assert expected.count("\n") == 1 + 41 * 7

    def test_failed_export_creates_no_out_file(self, capsys, tmp_path):
        # The horizon is finite, but its curve angle p*t is not: the
        # export fails before any block is written or --out is opened.
        target = tmp_path / "traj.csv"
        code, out, err = run_cli(capsys, "simulate", "--N", "4", "--p", "2",
                                 "--dt", "1e308", "--steps", "1", "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not target.exists()

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
           exponent=st.floats(-323.0, 152.0))
    def test_verdict_independent_of_amplitude_scale(self, capsys, pair, a, b,
                                                    sign_a, sign_b, exponent):
        # Every scale ChoreoConfig accepts: 10^-323 a is a nonzero
        # subnormal, and 12 (a^2 + 49 b^2) 10^304 is finite.  Squares of
        # amplitudes below about 1e-154 underflow.
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

    @pytest.mark.parametrize("argv, collides, suspects", [
        (("--N", "6", "--p", "2", "--a", "1e6", "--b", "1e6"), True, []),
        (("--N", "4", "--p", "2", "--a", "1e-12", "--b", "1e-12"), False, []),
        # Just off the locus: at unit scale a suspect, never certified,
        # though the squared distances of tiny amplitudes underflow to 0.
        (("--N", "6", "--p", "2", "--a=1.0000000019999999", "--b=1.0"), False, [2, 4]),
        (("--N", "6", "--p", "2", "--a=1.0000000019999999e-160", "--b=1e-160"),
         False, [2, 4]),
        (("--N", "6", "--p", "2", "--a=1.0000000019999999e-200", "--b=1e-200"),
         False, [2, 4]),
        (("--N", "6", "--p", "2", "--a=1.0000000019999999e-300", "--b=1e-300"),
         False, [2, 4]),
    ])
    def test_verdict_independent_of_amplitude_scale(self, capsys, argv, collides,
                                                    suspects):
        # Same a/b as the unit-scale hit and miss above.
        code, out, _ = run_cli(capsys, "collide", *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["collides"] is collides
        assert payload["suspects"] == suspects

    def test_large_p_on_locus_certified(self, capsys):
        # Separation 1's closed-form gap is 0.  The bodies' relative speed
        # grows like |p| |b|, and a zoom that stopped at a fixed 1e-12
        # step in t reported suspects [1, 4] here.
        code, out, _ = run_cli(capsys, "collide", "--N", "5", "--p", "-1553",
                               "--a", "-1.618033988749898", "--b", "1.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["collides"] is True
        assert payload["suspects"] == []
        ks = [w["k"] for w in payload["witnesses"]]
        # |p - 1| N events for each of the mirror pair {1, 4}.
        assert (ks.count(1), ks.count(4), len(ks)) == (1554 * 5, 1554 * 5, 2 * 1554 * 5)

    # SHA-256 of stdout, every ratio read off the integer-reduced sine
    # table.  At (2580, 4391) exactly equal ratios print once, as 2562
    # rows; unreduced phases printed 2564, in chains over 1e-12.
    @pytest.mark.parametrize("n, p, digest", [
        (2580, 4391, "080f62ffe3d7fab675930def0580405a758acfd9b4f1659a7d5ea4fd80b6fad3"),
        (100000, 3, "ad7d5f8aaaf46070e7bbaf536005b50d54bc3f6e11c92f23db72c5b77fa157f5"),
    ])
    def test_stdout_digest_pinned(self, capsys, n, p, digest):
        code, out, err = run_cli(capsys, "collide", "--N", str(n), "--p", str(p))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # On the locus of a drawn separation, just off it (a suspect), or at
    # an arbitrary ratio.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(4, 32), p_mag=st.integers(2, 9), p_sign=st.sampled_from([1, -1]),
           k_index=st.integers(0, 62), kind=st.sampled_from(["on", "near", "off"]),
           b=st.floats(0.5, 2.0), sign_a=st.sampled_from([1.0, -1.0]),
           sign_b=st.sampled_from([1.0, -1.0]), off_ratio=st.floats(0.1, 10.0))
    def test_stdout_matches_stdlib_on_plain_payload(self, capsys, n, p_mag, p_sign, k_index,
                                                    kind, b, sign_a, sign_b, off_ratio):
        p = p_sign * p_mag
        ratios = collisions.collision_ratios(n, p)[1].tolist()
        ratio = abs(ratios[k_index % len(ratios)]) if ratios else off_ratio
        if kind == "near":
            ratio *= 1.0 + 1e-9
        elif kind == "off":
            ratio = off_ratio
        self.assert_stdout_matches_stdlib(capsys, n, p, sign_a * ratio * b, sign_b * b)

    def test_stdout_matches_stdlib_with_every_list_empty(self, capsys):
        # p = N: every pair's second sine vanishes, so no ratio exists.
        want = self.assert_stdout_matches_stdlib(capsys, 4, 4, 1.2, 1.0)
        assert want["ratios"] == want["witnesses"] == want["suspects"] == []

    def test_stdout_matches_stdlib_with_suspects(self, capsys):
        # 1e-9 off the sqrt(2) locus: suspects, and no witness.
        want = self.assert_stdout_matches_stdlib(capsys, 4, 2, math.sqrt(2) + 1e-9, 1.0)
        assert want["suspects"] == [1, 3]
        assert want["ratios"] and not want["witnesses"]

    @staticmethod
    def assert_stdout_matches_stdlib(capsys, n, p, a, b):
        """collide's whole stdout is json.dumps(indent=2) of its report as lists of dicts."""
        code, out, _ = run_cli(capsys, "collide", "--N", str(n), "--p", str(p),
                               f"--a={a!r}", f"--b={b!r}")
        report = collisions.has_collision(kinematics.ChoreoConfig(n, p, a, b))
        ks, ratios = collisions.collision_ratios(n, p)
        witnesses = list(report.witnesses)
        keys = [(w.k, w.t_star, w.bodies) for w in witnesses]
        assert keys == sorted(keys)
        want = {
            "collides": report.collides,
            "ratios": [{"k": k, "ratio": ratio} for k, ratio in zip(ks.tolist(), ratios.tolist())],
            "witnesses": [{"k": w.k, "t": w.t_star, "bodies": list(w.bodies),
                           "point": w.point.tolist(), "distance": w.min_distance}
                          for w in witnesses],
            "suspects": report.suspects,
        }
        assert code == 0
        assert lines(out) == lines(json.dumps(want, indent=2) + "\n")
        return want

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

    def test_large_p_potential_from_parts_is_the_closed_form(self, capsys):
        # The parts' phases are reduced in integers; the float phase
        # 2 pi p ell / N read 5.366e30 here, 7 % off.
        code, out, _ = run_cli(capsys, "constants", "--N", "10", "--p", "1000000000000007")
        assert code == 0
        payload = json.loads(out)
        expected = payload["closed_form"]["V"]
        assert abs(payload["potential_from_parts"] - expected) <= 1e-15 * expected


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


class TestOverflowingCurveAngle:
    # The horizon 1e308 is finite, but p * t is not.
    def test_is_one_error_line_naming_p_and_t(self):
        code, out, err = run_module("simulate", "--N", "4", "--p", "2",
                                    "--dt", "1e308", "--steps", "1")
        assert (code, out) == (1, "")
        assert err == "error: curve angle p*t is not finite for p=2, got t=1e+308\n"


class TestLargeTimes:
    def test_body_zero_at_t_1e12_is_the_curve_at_1e12(self, capsys):
        # cos and sin reduce 1e12 and 2e12 exactly; a mod-tau reduction
        # put this row 1e-4 off.
        code, out, _ = run_cli(capsys, "simulate", "--N", "4", "--p", "2",
                               "--dt", "1e12", "--steps", "1")
        assert code == 0
        assert out.split("\n")[5].startswith(
            "1000000000000.0,0,1.2025100596567009,-1.7010116639433646,")


class TestGridOutOfRange:
    # np.linspace returns an empty grid from 2**63 - 512 on, which
    # would certify nothing.
    @pytest.mark.parametrize("argv", [
        ("verify", "--N", "4", "--p", "2", "--grid", "0"),
        ("verify", "--N", "4", "--p", "2", "--grid", "-3"),
        ("constants", "--N", "4", "--p", "2", "--grid", "0"),
    ] + [(command, "--N", "4", "--p", "2", "--grid", str(grid))
         for command in ("verify", "constants")
         for grid in (2**60 - 1, 2**63 - 512, 2**63 - 1, 10**20)])
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


# {out} stands for a path under a missing directory.
PARSE_CORPUS = [
    # One valid argv per subcommand.
    ("admissible", "--p", "2", "--N", "4", "--restricted"),
    ("scan", "--p", "6", "--max-N", "12"),
    ("coeffs", "--N", "6", "--p", "2", "--tail", "0.5", "-1e-3"),
    ("restricted", "--N", "6", "--p", "3"),
    ("simulate", "--N", "4", "--p", "2", "--dt", "0.5", "--steps", "3", "--engine", "rk4"),
    ("verify", "--N", "4", "--p", "2", "--dt", str(math.tau / 256), "--steps", "256",
     "--grid", "8"),
    ("collide", "--N", "6", "--p", "2", "--a", "1", "--b", "1"),
    ("constants", "--N", "5", "--p", "2", "--grid", "8", "--b=-5e-05"),
    # Help, at the top level and on a subcommand.
    ("--help",),
    ("-h",),
    ("collide", "--help"),
    ("verify", "--N", "4", "-h"),
    # No command, an unknown one, and a flag before the command.
    (),
    ("frobnicate",),
    ("--N", "4", "collide"),
    # Unknown flags, extra arguments and missing ones.
    ("collide", "--N", "6", "--p", "2", "--bogus"),
    ("coeffs", "--N", "6", "--p", "2", "extra"),
    ("collide", "--N", "6", "--p", "2", "--", "extra"),
    ("collide", "--N", "6"),
    ("collide", "--N", "6", "--p"),
    # Count bounds.
    ("collide", "--N", "3", "--p", "2"),
    ("verify", "--N", "4", "--p", "2", "--steps", "0"),
    ("collide", "--N", "4.5", "--p", "2"),
    # Abbreviated and joined flags.
    ("collide", "--N=6", "--p=2", "--ou", "{out}"),
    ("collide", "--N", "6", "--p", "2", "--out", "{out}"),
]


class TestParseOnce:
    """A subcommand's argv parsed by its own parser, against the top-level parse."""

    def test_every_command_has_its_parser(self):
        assert set(cli._parsers()[1]) == set(cli._HANDLERS)

    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "empty")
    def test_matches_top_level_parse(self, capsys, monkeypatch, tmp_path, argv):
        argv = [arg.format(out=tmp_path / "missing" / "out.json") for arg in argv]
        once = run_cli(capsys, *argv)
        parser = cli._parsers()[0]
        monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))
        assert run_cli(capsys, *argv) == once


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

    @pytest.mark.parametrize("command, least", [("simulate", 1), ("verify", 2)])
    @pytest.mark.parametrize("steps", [2**60 - 1, 10**30])
    def test_steps_beyond_byte_range_names_steps(self, capsys, command, least, steps):
        # steps + 1 float64 values would exceed numpy's byte limit, which
        # numpy reports without naming the flag.
        code, out, err = run_cli(capsys, command, "--N", "4", "--p", "2",
                                 "--steps", str(steps))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: argument --steps: need {least} to "
                              f"{2**60 - 2} steps, got {steps}\n")

    @pytest.mark.parametrize("engine", ["analytic", "rk4"])
    def test_simulate_state_beyond_byte_range_names_steps_and_n(self, capsys, engine):
        # The steps are within --steps' bound, but their 4N = 16 float64
        # state values per sample are 2**67 bytes, which numpy refuses
        # without naming a flag.
        steps, values = 2**60 - 2, 16 * (2**60 - 1)
        code, out, err = run_cli(capsys, "simulate", "--N", "4", "--p", "2",
                                 "--steps", str(steps), "--engine", engine)
        assert (code, out) == (1, "")
        assert err == (f"error: --steps {steps} with --N 4 needs float64 arrays of "
                       f"{values} values ({8 * values} bytes), more than numpy "
                       f"can allocate ({2**63 - 1} bytes)\n")

    @pytest.mark.parametrize("command", ["verify", "constants"])
    @pytest.mark.parametrize("grid", [2**57 - 1, 2**60 - 2])
    def test_grid_beyond_byte_range_names_grid_and_n(self, capsys, command, grid):
        # The grid is within --grid's bound, but positions at grid + 1
        # times take 2N = 8 float64 values each, which numpy refuses
        # (np.arange above length 2**60 - 65 says "array is too big")
        # without naming a flag.
        values = 8 * (grid + 1)
        code, out, err = run_cli(capsys, command, "--N", "4", "--p", "2",
                                 "--grid", str(grid))
        assert (code, out) == (1, "")
        assert err == (f"error: --grid {grid} with --N 4 needs float64 arrays of "
                       f"{values} values ({8 * values} bytes), more than numpy "
                       f"can allocate ({2**63 - 1} bytes)\n")

    @pytest.mark.parametrize("argv", [
        ("verify", "--steps", str(2**60 - 2)),
        ("simulate", "--steps", str(10**14)),
        ("simulate", "--steps", str(10**14), "--engine", "rk4"),
    ])
    def test_steps_within_byte_range_fail_allocation_at_once(self, capsys, argv):
        # The arrays exceed any address space, so nothing is really
        # allocated; RK4 fails after its first chunk, not after the run.
        code, out, err = run_cli(capsys, argv[0], "--N", "4", "--p", "2", *argv[1:])
        assert (code, out) == (1, "")
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (("coeffs", "--N", str(2**60 - 2), "--p", "5"), "Unable to allocate"),
        (("restricted", "--N", str(2**60 - 2), "--p", str(2**59 - 1)), "Unable to allocate"),
        # Odd N: the balance matrix that the restricted solve folds.
        (("restricted", "--N", str(2**59 + 1), "--p", "2"), "Unable to allocate"),
        (("simulate", "--N", str(2**60 - 2), "--p", "5"), "Unable to allocate"),
        (("verify", "--N", str(2**60 - 2), "--p", "5"), "Unable to allocate"),
        (("constants", "--N", str(2**60 - 2), "--p", "5"), "Unable to allocate"),
        # collide's per-separation sine table, before any witness.
        (("collide", "--N", str(2**60 - 2), "--p", "5"), "Unable to allocate"),
        (("collide", "--N", str(2**60 - 2), "--p", "2"), "Unable to allocate"),
        # The largest --grid whose 2N(grid + 1) values fit the byte limit.
        (("verify", "--N", "4", "--p", "2", "--grid", str(2**57 - 2)), "Unable to allocate"),
        (("constants", "--N", "4", "--p", "2", "--grid", str(2**57 - 2)), "Unable to allocate"),
    ])
    def test_counts_within_bound_fail_at_once(self, capsys, argv, message):
        # Nothing this large is really allocated.
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

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

    @pytest.mark.parametrize("command", ["coeffs", "restricted", "verify", "simulate",
                                         "constants", "collide"])
    def test_array_beyond_byte_range_names_n(self, capsys, command):
        # Inside the index range, but n + 1 float64 values exceed numpy's
        # byte limit, which numpy reports without naming the flag.
        for n in (2**60 - 1, 2**62):
            code, out, err = run_cli(capsys, command, "--p", "5", "--N", str(n))
            assert code == 1
            assert out == ""
            assert err.startswith(f"error: argument --N: need at most {2**60 - 2} "
                                  f"bodies, got {n}\n")

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


def lines(text):
    """``text`` split at each newline, for comparing long outputs.

    pytest explains a mismatch of two lists by the first differing
    item; for two strings it diffs every line, which takes minutes on
    thousands of near-identical JSON lines.
    """
    return text.split("\n")


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


# Floats whose shortest repr is at a format boundary, and int64's extremes.
_COLUMN_FLOATS = st.one_of(_FLOATS, st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-05, 0.1,
     1.7976931348623157e308, -1.7976931348623157e308]))
_COLUMN_INTS = st.one_of(st.integers(-(2**63), 2**63 - 1),
                         st.sampled_from([-(2**63), 2**63 - 1, 0, -1]))


@st.composite
def _record_columns(draw):
    """Columns for ``cli._records``, keyed as they are drawn.

    Each column picks its values from a few drawn ones, so repeats are
    common; the record count spans ``cli._UNIQUE_MIN``.
    """
    keys = draw(st.lists(st.sampled_from(["k", "t", "point", 'q"%s', "\u00e9", "a%"]),
                         min_size=1, max_size=4, unique=True))
    count = draw(st.integers(0, 3 * cli._UNIQUE_MIN))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = {}
    for key in keys:
        width = draw(st.sampled_from([None, 1, 2, 3]))
        kind = draw(st.sampled_from([np.int64, np.float64]))
        values = draw(st.lists(_COLUMN_INTS if kind is np.int64 else _COLUMN_FLOATS,
                               min_size=1, max_size=8))
        picks = rng.integers(0, len(values), (count,) if width is None else (count, width))
        columns[key] = np.array(values, dtype=kind)[picks]
    return columns


def as_records(columns):
    """The list of dicts whose text ``cli._records(pad, **columns)`` writes."""
    count = len(next(iter(columns.values())))
    return [{key: column[i].tolist() for key, column in columns.items()}
            for i in range(count)]


def stdlib_records(pad, columns):
    """``json.dumps(indent=2)`` of ``as_records(columns)``, nested at indent ``pad``."""
    return json.dumps(as_records(columns), indent=2, allow_nan=False).replace("\n", pad)


# Record lists at the top level, in a dict, and in a dict in a list.
_PADS = ["\n", "\n  ", "\n    "]


class TestJsonMatchesStdlib:
    """``cli._dumps`` and ``cli._records`` write exactly what ``json.dumps(indent=2)`` writes."""

    @settings(max_examples=150, deadline=None)
    @given(value=_JSON_VALUES)
    def test_matches_stdlib(self, value):
        assert cli._dumps(value) == stdlib_dumps(value)

    @settings(max_examples=300, deadline=None)
    @given(columns=_record_columns(), pad=st.sampled_from(_PADS))
    def test_record_columns_match_stdlib(self, columns, pad):
        got = cli._records(pad, **columns)
        assert lines(got) == lines(stdlib_records(pad, columns))

    @pytest.mark.parametrize("count", [1, cli._UNIQUE_MIN // 3, 3 * cli._UNIQUE_MIN])
    def test_boundary_values_match_stdlib(self, count):
        floats = np.array([0.0, -0.0, 5e-324, 1e16, 9999999999999998.0, 1e-05,
                           1.7976931348623157e308, -1.7976931348623157e308])
        ints = np.array([-(2**63), 2**63 - 1, 0, -1])
        columns = {"i": np.resize(ints, count), "x": np.resize(floats, count),
                   "pair": np.resize(floats[::-1], (count, 2)),
                   "ids": np.resize(ints, (count, 3))}
        for pad in _PADS:
            assert lines(cli._records(pad, **columns)) == lines(stdlib_records(pad, columns))

    # Some cells of a float column are non-finite: json names the first
    # one in record order, then key order.
    @settings(max_examples=150, deadline=None)
    @given(columns=_record_columns(), data=st.data())
    def test_non_finite_column_value_raises_as_stdlib_does(self, columns, data):
        floats = [key for key, column in columns.items() if column.dtype == np.float64]
        assume(floats and len(columns[floats[0]]))
        for _ in range(data.draw(st.integers(1, 3))):
            column = columns[data.draw(st.sampled_from(floats))]
            cell = data.draw(st.integers(0, column.size - 1))
            column.flat[cell] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        pad = data.draw(st.sampled_from(_PADS))
        with pytest.raises(ValueError) as expected:
            stdlib_records(pad, columns)
        with pytest.raises(ValueError) as got:
            cli._records(pad, **columns)
        assert str(got.value) == str(expected.value)

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
