"""Command-line surface tying the library together.

Subcommands: admissible, coeffs, restricted, simulate, verify, collide,
constants, scan.  Exit codes: 0 success, 1 usage error, 2 inadmissible
inputs (decision JSON on stderr), 3 verification failure.

Identical argument vectors produce byte-identical output: floats are
serialized in their shortest exact round-trip form and nothing here is
randomized.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from limachor import admissibility, collisions, constants, dynamics, kinematics
from limachor import coefficients

DEFAULT_DT = math.tau / 8192
DEFAULT_STEPS = 8192
DEFAULT_GRID = 64

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2
EXIT_VERIFY_FAILED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern reads -1.5 as a value but -5e-05 as a
        # flag; accept the exponent form too.  Subparsers are _Parsers.
        self._negative_number_matcher = re.compile(
            r"^-(?:\d+|\d*\.\d+)(?:[eE][+-]?\d+)?$")

    # argparse exits with code 2 on bad flags; that code is reserved for
    # inadmissible inputs here, so route parse errors through exit 1.
    def error(self, message):
        raise _UsageError(message)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, default=_json_default,
                      allow_nan=False) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _reject(decision: admissibility.AdmissibilityDecision) -> int:
    sys.stderr.write(_dumps(decision.to_json_dict()))
    return EXIT_INADMISSIBLE


def _config(args: argparse.Namespace) -> kinematics.ChoreoConfig:
    return kinematics.make_config(args.N, args.p, args.a, args.b)


def _solve(args: argparse.Namespace) -> coefficients.CouplingVector:
    free = None if args.tail is None else np.array(args.tail)
    return coefficients.solve_couplings(args.N, args.p, free)


def _cmd_admissible(args: argparse.Namespace) -> int:
    if args.restricted:
        decision = admissibility.is_admissible_restricted(args.p, args.N)
    else:
        decision = admissibility.is_admissible(args.p, args.N)
    _emit(_dumps(decision.to_json_dict()), args.out)
    if not decision.admissible:
        sys.stderr.write(_dumps(decision.to_json_dict()))
        return EXIT_INADMISSIBLE
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace) -> int:
    if abs(args.p) < 2:
        return _reject(admissibility.is_admissible(args.p, 4))
    payload = {
        "p": args.p,
        "max_N": args.max_n,
        "blockset": admissibility.divisor_blockset(args.p),
        "admissible_N": admissibility.admissible_span(args.p, args.max_n),
    }
    _emit(_dumps(payload), args.out)
    return EXIT_OK


def _cmd_coeffs(args: argparse.Namespace) -> int:
    decision = admissibility.is_admissible(args.p, args.N)
    if not decision.admissible:
        return _reject(decision)
    couplings = _solve(args)
    payload = {
        "N": args.N,
        "p": args.p,
        "kappa": couplings.as_dict(),
        "residual": list(coefficients.residual(args.N, args.p, couplings)),
        "det_Mt": coefficients.leading_det(args.N, args.p),
    }
    _emit(_dumps(payload), args.out)
    return EXIT_OK


def _cmd_restricted(args: argparse.Namespace) -> int:
    decision = admissibility.is_admissible_restricted(args.p, args.N)
    if not decision.admissible:
        return _reject(decision)
    pair = coefficients.solve_restricted(args.N, args.p)
    expanded = pair.expand(args.N)
    payload = {
        "N": args.N,
        "p": args.p,
        "kappa_o": pair.kappa_o,
        "kappa_e": pair.kappa_e,
        "kappa": expanded.as_dict(),
        "residual": list(coefficients.residual(args.N, args.p, expanded)),
    }
    _emit(_dumps(payload), args.out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    decision = admissibility.is_admissible(args.p, args.N)
    if not decision.admissible:
        return _reject(decision)
    config = _config(args)
    couplings = _solve(args)
    horizon = args.dt * args.steps
    if args.engine == "rk4":
        spec = dynamics.build_interaction(args.N, couplings)
        traj = dynamics.rk4_integrate(kinematics.initial_state(config),
                                      spec, args.dt, args.steps)
    else:
        traj = kinematics.sample_trajectory(config, 0.0, horizon, args.steps + 1)
    _emit(kinematics.trajectory_csv(traj), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    decision = admissibility.is_admissible(args.p, args.N)
    if not decision.admissible:
        return _reject(decision)
    config = _config(args)
    couplings = _solve(args)

    residual_max = kinematics.eom_residual(
        config, couplings, kinematics.certification_grid(args.grid))

    spec = dynamics.build_interaction(args.N, couplings)
    init = kinematics.initial_state(config)
    traj = dynamics.rk4_integrate(init, spec, args.dt, args.steps)
    probes = np.array([0.3, 1.7, 5.9, float(traj.t[-1])])
    reference, _, _ = kinematics.bodies_at(config, np.arange(args.N), probes[:, None])
    stacked = np.stack([dynamics.spectral_propagate(init, spec, t).positions
                        for t in probes.tolist()])
    # An error whose square overflows is inf and fails its gate.
    with np.errstate(over="ignore"):
        rk4_error = float(np.max(np.linalg.norm(traj.q[-1] - reference[-1], axis=-1)))
        spectral_error = float(np.max(np.linalg.norm(stacked - reference, axis=-1)))

    report = constants.drift_report(traj, couplings)
    baseline = report.to_json_dict()
    # The closed form of c, N (a^2 + p b^2), vanishes on a^2 = -p b^2,
    # so c drift is scaled by N (a^2 + |p| b^2), which bounds |c| and
    # never vanishes.
    c_scale = args.N * (args.a * args.a + abs(args.p) * args.b * args.b)
    relative_drift = {"c": report.drift["c"] / c_scale}
    for key in ("I", "K", "V"):
        relative_drift[key] = report.drift[key] / abs(baseline[key])
    relative_drift["E"] = report.drift["E"] / abs(baseline["K"] + baseline["V"])
    inertia_rate = constants.inertia_rate_max(traj)

    # Tolerances are relative, so the verdict does not depend on the
    # amplitude scale: positions and accelerations scale like |a| + |b|,
    # and I like its closed form N (a^2 + b^2).
    scale = abs(args.a) + abs(args.b)
    inertia_scale = args.N * (args.a * args.a + args.b * args.b)
    gates = [
        ("residual", residual_max, args.tol_residual * scale),
        ("rk4", rk4_error, args.tol_rk4 * scale),
        ("spectral", spectral_error, args.tol_spectral * scale),
        ("drift:g", report.drift["g"], args.tol_drift * scale),
    ]
    gates += [(f"drift:{key}", value, args.tol_drift)
              for key, value in relative_drift.items()]
    gates.append(("inertia_rate", inertia_rate,
                  args.tol_inertia_rate * inertia_scale))
    # Written so that a NaN value or tolerance fails the gate.
    failures = [name for name, value, limit in gates if not value <= limit]

    payload = {
        "N": args.N,
        "p": args.p,
        "a": args.a,
        "b": args.b,
        "kappa": couplings.as_dict(),
        "residual_max": residual_max,
        "rk4_final_error": rk4_error,
        "spectral_error": spectral_error,
        "drift": report.drift,
        "relative_drift": relative_drift,
        "inertia_rate_max": inertia_rate,
        "ok": not failures,
        "failures": failures,
    }
    _emit(_dumps(payload), args.out)
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def _cmd_collide(args: argparse.Namespace) -> int:
    config = _config(args)
    report = collisions.has_collision(config)
    ratios = collisions.collision_ratios(args.N, args.p)
    payload = {
        "collides": report.collides,
        "ratios": [{"k": r.k, "ratio": r.ratio} for r in ratios],
        "witnesses": [w.to_json_dict() for w in report.witnesses],
        "suspects": report.suspects,
    }
    _emit(_dumps(payload), args.out)
    return EXIT_OK


def _cmd_constants(args: argparse.Namespace) -> int:
    decision = admissibility.is_admissible(args.p, args.N)
    if not decision.admissible:
        return _reject(decision)
    config = _config(args)
    couplings = _solve(args)
    traj = kinematics.sample_trajectory(config, 0.0, math.tau, args.grid + 1)
    measured = constants.drift_report(traj, couplings)
    payload = measured.to_json_dict()
    payload["closed_form"] = constants.closed_form_constants(config).to_json_dict()
    payload["potential_from_parts"] = constants.potential_from_parts(config, couplings)
    _emit(_dumps(payload), args.out)
    return EXIT_OK


def _grid_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 grid point, got {count}")
    return count


def _add_pair_args(parser, with_curve=True):
    parser.add_argument("--p", type=int, required=True, help="harmonic index")
    parser.add_argument("--N", type=int, required=True, help="number of bodies")
    if with_curve:
        parser.add_argument("--a", type=float, default=1.2,
                            help="base-circle amplitude (default 1.2)")
        parser.add_argument("--b", type=float, default=1.0,
                            help="harmonic amplitude (default 1.0)")


def _add_tail_arg(parser):
    parser.add_argument("--tail", type=float, nargs="*", default=None,
                        metavar="K",
                        help="free couplings kappa_3.. (default all zero)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="limachor",
                     description="N-body choreographies on p-limacon curves")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("admissible", help="decide whether (p, N) admits a choreography")
    _add_pair_args(cmd, with_curve=False)
    cmd.add_argument("--restricted", action="store_true",
                     help="apply the alternating-coupling criterion")

    cmd = sub.add_parser("scan", help="list admissible N for a fixed p")
    cmd.add_argument("--p", type=int, required=True)
    cmd.add_argument("--max-N", dest="max_n", type=int, default=60)

    cmd = sub.add_parser("coeffs", help="solve the force coefficients")
    _add_pair_args(cmd, with_curve=False)
    _add_tail_arg(cmd)

    cmd = sub.add_parser("restricted", help="solve under the alternating pattern")
    _add_pair_args(cmd, with_curve=False)

    cmd = sub.add_parser("simulate", help="emit a trajectory as CSV")
    _add_pair_args(cmd)
    _add_tail_arg(cmd)
    cmd.add_argument("--dt", type=float, default=DEFAULT_DT)
    cmd.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    cmd.add_argument("--engine", choices=("analytic", "rk4"), default="analytic")

    cmd = sub.add_parser("verify", help="full pipeline: solve, certify, integrate, drift")
    _add_pair_args(cmd)
    _add_tail_arg(cmd)
    cmd.add_argument("--dt", type=float, default=DEFAULT_DT)
    cmd.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    cmd.add_argument("--grid", type=_grid_count, default=DEFAULT_GRID)
    cmd.add_argument("--tol-residual", type=float, default=1e-10)
    cmd.add_argument("--tol-rk4", type=float, default=1e-6)
    cmd.add_argument("--tol-spectral", type=float, default=1e-9)
    cmd.add_argument("--tol-drift", type=float, default=1e-8)
    cmd.add_argument("--tol-inertia-rate", type=float, default=1e-6)

    cmd = sub.add_parser("collide", help="collision analysis of a configuration")
    _add_pair_args(cmd)

    cmd = sub.add_parser("constants", help="conserved quantities and their drift")
    _add_pair_args(cmd)
    _add_tail_arg(cmd)
    cmd.add_argument("--grid", type=_grid_count, default=DEFAULT_GRID)

    for sub_cmd in sub.choices.values():
        sub_cmd.add_argument("--out", default=None,
                             help="write output here instead of stdout")
    return parser


_HANDLERS = {
    "admissible": _cmd_admissible,
    "scan": _cmd_scan,
    "coeffs": _cmd_coeffs,
    "restricted": _cmd_restricted,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "collide": _cmd_collide,
    "constants": _cmd_constants,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on first use, not at import, and shared by every run():
    # parsing leaves no state on the parser.
    return build_parser()


def run(argv) -> int:
    """Execute one CLI invocation and return its exit code."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, IndexError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
