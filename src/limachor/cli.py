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
import json
import math
import sys
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved CLI invocation."""

    command: str
    N: int = 0
    p: int = 0
    a: float = 1.2
    b: float = 1.0
    tail: tuple[float, ...] | None = None
    dt: float = DEFAULT_DT
    steps: int = DEFAULT_STEPS
    grid: int = DEFAULT_GRID
    out: str | None = None
    extra: dict = field(default_factory=dict)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
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


def _config(run: RunConfig) -> kinematics.ChoreoConfig:
    return kinematics.make_config(run.N, run.p, run.a, run.b)


def _solve(run: RunConfig) -> coefficients.CouplingVector:
    free = None if run.tail is None else np.array(run.tail)
    return coefficients.solve_couplings(run.N, run.p, free)


def _cmd_admissible(run: RunConfig) -> int:
    if run.extra.get("restricted"):
        decision = admissibility.is_admissible_restricted(run.p, run.N)
    else:
        decision = admissibility.is_admissible(run.p, run.N)
    _emit(_dumps(decision.to_json_dict()), run.out)
    if not decision.admissible:
        sys.stderr.write(_dumps(decision.to_json_dict()))
        return EXIT_INADMISSIBLE
    return EXIT_OK


def _cmd_scan(run: RunConfig) -> int:
    if abs(run.p) < 2:
        return _reject(admissibility.is_admissible(run.p, 4))
    max_n = run.extra["max_n"]
    payload = {
        "p": run.p,
        "max_N": max_n,
        "blockset": admissibility.divisor_blockset(run.p),
        "admissible_N": admissibility.admissible_span(run.p, max_n),
    }
    _emit(_dumps(payload), run.out)
    return EXIT_OK


def _cmd_coeffs(run: RunConfig) -> int:
    decision = admissibility.is_admissible(run.p, run.N)
    if not decision.admissible:
        return _reject(decision)
    couplings = _solve(run)
    payload = {
        "N": run.N,
        "p": run.p,
        "kappa": couplings.as_dict(),
        "residual": list(coefficients.residual(run.N, run.p, couplings)),
        "det_Mt": coefficients.leading_det(run.N, run.p),
    }
    _emit(_dumps(payload), run.out)
    return EXIT_OK


def _cmd_restricted(run: RunConfig) -> int:
    decision = admissibility.is_admissible_restricted(run.p, run.N)
    if not decision.admissible:
        return _reject(decision)
    pair = coefficients.solve_restricted(run.N, run.p)
    expanded = pair.expand(run.N)
    payload = {
        "N": run.N,
        "p": run.p,
        "kappa_o": pair.kappa_o,
        "kappa_e": pair.kappa_e,
        "kappa": expanded.as_dict(),
        "residual": list(coefficients.residual(run.N, run.p, expanded)),
    }
    _emit(_dumps(payload), run.out)
    return EXIT_OK


def _cmd_simulate(run: RunConfig) -> int:
    decision = admissibility.is_admissible(run.p, run.N)
    if not decision.admissible:
        return _reject(decision)
    config = _config(run)
    couplings = _solve(run)
    horizon = run.dt * run.steps
    if run.extra.get("engine") == "rk4":
        spec = dynamics.build_interaction(run.N, couplings)
        traj = dynamics.rk4_integrate(kinematics.initial_state(config),
                                      spec, run.dt, run.steps)
    else:
        traj = kinematics.sample_trajectory(config, 0.0, horizon, run.steps + 1)
    _emit(kinematics.trajectory_csv(traj), run.out)
    return EXIT_OK


def _cmd_verify(run: RunConfig) -> int:
    decision = admissibility.is_admissible(run.p, run.N)
    if not decision.admissible:
        return _reject(decision)
    config = _config(run)
    couplings = _solve(run)
    tol = run.extra

    residual_max = kinematics.eom_residual(
        config, couplings, kinematics.certification_grid(run.grid))

    spec = dynamics.build_interaction(run.N, couplings)
    init = kinematics.initial_state(config)
    traj = dynamics.rk4_integrate(init, spec, run.dt, run.steps)
    t_end = float(traj.t[-1])
    analytic_end = kinematics.state_at(config, t_end)
    rk4_error = float(np.max(np.linalg.norm(
        traj.q[-1] - analytic_end.positions, axis=1)))

    spectral_error = 0.0
    for t in (0.3, 1.7, 5.9, t_end):
        propagated = dynamics.spectral_propagate(init, spec, t)
        reference = kinematics.state_at(config, t)
        spectral_error = max(spectral_error, float(np.max(np.linalg.norm(
            propagated.positions - reference.positions, axis=1))))

    report = constants.drift_report(traj, couplings)
    baseline = report.to_json_dict()
    # The closed form of c, N (a^2 + p b^2), vanishes on a^2 = -p b^2,
    # so c drift is scaled by N (a^2 + |p| b^2), which bounds |c| and
    # never vanishes.
    c_scale = run.N * (run.a * run.a + abs(run.p) * run.b * run.b)
    relative_drift = {"c": report.drift["c"] / c_scale}
    for key in ("I", "K", "V"):
        relative_drift[key] = report.drift[key] / abs(baseline[key])
    relative_drift["E"] = report.drift["E"] / abs(baseline["K"] + baseline["V"])
    inertia_rate = constants.inertia_rate_max(traj)

    gates = [
        ("residual", residual_max, tol["tol_residual"]),
        ("rk4", rk4_error, tol["tol_rk4"]),
        ("spectral", spectral_error, tol["tol_spectral"]),
        ("drift:g", report.drift["g"], tol["tol_drift"]),
    ]
    gates += [(f"drift:{key}", value, tol["tol_drift"])
              for key, value in relative_drift.items()]
    gates.append(("inertia_rate", inertia_rate, tol["tol_inertia_rate"]))
    # Written so that a NaN value or tolerance fails the gate.
    failures = [name for name, value, limit in gates if not value <= limit]

    payload = {
        "N": run.N,
        "p": run.p,
        "a": run.a,
        "b": run.b,
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
    _emit(_dumps(payload), run.out)
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def _cmd_collide(run: RunConfig) -> int:
    config = _config(run)
    report = collisions.has_collision(config)
    ratios = collisions.collision_ratios(run.N, run.p)
    payload = {
        "collides": report.collides,
        "ratios": [{"k": r.k, "ratio": r.ratio} for r in ratios],
        "witnesses": [w.to_json_dict() for w in report.witnesses],
        "suspects": report.suspects,
    }
    _emit(_dumps(payload), run.out)
    return EXIT_OK


def _cmd_constants(run: RunConfig) -> int:
    decision = admissibility.is_admissible(run.p, run.N)
    if not decision.admissible:
        return _reject(decision)
    config = _config(run)
    couplings = _solve(run)
    traj = kinematics.sample_trajectory(config, 0.0, math.tau, run.grid + 1)
    measured = constants.drift_report(traj, couplings)
    payload = measured.to_json_dict()
    payload["closed_form"] = constants.closed_form_constants(config).to_json_dict()
    payload["potential_from_parts"] = constants.potential_from_parts(config, couplings)
    _emit(_dumps(payload), run.out)
    return EXIT_OK


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
    cmd.add_argument("--grid", type=int, default=DEFAULT_GRID)
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
    cmd.add_argument("--grid", type=int, default=DEFAULT_GRID)

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


def _to_run_config(args: argparse.Namespace) -> RunConfig:
    extra = {}
    for key in ("restricted", "max_n", "engine", "tol_residual", "tol_rk4",
                "tol_spectral", "tol_drift", "tol_inertia_rate"):
        if hasattr(args, key):
            extra[key] = getattr(args, key)
    return RunConfig(
        command=args.command,
        N=getattr(args, "N", 0),
        p=getattr(args, "p", 0),
        a=getattr(args, "a", 1.2),
        b=getattr(args, "b", 1.0),
        tail=None if getattr(args, "tail", None) is None else tuple(args.tail),
        dt=getattr(args, "dt", DEFAULT_DT),
        steps=getattr(args, "steps", DEFAULT_STEPS),
        grid=getattr(args, "grid", DEFAULT_GRID),
        out=getattr(args, "out", None),
        extra=extra,
    )


def run(argv) -> int:
    """Execute one CLI invocation and return its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        return _HANDLERS[args.command](_to_run_config(args))
    except (ValueError, IndexError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
