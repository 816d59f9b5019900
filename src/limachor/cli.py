"""Command-line surface tying the library together.

Subcommands: admissible, coeffs, restricted, simulate, verify, collide,
constants, scan.  Exit codes: 0 success, 1 usage error, 2 inadmissible
inputs (decision JSON on stderr), 3 verification failure.

Identical argument vectors produce byte-identical output: floats are
serialized in their shortest exact round-trip form and nothing here is
randomized.  JSON output is exactly ``json.dumps(payload, indent=2,
allow_nan=False)`` plus a newline, written by a one-pass emitter
(``_dumps``) because the stdlib's indented encoder runs in pure Python.
A list of flat records (``collide``'s ratios and witnesses: dicts with
one key order whose values are plain ints, finite plain floats or
equal-length lists of those) is written with one ``%`` per record.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from limachor import admissibility, coefficients, collisions, constants, dynamics
from limachor import kinematics, verification

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


_encode_str = json.encoder.encode_basestring_ascii
_CONTAINERS = (dict, list, tuple)


def _scalar(value) -> str:
    """JSON text of a scalar, exactly as json.dumps writes it.

    The checks run in json's order, so bool comes before int, and int
    and float subclasses (np.float64) print as the plain type.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(
                f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(value, pad: str, parts: list) -> None:
    """Append the JSON text of ``value``, nested at indent ``pad``, to ``parts``.

    No type is both a container and a scalar (their layouts conflict), so
    testing for containers first keeps json's dispatch.
    """
    if isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            if isinstance(item, _CONTAINERS):
                parts.append(sep + _encode_str(key) + ": ")
                _emit(item, inner, parts)
            else:
                parts.append(sep + _encode_str(key) + ": " + _scalar(item))
            sep = "," + inner
        parts.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = pad + "  "
        rows = _records(value, inner)
        if rows is not None:
            parts.append("[" + inner + ("," + inner).join(rows) + pad + "]")
            return
        sep = "[" + inner
        for item in value:
            if isinstance(item, _CONTAINERS):
                parts.append(sep)
                _emit(item, inner, parts)
            else:
                parts.append(sep + _scalar(item))
            sep = "," + inner
        parts.append(pad + "]")
    else:
        parts.append(_scalar(value))


def _records(value, pad: str):
    """JSON texts of a list of flat records at indent ``pad``, or None.

    A flat record is a dict with the first record's key order whose
    values are plain ints, finite plain floats, or non-empty lists of
    those with the first record's lengths.  For these ``%r`` prints what
    json prints, so one template built from the first record formats
    them all.  Anything else (bool, np.float64, str, None, nesting,
    inf, nan) returns None and goes through ``_emit``'s general path.
    """
    if type(value) is not list or type(value[0]) is not dict or not value[0]:
        return None
    keys = list(value[0])
    inner = pad + "  "
    fields, widths = [], []
    for key, item in value[0].items():
        text, width = "%r", 0
        if type(item) is list:
            if not item:
                return None
            deeper, width = inner + "  ", len(item)
            text = "[" + deeper + ("," + deeper).join(["%r"] * width) + inner + "]"
        fields.append(_encode_str(key).replace("%", "%%") + ": " + text)
        widths.append(width)
    template = "{" + inner + ("," + inner).join(fields) + pad + "}"
    rows = []
    for record in value:
        if type(record) is not dict or list(record) != keys:
            return None
        args = []
        for item, width in zip(record.values(), widths):
            if not width:
                args.append(item)
            elif type(item) is list and len(item) == width:
                args += item
            else:
                return None
        for x in args:
            # An int is checked by type alone: math.isfinite would raise
            # on one beyond float range.
            if type(x) is not int and (type(x) is not float or not math.isfinite(x)):
                return None
        rows.append(template % tuple(args))
    return rows


def _dumps(payload) -> str:
    """``json.dumps(payload, indent=2, allow_nan=False) + "\\n"``, in one pass.

    Dict keys must be str, as every payload's are.
    """
    parts: list[str] = []
    _emit(payload, "\n", parts)
    parts.append("\n")
    return "".join(parts)


# Within numpy's index range, an array of more than this many bytes is
# still refused, with a message that names no flag.
_MAX_BYTES = np.iinfo(np.intp).max


def _check_bodies(n: int) -> None:
    """Refuse an N whose per-body float64 arrays numpy cannot allocate."""
    if 8 * n > _MAX_BYTES:
        raise ValueError(f"--N {n} needs float64 arrays of {n} values "
                         f"({8 * n} bytes), more than numpy can allocate "
                         f"({_MAX_BYTES} bytes)")


def _config(args: argparse.Namespace) -> kinematics.ChoreoConfig:
    _check_bodies(args.N)
    return kinematics.ChoreoConfig(args.N, args.p, args.a, args.b)


def _solve(args: argparse.Namespace) -> coefficients.CouplingVector:
    _check_bodies(args.N)
    free = None if args.tail is None else np.array(args.tail)
    return coefficients.solve_couplings(args.N, args.p, free)


# Each handler returns its payload (a JSON-ready dict, or CSV text) and
# its exit code.  Solving comes before building the configuration, so an
# inadmissible pair is reported ahead of a bad amplitude.


def _cmd_admissible(args: argparse.Namespace):
    if args.restricted:
        decision = admissibility.is_admissible_restricted(args.p, args.N)
    else:
        decision = admissibility.is_admissible(args.p, args.N)
    return decision.to_json_dict(), EXIT_OK if decision.admissible else EXIT_INADMISSIBLE


def _cmd_scan(args: argparse.Namespace):
    if abs(args.p) < 2:
        raise admissibility.InadmissibleError(admissibility.is_admissible(args.p, 4))
    return {
        "p": args.p,
        "max_N": args.max_n,
        "blockset": admissibility.divisor_blockset(args.p),
        "admissible_N": admissibility.admissible_span(args.p, args.max_n),
    }, EXIT_OK


def _cmd_coeffs(args: argparse.Namespace):
    couplings = _solve(args)
    return {
        "N": args.N,
        "p": args.p,
        "kappa": couplings.as_dict(),
        "residual": list(coefficients.residual(args.N, args.p, couplings)),
        "det_Mt": coefficients.leading_det(args.N, args.p),
    }, EXIT_OK


def _cmd_restricted(args: argparse.Namespace):
    pair = coefficients.solve_restricted(args.N, args.p)
    expanded = pair.expand(args.N)
    return {
        "N": args.N,
        "p": args.p,
        "kappa_o": pair.kappa_o,
        "kappa_e": pair.kappa_e,
        "kappa": expanded.as_dict(),
        "residual": list(coefficients.residual(args.N, args.p, expanded)),
    }, EXIT_OK


def _cmd_simulate(args: argparse.Namespace):
    couplings = _solve(args)
    config = _config(args)
    if not math.isfinite(args.dt * args.steps):
        raise ValueError(f"horizon --dt * --steps = {args.dt} * {args.steps} "
                         f"is not finite")
    if args.engine == "rk4":
        spec = dynamics.build_interaction(args.N, couplings)
        traj = dynamics.rk4_integrate(kinematics.state_at(config, 0.0),
                                      spec, args.dt, args.steps)
        return kinematics.trajectory_csv(traj), EXIT_OK
    return kinematics.orbit_csv(config, 0.0, args.dt * args.steps,
                                args.steps + 1), EXIT_OK


def _cmd_verify(args: argparse.Namespace):
    couplings = _solve(args)
    payload = verification.verify(
        _config(args), couplings, args.dt, args.steps, args.grid,
        residual=args.tol_residual, rk4=args.tol_rk4, spectral=args.tol_spectral,
        drift=args.tol_drift, inertia_rate=args.tol_inertia_rate)
    return payload, EXIT_OK if payload["ok"] else EXIT_VERIFY_FAILED


def _cmd_collide(args: argparse.Namespace):
    config = _config(args)
    report = collisions.has_collision(config)
    ratios = collisions.collision_ratios(args.N, args.p)
    return {
        "collides": report.collides,
        "ratios": [{"k": r.k, "ratio": r.ratio} for r in ratios],
        "witnesses": [w.to_json_dict() for w in report.witnesses],
        "suspects": report.suspects,
    }, EXIT_OK


def _cmd_constants(args: argparse.Namespace):
    couplings = _solve(args)
    config = _config(args)
    traj = kinematics.sample_trajectory(config, 0.0, math.tau, args.grid + 1)
    payload = constants.drift_report(traj, couplings).to_json_dict()
    payload["closed_form"] = constants.closed_form_constants(config).to_json_dict()
    payload["potential_from_parts"] = constants.potential_from_parts(config, couplings)
    return payload, EXIT_OK


def _checked(kind, ok, need: str):
    """Argparse type: ``kind(text)``, a usage error unless ``ok`` holds for it."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {value}")
        return value

    return parse


# Commands that build per-body arrays need N within numpy's index range.
_bodies = _checked(int, lambda n: n <= np.iinfo(np.intp).max,
                   f"at most {np.iinfo(np.intp).max} bodies (numpy's index range)")


def _add_pair_args(parser, with_curve=True, any_n=False):
    parser.add_argument("--p", type=int, required=True, help="harmonic index")
    parser.add_argument("--N", type=int if any_n else _bodies, required=True,
                        help="number of bodies")
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
    grid = _checked(int, lambda n: n >= 1, "at least 1 grid point")
    dt = _checked(float, lambda h: 0.0 < h < math.inf, "a finite step > 0")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("admissible", help="decide whether (p, N) admits a choreography")
    # Admissibility is exact integer arithmetic, so any N is decided.
    _add_pair_args(cmd, with_curve=False, any_n=True)
    cmd.add_argument("--restricted", action="store_true",
                     help="apply the alternating-coupling criterion")

    cmd = sub.add_parser("scan", help="list admissible N for a fixed p")
    # Bounded so that divisor trial division and the listed span stay fast.
    cmd.add_argument("--p", type=_checked(int, lambda p: abs(p) <= 10**12, "|p| <= 10**12"),
                     required=True)
    cmd.add_argument("--max-N", dest="max_n", default=60,
                     type=_checked(int, lambda n: n <= 10**6, "at most 10**6"))

    cmd = sub.add_parser("coeffs", help="solve the force coefficients")
    _add_pair_args(cmd, with_curve=False)
    _add_tail_arg(cmd)

    cmd = sub.add_parser("restricted", help="solve under the alternating pattern")
    _add_pair_args(cmd, with_curve=False)

    cmd = sub.add_parser("simulate", help="emit a trajectory as CSV")
    _add_pair_args(cmd)
    _add_tail_arg(cmd)
    cmd.add_argument("--dt", type=dt, default=DEFAULT_DT)
    cmd.add_argument("--steps", type=_checked(int, lambda n: n >= 1, "at least 1 step"),
                     default=DEFAULT_STEPS)
    cmd.add_argument("--engine", choices=("analytic", "rk4"), default="analytic")

    cmd = sub.add_parser("verify", help="full pipeline: solve, certify, integrate, drift")
    _add_pair_args(cmd)
    _add_tail_arg(cmd)
    cmd.add_argument("--dt", type=dt, default=DEFAULT_DT)
    # The inertia rate is a centered difference over steps + 1 samples.
    cmd.add_argument("--steps", type=_checked(int, lambda n: n >= 2, "at least 2 steps"),
                     default=DEFAULT_STEPS)
    cmd.add_argument("--grid", type=grid, default=DEFAULT_GRID)
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
    cmd.add_argument("--grid", type=grid, default=DEFAULT_GRID)

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
        payload, code = _HANDLERS[args.command](args)
        text = payload if isinstance(payload, str) else _dumps(payload)
    except admissibility.InadmissibleError as err:
        sys.stderr.write(_dumps(err.decision.to_json_dict()))
        return EXIT_INADMISSIBLE
    except (ValueError, IndexError, MemoryError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            sys.stderr.write(f"error: cannot write --out {args.out}: "
                             f"{err.strerror or err}\n")
            return EXIT_USAGE
    if code == EXIT_INADMISSIBLE:  # admissible: the decision goes to both streams
        sys.stderr.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
