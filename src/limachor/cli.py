"""Command-line surface tying the library together.

Subcommands: admissible, coeffs, restricted, simulate, verify, collide,
constants, scan.  Exit codes: 0 success, 1 usage error, 2 inadmissible
inputs (decision JSON on stderr), 3 verification failure.

Every count flag (``--N`` of each per-body command, ``--steps``,
``--grid``) has one parse-time bound: a count sizes float64 arrays of
up to count + 1 values, which numpy's byte limit caps at 2^60 - 2.
Where a count's arrays also scale with N (``simulate --steps``,
``--grid``), the product is checked against that limit at run time,
with an error naming both flags.

Identical argument vectors produce byte-identical output: floats are
serialized in their shortest exact round-trip form and nothing here is
randomized.

A handler returns one of two payload kinds: a JSON-ready dict, written
as ``json.dumps(payload, indent=2, allow_nan=False)`` plus a newline, or
text as an iterable of blocks.  The text blocks are the CSV exports,
handed out one sample block at a time, and ``collide``'s report, whose
long record lists (ratios and witnesses) are formatted by column
(``_records``) into exactly the text json writes for them.  ``run``
writes either kind through one loop over blocks, to stdout or
``--out``, so an export's whole text is never held.
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


# Below this many values, np.unique's fixed cost exceeds what it saves.
# Columns of distinct values keep it too (about 0.1 s on 10^6 ratios): one
# repr per value made collision_scan slower and an on-locus 262144-witness
# collide peak at 331 MB max RSS instead of 207 MB.
_UNIQUE_MIN = 64


def _texts(values: np.ndarray) -> np.ndarray:
    """The JSON text of each value, as an object array of the same shape.

    ``repr`` of a plain int or float is the text json writes for it.
    From _UNIQUE_MIN values on, each distinct bit pattern is formatted
    once.
    """
    if values.size < _UNIQUE_MIN:
        return np.array(list(map(repr, values.ravel().tolist())),
                        dtype=object).reshape(values.shape)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(values.dtype).tolist())), dtype=object)
    return texts[inverse.reshape(values.shape)]


def _records(pad: str, **columns: np.ndarray) -> str:
    """``json.dumps(records, indent=2)``, nested at indent ``pad``, of records held by column.

    The records are ``[{key: row i of column, ...} for each row i]``.
    At least one column is given; each is an int64 or float64 array
    with one row per record, of shape (M,) for a number or (M, w),
    w >= 1, for a list of w numbers.  The text before each value of a
    record is built once and each column's values are formatted by
    ``_texts``; the two are interleaved, record after record.  A
    non-finite float raises json's ValueError for the first one json
    would reach.
    """
    count = len(next(iter(columns.values())))
    if not count:
        return "[]"
    blocks = [column if column.ndim > 1 else column[:, None] for column in columns.values()]
    # Row-major order is json's order; an int is finite as a float too.
    merged = np.concatenate(blocks, axis=1, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(merged))
    if bad.size:
        raise ValueError("Out of range float values are not JSON compliant: "
                         f"{float(merged.flat[bad[0]])!r}")
    inner, field, item = pad + "  ", pad + "    ", pad + "      "
    pieces, before = [], "{" + field
    for key, column in columns.items():
        before += json.encoder.encode_basestring_ascii(key) + ": "
        if column.ndim == 1:
            pieces.append(before)
            after = ""
        else:
            pieces += [before + "[" + item] + ["," + item] * (column.shape[1] - 1)
            after = field + "]"
        before = after + "," + field
    close = after + inner + "}"
    slots = np.empty((count, 2 * len(pieces)), dtype=object)
    slots[:, 0::2] = pieces
    slots[0, 0] = "[" + inner + pieces[0]
    slots[1:, 0] = close + "," + inner + pieces[0]
    slots[:, 1::2] = np.concatenate([_texts(block) for block in blocks], axis=1)
    texts = slots.ravel().tolist()
    texts.append(close + pad + "]")
    return "".join(texts)


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


# numpy refuses an array of more bytes than this, naming no flag.
_MAX_BYTES = np.iinfo(np.intp).max
_MAX_COUNT = _MAX_BYTES // 8 - 1


def _check_values(flag: str, count: int, n_bodies: int, values: int) -> None:
    """Refuse a ``flag`` count whose float64 arrays of ``values`` values numpy cannot hold."""
    if 8 * values > _MAX_BYTES:
        raise ValueError(f"{flag} {count} with --N {n_bodies} needs float64 arrays "
                         f"of {values} values ({8 * values} bytes), more than numpy "
                         f"can allocate ({_MAX_BYTES} bytes)")


def _config(args: argparse.Namespace) -> kinematics.ChoreoConfig:
    return kinematics.ChoreoConfig(args.N, args.p, args.a, args.b)


def _solve(args: argparse.Namespace) -> coefficients.CouplingVector:
    free = None if args.tail is None else np.array(args.tail)
    return coefficients.solve_couplings(args.N, args.p, free)


# Each handler returns its payload (a JSON-ready dict, or text blocks)
# and its exit code.  Solving comes before building the
# configuration, so an inadmissible pair is reported ahead of a bad
# amplitude.


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
    # The RK4 state holds 4N float64 per sample; the CSV text, on
    # either engine, is larger still.
    _check_values("--steps", args.steps, args.N, 4 * args.N * (args.steps + 1))
    if args.engine == "rk4":
        traj = dynamics.rk4_integrate(kinematics.state_at(config, 0.0),
                                      couplings, args.dt, args.steps)
        return kinematics.trajectory_blocks(traj), EXIT_OK
    return kinematics.orbit_csv(config, 0.0, args.dt * args.steps,
                                args.steps + 1), EXIT_OK


def _check_grid(args: argparse.Namespace) -> None:
    # Positions on up to grid + 1 times hold 2N float64 each.
    _check_values("--grid", args.grid, args.N, 2 * args.N * (args.grid + 1))


def _cmd_verify(args: argparse.Namespace):
    couplings = _solve(args)
    config = _config(args)
    _check_grid(args)
    payload = verification.verify(
        config, couplings, args.dt, args.steps, args.grid,
        residual=args.tol_residual, rk4=args.tol_rk4, spectral=args.tol_spectral,
        drift=args.tol_drift, inertia_rate=args.tol_inertia_rate)
    return payload, EXIT_OK if payload["ok"] else EXIT_VERIFY_FAILED


def _cmd_collide(args: argparse.Namespace):
    config = _config(args)
    report = collisions.has_collision(config)
    ks, ratios = collisions.collision_ratios(args.N, args.p)
    witnesses = report.witnesses
    # The report's json.dumps(indent=2) text, its record lists by column.
    return [
        f'{{\n  "collides": {json.dumps(report.collides)},\n  "ratios": ',
        _records("\n  ", k=ks, ratio=ratios),
        ',\n  "witnesses": ',
        _records("\n  ", k=witnesses.k, t=witnesses.t, bodies=witnesses.bodies,
                 point=witnesses.point, distance=witnesses.distance),
        ',\n  "suspects": ',
        json.dumps(report.suspects, indent=2).replace("\n", "\n  "),
        "\n}\n",
    ], EXIT_OK


def _cmd_constants(args: argparse.Namespace):
    couplings = _solve(args)
    config = _config(args)
    _check_grid(args)
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


def _count(unit: str, least: int | None = None):
    """Argparse type for a count flag: an int from ``least`` to _MAX_COUNT."""
    if least is None:
        return _checked(int, lambda n: n <= _MAX_COUNT, f"at most {_MAX_COUNT} {unit}")
    return _checked(int, lambda n: least <= n <= _MAX_COUNT,
                    f"{least} to {_MAX_COUNT} {unit}")


def _add_pair_args(parser, with_curve=True, any_n=False):
    parser.add_argument("--p", type=int, required=True, help="harmonic index")
    # No lower bound: each command refuses an N below 4 itself, as
    # inadmissible (exit 2) or with an error line.
    parser.add_argument("--N", type=int if any_n else _count("bodies"), required=True,
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


def _build() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI's parser and its subcommand parsers, by subcommand name."""
    parser = _Parser(prog="limachor",
                     description="N-body choreographies on p-limacon curves")
    grid = _count("grid points", 1)
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
    cmd.add_argument("--steps", type=_count("steps", 1), default=DEFAULT_STEPS)
    cmd.add_argument("--engine", choices=("analytic", "rk4"), default="analytic")

    cmd = sub.add_parser("verify", help="full pipeline: solve, certify, integrate, drift")
    _add_pair_args(cmd)
    _add_tail_arg(cmd)
    cmd.add_argument("--dt", type=dt, default=DEFAULT_DT)
    # The inertia rate is a centered difference over steps + 1 samples.
    cmd.add_argument("--steps", type=_count("steps", 2), default=DEFAULT_STEPS)
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
    return parser, sub.choices


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
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # Built on first use, not at import, and shared by every run():
    # parsing leaves no state on a parser.
    return _build()


def run(argv) -> int:
    """Execute one CLI invocation and return its exit code.

    An argv that starts with a subcommand's name is parsed once, by that
    subcommand's parser; the top-level parser would classify every token
    and then hand the rest to the same parser.  Any other argv (empty,
    ``--help``, an unknown command) goes through the top-level parser.
    Both paths give the same namespace, output and exit code.
    """
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    try:
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = command.parse_args(argv[1:])
            args.command = argv[0]
    except _UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as err:  # --help
        return int(err.code or 0)
    try:
        payload, code = _HANDLERS[args.command](args)
        blocks = [_dumps(payload)] if isinstance(payload, dict) else payload
    except admissibility.InadmissibleError as err:
        sys.stderr.write(_dumps(err.decision.to_json_dict()))
        return EXIT_INADMISSIBLE
    except (ValueError, IndexError, MemoryError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    if args.out is None:
        sys.stdout.writelines(blocks)
    else:
        try:
            with open(args.out, "w") as fh:
                fh.writelines(blocks)
        except OSError as err:
            sys.stderr.write(f"error: cannot write --out {args.out}: "
                             f"{err.strerror or err}\n")
            return EXIT_USAGE
    if code == EXIT_INADMISSIBLE:  # admissible: the decision goes to both streams
        sys.stderr.writelines(blocks)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
