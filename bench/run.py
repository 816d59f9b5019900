"""limachor benchmark: seeded, closed-loop CLI workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client issues ``limachor.cli.run(argv)`` in-process, stdout
captured, the next request as soon as the previous one returns, as a
command-line user would.  Every output is checked.  With ``--trace 0``
the run reports the end-to-end metrics; set-up time and peak memory
come from fresh child processes.  Every request time is scaled to a
reference host speed by a probe timed between requests (see
``hostspeed.py``); the raw timings are recorded beside them.  With
``--trace 1`` it reports the per-layer metrics from spans recorded
around each layer's functions.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Full
records and spans go to ``bench/out/``.

The package is imported from ``src/`` of this checkout; nothing is
installed.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# Set-up is measured in fresh processes, half before and half after the
# timed loop, so that the median sees the machine as the loop did.
SETUP_CHILDREN = 6
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10
# The host-speed probe runs after at least this much request time.
PROBE_EVERY_S = 0.1

CURVE_EVAL_SPANS = ("kinematics.state_at", "kinematics.eom_residual", "kinematics.body_state")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def declared_metrics(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    except (OSError, ValueError, KeyError) as err:
        raise BenchError(f"cannot read the metric list from BENCHMARK.json: {err!r}") from err


def _import_cli():
    if not (SRC / "limachor" / "cli.py").is_file():
        raise BenchError(f"no limachor sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import limachor
    from limachor import cli
    if not Path(limachor.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"limachor imported from {limachor.__file__}, not from {SRC}")
    return cli


def call(run, argv):
    """One request, output captured: (exit code, stdout, wall s, cpu s, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = run(list(argv))
        except Exception:  # a crash is a failed request, not the end of the run
            code = None
            err.write(traceback.format_exc())
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
    return code, out.getvalue(), wall, cpu, err.getvalue()


class Gate:
    """Correctness gate: checks each argv's first output, then demands identical bytes."""

    def __init__(self, pool):
        self.pool = pool
        self.first: dict[int, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, index, code, out, err):
        self.attempted += 1
        digest = hashlib.sha256(out.encode()).hexdigest()
        if index not in self.first:
            problem = workloads.check(self.pool[index], code, out)
            self.first[index] = (code, digest, problem)
        elif self.first[index][:2] != (code, digest):
            problem = "stdout differs from an earlier run of the same argv"
        else:
            problem = self.first[index][2]
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                argv = " ".join(self.pool[index].argv)
                self.problems.append(f"{argv}: {problem} {err.strip()[-500:]}".strip())

    def stdout_digest(self) -> str:
        """Digest of every argv's stdout, in pool order."""
        joined = "".join(self.first[i][1] for i in sorted(self.first))
        return hashlib.sha256(joined.encode()).hexdigest()


def argv_digest(pool) -> str:
    return hashlib.sha256(json.dumps([r.argv for r in pool]).encode()).hexdigest()


def _proc_field(path, key):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _openblas_threads():
    """Thread count of the OpenBLAS library numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "limachor").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_digest": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": _openblas_threads()},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
    }


def verify_n256_skip() -> dict:
    """The N = 256 verify case, recorded as skipped rather than dropped."""
    samples, n = 8192 + 1, 256        # default --steps, plus the initial state
    need = samples * n * n * 2 * 8    # drift_report's (S, N, N, 2) float64 tensor
    return {"case": "verify --N 256 at default dt/steps", "skipped": True,
            "reason": (f"drift_report's (S, N, N, 2) float64 tensor alone needs "
                       f"{need / 1e9:.1f} GB; MemTotal here is "
                       f"{_proc_field('/proc/meminfo', 'MemTotal')} "
                       "(ROADMAP open item 1: memory must become O(S*N))")}


# ------------------------------------------------------------ child processes


def child_main(args) -> None:
    """Measure set-up (import + input generation) in this fresh process.

    With ``--child memory`` also run the pool's largest request and report
    the process's peak RSS.
    """
    start = time.perf_counter()
    cli = _import_cli()
    pool = workloads.build(args.workload, args.seed)
    result = {"setup_s": time.perf_counter() - start}
    if args.child == "memory":
        index = max(range(len(pool)), key=lambda i: pool[i].N)
        gate = Gate(pool)
        code, out, _, _, err = call(cli.run, pool[index].argv)
        gate(index, code, out, err)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result["problems"] = gate.problems
    print(json.dumps(result))


def run_child(args, mode) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--child", mode]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"child process timed out after {CHILD_TIMEOUT_S} s") from err
    if done.returncode != 0:
        raise BenchError(f"child process failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------- runs


def tail(latencies):
    """Highest-percentile value with at least TAIL_BEYOND values above it.

    Below 2 * TAIL_BEYOND values that rank would fall under the median,
    so the median rank is used instead.  Returns (value, percentile, n).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, math.ceil(n / 2))
    return ordered[rank - 1], 100.0 * rank / n, n


class ScaledTimes:
    """Request times, each scaled by the host-speed probes on either side of it.

    A probe runs before the first request and then after every
    ``PROBE_EVERY_S`` of request time; the requests between two probes
    are scaled by ``REFERENCE_S`` over the mean of the two.
    """

    def __init__(self):
        # Imports numpy, so not at module level: the set-up children's
        # timed import must include numpy's.
        import hostspeed

        self.probe, self.reference = hostspeed.probe, hostspeed.REFERENCE_S
        self.before = self.probe()
        self.pending = 0.0
        self.scales: list[float] = []
        self.count = 0
        self.probes = 1

    def add(self, wall):
        self.count += 1
        self.pending += wall
        if self.pending >= PROBE_EVERY_S:
            self.close()

    def close(self):
        """Probe now and scale every request since the last probe."""
        if len(self.scales) == self.count:
            return
        after = self.probe()
        self.probes += 1
        scale = 2 * self.reference / (self.before + after)
        self.scales += [scale] * (self.count - len(self.scales))
        self.before, self.pending = after, 0.0

    def scaled(self, values):
        return [v * s for v, s in zip(values, self.scales, strict=True)]


def timing_metrics(pool, argvs, latencies, cpus):
    """The per-request timing metrics, and the tail's percentile and sample count.

    Each argv runs many times.  The percentiles are taken over each
    argv's mean latency, so that the pool's mix, not the order of the
    samples, sets which argvs form the tail.
    """
    per_argv: list[list[float]] = [[] for _ in pool]
    for index, wall in zip(argvs, latencies):
        per_argv[index].append(wall)
    argv_means = [statistics.fmean(v) for v in per_argv]
    tail_value, tail_pct, n_argvs = tail(argv_means)
    n = len(latencies)
    return {
        "ops_per_s": n / sum(latencies),
        "latency_p50_ms": statistics.median(argv_means) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "cpu_per_op_ms": sum(cpus) / n * 1e3,
    }, {"percentile": tail_pct, "argvs": n_argvs}


def end_to_end(args, cli, pool, gate, record):
    children = [run_child(args, "setup") for _ in range(SETUP_CHILDREN // 2)]

    argvs, latencies, cpus = [], [], []
    gc.collect()
    times = ScaledTimes()
    start = time.perf_counter()
    i = 0
    while i < len(pool) or time.perf_counter() - start < args.seconds:
        index = i % len(pool)
        code, out, wall, cpu, err = call(cli.run, pool[index].argv)
        gate(index, code, out, err)
        argvs.append(index)
        latencies.append(wall)
        cpus.append(cpu)
        times.add(wall)
        i += 1
    times.close()

    children += [run_child(args, "setup") for _ in range(SETUP_CHILDREN // 2, SETUP_CHILDREN - 1)]
    children.append(run_child(args, "memory"))
    gate.attempted += 1
    for problem in children[-1]["problems"]:
        gate.failed += 1
        gate.problems.append(f"memory pass: {problem}")

    metrics, tail_info = timing_metrics(pool, argvs, times.scaled(latencies), times.scaled(cpus))
    raw, _ = timing_metrics(pool, argvs, latencies, cpus)
    sample_value, sample_pct, n = tail(times.scaled(latencies))
    record["latency_tail"] = dict(tail_info, samples_ms=sample_value * 1e3,
                                  samples_percentile=sample_pct, samples=n)
    record["setup_s_samples"] = [c["setup_s"] for c in children]
    record["unscaled"] = raw
    record["host_scale"] = {"probes": times.probes,
                            "median": statistics.median(times.scales),
                            "min": min(times.scales), "max": max(times.scales)}
    record["latencies_s"] = latencies
    record["scales"] = times.scales
    metrics["peak_rss_mb"] = children[-1]["peak_rss_mb"]
    metrics["setup_s"] = statistics.median(record["setup_s_samples"])
    return metrics


def per_layer(args, cli, pool, gate, record):
    import tracing  # imports limachor, so only after _import_cli

    tracer = tracing.Tracer()
    untraced_wall, traced_wall = [], []
    untraced_times, traced_times = ScaledTimes(), ScaledTimes()
    stdout_bytes = 0
    requests = 0
    start = time.perf_counter()
    while True:
        for index, req in enumerate(pool):
            code, out, wall, _, err = call(cli.run, req.argv)
            gate(index, code, out, err)
            untraced_wall.append(wall)
            untraced_times.add(wall)
        tracer.install()
        try:
            for index, req in enumerate(pool):
                code, out, wall, _, err = call(
                    lambda argv: tracer.run_request(requests, argv), req.argv)
                gate(index, code, out, err)
                traced_wall.append(wall)
                traced_times.add(wall)
                stdout_bytes += len(out)
                requests += 1
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= args.seconds:
            break
    untraced_times.close()
    traced_times.close()

    peak_mb = 0.0
    verify = [i for i, r in enumerate(pool) if r.argv[0] == "verify"]
    if verify:
        index = max(verify, key=lambda i: pool[i].N)
        with tracing.drift_peaks() as peaks:
            code, out, _, _, err = call(cli.run, pool[index].argv)
        gate(index, code, out, err)
        peak_mb = max(peaks, default=0.0)

    self_s = tracer.self_times(traced_times.scales)
    counts = tracer.counts
    metrics = {"cli.stdout_bytes": stdout_bytes / requests}
    for name in declared_metrics("per_layer"):
        layer, _, what = name.rpartition(".")
        if what == "self_s":
            metrics[name] = self_s.get(layer, 0.0) / requests
        elif what == "calls":
            metrics[name] = counts[layer]["calls"] / requests
    metrics["kinematics.trajectory_csv.bytes"] = (
        counts["kinematics.trajectory_csv"]["bytes"] / requests)
    metrics["kinematics.curve_evals"] = sum(
        counts[span]["curve_evals"] for span in CURVE_EVAL_SPANS) / requests
    metrics["dynamics.rk4_integrate.body_steps"] = (
        counts["dynamics.rk4_integrate"]["body_steps"] / requests)
    metrics["constants.drift_report.peak_mb"] = peak_mb
    metrics["collisions.witnesses"] = counts["collisions.has_collision"]["witnesses"] / requests
    oracle_calls = counts["collisions.min_pair_distance"]["calls"]
    metrics["collisions.certified_ratio"] = (
        counts["collisions.has_collision"]["certified"] / oracle_calls if oracle_calls else 0.0)
    metrics["trace.overhead_ratio"] = (sum(traced_times.scaled(traced_wall))
                                       / sum(untraced_times.scaled(untraced_wall)))

    total = sum(self_s.values())
    shares = sorted(((t / total, name) for name, t in self_s.items()), reverse=True)
    record["self_time_shares"] = {name: share for share, name in shares}
    record["traced_requests"] = requests
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    for share, name in shares[:5]:
        print(f"self-time share {name} {share:.3f}")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "memory"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.child:
            child_main(args)
            return 0
        units = declared_metrics("per_layer" if args.trace else "end_to_end")
        cli = _import_cli()
        pool = workloads.build(args.workload, args.seed)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "argv_digest": argv_digest(pool),
                  "environment": environment()}
        print("env " + json.dumps(record["environment"]))
        gate = Gate(pool)
        warm = call(cli.run, pool[0].argv)
        gate(0, warm[0], warm[1], warm[4])
        run = per_layer if args.trace else end_to_end
        metrics = run(args, cli, pool, gate, record)
        missing = sorted(set(units) - set(metrics))
        if missing:
            raise BenchError(f"BENCHMARK.json declares metrics this run does not compute: {missing}")
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    record["stdout_digest"] = gate.stdout_digest()
    record["failed_ratio"] = gate.failed / gate.attempted
    record["problems"] = gate.problems
    if pool[0].argv[0] == "verify":
        record["skips"] = [verify_n256_skip()]
        print("skip " + json.dumps(record["skips"][0]))
    print(f"workload {args.workload} seed {args.seed} argv_digest {record['argv_digest']} "
          f"stdout_digest {record['stdout_digest']}")
    if "latency_tail" in record:
        print("latency_tail_ms is p{percentile:.1f} of {argvs} per-argv mean latencies; "
              "over all {samples} samples p{samples_percentile:.1f} is {samples_ms:.3f} ms".format(
                  **record["latency_tail"]))
    if "host_scale" in record:
        print("host scale (reference probe time / measured) median {median:.4f} "
              "min {min:.4f} max {max:.4f} over {probes} probes".format(**record["host_scale"]))
        for name, value in record["unscaled"].items():
            print(f"unscaled {name} {value!r}")
    for problem in gate.problems:
        print(f"FAILED {problem}")
    print(f"failed_ratio {record['failed_ratio']} ({gate.failed}/{gate.attempted})")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
