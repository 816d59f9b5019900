"""Span tracing of limachor's layers from outside the package.

The CLI and the layers look functions up as module attributes at call
time (``kinematics.state_at(...)``, or a module-global name bound by
``from ... import``), so replacing those attributes with timing
wrappers records a span at every layer boundary without editing the
program.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
import tracemalloc
from collections import defaultdict

from limachor import admissibility, cli, coefficients, collisions, constants
from limachor import dynamics, kinematics

DEFAULT_CERTIFICATION_GRID = 64


def _eom_evals(args, kwargs, result):
    config = args[0]
    grid = args[2] if len(args) > 2 else kwargs.get("t_grid")
    times = DEFAULT_CERTIFICATION_GRID if grid is None else len(grid)
    return {"curve_evals": config.N * times}


def _collision_counts(args, kwargs, result):
    return {"witnesses": len(result.witnesses),
            "certified": len({w.k for w in result.witnesses})}


# Span name -> (layer function, modules whose attribute of the same name
# is replaced, extra counts derived from the call).  A function imported
# by name into another module is replaced there too.
LAYERS = {
    "admissibility.is_admissible": (
        admissibility.is_admissible, (admissibility, coefficients, constants), None),
    "coefficients.solve_couplings": (coefficients.solve_couplings, (coefficients,), None),
    "kinematics.state_at": (
        kinematics.state_at, (kinematics, constants),
        lambda args, kwargs, result: {"curve_evals": args[0].N}),
    "kinematics.eom_residual": (kinematics.eom_residual, (kinematics,), _eom_evals),
    "kinematics.sample_trajectory": (kinematics.sample_trajectory, (kinematics,), None),
    "kinematics.trajectory_csv": (
        kinematics.trajectory_csv, (kinematics,),
        lambda args, kwargs, result: {"bytes": len(result)}),
    "kinematics.body_state": (
        kinematics.body_state, (kinematics, collisions),
        lambda args, kwargs, result: {"curve_evals": 1}),
    "dynamics.build_interaction": (dynamics.build_interaction, (dynamics,), None),
    "dynamics.rk4_integrate": (
        dynamics.rk4_integrate, (dynamics,),
        lambda args, kwargs, result: {"body_steps": args[0].n_bodies * args[3]}),
    "dynamics.spectral_propagate": (dynamics.spectral_propagate, (dynamics,), None),
    "constants.drift_report": (constants.drift_report, (constants,), None),
    "constants.inertia_rate_max": (constants.inertia_rate_max, (constants,), None),
    "collisions.has_collision": (collisions.has_collision, (collisions,), _collision_counts),
    "collisions.collision_ratios": (collisions.collision_ratios, (collisions,), None),
    "collisions.min_pair_distance": (collisions.min_pair_distance, (collisions,), None),
}
ROOT_SPAN = "cli"


class Tracer:
    """Records spans (name, start, end, parent, request) and counts per span name."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.request = -1
        self._stack: list[int] = []

    def _enter(self):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _leave(self, name, index, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.request)
        self.counts[name]["calls"] += 1

    def wrap(self, name, fn, extra):
        counts = self.counts[name]

        def traced(*args, **kwargs):
            index, parent = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, index, parent, start)
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def run_request(self, request_id, argv):
        """Call ``cli.run(argv)`` under the root span of request ``request_id``."""
        self.request = request_id
        index, parent = self._enter()
        start = time.perf_counter()
        try:
            return cli.run(argv)
        finally:
            self._leave(ROOT_SPAN, index, parent, start)

    def install(self):
        for name, (fn, modules, extra) in LAYERS.items():
            traced = self.wrap(name, fn, extra)
            for module in modules:
                setattr(module, fn.__name__, traced)

    @staticmethod
    def uninstall():
        for fn, modules, _ in LAYERS.values():
            for module in modules:
                setattr(module, fn.__name__, fn)

    def self_times(self, scales) -> dict[str, float]:
        """Total self time per span name: duration minus time covered by children.

        Spans of one thread nest, so a span's children are disjoint and
        the time they cover is the sum of their durations.  Each span's
        self time is multiplied by ``scales[request]``, the host-speed
        scale of its request.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, request), child in zip(self.spans, covered):
            totals[name] += ((end - start) - child) * scales[request]
        return totals

    def write(self, path):
        """Write one JSON array per span: [name, start, end, parent index, request]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@contextlib.contextmanager
def drift_peaks():
    """Collect the peak traced allocation, in MB, of each ``constants.drift_report`` call."""
    original = constants.drift_report
    peaks: list[float] = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
            tracemalloc.stop()

    constants.drift_report = measured
    try:
        yield peaks
    finally:
        constants.drift_report = original
