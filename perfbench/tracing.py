"""In-memory spans around the package's public functions.

For one traced repeat, each name in ``WRAPPED`` is replaced in the module
that looks it up at call time (``quadrature_weights`` is wrapped inside
``abmgrid.integrator``, ``invert_pressure_to_x`` inside ``abmgrid.tov``),
so every call the workload makes through that name opens a span.  A span
is [name, start, end, parent index, operation id]; spans stay in memory
and are written out once the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import csv
import functools
import importlib
import statistics
import time
from collections import Counter, defaultdict

# (span name, module that looks the name up, attribute, starts an operation)
# The span name's prefix is the layer: the module that defines the function.
WRAPPED = (
    ("cli.main", "abmgrid.cli", "main", True),
    ("poly.run_poly_case", "abmgrid.cli", "run_poly_case", False),
    ("integrator.integrate", "abmgrid.poly", "integrate", False),
    ("poly.poly_rhs", "abmgrid.poly", "poly_rhs", False),
    ("tov.trinary_sieve", "abmgrid.tov", "trinary_sieve", False),
    ("tov.parameter_sweep", "abmgrid.tov", "parameter_sweep", False),
    ("tov.integrate_star", "abmgrid.tov", "integrate_star", True),
    ("integrator.integrate", "abmgrid.tov", "integrate", False),
    ("tov.tov_derivatives", "abmgrid.tov", "tov_derivatives", False),
    ("eos.invert_pressure_to_x", "abmgrid.tov", "invert_pressure_to_x", False),
    ("eos.energy_density_from_x", "abmgrid.tov", "energy_density_from_x",
     False),
    ("quadrature.quadrature_weights", "abmgrid.integrator",
     "quadrature_weights", False),
)

LAYERS = ("quadrature", "eos", "tov", "integrator", "poly", "cli")

# Per-layer metrics of a traced repeat, with units; names are cited by
# later changes, so they only ever get added to.
LAYER_UNITS = {
    "quadrature.calls": "count",
    "quadrature.self_s": "s",
    "quadrature.share": "ratio",
    "eos.invert_calls": "count",
    "eos.invert_self_s": "s",
    "eos.energy_self_s": "s",
    "eos.share": "ratio",
    "tov.rhs_calls": "count",
    "tov.rhs_self_s": "s",
    "tov.self_s": "s",
    "tov.stars": "count",
    "tov.star_ms.p50": "ms",
    "tov.star_ms.p75": "ms",
    "integrator.self_s": "s",
    "integrator.steps": "count",
    "integrator.evals": "count",
    "integrator.capped_steps": "count",
    "integrator.floored_steps": "count",
    "poly.self_s": "s",
    "cli.emit_s": "s",
    "cli.rows": "count",
    "cli.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
    "trace.missing_layers": "count",
}

TRAJECTORY_COUNTS = ("integrator.steps", "integrator.evals",
                     "integrator.capped_steps", "integrator.floored_steps")


def _count_trajectory(counts: Counter, trajectory) -> None:
    """Steps, evaluations and controller cap/floor hits of one integration."""
    if trajectory is None:
        return
    counts["integrator.steps"] += len(trajectory)
    counts["integrator.evals"] += getattr(trajectory, "n_evals", 0)
    for record in trajectory:
        counts["integrator.capped_steps"] += bool(
            getattr(record, "capped", False))
        counts["integrator.floored_steps"] += bool(
            getattr(record, "floored", False))


def layer_self(self_s: dict, layer: str) -> float:
    """Self seconds of every span of one layer."""
    return sum(value for name, value in self_s.items()
               if name.startswith(layer + "."))


class Tracer:
    """Wraps ``WRAPPED`` while installed and keeps the spans it records."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._operation = 0
        self._open_operations = 0
        self._saved = []

    def _wrap(self, name: str, fn, starts_operation: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts
        tracer = self
        after = (functools.partial(_count_trajectory, counts)
                 if name == "integrator.integrate" else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_operation:
                if tracer._open_operations == 0:
                    tracer._operation += 1
                tracer._open_operations += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    tracer._operation]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                if after is not None:
                    after(getattr(exc, "trajectory", None))
                raise
            else:
                span[2] = clock()
                if after is not None:
                    after(result)
                return result
            finally:
                stack.pop()
                if starts_operation:
                    tracer._open_operations -= 1

        return traced

    def __enter__(self):
        for name, module_name, attr, starts_operation in WRAPPED:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, starts_operation))
        return self

    def __exit__(self, *exc_info):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def self_times(self):
        """(self seconds by span name, calls by span name, durations)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, calls = defaultdict(float), Counter()
        durations = defaultdict(list)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[index]
            calls[name] += 1
            durations[name].append(end - start)
        return self_s, calls, durations

    def layer_metrics(self, wall_s: float, output_counts: dict) -> dict:
        """Per-layer metrics of one traced repeat of ``wall_s`` seconds."""
        self_s, calls, durations = self.self_times()
        eos_self = (self_s["eos.invert_pressure_to_x"]
                    + self_s["eos.energy_density_from_x"])
        star_ms = [1e3 * d for d in durations["tov.integrate_star"]]
        if len(star_ms) >= 2:
            p50, p75 = statistics.quantiles(star_ms, n=4)[1:]
        else:
            p50 = p75 = star_ms[0] if star_ms else 0.0
        metrics = {
            "quadrature.calls": calls["quadrature.quadrature_weights"],
            "quadrature.self_s": self_s["quadrature.quadrature_weights"],
            "quadrature.share": self_s["quadrature.quadrature_weights"] / wall_s,
            "eos.invert_calls": calls["eos.invert_pressure_to_x"],
            "eos.invert_self_s": self_s["eos.invert_pressure_to_x"],
            "eos.energy_self_s": self_s["eos.energy_density_from_x"],
            "eos.share": eos_self / wall_s,
            "tov.rhs_calls": calls["tov.tov_derivatives"],
            "tov.rhs_self_s": self_s["tov.tov_derivatives"],
            "tov.self_s": layer_self(self_s, "tov"),
            "tov.stars": calls["tov.integrate_star"],
            "tov.star_ms.p50": p50,
            "tov.star_ms.p75": p75,
            "integrator.self_s": self_s["integrator.integrate"],
            "poly.self_s": layer_self(self_s, "poly"),
            "cli.emit_s": self_s["cli.main"],
            "cli.rows": output_counts.get("cli.rows", 0),
            "cli.bytes": output_counts.get("cli.bytes", 0),
            "trace.wall_s": wall_s,
            "trace.accounted_frac": sum(self_s.values()) / wall_s,
            "trace.missing_layers": len(self.missing),
        }
        for name in TRAJECTORY_COUNTS:
            metrics[name] = self.counts[name]
        return metrics

    def layer_table(self, wall_s: float) -> list:
        """(layer, self seconds, share of wall) rows for the report."""
        self_s = self.self_times()[0]
        return [(layer, layer_self(self_s, layer),
                 layer_self(self_s, layer) / wall_s) for layer in LAYERS]

    def write_spans(self, path) -> None:
        """One CSV row per span; times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "start_s", "end_s", "parent",
                             "operation"])
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                writer.writerow([index, name, f"{start - origin:.9f}",
                                 f"{end - origin:.9f}", parent, op])
