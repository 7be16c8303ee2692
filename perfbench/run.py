"""Benchmark of abmgrid: the sieve, sweep and poly workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sieve|sweep|poly --seed N \\
        --seconds S --trace 0|1

Each run is one single-threaded process (``jobs=1``, BLAS and OpenMP
pinned to one thread) that repeats its workload until ``--seconds`` have
passed, checks every repeat's results against independent references,
and prints a report.  ``--trace 0`` times the untouched package and
reports the end-to-end metrics, with wall and CPU time rescaled to a
fixed host speed (``hostspeed.py``); ``--trace 1`` alternates untraced and
traced repeats, adds the layer micro-timings, writes the spans of the
last traced repeat to ``.bench_out/``, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
THREADS = "1"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

# wall_ref_s, cpu_ref_s and setup_s are rescaled to a fixed host speed
# (see hostspeed.py); the raw wall_s, cpu_s and setup_raw_s are in the
# report and the result file but swing too much with the host to gate.
END_TO_END_UNITS = {"wall_ref_s": "s", "cpu_ref_s": "s", "ok_frac": "ratio",
                    "peak_rss_mb": "MB", "setup_s": "s"}
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_raw_s": "s"}

# A fresh interpreter imports the package and makes the workload's first
# call; it prints the seconds from before the import to after the call,
# then the mean time of the host-speed task right after.
SETUP_PROBE = """\
import time
start = time.perf_counter()
import abmgrid, abmgrid.cli
OUT = {out!r}
{call}
print(time.perf_counter() - start)
import hostspeed
print(hostspeed.mean_task_s())
"""


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({name: THREADS for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE)))
    return env


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine() -> dict:
    import numpy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}"
                .strip(),
        "blas_threads": THREADS,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def setup_seconds(workload):
    """(raw, rescaled) seconds of import plus first call in a fresh
    interpreter; rescaled to the reference host speed like the repeats."""
    import hostspeed
    code = SETUP_PROBE.format(out=str(OUT), call=workload.first_call)
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=pinned_env(), capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    seconds, task_s = map(float, done.stdout.split()[-2:])
    return seconds, seconds * hostspeed.REFERENCE_TASK_S / task_s


def warm_up(workload) -> None:
    """Make the set-up probe's first call in this process, untimed."""
    with contextlib.redirect_stdout(io.StringIO()):
        exec(workload.first_call, {"abmgrid": sys.modules["abmgrid"],
                                   "OUT": str(OUT)})


def timed(workload, inputs):
    """(wall s, cpu s, output) of one repeat of the workload."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    output = workload.execute(inputs, OUT)
    return time.perf_counter() - wall0, time.process_time() - cpu0, output


class Run:
    """Repeats, checks and tallies of one benchmark run."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.attempted = self.failed = 0
        self.problems = []
        self.silent_checks = None   # set by the self-test on the first repeat

    def check(self, output):
        refs = self.workload.references(self.inputs, output)
        tally = self.workload.check(self.inputs, output, refs)
        self.attempted += tally.attempted
        self.failed += tally.failed
        self.problems.extend(p for p in tally.problems
                             if p not in self.problems)
        if self.silent_checks is None:
            self.silent_checks = self.workload.self_test(self.inputs, output,
                                                         refs)
        return tally

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.silent_checks == []


def add_setup_sample(samples: dict, workload) -> None:
    raw, rescaled = setup_seconds(workload)
    samples["setup_raw_s"].append(raw)
    samples["setup_s"].append(rescaled)


def run_untraced(run: Run, seconds: float):
    """(gated metrics, raw metrics, samples of both) of one timed run."""
    import hostspeed
    warm_up(run.workload)
    samples = {name: [] for name in ("wall_s", "cpu_s", "setup_raw_s",
                                     "wall_ref_s", "cpu_ref_s", "setup_s")}
    deadline = time.perf_counter() + seconds
    while not samples["wall_s"] or time.perf_counter() < deadline:
        # Set-up samples are spread over the run, one before each repeat,
        # so a short burst of load on the host moves few of them.
        add_setup_sample(samples, run.workload)
        with hostspeed.HostSpeed() as speed:
            wall, cpu, output = timed(run.workload, run.inputs)
        run.check(output)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["wall_ref_s"].append(speed.rescale(wall, speed.wall_spent))
        samples["cpu_ref_s"].append(speed.rescale(cpu, speed.cpu_spent))
    while len(samples["setup_s"]) < SETUP_SAMPLES:
        add_setup_sample(samples, run.workload)
    medians = {name: statistics.median(values)
               for name, values in samples.items()}
    metrics = {
        "wall_ref_s": medians["wall_ref_s"],
        "cpu_ref_s": medians["cpu_ref_s"],
        "ok_frac": 1.0 - run.failed / run.attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": medians["setup_s"],
    }
    raw = {name: medians[name] for name in RAW_UNITS}
    return metrics, raw, samples


def run_traced(run: Run, seconds: float, seed: int):
    import micro
    import numpy as np
    import tracing
    warm_up(run.workload)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        wall, _, output = timed(run.workload, run.inputs)
        run.check(output)
        untraced.append(wall)
        tracer = tracing.Tracer()
        with tracer:
            wall, _, output = timed(run.workload, run.inputs)
        tally = run.check(output)
        traced.append((wall, tracer.layer_metrics(wall, tally.counts)))
    # Counts are exact and taken from the first traced repeat; times are
    # medians over the traced repeats.
    count_names = [name for name, unit in tracing.LAYER_UNITS.items()
                   if unit in ("count", "bytes")]
    layers = {name: statistics.median(m[name] for _, m in traced)
              for name in traced[0][1]}
    layers.update({name: traced[0][1][name] for name in count_names})
    repeatable = all(m[name] == traced[0][1][name]
                     for _, m in traced for name in count_names)
    layers["trace.untraced_wall_s"] = statistics.median(untraced)
    # Each traced repeat is paired with the untraced one just before it,
    # so drift in the host's speed between pairs cancels.
    layers["trace.overhead_s"] = statistics.median(
        wall - plain for (wall, _), plain in zip(traced, untraced))
    micro_metrics, micro_missing = micro.measure(
        np.random.default_rng([seed, 1]))
    layers.update(micro_metrics)
    layers["trace.missing_layers"] += len(micro_missing)
    spans_path = OUT / f"spans-{run.workload.name}-seed{seed}.csv"
    tracer.write_spans(spans_path)
    details = {
        "traced_wall_s": [w for w, _ in traced],
        "untraced_wall_s": untraced,
        "counts_repeat_exactly": repeatable,
        "missing": tracer.missing + micro_missing,
        "layer_table": tracer.layer_table(traced[-1][0]),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans": len(tracer.spans),
    }
    return layers, details


def print_report(name, seed, inputs, info, run, metrics, units, extra):
    print(f"abmgrid benchmark: workload={name} seed={seed}")
    print("machine: " + json.dumps(info, sort_keys=True))
    print("inputs: " + json.dumps(inputs, default=repr))
    print(f"operations: attempted={run.attempted} failed={run.failed} "
          f"fail_frac={run.failed / max(run.attempted, 1):.4g}")
    print("self-test: " + ("every perturbed reference fired"
                           if run.silent_checks == []
                           else f"did not fire for {run.silent_checks}"))
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    samples = extra.get("samples", {})
    raw = extra.get("raw", {})
    for metric, value in {**metrics, **raw}.items():
        label = metric + (" (raw, not gated)" if metric in raw else "")
        line = f"  {label:<28} {value:>14.6g} {units[metric]}"
        if metric in samples:
            q1, _, q3 = quartiles(samples[metric])
            line += (f"   (median of {len(samples[metric])}, "
                     f"IQR {q3 - q1:.3g} {units[metric]})")
        print(line)
    for key in ("traced_wall_s", "untraced_wall_s", "counts_repeat_exactly",
                "missing", "spans", "spans_file"):
        if key in extra:
            print(f"  {key}: {extra[key]}")
    for layer, self_s, share in extra.get("layer_table", []):
        print(f"  layer {layer:<11} self {self_s:9.4f} s  {100 * share:5.1f} %")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sieve", "sweep", "poly"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "abmgrid" / "__init__.py").is_file():
        print(f"error: no abmgrid package under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # Pin the thread pools before numpy is first imported.
    os.environ.update({name: THREADS for name in THREAD_VARS})
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.make_inputs(np.random.default_rng(args.seed))
    run = Run(workload, inputs)
    if args.trace:
        import micro
        import tracing
        metrics, extra = run_traced(run, args.seconds, args.seed)
        units = {**tracing.LAYER_UNITS, **micro.MICRO_UNITS}
        metrics = {name: metrics[name] for name in units}
    else:
        metrics, raw, samples = run_untraced(run, args.seconds)
        extra = {"samples": samples, "raw": raw}
        units = {**END_TO_END_UNITS, **RAW_UNITS}

    info = machine()
    print_report(args.workload, args.seed, inputs, info, run, metrics, units,
                 extra)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": info,
              "inputs": inputs, "problems": run.problems,
              "self_test_silent": run.silent_checks, "details": extra}
    with open(OUT / f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=repr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
