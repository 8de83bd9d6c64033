"""densym benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload classify-flagship --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; densym is imported from its `src/`.  With
`--trace 0` the workload's full input set is answered in passes, one answer
at a time, for about `--seconds` seconds (at least one pass), and the
end-to-end metrics are printed.  With `--trace 1` one untraced and one traced
pass are made over the same inputs and the per-layer metrics are printed.
The last line of stdout is the result; the line before it is provenance.
Exit code 2 means the benchmark could not run (densym missing, bad flags).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, SpeedSampler
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 9
TAIL_BEYOND = 10  # samples a tail percentile must have above it
MIN_ANSWERS = 2 * TAIL_BEYOND

# prints the import time, scaled by the reference speed, then the raw time
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import densym.cli
densym.cli.build_parser().parse_args(["verify", "--list"])
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import calibrate
speed = calibrate.sample(20)
print(repr(elapsed * calibrate.REFERENCE_S / speed), repr(elapsed))
"""

END_TO_END = {
    "wall_s": "s",
    "answers_per_s": "1/s",
    "answer_p50_s": "s",
    "answer_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# span-derived per-layer metrics: layer -> the fields reported for it
SPAN_FIELDS = {
    "rings.trig_mul": ("calls", "s"),
    "rings.poly_mul": ("calls", "s"),
    "rings.diff": ("calls", "s"),
    "densities.compose": ("calls", "s"),
    "densities.lie_derivative_operator": ("calls", "s"),
    "operators.generator_apply": ("calls", "s"),
    "truncation.brute_force_local_symmetries": ("calls", "s", "self_s"),
    "truncation.vector_of": ("calls", "s"),
    "truncation.flat": ("calls", "s"),
    "truncation.equivariance_defect": ("calls", "s"),
    "truncation.bilinear_defect": ("s",),
    "linalg.rref": ("calls", "s"),
    "linalg.nullspace": ("calls", "s"),
    "linalg.independent_subset": ("calls", "s"),
    "recurrence.build_system": ("calls", "s"),
    "recurrence.local_dimension": ("calls", "s"),
    "recurrence.classify": ("calls", "s", "self_s"),
    "recurrence.sweep": ("s",),
    "algebras.span_algebra": ("calls", "s", "self_s"),
    "algebras.identify": ("calls", "s"),
    "identities.run_identity": ("calls", "s"),
    "identities.check_catalog_op": ("calls", "s"),
    "cli.main": ("calls", "s", "self_s"),
}
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

PER_LAYER_EXTRA = {
    "rings.trig_init.calls": "count",
    "rings.poly_init.calls": "count",
    "linalg.rref.cells": "cells",
    "linalg.rref.max_shape": "cells",
    "linalg.independent_subset.accept_ratio": "ratio",
    "algebras.span_algebra.products": "count",
    "identities.entries": "count",
    "trace.overhead_frac": "ratio",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.remainder_s": "s",
}

PER_LAYER = {f"{layer}.{f}": FIELD_UNITS[f]
             for layer, fields in SPAN_FIELDS.items() for f in fields}
PER_LAYER.update(PER_LAYER_EXTRA)


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_densym():
    """Import densym from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(SRC))
    try:
        import densym.cli  # noqa: F401
    except ImportError as exc:
        raise BenchmarkError(f"cannot import densym from {SRC}: {exc}") from exc
    loaded = Path(sys.modules["densym"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise BenchmarkError(f"densym was imported from {loaded}, not from {SRC}")


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def measure_setup():
    """Import densym.cli and parse a trivial argv, each in a fresh interpreter.

    Returns (scaled, raw) seconds per probe.  The first probe only warms the
    file cache and is not returned.
    """
    scaled, raw = [], []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"setup probe failed: {proc.stderr.strip()}")
        s, r = proc.stdout.split()
        scaled.append(float(s))
        raw.append(float(r))
    return scaled[1:], raw[1:]


def timed_pass(workload, inputs):
    """(wall time, answers, intervals the pass spent in densym)."""
    gc.collect()
    t0 = perf_counter()
    answers, busy = workload.run_pass(inputs)
    return perf_counter() - t0, answers, busy


def tail(latencies, pass_size):
    """Highest percentile with TAIL_BEYOND samples above it in one pass.

    The rank is fixed by the pass size, so repeating a pass keeps the same
    percentile; pooled over P passes it has TAIL_BEYOND * P samples above.
    Returns (value, percentile, samples above it).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    at_or_below = -(-(pass_size - TAIL_BEYOND) * n // pass_size)
    return ordered[at_or_below - 1], 100.0 * (pass_size - TAIL_BEYOND) / pass_size, n - at_or_below


def end_to_end(workload, inputs, seconds):
    """Whole passes until the next would overrun `seconds` (at least one).

    Times are scaled to the reference speed (see calibrate.py); the raw
    times go to provenance.
    """
    setup, raw_setup = measure_setup()
    walls, raw_walls, elapsed_walls, speeds = [], [], [], []
    latencies, raw_latencies, passes = [], [], []
    while True:
        with SpeedSampler() as sampler:
            elapsed, answers, busy = timed_pass(workload, inputs)
        elapsed_walls.append(elapsed)
        raw_walls.append(sum(end - start for start, end in busy))
        walls.append(sum(sampler.scale(start, end) for start, end in busy))
        speeds.append(sampler.speed())
        latencies += [sampler.scale(a.start, a.start + a.seconds) for a in answers]
        raw_latencies += [a.seconds for a in answers]
        passes.append(answers)
        if sum(elapsed_walls) + max(elapsed_walls) > seconds:
            break
    pass_size = len(passes[0])
    if pass_size < MIN_ANSWERS:
        raise BenchmarkError(f"a pass gives {pass_size} answers; need {MIN_ANSWERS}")
    tail_value, tail_pct, beyond = tail(latencies, pass_size)
    values = {
        "wall_s": statistics.median(walls),
        "answers_per_s": len(latencies) / sum(walls),
        "answer_p50_s": statistics.median(latencies),
        "answer_tail_s": tail_value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    provenance = {
        "passes": len(passes),
        "answers_per_pass": pass_size,
        "answer_tail_percentile": tail_pct,
        "answer_tail_samples_beyond": beyond,
        "answer_samples": len(latencies),
        "reference_s": REFERENCE_S,
        "pass_reference_s": speeds,
        "raw_pass_walls_s": raw_walls,
        "raw_answer_p50_s": statistics.median(raw_latencies),
        "raw_answer_tail_s": tail(raw_latencies, pass_size)[0],
        "raw_setup_s": statistics.median(raw_setup),
    }
    return values, END_TO_END, [a for p in passes for a in p], provenance


def per_layer(workload, inputs, seed):
    """One untraced and one traced pass over the same inputs.

    Both passes run under the speed sampler, so that the tracing overhead
    is compared at the reference speed; its handler adds about 2% to
    whichever spans are open, alike for every layer.
    """
    with SpeedSampler() as sampler:
        _, untraced, busy = timed_pass(workload, inputs)
    untraced_scaled = sum(sampler.scale(start, end) for start, end in busy)
    tracer = Tracer()
    tracer.install()
    try:
        with SpeedSampler() as sampler:
            traced_wall, traced, busy = timed_pass(workload, inputs)
    finally:
        tracer.uninstall()
    traced_scaled = sum(sampler.scale(start, end) for start, end in busy)
    summary = tracer.summary()
    values = {}
    for layer, fields in SPAN_FIELDS.items():
        for f in fields:
            values[f"{layer}.{f}"] = summary[layer][f]
    extra = tracer.extra
    tried = extra["linalg.independent_subset.tried"]
    self_sum = sum(rec["self_s"] for rec in summary.values())
    values.update({
        "rings.trig_init.calls": tracer.counts["rings.trig_init"],
        "rings.poly_init.calls": tracer.counts["rings.poly_init"],
        "linalg.rref.cells": extra["linalg.rref.cells"],
        "linalg.rref.max_shape": extra["linalg.rref.max_shape"],
        "linalg.independent_subset.accept_ratio":
            extra["linalg.independent_subset.accepted"] / tried if tried else 0.0,
        "algebras.span_algebra.products": extra["algebras.span_algebra.products"],
        "identities.entries": extra["identities.entries"],
        "trace.overhead_frac": traced_scaled / untraced_scaled - 1,
        "trace.wall_s": traced_wall,
        "trace.self_sum_s": self_sum,
        "trace.remainder_s": traced_wall - self_sum,
    })
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-{seed}.txt.gz"
    tracer.write(spans_path)
    provenance = {
        "untraced_scaled_s": untraced_scaled,
        "traced_scaled_s": traced_scaled,
        "linalg.rref.max_rows_cols": [extra["linalg.rref.max_rows"],
                                      extra["linalg.rref.max_cols"]],
        "spans": len(tracer.span_start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "answers_per_pass": len(traced),
    }
    return values, PER_LAYER, untraced + traced, provenance


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_densym()
        if args.workload not in WORKLOADS:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"choose from {sorted(WORKLOADS)}")
        workload = WORKLOADS[args.workload]
        inputs = workload.make_inputs(args.seed)
        if args.trace:
            values, units, answers, prov = per_layer(workload, inputs, args.seed)
        else:
            values, units, answers, prov = end_to_end(workload, inputs, args.seconds)
    except (BenchmarkError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    failed = [a for a in answers if not a.ok]
    for a in failed:
        print(f"FAILED {a.label}: {a.detail}", file=sys.stderr)
    prov.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "failed_frac": len(failed) / len(answers),
    })
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(answers),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
