"""Record a baseline: every workload over ten seeds, plus one traced run each.

    python3 perfbench/baseline.py

Runs `run.py` one run at a time (never two at once, so runs do not compete
for the two cores), writes each workload's result lines to
`baseline/<workload>.jsonl` and the per-metric median and quartiles to
`baseline/summary.json`, and prints each end-to-end metric's spread
(distance between the quartiles over the median) beside its bound from
BENCHMARK.json.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline"
SEEDS = range(1, 11)


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return {"seed": seed, "trace": trace,
            "provenance": json.loads(lines[-2])["provenance"],
            "result": json.loads(lines[-1])}


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    OUT.mkdir(exist_ok=True)
    summary = {}
    for w in bench["workloads"]:
        name = w["name"]
        runs = [one_run(name, s, bench["run_seconds"], 0) for s in SEEDS]
        runs.append(one_run(name, SEEDS[0], bench["run_seconds"], 1))
        with open(OUT / f"{name}.jsonl", "w", encoding="utf-8") as fh:
            for r in runs:
                fh.write(json.dumps(r, sort_keys=True) + "\n")
        values = {}
        for r in runs:
            for metric, v in r["result"]["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        summary[name] = {
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "end_to_end": {m: quartiles(values[m]) for m in bounds},
            "per_layer": {m: v[0] for m, v in values.items() if m not in bounds},
        }
        for m, bound in bounds.items():
            q = summary[name]["end_to_end"][m]
            print(f"{name:18s} {m:14s} median {q['median']:.5g} "
                  f"spread {q['spread']:.3f} bound {bound}", flush=True)
    with open(OUT / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
