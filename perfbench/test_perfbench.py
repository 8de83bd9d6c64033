"""Self-test of the benchmark on each workload's smallest input.

    python3 -m pytest perfbench -q

Checks that the emitted metric names and units are the ones BENCHMARK.json
declares, that a wrong expected answer is counted as a failed answer rather
than passed, that tracing leaves densym as it found it, and that the
benchmark refuses to run without densym's sources.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def densym():
    run.import_densym()


def smallest_inputs(name):
    """At least 20 answers, from the cheapest queries of each workload."""
    workload = workloads.WORKLOADS[name]
    if name == "table-kinds":
        inp = workload.make_inputs(0)
        return dataclasses.replace(inp, kmax=2)
    queries = workload.make_inputs(0)
    cheapest = {
        "classify-flagship": "classify -k 1 --lambda 0 --mu 1 --space line",
        "verify-all": "verify v_wilmod_vanishing",
    }[name]
    (query,) = [q for q in queries if q.label == cheapest]
    return [query] * run.MIN_ANSWERS


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_are_the_declared_ones(name):
    workload = workloads.WORKLOADS[name]
    values, units, answers, _ = run.end_to_end(workload, smallest_inputs(name), 0)
    assert units == declared("end_to_end")
    assert set(values) >= set(units)
    assert all(a.ok for a in answers), [a for a in answers if not a.ok]
    assert all(values[m] > 0 for m in units)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_per_layer_metrics_are_the_declared_ones(name):
    workload = workloads.WORKLOADS[name]
    inputs = smallest_inputs(name)
    first, units, answers, _ = run.per_layer(workload, inputs, "selftest")
    assert units == declared("per_layer")
    assert set(first) >= set(units)
    assert all(a.ok for a in answers)
    # counts are exact: a second traced pass repeats them
    second, _, _, _ = run.per_layer(workload, inputs, "selftest")
    for metric, unit in units.items():
        if unit == "count":
            assert first[metric] == second[metric], metric


def test_tracing_restores_densym():
    import densym.algebras
    import densym.linalg
    import densym.operators
    import densym.rings

    before = (densym.algebras.rref, densym.rings.TrigFn.__mul__,
              densym.operators.CATALOG["Id"])
    run.per_layer(workloads.WORKLOADS["verify-all"], smallest_inputs("verify-all"),
                  "selftest")
    after = (densym.algebras.rref, densym.rings.TrigFn.__mul__,
             densym.operators.CATALOG["Id"])
    assert before == after
    assert densym.algebras.rref is densym.linalg.rref


def _corrupt(name, inputs):
    if name == "table-kinds":
        kinds = {row: list(ks) for row, ks in inputs.kinds.items()}
        kinds["(0,1)"][1] = "t2"
        return dataclasses.replace(inputs, kinds=kinds), 1
    bad = inputs[0]
    if name == "classify-flagship":
        bad = dataclasses.replace(bad, expect={**bad.expect, "algebra": "b"}, golden=None)
    else:
        bad = dataclasses.replace(bad, golden=bad.golden.replace("pass", "PASS"))
    return [bad] + inputs[1:], 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrong_expectation_is_a_failure(name):
    workload = workloads.WORKLOADS[name]
    inputs, wrong = _corrupt(name, smallest_inputs(name))
    answers, _ = workload.run_pass(inputs)
    assert sum(not a.ok for a in answers) == wrong
    _, _, counted, _ = run.end_to_end(workload, inputs, 0)
    assert sum(not a.ok for a in counted) == wrong


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "verify-all",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
