"""The benchmark's three workloads and the independent checks on their answers.

Every workload is a closed loop with one client: it asks densym for one
answer, waits for it, checks it, and only then asks for the next.  Inputs
come from the seed alone; expected answers come from the paper's dimension
table and from stdout recorded at the commit that introduced the benchmark
(`goldens/`), never from timing.
"""
from __future__ import annotations

import gc
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens"

# the paper's dimension table, as printed (tests/test_acceptance.py)
PRINTED_TABLE = {
    "generic": [1, 2, 2, 1, 1, 1, 1],
    "lambda=0 or mu=1, generic": [1, 2, 3, 3, 2, 2, 2],
    "lambda+mu=1, generic": [1, 2, 2, 2, 2, 2, 2],
    "order-3 locus or mu-lambda=2, generic": [1, 2, 2, 2, 1, 1, 1],
    "(-1/4,1), (-2,1), (0,5/4), (0,3)": [1, 2, 3, 3, 3, 2, 2],
    "(0,0), (1,1)": [1, 2, 3, 3, 3, 3, 3],
    "(-2/3,5/3)": [1, 2, 2, 3, 3, 2, 2],
    "(-1/2,3/2)": [1, 2, 3, 3, 2, 2, 2],
    "(0,1)": [1, 3, 4, 5, 5, 5, 5],
}

# algebra kinds per table row for k = 0..4, as `densym table` prints them at
# the benchmark's first commit; b, b+R, b+R^2 at (0,1) and t2 at
# (-1/2,3/2) are the paper's
TABLE_KINDS = {
    "generic": ["R", "R^2", "R^2", "R", "R"],
    "lambda=0 or mu=1, generic": ["R", "R^2", "R^3", "R^3", "R^2"],
    "lambda+mu=1, generic": ["R", "R^2", "R^2", "R^2", "R^2"],
    "order-3 locus or mu-lambda=2, generic": ["R", "R^2", "R^2", "R^2", "R"],
    "(-1/4,1), (-2,1), (0,5/4), (0,3)": ["R", "R^2", "R^3", "R^3", "R^3"],
    "(0,0), (1,1)": ["R", "R^2", "R^3", "R^3", "R^3"],
    "(-2/3,5/3)": ["R", "R^2", "R^2", "R^3", "R^3"],
    "(-1/2,3/2)": ["R", "R^2", "t2", "t2", "R^2"],
    "(0,1)": ["R", "b", "b+R", "b+R^2", "b+R^2"],
}

# acceptance criterion 7: (total, kind) at (0,1), t2 family on the line and
# the 4x4 family b on the circle
CRITERION_7 = {
    ("line", 1): (3, "t2"), ("line", 2): (4, "t2+R"),
    ("line", 3): (5, "t2+R^2"), ("line", 4): (5, "t2+R^2"),
    ("circle", 1): (4, "b"), ("circle", 2): (5, "b+R"),
    ("circle", 3): (6, "b+R^2"), ("circle", 4): (6, "b+R^2"),
}

# generator names at a generic point, by order
GENERIC_GENERATORS = {0: ["Id"], 1: ["Id", "JV"], 2: ["Id", "calV"], 3: ["Id"]}

FLAGSHIP_GENERIC_POINTS = 5
FLAGSHIP_GENERIC_ORDERS = (1, 2)
TABLE_KMAX = 4

# the seed whose generic classify answers have recorded stdout
DEFAULT_SEED = 0


@dataclass
class Answer:
    label: str
    start: float  # perf_counter() when the answer was asked for
    seconds: float
    ok: bool
    detail: str = ""


@dataclass
class Query:
    """One CLI invocation and what its answer must be."""

    argv: list
    expect: dict = field(default_factory=dict)
    golden: str | None = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def load_goldens(name: str) -> dict:
    with open(GOLDENS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def call_cli(argv):
    """densym's CLI in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = sys.modules["densym.cli"].main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _problem(q: Query, rc, out, err, parse):
    if rc != 0:
        return f"exit code {rc}: {err.strip()[-200:]}"
    if q.golden is not None and out != q.golden:
        return f"stdout differs from the golden: {out!r}"
    got = parse(out)
    for key, want in q.expect.items():
        if got.get(key) != want:
            return f"{key} is {got.get(key)!r}, expected {want!r}"
    return None


def run_queries(queries, parse):
    """Ask each query in turn; any exception or mismatch fails that answer.

    Returns the answers and, as the pass's busy intervals, their own.  Each
    answer starts from a freshly collected heap, so that which answer pays
    for a collection does not depend on the order of the queries.
    """
    answers = []
    for q in queries:
        gc.collect()
        t0 = perf_counter()
        try:
            rc, out, err = call_cli(q.argv)
            seconds = perf_counter() - t0
            problem = _problem(q, rc, out, err, parse)
        except (Exception, SystemExit) as exc:  # a crash is a failed answer
            seconds = perf_counter() - t0
            problem = f"{type(exc).__name__}: {exc}"
        answers.append(Answer(q.label, t0, seconds, problem is None, problem or ""))
    return answers, [(a.start, a.start + a.seconds) for a in answers]


# ----------------------------------------------------------------------
# classify-flagship
# ----------------------------------------------------------------------

def _classify_argv(k, lam, mu, space):
    return ["classify", "-k", str(k), "--lambda", str(lam), "--mu", str(mu),
            "--space", space]


def _kind(d: int) -> str:
    return "R" if d == 1 else f"R^{d}"


def flagship_points(seed: int):
    """(k, lam, mu, space): (0,1) for k = 1..4, then seeded generic weights."""
    from densym.recurrence import sample_generic

    points = [(k, 0, 1, space) for space in ("circle", "line") for k in range(1, 5)]
    rng = random.Random(seed)
    for _ in range(FLAGSHIP_GENERIC_POINTS):
        lam, mu = sample_generic(rng)
        points += [(k, lam, mu, space) for space in ("circle", "line")
                   for k in FLAGSHIP_GENERIC_ORDERS]
    return points


class ClassifyFlagship:
    """`densym classify` with its defaults: oracle on, M = k + 6."""

    name = "classify-flagship"

    def make_inputs(self, seed: int):
        goldens = load_goldens("classify")
        queries = []
        for k, lam, mu, space in flagship_points(seed):
            argv = _classify_argv(k, lam, mu, space)
            expect = {"k": k, "lambda": str(lam), "mu": str(mu), "space": space}
            if (lam, mu) == (0, 1):
                expect["total"], expect["algebra"] = CRITERION_7[space, k]
            else:
                d = PRINTED_TABLE["generic"][k]
                expect.update(local_dim=d, nonlocal_dim=0, total=d,
                              algebra=_kind(d), generators=GENERIC_GENERATORS[k])
            queries.append(Query(argv, expect, goldens.get(" ".join(argv))))
        return queries

    def run_pass(self, queries):
        return run_queries(queries, json.loads)


# ----------------------------------------------------------------------
# verify-all
# ----------------------------------------------------------------------

def _verify_line(out: str) -> dict:
    head, _, rest = out.partition(": ")
    status, _, rest = rest.partition(", defect ")
    return {"name": head, "status": status, "defect": rest.split(",", 1)[0]}


class VerifyAll:
    """Every named identity and every catalog `--op` check, in seeded order."""

    name = "verify-all"

    def make_inputs(self, seed: int):
        queries = []
        for label, golden in load_goldens("verify").items():
            argv = label.split(" ")
            name = argv[-1] if argv[1] != "--op" else f"op:{argv[-1]}"
            queries.append(Query(argv, {
                "name": name, "status": "pass", "defect": "0",
            }, golden))
        random.Random(seed).shuffle(queries)
        return queries

    def run_pass(self, queries):
        return run_queries(queries, _verify_line)


# ----------------------------------------------------------------------
# table-kinds
# ----------------------------------------------------------------------

@dataclass
class SweepInput:
    seed: int
    kmax: int
    dims: dict
    kinds: dict


class TableKinds:
    """`densym table` with kinds, through `recurrence.sweep` at the seed.

    An answer is one cell: the row's dimension at order k and the algebra
    kind that `classify` reports for it.  Its latency is that `classify`
    call, timed from outside at the name `sweep` looks up.  The pass is
    busy for the whole sweep.
    """

    name = "table-kinds"

    def make_inputs(self, seed: int):
        n = TABLE_KMAX + 1
        return SweepInput(
            seed, TABLE_KMAX,
            {row: dims[:n] for row, dims in PRINTED_TABLE.items()},
            {row: kinds[:n] for row, kinds in TABLE_KINDS.items()},
        )

    def run_pass(self, inp: SweepInput):
        recurrence = sys.modules["densym.recurrence"]
        inner = recurrence.classify
        times = []

        def timed_classify(*args, **kwargs):
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                times.append((t0, perf_counter() - t0))

        labels = [(row, k) for row in inp.dims for k in range(inp.kmax + 1)]
        recurrence.classify = timed_classify
        error = None
        t0 = perf_counter()
        try:
            rows = recurrence.sweep(inp.kmax, "circle", samples=3, seed=inp.seed,
                                    with_kinds=True)
        except Exception as exc:  # a crash fails every cell
            rows, error = [], f"{type(exc).__name__}: {exc}"
        finally:
            recurrence.classify = inner
        t1 = perf_counter()
        if len(times) != len(labels):
            # the sweep failed or no longer classifies cell by cell
            share = (t1 - t0) / len(labels)
            times = [(t0 + i * share, share) for i in range(len(labels))]
        got = {row["row"]: row for row in rows}
        answers = []
        for (row, k), (start, seconds) in zip(labels, times):
            problem = error or _cell_problem(got.get(row), inp, row, k)
            answers.append(Answer(f"{row} k={k}", start, seconds, problem is None,
                                  problem or ""))
        return answers, [(t0, t1)]


def _cell_problem(cell, inp: SweepInput, row, k):
    try:
        if cell["dims"][k] != inp.dims[row][k]:
            return f"dim {cell['dims'][k]}, expected {inp.dims[row][k]}"
        if cell["kinds"][k] != inp.kinds[row][k]:
            return f"kind {cell['kinds'][k]}, expected {inp.kinds[row][k]}"
    except (TypeError, KeyError, IndexError) as exc:
        return f"malformed row: {exc!r}"
    return None


WORKLOADS = {w.name: w for w in (ClassifyFlagship(), TableKinds(), VerifyAll())}
