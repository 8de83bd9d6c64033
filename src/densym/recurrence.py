"""Recurrence-based classification of the local symmetry algebras.

A local symmetry, restricted to the degree-r part of the symbol, is a
constant-coefficient expression sum_l t[r,l] D^l in the divergence operator.
Writing lam for the source weight and d for the weight difference,
commutation with the quadratic vector field forces, for 1 <= l <= r <= k,

    (r + 2 lam - 1) t[r-1,l-1] - (r + 2 lam - l) t[r,l-1]
        - l (2d - 2r + l - 1) t[r,l] = 0,

and commutation with the cubic field forces, for 2 <= R <= k, 0 <= j <= R-2,

    (j+2)(j+1)(j + 3d - 3R) t[R,j+2] - 3(R + 2 lam - 1)(j+1) t[R-1,j+1]
        - (R + 3 lam - 2) t[R-2,j] + (R - j + 3 lam - 2) t[R,j] = 0.

Both families are derived in closed form from the commutator action and
cross-checked against the brute-force matrix route; the second family is
genuinely four-term (a two-term version fails on the conjugation map, see
the regression tests).  The exact nullspace of the combined sparse system is
the space of local symmetries.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import algebras
from .errors import SpanMismatchError
from .operators import CATALOG, conjugated_endo, second_analog_locus
from .linalg import independent_subset, nullspace
from .rings import CIRCLE, LINE, format_rat, rat
from .truncation import (
    SymmetryMap,
    TruncatedBasis,
    brute_force_local_symmetries,
    component_unknowns,
)


@dataclass
class RecurrenceSystem:
    """Sparse exact linear system in the unknowns t[r,l], 0 <= l <= r <= k."""

    k: int
    lam: Fraction
    mu: Fraction
    index: dict = field(repr=False)
    rows: list = field(repr=False)

    @property
    def n_unknowns(self) -> int:
        return len(self.index)

    def dense_rows(self):
        out = []
        for row in self.rows:
            dense = [Fraction(0)] * self.n_unknowns
            for u, c in row.items():
                dense[self.index[u]] = c
            out.append(dense)
        return out


def build_system(k: int, lam, mu) -> RecurrenceSystem:
    """All valid instances of the two recurrence families at (k, lam, mu)."""
    lam, mu = rat(lam), rat(mu)
    d = mu - lam
    index = {u: i for i, u in enumerate(component_unknowns(k))}
    rows = []

    def add(entries):
        row = {}
        for u, c in entries:
            if c != 0 and u in index:
                row[u] = row.get(u, Fraction(0)) + c
        if row:
            rows.append(row)

    for r in range(1, k + 1):
        for l in range(1, r + 1):
            add([
                ((r - 1, l - 1), r + 2 * lam - 1),
                ((r, l - 1), -(r + 2 * lam - l)),
                ((r, l), -l * (2 * d - 2 * r + l - 1)),
            ])
    for R in range(2, k + 1):
        for j in range(0, R - 1):
            add([
                ((R, j + 2), (j + 2) * (j + 1) * (j + 3 * d - 3 * R)),
                ((R - 1, j + 1), -3 * (R + 2 * lam - 1) * (j + 1)),
                ((R - 2, j), -(R + 3 * lam - 2)),
                ((R, j), R - j + 3 * lam - 2),
            ])
    return RecurrenceSystem(k, lam, mu, index, rows)


def local_solutions(sys: RecurrenceSystem):
    """Nullspace basis as dicts {(r, l): value}."""
    sols = nullspace(sys.dense_rows(), sys.n_unknowns)
    out = []
    for sol in sols:
        out.append({u: sol[i] for u, i in sys.index.items() if sol[i] != 0})
    return out


def local_dimension(sys: RecurrenceSystem) -> int:
    return len(local_solutions(sys))


def residual(sys: RecurrenceSystem, coeffs: dict) -> Fraction:
    """Largest absolute violation of the system by a coefficient dict."""
    worst = Fraction(0)
    for row in sys.rows:
        val = sum(c * coeffs.get(u, Fraction(0)) for u, c in row.items())
        worst = max(worst, abs(val))
    return worst


def nonlocal_dimension(k: int, lam, mu, space: str) -> int:
    """1 exactly for the circle modules from functions to 1-forms, k >= 1."""
    return 1 if space == CIRCLE and (rat(lam), rat(mu)) == (0, 1) and k >= 1 else 0


# ----------------------------------------------------------------------
# exceptional loci and generic sampling
# ----------------------------------------------------------------------

ISOLATED_EXCEPTIONAL = [
    (Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)),
    (Fraction(0), Fraction(1)), (Fraction(0), Fraction(2)),
    (Fraction(0), Fraction(3)), (Fraction(0), Fraction(5, 4)),
    (Fraction(-1, 4), Fraction(1)), (Fraction(-1), Fraction(1)),
    (Fraction(-2), Fraction(1)), (Fraction(-2, 3), Fraction(5, 3)),
    (Fraction(-1, 2), Fraction(3, 2)),
]


def exceptional_conditions(kmax: int = 6):
    """Named predicates cutting out the loci where dimensions can jump."""
    conds = {
        "lambda=0": lambda l, m: l == 0,
        "mu=1": lambda l, m: m == 1,
        "lambda+mu=1": lambda l, m: l + m == 1,
        "mu-lambda=1": lambda l, m: m - l == 1,
        "mu-lambda=2": lambda l, m: m - l == 2,
        "isolated": lambda l, m: (l, m) in ISOLATED_EXCEPTIONAL,
    }
    for k in range(3, max(kmax, 3) + 1):
        conds[f"locus-k{k}"] = (
            lambda l, m, _k=k: second_analog_locus(_k, l, m) == 0
        )
    return conds


def is_generic(lam, mu, kmax: int = 6, ignore=()) -> bool:
    lam, mu = rat(lam), rat(mu)
    for name, cond in exceptional_conditions(kmax).items():
        if name in ignore:
            continue
        if cond(lam, mu):
            return False
    return True


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-97, 97), rng.randint(1, 97))


def sample_generic(rng: random.Random, kmax: int = 6):
    while True:
        lam, mu = random_rational(rng), random_rational(rng)
        if is_generic(lam, mu, kmax):
            return lam, mu


# ----------------------------------------------------------------------
# full classification with generator assembly
# ----------------------------------------------------------------------

MIRRORED_GENERATORS = ["calV", "calW", "JV", "JW", "Jsigma", "GV", "Gsigma", "wilGen"]

CANDIDATE_ORDER = [
    "Id", "P0", "P0star", "C", "P1", "L", "S", "Sstar",
    "calV", "wilGen", "calW", "JV", "JW", "Jsigma", "GV", "Gsigma",
]


@dataclass
class ClassificationReport:
    k: int
    lam: Fraction
    mu: Fraction
    space: str
    local_dimension: int
    nonlocal_dimension: int
    generator_names: list
    algebra_kind: str | None

    @property
    def total(self) -> int:
        return self.local_dimension + self.nonlocal_dimension

    def to_dict(self):
        return {
            "k": self.k,
            "lambda": format_rat(self.lam),
            "mu": format_rat(self.mu),
            "space": self.space,
            "local_dim": self.local_dimension,
            "nonlocal_dim": self.nonlocal_dimension,
            "total": self.total,
            "algebra": self.algebra_kind if self.algebra_kind else "unidentified",
            "generators": list(self.generator_names),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def candidate_generators(k: int, lam, mu, space: str):
    """Cataloged endomorphisms applicable at (k, lam, mu), plus conjugates."""
    lam, mu = rat(lam), rat(mu)
    out = []
    for name in CANDIDATE_ORDER:
        entry = CATALOG[name]
        if entry.applies(k, lam, mu, space):
            out.append((name, entry.make(k, lam, mu)))
    mirror = (1 - mu, 1 - lam)
    if mirror != (lam, mu):
        for name in MIRRORED_GENERATORS:
            entry = CATALOG[name]
            if entry.applies(k, mirror[0], mirror[1], space):
                out.append((name + "*", conjugated_endo(entry.make(k, *mirror))))
    return out


def _check_module(k: int, space: str):
    """Reject an order or a space that names no module, before any work."""
    if space not in (CIRCLE, LINE):
        raise ValueError(f"unknown space {space!r}; use {CIRCLE!r} or {LINE!r}")
    if k < 0:
        raise ValueError(f"the order k must be nonnegative, got {k}")


def classify(k: int, lam, mu, space: str = CIRCLE, M: int | None = None,
             check_oracle: bool = True, identify_algebra: bool = True):
    """Dimension, generators, and matrix-algebra kind of the symmetry algebra.

    M is the truncation window (default k+6); it must be at least k+4, the
    floor the brute-force oracle needs.
    """
    _check_module(k, space)
    lam, mu = rat(lam), rat(mu)
    if M is None:
        M = k + 6
    if M < k + 4:
        raise ValueError(f"window M={M} too small; need M >= k+4 = {k + 4}")
    sys = build_system(k, lam, mu)
    local = local_dimension(sys)
    nonloc = nonlocal_dimension(k, lam, mu, space)
    total = local + nonloc

    if check_oracle:
        brute, _ = brute_force_local_symmetries(k, lam, mu, space, M)
        if brute != local:
            raise SpanMismatchError(
                f"oracle disagreement at k={k}, ({lam},{mu}), {space}: "
                f"recurrence gives {local}, brute force gives {brute}"
            )

    basis = TruncatedBasis(k, M, space, lam, mu)
    maps, names = [], []
    for name, build in candidate_generators(k, lam, mu, space):
        m = SymmetryMap(basis, build, name=name)
        if not m.is_zero():
            maps.append(m)
            names.append(name)
    flats = [m.flat() for m in maps]
    chosen = independent_subset(flats)
    span_dim = len(chosen)
    if span_dim != total:
        raise SpanMismatchError(
            f"catalog generators span {span_dim} dimensions at k={k}, "
            f"({lam},{mu}), {space}; classifier computed {total}"
        )
    selected = [maps[i] for i in chosen]
    selected_names = [names[i] for i in chosen]

    kind = None
    if identify_algebra:
        alg = algebras.span_algebra(selected)
        kind = str(algebras.identify(alg))
    return ClassificationReport(
        k, lam, mu, space, local, nonloc, selected_names, kind
    )


# ----------------------------------------------------------------------
# the dimension-table sweep
# ----------------------------------------------------------------------

SWEEP_SEED = 20270

TABLE_ROWS = [
    ("generic", None),
    ("lambda=0 or mu=1, generic", ("lambda=0", "mu=1")),
    ("lambda+mu=1, generic", ("lambda+mu=1",)),
    ("order-3 locus or mu-lambda=2, generic", ("locus-k3", "mu-lambda=2")),
    ("(-1/4,1), (-2,1), (0,5/4), (0,3)",
     [(Fraction(-1, 4), Fraction(1)), (Fraction(-2), Fraction(1)),
      (Fraction(0), Fraction(5, 4)), (Fraction(0), Fraction(3))]),
    ("(0,0), (1,1)", [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]),
    ("(-2/3,5/3)", [(Fraction(-2, 3), Fraction(5, 3))]),
    ("(-1/2,3/2)", [(Fraction(-1, 2), Fraction(3, 2))]),
    ("(0,1)", [(Fraction(0), Fraction(1))]),
]


def _sample_on_condition(cond_name: str, rng: random.Random, kmax: int):
    """A random point on the named locus, generic with respect to the rest."""
    conds = exceptional_conditions(kmax)
    ignore = {cond_name}
    # points on a line stay parameterized by one rational
    while True:
        t = random_rational(rng)
        if cond_name == "lambda=0":
            lam, mu = Fraction(0), t
        elif cond_name == "mu=1":
            lam, mu = t, Fraction(1)
        elif cond_name == "lambda+mu=1":
            lam, mu = t, 1 - t
        elif cond_name == "mu-lambda=2":
            lam, mu = t, t + 2
        elif cond_name == "locus-k3":
            # (3L+1)(3M-4) = -1 with L = t, solved for M
            if 3 * t + 1 == 0:
                continue
            lam, mu = t, (4 - 1 / (3 * t + 1)) / 3
        else:
            raise ValueError(f"no sampler for condition {cond_name!r}")
        if not conds[cond_name](lam, mu):
            continue
        if any(c(lam, mu) for name, c in conds.items() if name not in ignore):
            continue
        return lam, mu


def sweep_points(row_conditions, samples: int, rng: random.Random, kmax: int):
    if isinstance(row_conditions, list):
        return list(row_conditions)
    if row_conditions is None:
        return [sample_generic(rng, kmax) for _ in range(samples)]
    conds = list(row_conditions)
    return [
        _sample_on_condition(conds[i % len(conds)], rng, kmax)
        for i in range(max(samples, len(conds)))
    ]


def sweep(kmax: int = 6, space: str = CIRCLE, samples: int = 3,
          seed: int = SWEEP_SEED, with_kinds: bool = True):
    """Reproduce the dimension table row by row over sampled representatives.

    Every sampled point of a row must give identical dimensions; disagreement
    raises instead of being averaged away, and so does a kind cell whose
    catalog generators fail the span check.
    """
    _check_module(kmax, space)
    if samples < 3:
        raise ValueError("need at least 3 sample points per row")
    rng = random.Random(seed)
    table = []
    for row_name, row_conditions in TABLE_ROWS:
        points = sweep_points(row_conditions, samples, rng, kmax)
        dims_per_point = []
        for lam, mu in points:
            dims_per_point.append(
                [local_dimension(build_system(k, lam, mu)) for k in range(kmax + 1)]
            )
        for other in dims_per_point[1:]:
            if other != dims_per_point[0]:
                raise SpanMismatchError(
                    f"row {row_name!r}: sampled points disagree: "
                    f"{dims_per_point[0]} vs {other}"
                )
        kinds = []
        if with_kinds:
            lam, mu = points[0]
            for k in range(kmax + 1):
                rep = classify(k, lam, mu, space, check_oracle=False)
                kinds.append(rep.algebra_kind)
        table.append({
            "row": row_name,
            "points": [(format_rat(l), format_rat(m)) for l, m in points],
            "dims": dims_per_point[0],
            "kinds": kinds,
        })
    return table
