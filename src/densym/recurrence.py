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

Both families are derived in closed form from the commutator action, and
each row is one coefficient row of the formal oracle in truncation, which
classify solves on its own and compares; the second family is genuinely
four-term (a two-term version fails on the conjugation map, see the
regression tests).  The exact nullspace of the combined sparse system is the
space of local symmetries.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from . import algebras
from .errors import SpanMismatchError
from .operators import (
    CATALOG, component_unknowns, compose_jets, mirror_jet, second_analog_locus,
    second_analog_mu,
)
from .linalg import ZERO, independent_subset, nullspace, over_one_denominator
from .rings import CIRCLE, LINE, format_rat, rat
from .truncation import brute_force_local_symmetries


def build_system(k: int, lam, mu) -> list:
    """All valid instances of the two recurrence families at (k, lam, mu), as
    dense rows over the jet coordinates t[r,l] in component_unknowns order.

    Every instance names distinct unknowns inside 0 <= l <= r <= k; a row
    whose coefficients all vanish at these weights is left out.  Up to scale,
    each row is the formal oracle's coefficient of one monomial
    f^(p) a_s^(q) d^m of the defect under X = f d: row (r, l) of the first
    family is f'' a_r^(l-1) d^(r-l), and row (R, j) of the second is
    f''' a_R^(j) d^(R-j-2).
    """
    lam, mu = rat(lam), rat(mu)
    d = mu - lam
    index = {u: i for i, u in enumerate(component_unknowns(k))}
    rows = []

    def add(entries):
        row = [Fraction(0)] * len(index)
        for u, c in entries:
            row[index[u]] = c
        if any(row):
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
    return rows


def local_dimension(k: int, lam, mu) -> int:
    """Dimension of the local symmetries of D^k_{lam,mu}: the nullspace of the rows."""
    return len(nullspace(build_system(k, lam, mu), len(component_unknowns(k))))


def residual(rows, t) -> Fraction:
    """Largest absolute violation of the recurrence rows by a jet vector t."""
    return max((abs(sum(c * x for c, x in zip(row, t, strict=True) if c))
                for row in rows), default=Fraction(0))


def nonlocal_dimension(k: int, lam, mu, space: str) -> int:
    """1 where the trace L exists, else 0: the hand rule of the paper's theorem
    (the circle modules from functions to 1-forms, k >= 1), read off L's entry."""
    return int(CATALOG["L"].exists(k, rat(lam), rat(mu), space))


# ----------------------------------------------------------------------
# exceptional loci and generic sampling
# ----------------------------------------------------------------------

LOCUS_LINES = {  # name -> (a, b, c) for the line a*lambda + b*mu = c
    "lambda=0": (1, 0, 0),
    "mu=1": (0, 1, 1),
    "lambda+mu=1": (1, 1, 1),
    "mu-lambda=1": (-1, 1, 1),
    "mu-lambda=2": (-1, 1, 2),
}

HYPERBOLA = "(3*lambda+1)*(3*mu-4)=-1"  # the order-3 locus, locus-k3


def _points(*texts):
    return [tuple(Fraction(x) for x in text.split(",")) for text in texts]


# The one hand-kept copy of the loci: per order k, the curves where the
# algebra differs from the generic one and the points where it differs from
# that and from every curve through them, in the figures' order.  Checked
# against classify in test_recurrence.
EXCEPTIONAL_LOCI = {
    2: {
        "lines": ["lambda=0", "mu=1", "mu-lambda=1", "mu-lambda=2"],
        "hyperbola": False,
        "points": _points("-1/2,3/2", "0,2", "-1,1", "0,1"),
    },
    3: {
        "lines": ["lambda=0", "mu=1", "lambda+mu=1", "mu-lambda=2"],
        "hyperbola": True,
        "points": _points("-1/2,3/2", "-2/3,5/3", "0,1", "0,2", "0,3",
                          "-1,1", "-2,1"),
    },
    4: {
        "lines": ["lambda=0", "mu=1", "lambda+mu=1"],
        "hyperbola": False,
        "points": _points("1,1", "0,5/4", "0,0", "-1/4,1", "-2/3,5/3", "0,3",
                          "-2,1", "0,1"),
    },
    5: {
        "lines": ["lambda=0", "mu=1", "lambda+mu=1"],
        "hyperbola": False,
        "points": _points("0,0", "1,1", "0,1"),
    },
}

_ISOLATED = frozenset(p for loci in EXCEPTIONAL_LOCI.values() for p in loci["points"])


def exceptional_conditions(kmax: int = 6):
    """Named predicates cutting out the loci where dimensions can jump."""
    conds = {
        name: lambda l, m, a=a, b=b, c=c: a * l + b * m == c
        for name, (a, b, c) in LOCUS_LINES.items()
    }
    conds["isolated"] = lambda l, m: (l, m) in _ISOLATED
    for k in range(3, max(kmax, 3) + 1):
        conds[f"locus-k{k}"] = (
            lambda l, m, _k=k: second_analog_locus(_k, l, m) == 0
        )
    return conds


def is_generic(lam, mu, kmax: int = 6, ignore=()) -> bool:
    lam, mu = rat(lam), rat(mu)
    conds = exceptional_conditions(kmax).items()
    return not any(cond(lam, mu) for name, cond in conds if name not in ignore)


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
    "Id", "P0", "P0star", "C", "P1", "S", "Sstar",
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
    algebra_kind: str

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
            "algebra": self.algebra_kind,
            "generators": list(self.generator_names),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def candidate_generators(k: int, lam, mu):
    """Cataloged local endomorphisms applicable at (k, lam, mu), plus the
    mirrors c o T o c (mirror_jet) of those at (1-mu, 1-lam), on either
    space.  Each comes as its jet vector, t[r,l] in component_unknowns order."""
    lam, mu = rat(lam), rat(mu)
    out = [(name, CATALOG[name].jet(k, lam, mu))
           for name in CANDIDATE_ORDER if CATALOG[name].applies(k, lam, mu)]
    mirror = (1 - mu, 1 - lam)
    if mirror != (lam, mu):
        out += [(name + "*", mirror_jet(CATALOG[name].jet(k, *mirror), k))
                for name in MIRRORED_GENERATORS if CATALOG[name].applies(k, *mirror)]
    return out


def check_module(k: int, space: str):
    """Reject an order or a space that names no module, before any work."""
    if space not in (CIRCLE, LINE):
        raise ValueError(f"unknown space {space!r}; use {CIRCLE!r} or {LINE!r}")
    if k < 0:
        raise ValueError(f"the order k must be nonnegative, got {k}")


def jet_algebra(names, vectors, k: int) -> algebras.FiniteAlgebra:
    """Exact structure constants of the span of independent jet vectors under
    compose_jets, which multiplies the jets scaled to ints over one
    denominator.  A product outside their span raises SpanNotClosedError;
    closure here holds on every operator, not only on a truncated window.
    """
    den, scaled = over_one_denominator(vectors)
    return algebras.structure_constants(
        names, scaled, lambda i, j: compose_jets(scaled[i], scaled[j], k), den)


def classify(k: int, lam, mu, space: str = CIRCLE, check_oracle: bool = True):
    """Dimension, generators, and matrix-algebra kind of the symmetry algebra.

    The local part reads no space: the recurrence nullspace, which the
    formal oracle brute_force_local_symmetries must find too, and the
    catalog's jet vectors, read off with no operator applied, each solving
    the recurrence.  The nonlocal stage adds L's coordinate where
    nonlocal_dimension is 1.  An independent subset must span the total,
    and the exact products give the algebra.  No window is built.
    """
    check_module(k, space)
    lam, mu = rat(lam), rat(mu)
    rows = build_system(k, lam, mu)
    n = len(component_unknowns(k))
    solutions = nullspace(rows, n)
    local = len(solutions)

    if check_oracle:
        # both routes solve for the same unknowns t[r,l], and nullspace reads
        # its basis off the unique RREF: equal spaces give equal lists
        brute = brute_force_local_symmetries(k, lam, mu)
        if brute != solutions:
            raise SpanMismatchError(
                f"oracle disagreement at k={k}, ({lam},{mu}): "
                f"recurrence gives {local} solutions, brute force gives "
                f"{len(brute)}, and they span different spaces"
            )

    names, vectors = [], []
    for name, vec in candidate_generators(k, lam, mu):
        worst = residual(rows, vec)
        if worst != 0:
            raise SpanMismatchError(
                f"{name} violates the recurrence at k={k}, ({lam},{mu}): residual {worst}"
            )
        if any(vec):
            names.append(name)
            vectors.append(vec)
    nonloc = nonlocal_dimension(k, lam, mu, space)
    total = local + nonloc
    if nonloc:
        # L's vector (0, ..., 0, 1) is independent of every local jet
        names.append("L")
        vectors = [v + [ZERO] for v in vectors] + [[ZERO] * n + [Fraction(1)]]
    chosen = independent_subset(vectors)
    span_dim = len(chosen)
    if span_dim != total:
        raise SpanMismatchError(
            f"catalog generators span {span_dim} dimensions at k={k}, "
            f"({lam},{mu}), {space}; classifier computed {total}"
        )
    selected = [vectors[i] for i in chosen]
    selected_names = [names[i] for i in chosen]

    kind = algebras.identify(jet_algebra(selected_names, selected, k))
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
    ("(-1/4,1), (-2,1), (0,5/4), (0,3)", _points("-1/4,1", "-2,1", "0,5/4", "0,3")),
    ("(0,0), (1,1)", _points("0,0", "1,1")),
    ("(-2/3,5/3)", _points("-2/3,5/3")),
    ("(-1/2,3/2)", _points("-1/2,3/2")),
    ("(0,1)", _points("0,1")),
]


def _sample_on_condition(cond_name: str, rng: random.Random, kmax: int):
    """A random point on the named locus, generic with respect to the rest."""
    on_locus = exceptional_conditions(kmax)[cond_name]
    while True:
        t = random_rational(rng)
        if cond_name in LOCUS_LINES:
            a, b, c = LOCUS_LINES[cond_name]
            lam, mu = (t, (c - a * t) / b) if b else (Fraction(c, a), t)
        elif cond_name == "locus-k3":
            if 3 * t + 1 == 0:  # lam = -1/3, the curve's asymptote
                continue
            lam, mu = t, second_analog_mu(3, t)
        else:
            raise ValueError(f"no sampler for condition {cond_name!r}")
        if on_locus(lam, mu) and is_generic(lam, mu, kmax, ignore={cond_name}):
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
    check_module(kmax, space)
    if samples < 3:
        raise ValueError("need at least 3 sample points per row")
    rng = random.Random(seed)
    table = []
    for row_name, row_conditions in TABLE_ROWS:
        points = sweep_points(row_conditions, samples, rng, kmax)
        dims_per_point = [[local_dimension(k, lam, mu) for k in range(kmax + 1)]
                          for lam, mu in points]
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
