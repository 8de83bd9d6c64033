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
from .densities import DensityOperator
from .errors import SpanMismatchError
from .operators import CATALOG, conjugated_endo, second_analog_locus
from .linalg import ZERO, independent_subset, nullspace
from .rings import CIRCLE, LINE, PolyFn, TrigFn, format_rat, rat
from .truncation import (
    brute_force_local_symmetries,
    check_window,
    component_unknowns,
    componentwise_map,
    falling,
)


@dataclass
class RecurrenceSystem:
    """Exact linear system in the unknowns t[r,l], 0 <= l <= r <= k: dense
    rows over component_unknowns order, where t[r,l] sits at r(r+1)/2 + l."""

    k: int
    lam: Fraction
    mu: Fraction
    rows: list = field(repr=False)

    @property
    def n_unknowns(self) -> int:
        return (self.k + 1) * (self.k + 2) // 2


def build_system(k: int, lam, mu) -> RecurrenceSystem:
    """All valid instances of the two recurrence families at (k, lam, mu).

    Every instance names distinct unknowns inside 0 <= l <= r <= k; a row
    whose coefficients all vanish at these weights is left out.
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
    return RecurrenceSystem(k, lam, mu, rows)


def local_dimension(sys: RecurrenceSystem) -> int:
    return len(nullspace(sys.rows, sys.n_unknowns))


def residual(sys: RecurrenceSystem, t) -> Fraction:
    """Largest absolute violation of the system by a jet vector t."""
    return max((abs(sum(c * x for c, x in zip(row, t, strict=True) if c))
                for row in sys.rows), default=Fraction(0))


def nonlocal_dimension(k: int, lam, mu, space: str) -> int:
    """1 where the trace L exists (the circle modules from functions to
    1-forms, k >= 1), else 0."""
    return int(CATALOG["L"].applies(k, rat(lam), rat(mu), space))


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


def hyperbola_mu(lam):
    """mu on the order-3 hyperbola (3 lam + 1)(3 mu - 4) = -1, lam != -1/3."""
    return (4 - 1 / (3 * lam + 1)) / 3


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


def check_module(k: int, space: str):
    """Reject an order or a space that names no module, before any work."""
    if space not in (CIRCLE, LINE):
        raise ValueError(f"unknown space {space!r}; use {CIRCLE!r} or {LINE!r}")
    if k < 0:
        raise ValueError(f"the order k must be nonnegative, got {k}")


# ----------------------------------------------------------------------
# jet coordinates: the recurrence unknowns t[r,l], with
# T(A)_{r-l} += t[r,l] fall(r,l) a_r^(l), plus the trace
# ----------------------------------------------------------------------

def read_jet(build, k: int, lam, mu):
    """The coordinates t[r,l] of a local map, in component_unknowns order.

    On the line, the image of x^(k+1) d^r under a jet map has the coefficient
    t[r,l] fall(r,l) fall(k+1,l) x^(k+1-l) at d^(r-l) and nothing above d^r,
    so these k+1 images fix every t[r,l].  Any other image is not of jet form,
    and raises SpanMismatchError.
    """
    zero, top = PolyFn.zero(), PolyFn.monomial(k + 1)
    t = []
    for r in range(k + 1):
        image = build(DensityOperator(lam, mu, [zero] * r + [top]))
        if (image.lam, image.mu) != (lam, mu) or image.order > r:
            raise SpanMismatchError(
                f"the map sends x^{k + 1} d^{r} out of D^{r}_{{{lam},{mu}}}: "
                "not a jet map"
            )
        for l in range(r + 1):
            c = image.coefficient(r - l)
            lead = c.coefficient(k + 1 - l)
            if c != PolyFn.monomial(k + 1 - l, lead):
                raise SpanMismatchError(
                    f"the image of x^{k + 1} d^{r} has the coefficient {c} at "
                    f"d^{r - l}, not a multiple of x^{k + 1 - l}: not a jet map"
                )
            t.append(lead / (falling(r, l) * falling(k + 1, l)))
    return t


def _confirm_on_circle(name, build, t, k: int, lam, mu):
    """The line read-off must act the same on the circle: one probe operator.

    Its coefficients are distinct and of frequency k+1, so no derivative up
    to order k vanishes on them.
    """
    probe = DensityOperator(lam, mu, [
        TrigFn(0, {k + 1: 1}, {k + 1: r + 1}) for r in range(k + 1)
    ])
    jet = componentwise_map(t, k, lam, mu, CIRCLE)
    if build(probe) != jet(probe):
        raise SpanMismatchError(
            f"{name} acts on the circle unlike its jet coordinates read off "
            f"the line at k={k}, ({lam},{mu})"
        )


def jet_vector(name, build, sys: RecurrenceSystem, space: str):
    """Coordinates of a candidate: t[r,l] in component_unknowns order, then
    the coefficient of the nonlocal trace L.

    A local candidate must solve the recurrence exactly; a nonzero residual
    raises SpanMismatchError.
    """
    entry = CATALOG.get(name)
    if entry is not None and entry.circle_only:
        return [Fraction(0)] * sys.n_unknowns + [Fraction(1)]
    k, lam, mu = sys.k, sys.lam, sys.mu
    t = read_jet(build, k, lam, mu)
    if space == CIRCLE:
        _confirm_on_circle(name, build, t, k, lam, mu)
    worst = residual(sys, t)
    if worst != 0:
        raise SpanMismatchError(
            f"{name} violates the recurrence at k={k}, ({lam},{mu}), "
            f"{space}: residual {worst}"
        )
    return t + [Fraction(0)]


def compose_jets(x, y, k: int):
    """Jet vector of X o Y (Y applied first).

    Local part: t[r,L] = sum_{l+j=L} t_X[r-j,l] t_Y[r,j], as
    fall(r-j,l) fall(r,j) = fall(r,L).  The trace reads only the mean of a_0
    and returns a constant times d, so L o T = t_T[0,0] L, T o L = t_T[1,0] L
    and L o L = 0.
    """
    index = {u: i for i, u in enumerate(component_unknowns(k))}
    # only nonzero products are formed; an empty sum is the int 0, read as ZERO
    out = [
        sum(x[index[r - j, L - j]] * y[index[r, j]] for j in range(L + 1)
            if y[index[r, j]] and x[index[r - j, L - j]]) or ZERO
        for r, L in component_unknowns(k)
    ]
    # t[1,0] exists only for k >= 1, the only orders with a trace
    trace = (x[-1] * y[0] if x[-1] else 0) + (y[-1] * x[index[1, 0]] if y[-1] else 0)
    out.append(trace or ZERO)
    return out


def jet_algebra(names, vectors, k: int) -> algebras.FiniteAlgebra:
    """Exact structure constants of the span of independent jet vectors under
    compose_jets.  A product outside their span raises SpanNotClosedError;
    closure here holds on every operator, not only on a truncated window.
    """
    return algebras.structure_constants(
        names, vectors, lambda i, j: compose_jets(vectors[i], vectors[j], k))


def classify(k: int, lam, mu, space: str = CIRCLE, M: int | None = None,
             check_oracle: bool = True):
    """Dimension, generators, and matrix-algebra kind of the symmetry algebra.

    The dimension is the recurrence nullspace (plus the circle trace); the
    brute-force oracle must find the same solution space.  The catalog
    generators are read in jet coordinates t[r,l]; each must solve
    the recurrence, an independent subset of them must span that dimension,
    and their exact products give the algebra.  M is only the brute-force
    oracle's truncation window (default k+6); it must be at least k+4.
    """
    check_module(k, space)
    lam, mu = rat(lam), rat(mu)
    if M is None:
        M = k + 6
    check_window(k, M)
    sys = build_system(k, lam, mu)
    solutions = nullspace(sys.rows, sys.n_unknowns)
    local = len(solutions)
    nonloc = nonlocal_dimension(k, lam, mu, space)
    total = local + nonloc

    if check_oracle:
        # both routes solve for the same unknowns t[r,l], and nullspace reads
        # its basis off the unique RREF: equal spaces give equal lists
        brute = brute_force_local_symmetries(k, lam, mu, space, M)
        if brute != solutions:
            raise SpanMismatchError(
                f"oracle disagreement at k={k}, ({lam},{mu}), {space}: "
                f"recurrence gives {local} solutions, brute force gives "
                f"{len(brute)}, and they span different spaces"
            )

    names, vectors = [], []
    for name, build in candidate_generators(k, lam, mu, space):
        vec = jet_vector(name, build, sys, space)
        if any(vec):
            names.append(name)
            vectors.append(vec)
    chosen = independent_subset(vectors)
    span_dim = len(chosen)
    if span_dim != total:
        raise SpanMismatchError(
            f"catalog generators span {span_dim} dimensions at k={k}, "
            f"({lam},{mu}), {space}; classifier computed {total}"
        )
    selected = [vectors[i] for i in chosen]
    selected_names = [names[i] for i in chosen]

    kind = str(algebras.identify(jet_algebra(selected_names, selected, k)))
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
            if 3 * t + 1 == 0:
                continue
            lam, mu = t, hyperbola_mu(t)
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
