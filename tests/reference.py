"""Reference formulas shared by the test modules.

A weight-nu density phi(x)(dx)^nu is the order-0 operator D^0_{0,nu} with
coefficient phi; these helpers build one and act on it by the textbook
formula, independently of densym's operator action.  The catalog keeps each
endomorphism as its terms; the formulas below act on operators, read_jet
reads a jet back off such a formula, as the reference route, and jet_terms
turns a jet, a random one too, into terms.
"""
from fractions import Fraction
from math import perm

from densym import rings
from densym.algebras import FiniteAlgebra
from densym.densities import DensityOperator, lie_derivative_operator
from densym.errors import (
    InapplicableSymmetryError, SpanMismatchError, SpanNotClosedError, WeightMismatchError,
)
from densym.linalg import rref
from densym.operators import (
    PRINTED, component_unknowns, componentwise_map, conjugate, delta_compose, delta_inverse,
    nonlocal_trace, p0,
)
from densym.rings import PolyFn, TrigFn
from densym.truncation import dense, ring_basis, ring_dim, ring_entries


def jet_terms(t, k: int):
    """The terms of the jet vector t of order k, (r, r-l, l, t[r,l] perm(r,l)),
    and the trace's (0, 1, None, c) for a trailing trace coordinate c: the
    inverse of term_coordinates up to the factors perm(r,l)."""
    unknowns = component_unknowns(k)
    (trace,) = t[len(unknowns):] or [0]  # at most one coordinate past the jet's
    terms = [(r, r - l, l, c * perm(r, l)) for (r, l), c
             in zip(unknowns, t[:len(unknowns)], strict=True) if c]
    return terms + [(0, 1, None, trace)] if trace else terms


def jet_map(t, k: int, lam, mu):
    """The map of the jet vector t on D^k_{lam,mu}: componentwise_map of its terms."""
    return componentwise_map(jet_terms(t, k), k, lam, mu)


def density(nu, f):
    """phi(x)(dx)^nu as the order-0 operator in D^0_{0,nu}."""
    return DensityOperator(0, nu, [f])


def lie_derivative_density(X, phi):
    """L_X(phi) = (X phi' + nu X' phi)(dx)^nu, for phi of weight nu."""
    assert phi.lam == 0 and phi.order == 0, phi
    f = phi.coeffs[0]
    return density(phi.mu, X.value * f.diff() + phi.mu * (X.value.diff() * f))


def ring_vector(fn, M: int):
    """Exact coordinates of a ring element in the monomial list, or overflow."""
    return dense(ring_entries(fn, M), ring_dim(fn.space, M))


def reference_bilinear_defect(J, space, M, fields):
    """bilinear_defect's columns in its order, J(phi, psi) for each pair
    worked out with ring arithmetic from the operators of phi and L_X phi,
    per field."""
    monos = ring_basis(space, M)
    cols = []
    for X in fields:
        growth = X.value.size
        for f in monos:
            room = M - growth - f.size
            if room < 0:
                continue
            phi = DensityOperator(0, J.nu, [f])
            D = (J.operator(lie_derivative_operator(X, phi))
                 - lie_derivative_operator(X, J.operator(phi)))
            cols += [ring_vector(sum(a * psi.diff(j) for j, a in enumerate(D.coeffs)), M)
                     for psi in monos if psi.size <= room]
    return cols


# ----------------------------------------------------------------------
# the catalog's local endomorphisms as formulas on operators
# ----------------------------------------------------------------------

def s_map(A: DensityOperator) -> DensityOperator:
    """The involutive symmetry of D^k_{0,0}.

    Explicit form: sum_{i<k} (-1)^i d^i o (a_i + a_{i+1}') + (-1)^k d^k o a_k.
    Equal to the composition chain -C o delta^{-1} o (Id - P0) o C o delta o C.
    """
    if (A.lam, A.mu) != (0, 0):
        raise InapplicableSymmetryError("this symmetry needs (lam, mu) = (0, 0)")
    # sum_i (-1)^i d^i o f_i is the conjugate of sum_i f_i d^i in D^k_{1,1}
    a = A.coeffs + (rings.zero(A.space),)
    return conjugate(DensityOperator(1, 1, [a[i] + a[i + 1].diff()
                                            for i in range(A.order + 1)]))


def s_map_chain(A: DensityOperator) -> DensityOperator:
    """The involutive symmetry S of D^k_{0,0} through its defining chain
    -C o delta^{-1} o (Id - P0) o C o delta o C, on operators; the catalog
    keeps S as its jet, and verify composes the chain on window columns."""
    if (A.lam, A.mu) != (0, 0):
        raise InapplicableSymmetryError("this symmetry needs (lam, mu) = (0, 0)")
    step = conjugate(A)                      # D^k_{1,1}
    step = delta_compose(step)               # D^{k+1}_{0,1}
    step = conjugate(step)                   # D^{k+1}_{0,1}
    step = step - p0(step)                   # Ker P0
    step = delta_inverse(step)               # D^k_{1,1}
    return -1 * conjugate(step)              # D^k_{0,0}


def mirrored(build):
    """C o T o C: transports an endomorphism from (1-mu, 1-lam) to (lam, mu)."""
    return lambda A: conjugate(build(conjugate(A)))


def j_after_pi(J, pi):
    """A -> J(pi(A), .) on D^k_{lam,mu}, for pi: D^k_{lam,mu} -> F_nu and
    J: F_nu x F_lam -> F_mu; the weight chain is checked up front."""
    if (J.nu, J.lam, J.out_weight) != (pi.nu, pi.lam, pi.mu):
        raise WeightMismatchError(f"{J.kind!r} does not fit after the projection")
    return lambda A: J.operator(pi(A))


def reference_map(name, k, lam, mu):
    """A candidate generator of classify on D^k_{lam,mu} as a formula on
    operators: conjugate, p0, the trace, s_map, J.operator o pi for a
    printed generator, and C o T o C for Sstar and each mirror T*."""
    if name.endswith("*"):
        return mirrored(reference_map(name[:-1], k, 1 - mu, 1 - lam))
    if name in PRINTED:
        return j_after_pi(*PRINTED[name](k, lam, mu))
    return {"Id": lambda A: A, "C": conjugate, "P0": p0, "L": nonlocal_trace,
            "S": s_map, "Sstar": mirrored(s_map)}[name]


# ----------------------------------------------------------------------
# jets read off operator maps
# ----------------------------------------------------------------------

def read_jet(build, k: int, lam, mu):
    """The coordinates t[r,l] of a local map, in component_unknowns order.

    On the line, the image of x^(k+1) d^r under a jet map has the coefficient
    t[r,l] perm(r,l) perm(k+1,l) x^(k+1-l) at d^(r-l) and nothing above d^r,
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
            lead = c.terms.get(k + 1 - l, 0)
            if c != PolyFn.monomial(k + 1 - l, lead):
                raise SpanMismatchError(
                    f"the image of x^{k + 1} d^{r} has the coefficient {c} at "
                    f"d^{r - l}, not a multiple of x^{k + 1 - l}: not a jet map"
                )
            t.append(lead / (perm(r, l) * perm(k + 1, l)))
    return t


def acts_on_circle_as(build, t, k: int, lam, mu) -> bool:
    """Whether build acts on one circle probe as the jet t does.

    The probe's coefficients are distinct and of frequency k+1, so no
    derivative up to order k vanishes on them.
    """
    probe = DensityOperator(lam, mu, [
        TrigFn(0, {k + 1: 1}, {k + 1: r + 1}) for r in range(k + 1)
    ])
    return build(probe) == jet_map(t, k, lam, mu)(probe)


# ----------------------------------------------------------------------
# reference multiplication tables, used by the isomorphism tests
# ----------------------------------------------------------------------

def reference_kind_table(kind: str):
    """Structure constants of a named reference algebra in its print basis,
    as an int table."""
    if kind == "a":
        names = ["atil", "btil"]
        table = {("atil", "atil"): {"atil": 1}, ("atil", "btil"): {"btil": 1},
                 ("btil", "atil"): {"btil": 1}}
    elif kind == "b":
        names = ["abar", "bbar", "cbar", "dbar"]
        table = {
            ("abar", "abar"): {"abar": 1}, ("abar", "dbar"): {"dbar": 1},
            ("bbar", "bbar"): {"bbar": 1}, ("bbar", "cbar"): {"cbar": 1},
            ("cbar", "abar"): {"cbar": 1}, ("dbar", "bbar"): {"dbar": 1},
        }
    elif kind == "t2":
        names = ["e11", "e22", "e21"]
        table = {
            ("e11", "e11"): {"e11": 1}, ("e22", "e22"): {"e22": 1},
            ("e21", "e11"): {"e21": 1}, ("e22", "e21"): {"e21": 1},
        }
    elif kind.startswith("R^") or kind == "R":
        n = 1 if kind == "R" else int(kind[2:])
        names = [f"u{i}" for i in range(n)]
        table = {(f"u{i}", f"u{i}"): {f"u{i}": 1} for i in range(n)}
    else:
        raise ValueError(f"unknown reference kind {kind!r}")
    idx = {nm: i for i, nm in enumerate(names)}
    n = len(names)
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (x, y), out in table.items():
        for znm, c in out.items():
            sc[idx[x]][idx[y]][idx[znm]] = c
    return FiniteAlgebra(names, sc)


def reference_structure_constants(names, vectors, product) -> FiniteAlgebra:
    """algebras.structure_constants in Fractions: the span of independent
    rational coordinate vectors, with product(i, j) the rational coordinate
    vector of item i times item j, and its constants a Fraction table over 1.

    One rref of the vectors, each extended by a unit vector, gives their
    pivot coordinates and the inverse of the pivot block as Fractions; each
    product is solved there and confirmed on every coordinate.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    n, width = len(vectors), len(vectors[0])
    red, pivots = rref([list(v) + [int(i == j) for j in range(n)]
                        for i, v in enumerate(vectors)])
    if pivots[-1] >= width:
        raise ValueError("the vectors are not linearly independent")
    inverse = [row[width:] for row in red]
    nonzero = [[(p, c) for p, c in enumerate(v) if c] for v in vectors]

    def coordinates(i, j):
        prod = product(i, j)
        at_pivots = [(prod[p], inv_row) for p, inv_row in zip(pivots, inverse) if prod[p]]
        coords = [sum((c * inv_row[s] for c, inv_row in at_pivots), Fraction(0))
                  for s in range(n)]
        combo = [Fraction(0)] * width
        for c, entries in zip(coords, nonzero):
            for p, v in entries:
                combo[p] += c * v
        if combo != prod:
            raise SpanNotClosedError(f"product {names[i]} o {names[j]} leaves the span")
        return coords

    return FiniteAlgebra(names, [[coordinates(i, j) for j in range(n)] for i in range(n)])
