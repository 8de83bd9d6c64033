"""The catalog of invariant maps on operator modules.

Covers: conjugation, the scalar-term projections and their adjoints, the
nonlocal trace on the circle, right composition with d and its inverse, the
order-lowering projections onto densities (principal symbol and its first-
and second-order analogs), the classified bilinear operators on densities,
and the general bilinear-after-projection construction that produces the
remaining symmetry generators.

Every map is an explicit exact formula on coefficient lists; a projection
onto densities (`Projection`) and a bilinear operator (`BILINEAR`) are each
one row of coefficients, and an endomorphism of the catalog is its terms
(r, o, l, c), c a_r^(l) at d^o; every map composes as its terms, by
compose_terms.
Weight preconditions are hard errors: the maps move between modules and silent
coercion would mask bugs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from math import comb, perm

from . import rings
from .densities import DensityOperator, apply, compose, density_value
from .errors import (
    InapplicableSymmetryError,
    NotInKernelError,
    WeightMismatchError,
)
from .rings import CIRCLE, rat


# ----------------------------------------------------------------------
# conjugation and the weight-(0,*) / (*,1) projections
# ----------------------------------------------------------------------

def conjugate(A: DensityOperator) -> DensityOperator:
    """Adjoint operator: sum_i (-1)^i (d/dx)^i o a_i, in D^k_{1-mu,1-lam}."""
    out = [rings.zero(A.space) for _ in range(A.order + 1)]
    for i, a in enumerate(A.coeffs):
        if a.is_zero:
            continue
        sign = -1 if i % 2 else 1
        der = a
        for j in range(i + 1):
            if j > 0:
                der = der.diff()
            out[i - j] = out[i - j] + (sign * comb(i, j)) * der
    return DensityOperator(1 - A.mu, 1 - A.lam, out)


def p0(A: DensityOperator) -> DensityOperator:
    """A -> A(1): multiplication by a_0, for operators with source weight 0."""
    if A.lam != 0:
        raise InapplicableSymmetryError("the scalar-term projection needs lam = 0")
    return DensityOperator(A.lam, A.mu, A.coeffs[:1])


def nonlocal_trace(A: DensityOperator) -> DensityOperator:
    """mean(a_0) times d: the trace-like nonlocal symmetry of D^k_{0,1}(S^1).

    Normalized with the mean rather than the raw integral so the image stays
    rational; every relation involving this map is homogeneous-linear in it,
    so the rescaling by 2*pi changes no structure constants.
    """
    if (A.lam, A.mu) != (0, 1):
        raise InapplicableSymmetryError("the nonlocal trace needs (lam, mu) = (0, 1)")
    c = rings.circle_mean(A.coeffs[0])  # on the line, circle_mean raises
    zero = rings.zero(A.space)
    return DensityOperator(0, 1, [zero, rings.constant(A.space, c)])


def delta_compose(A: DensityOperator) -> DensityOperator:
    """Right composition with d: D^k_{1,mu} -> D^{k+1}_{0,mu}."""
    if A.lam != 1:
        raise InapplicableSymmetryError("right composition with d needs source weight 1")
    return compose(A, DensityOperator.de_rham(A.space))


def delta_inverse(B: DensityOperator) -> DensityOperator:
    """Inverse of delta_compose on Ker P0: strips the trailing d."""
    if B.lam != 0:
        raise InapplicableSymmetryError("the inverse needs source weight 0")
    if not B.coeffs[0].is_zero:
        raise NotInKernelError("operator has a nonzero scalar term")
    if B.order == 0:
        return DensityOperator.zero(1, B.mu, B.space)
    return DensityOperator(1, B.mu, B.coeffs[1:])


# ----------------------------------------------------------------------
# projections onto densities
# ----------------------------------------------------------------------

class Projection:
    """A -> (sum_r c_r a_r^(r-n)) (dx)^nu on D^k_{lam,mu}, nu = mu - lam - n,
    kept as its row of nonzero (r, c_r) and its terms (r, 0, r-n, c_r).  A
    slot r < 0 drops out (a_r is zero) and a slot 0 <= r < n, a negative
    derivative, raises ValueError.  The image is the density in D^0_{0,nu};
    operators of another module or of order above k are rejected."""

    __slots__ = ("k", "lam", "mu", "n", "nu", "row", "terms")

    def __init__(self, k: int, lam, mu, n: int, row: dict):
        self.k, self.lam, self.mu, self.n = k, rat(lam), rat(mu), n
        self.nu = self.mu - self.lam - n
        self.row = tuple((r, rat(c)) for r, c in row.items() if c and r >= 0)
        self.terms = [(r, 0, r - n, c) for r, c in self.row]
        low = [r for r, _ in self.row if r < n]
        if low:
            raise ValueError(f"the slot a_{low[0]}^({low[0] - n}) is a negative "
                             f"derivative: a row at n = {n} needs r >= {n}")

    def __rmul__(self, scalar) -> "Projection":
        return Projection(self.k, self.lam, self.mu, self.n,
                          {r: scalar * c for r, c in self.row})

    def __call__(self, A: DensityOperator) -> DensityOperator:
        if (A.lam, A.mu) != (self.lam, self.mu):
            raise WeightMismatchError("operator weights do not match the projection")
        if A.order > self.k:
            raise WeightMismatchError(f"operator order {A.order} exceeds k = {self.k}")
        value = rings.zero(A.space)
        for r, c in self.row:
            # only the nonzero coefficients up to the operator's order contribute
            if r <= A.order and not A.coeffs[r].is_zero:
                value = value + A.coeffs[r].diff(r - self.n) * c
        return DensityOperator(0, self.nu, [value])


def symbol(k: int, lam, mu) -> Projection:
    """The principal symbol a_k, a density of weight mu - lam - k."""
    return Projection(k, lam, mu, k, {k: 1})


def v_formula(k: int, lam, mu) -> Projection:
    """The first-order analog of the symbol on D^k_{lam,mu}:
    A -> alpha a_k' + beta a_{k-1}."""
    lam, mu = rat(lam), rat(mu)
    alpha = lam * k + Fraction(k * (k - 1), 2)
    beta = mu - lam - k
    return Projection(k, lam, mu, k - 1, {k: alpha, k - 1: beta})


def alternating(n: int, k: int, lam, mu) -> Projection:
    """sum_{r=n..k} (-1)^(r-n) a_r^(r-n): at n = 0 the scalar of P0star, at
    n = 1 the projection piDelta = P0 o C o delta^{-1} o (Id - P0) of D^k_{0,1}."""
    return Projection(k, lam, mu, n, {r: (-1) ** (r - n) for r in range(n, k + 1)})


def wilmod_weights(k: int) -> tuple[Fraction, Fraction]:
    return Fraction(1 - k, 2), Fraction(1 + k, 2)


def wilmod(drop: int, k: int, lam, mu) -> Projection:
    """a_{k-drop}^(1-drop) as a 1-form, for drop = 0 (wilmodA) or 1 (wilmodB):
    the two independent projections at the degenerate weights wilmod_weights(k)."""
    if (rat(lam), rat(mu)) != wilmod_weights(k):
        raise InapplicableSymmetryError(
            f"these projections need (lam, mu) = ((1-{k})/2, (1+{k})/2)"
        )
    return Projection(k, lam, mu, k - 1, {k - drop: 1})


def second_analog_locus(k: int, lam, mu) -> Fraction:
    """Defining expression of the weight locus carrying the second-order
    analog of the symbol map; the map below exists exactly where this is 0."""
    lam, mu = rat(lam), rat(mu)
    return (lam + Fraction(k - 2, 3)) * (mu - Fraction(k + 1, 3)) + \
        Fraction((k + 1) * (k - 2), 36)


def second_analog_mu(k: int, lam):
    """mu where second_analog_locus(k, lam, mu) = 0, for lam != (2-k)/3:
    exact on rationals, and on floats for the figures."""
    return Fraction(k + 1, 3) - Fraction((k + 1) * (k - 2), 36) / (lam + Fraction(k - 2, 3))


def w_coefficients(k: int, lam) -> tuple[Fraction, Fraction, Fraction]:
    lam = rat(lam)
    a2 = Fraction(2, 3) * k * (k - 1) * (k + 3 * lam - 2) ** 2
    a1 = 2 * (k - 1) * (k + 3 * lam - 2) * (2 - 2 * lam - k)
    a0 = 3 * k * k + 12 * lam * k + 12 * lam * lam - 11 * k - 24 * lam + 10
    return a2, a1, a0


def w_formula(k: int, lam, mu) -> Projection:
    """The second-order analog's formula on D^k_{lam,mu}, without its locus
    gate: A -> a2 a_k'' + a1 a_{k-1}' + a0 a_{k-2}."""
    a2, a1, a0 = w_coefficients(k, lam)
    return Projection(k, lam, mu, k - 2, {k: a2, k - 1: a1, k - 2: a0})


# ----------------------------------------------------------------------
# bilinear invariant operators on densities
# ----------------------------------------------------------------------

# kind -> (order n, where it is defined, its row (c_0, ..., c_n)), both
# functions of (nu, lam); J(phi, psi) = sum_j c_j phi^(n-j) psi^(j)
BILINEAR = {
    "product": (0, lambda nu, lam: True, lambda nu, lam: (1,)),
    "poisson": (1, lambda nu, lam: True, lambda nu, lam: (-lam, nu)),
    "phi_dpsi": (1, lambda nu, lam: lam == 0, lambda nu, lam: (0, 1)),
    "dphi_psi": (1, lambda nu, lam: nu == 0, lambda nu, lam: (1, 0)),
    "d_left": (2, lambda nu, lam: nu == 0, lambda nu, lam: (-lam, 1, 0)),
    "d_right": (2, lambda nu, lam: lam == 0, lambda nu, lam: (0, -1, nu)),
    "d_outer": (2, lambda nu, lam: nu + lam == -1, lambda nu, lam: (-lam, nu - lam, nu)),
    "dd_inner": (3, lambda nu, lam: (nu, lam) == (0, 0), lambda nu, lam: (0, -1, 1, 0)),
    "d_d_left": (3, lambda nu, lam: (nu, lam) == (0, -2), lambda nu, lam: (2, 3, 1, 0)),
    "d_d_right": (3, lambda nu, lam: (nu, lam) == (-2, 0), lambda nu, lam: (0, -1, -3, -2)),
    "grozman": (3, lambda nu, lam: (nu, lam) == (Fraction(-2, 3), Fraction(-2, 3)),
                lambda nu, lam: (-2, -3, 3, 2)),
}


class BilinearOp:
    """An invariant bilinear differential operator F_nu x F_lam -> F_mu.

    The kinds are the product, the Poisson bracket, the two order-1
    operators phi psi' (on lam = 0) and phi' psi (on nu = 0), the
    compositions of the bracket with d, and the exceptional third-order
    operator at weights (-2/3, -2/3).  Its row in BILINEAR, output weight and
    terms (0, j, n-j, c_j) of phi -> J(phi, .) are set at construction.  A
    density is an order-0 operator from weight 0; J(phi, psi) = J(phi, .)(psi).
    """

    __slots__ = ("kind", "nu", "lam", "row", "out_weight", "terms")

    def __init__(self, kind: str, nu, lam):
        self.kind, self.nu, self.lam = kind, rat(nu), rat(lam)
        if kind not in BILINEAR:
            raise ValueError(f"unknown bilinear kind {kind!r}")
        _, defined, row = BILINEAR[kind]
        if not defined(self.nu, self.lam):
            raise WeightMismatchError(
                f"bilinear operator {kind!r} is not defined at "
                f"(nu, lam) = ({self.nu}, {self.lam})"
            )
        self.row = tuple(rat(c) for c in row(self.nu, self.lam))
        self.out_weight = self.nu + self.lam + self.order
        self.terms = [(0, j, self.order - j, c) for j, c in enumerate(self.row) if c]

    @property
    def order(self) -> int:
        return len(self.row) - 1

    def operator(self, phi: DensityOperator) -> DensityOperator:
        """J(phi, .) = sum_j c_j phi^(n-j) d^j, in D_{lam, out_weight}."""
        f = density_value(phi)
        if phi.mu != self.nu:
            raise WeightMismatchError(
                f"bilinear operator {self.kind!r} expects left weight "
                f"{self.nu}, got {phi.mu}"
            )
        z = rings.zero(phi.space)
        return DensityOperator(self.lam, self.out_weight, [
            f.diff(self.order - j) * c if c else z for j, c in enumerate(self.row)
        ])

    def __call__(self, phi: DensityOperator, psi: DensityOperator) -> DensityOperator:
        return apply(self.operator(phi), psi)


# ----------------------------------------------------------------------
# terms: a local endomorphism T of D^k_{lam,mu} is its terms (r, r-l, l, c),
# 0 <= l <= r <= k, with T(A)_{r-l} += c a_r^(l); its jet is the vector of
# t[r,l] = c / perm(r,l), and the trace L is the one term (0, 1, None, 1)
# ----------------------------------------------------------------------

def component_unknowns(k: int):
    """Index map for the jet coordinates t[r,l], 0 <= l <= r <= k."""
    return [(r, l) for r in range(k + 1) for l in range(r + 1)]


def term_coordinates(terms, k: int, trace: bool):
    """Each term's c at its t[r,l], in component_unknowns order, and with
    trace, the trace's c last; ints for int terms.  A term that is no
    endomorphism's of order k raises ValueError: o != r - l, a mean other
    than the trace's or with no trace slot, a guard o < 0."""
    out = [0] * ((k + 1) * (k + 2) // 2 + trace)
    for r, o, l, c in terms:
        if not (0 <= l <= r <= k and o == r - l if l is not None else trace and (r, o) == (0, 1)):
            raise ValueError(f"no endomorphism of order {k}, trace {trace}, has {(r, o, l, c)}")
        i = -1 if l is None else r * (r + 1) // 2 + l  # t[r,l]'s place in component_unknowns
        out[i] = out[i] + c if out[i] else c
    return out


def terms_jet(terms, k: int):
    """The jet of a local endomorphism's terms: t[r,l] = c / perm(r,l)."""
    zero = Fraction(0)
    return [Fraction(c, perm(r, l)) if c else zero
            for (r, l), c in zip(component_unknowns(k), term_coordinates(terms, k, False))]


def componentwise_map(terms, k: int, lam, mu):
    """The map of a local endomorphism's terms on D^k_{lam,mu}, on either
    space: each term (r, o, l, c) adds c a_r^(l) at d^o.  Terms that are no
    local endomorphism's of order k (term_coordinates, with no trace) raise
    ValueError; an operator of another module or of order above k is
    rejected."""
    term_coordinates(terms, k, False)
    lam, mu = rat(lam), rat(mu)

    def act(A: DensityOperator) -> DensityOperator:
        if (A.lam, A.mu) != (lam, mu) or A.order > k:
            raise WeightMismatchError(f"a jet map of D^{k}_{{{lam},{mu}}} got an "
                                      f"operator of D^{A.order}_{{{A.lam},{A.mu}}}")
        out = [rings.zero(A.space)] * (k + 1)
        for r, o, l, c in terms:
            if not A.coefficient(r).is_zero:
                out[o] = out[o] + c * A.coefficient(r).diff(l)
        return DensityOperator(lam, mu, out)

    return act


def sum_terms(terms):
    """The terms (r, o, l, c) with like (r, o, l) added; a zero sum drops
    out, except below d^0 (o < 0), where it is delta_inverse's guard."""
    out = {}
    for r, o, l, c in terms:
        out[r, o, l] = out[r, o, l] + c if (r, o, l) in out else c
    return [(*rol, c) for rol, c in out.items() if c or rol[1] < 0]


def compose_terms(outer, inner):
    """The terms of X o Y (Y applied first), each c a_r^(l) at d^o (l None:
    c mean(a_r)): Y's term at d^o meets X's at r = o and the derivatives
    add, but a mean keeps only its 0-th derivative and the mean of a
    derivative is 0.  Y's terms below d^0 pass through.  The trace L is the
    term (0, 1, None, 1), so L o T = t_T[0,0] L, T o L = t_T[1,0] L and
    L o L = 0.  Int terms give int terms."""
    at = {}
    for r, o, l, c in outer:
        at.setdefault(r, []).append((o, l, c))
    out = [term for term in inner if term[1] < 0]
    for r, o, l, c in inner:
        for o2, l2, c2 in at.get(o, ()):
            if None not in (l, l2):
                out.append((r, o2, l + l2, c * c2))
            elif not (l or l2):
                out.append((r, o2, None, c * c2))
    return sum_terms(out)


def conjugation_terms(k: int):
    """The int terms (r, r-l, l, (-1)^r C(r,l)), the jet t[r,l] = (-1)^r / l!:
    conjugate, from D^k_{lam,mu} to D^k_{1-mu,1-lam}, at every weight."""
    return [(r, r - l, l, (-1) ** r * comb(r, l)) for r, l in component_unknowns(k)]


def mirror_terms(terms, k: int):
    """c o T o c, for the terms of T and c = conjugation_terms(k): T carried
    from D^k_{1-mu,1-lam} to D^k_{lam,mu}."""
    c = conjugation_terms(k)
    return compose_terms(c, compose_terms(terms, c))


def _s_terms(k: int):
    """c o n, where n: A -> sum_m (a_m + a_{m+1}') d^m on D^k_{1,1} is the
    terms (r, r, 0, 1) and (r, r-1, 1, 1): the symmetry S of D^k_{0,0}."""
    n = [(r, r, 0, 1) for r in range(k + 1)] + [(r, r - 1, 1, 1) for r in range(1, k + 1)]
    return compose_terms(conjugation_terms(k), n)


def printed_terms(J: BilinearOp, pi: Projection):
    """The terms of A -> J(pi(A), .) on D^k_{lam,mu}, J's after pi's, for
    pi: D^k_{lam,mu} -> F_nu and J: F_nu x F_lam -> F_mu."""
    if (J.nu, J.lam, J.out_weight) != (pi.nu, pi.lam, pi.mu):
        raise WeightMismatchError(
            f"bilinear {J.kind!r} maps F_{J.nu} x F_{J.lam} to F_{J.out_weight}, "
            f"not F_{pi.nu} x F_{pi.lam} to F_{pi.mu}"
        )
    return compose_terms(J.terms, pi.terms)


# ----------------------------------------------------------------------
# named catalog
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str                   # endo | projection | bilinear
    applies: object             # callable (k, lam, mu) -> bool, on either space
    make: object                # endo/projection: (k, lam, mu) -> callable on
                                # operators; bilinear: (nu, lam) -> BilinearOp
    home: tuple                 # (k, lam, mu) that `verify --op` checks by
                                # default; (0, nu, lam) for a bilinear map
    terms: object = None        # endo: (k, lam, mu) -> its terms (r, o, l, c)

    def exists(self, k: int, lam, mu, space: str) -> bool:
        """Where the map applies; an endomorphism with a mean term (the
        trace L, an integral) exists only on the circle."""
        return self.applies(k, lam, mu) and (
            space == CIRCLE or self.kind != "endo"
            or None not in [l for _, _, l, _ in self.terms(k, lam, mu)])


def local_endo(name, home, applies, terms):
    """A local endomorphism kept as its terms; make is their map."""
    return CatalogEntry(
        name, "endo", applies,
        lambda k, lam, mu: componentwise_map(terms(k, lam, mu), k, lam, mu), home, terms=terms,
    )


def _on(name, home, weights, why, terms):
    """The local endomorphism of terms terms(k) on the weights where
    weights(lam, mu) holds; off them its terms raise, for the reason why."""

    def gated(k, lam, mu):
        if not weights(lam, mu):
            raise InapplicableSymmetryError(why)
        return terms(k)

    return local_endo(name, home, lambda k, l, m: weights(l, m), gated)


def _jv_kind(k, lam, mu):
    """The bilinear kind JV puts after V on D^k_{lam,mu}, None where JV does
    not exist.  The first match wins: at (0, 2) with k = 3 it is d_left."""
    if k == 1:
        return "product"
    if k == 3 and mu - lam == 2:
        return "d_left"
    if k == 4 and (lam, mu) == (0, 3):
        return "dd_inner"
    if k == 3 and lam == 0:
        return "d_right"
    return None


def _factors(kind, projection, scale=1):
    def factors(k, lam, mu):
        lam, mu = rat(lam), rat(mu)
        pi = scale * projection(k, lam, mu)
        return BilinearOp(kind(k, lam, mu) if callable(kind) else kind, pi.nu, lam), pi

    return factors


# each printed generator A -> J(pi(A), .): (k, lam, mu) -> (J, pi), where pi
# is scale times the projection and J the bilinear kind (a name, or a function
# of (k, lam, mu)) at the weights the chain forces.  Each scale is the printed
# normalization: JW and GV are idempotent, calW drops the common factor 4 of
# W at k = 3, and Gsigma is GV with a4 = 0
PRINTED = {
    "P0star": _factors("product", partial(alternating, 0)),
    "P1": _factors("phi_dpsi", partial(alternating, 1)),
    "calV": _factors("poisson", v_formula),
    "calW": _factors("poisson", w_formula, Fraction(1, 4)),
    "JV": _factors(_jv_kind, v_formula),
    "JW": _factors("d_right", w_formula, Fraction(-2, 21)),
    "Jsigma": _factors("dd_inner", symbol),
    "GV": _factors("grozman", v_formula, Fraction(-3, 10)),
    "Gsigma": _factors("grozman", symbol, Fraction(1, 2)),
    "wilGen": _factors("d_left", symbol),
}


def _printed(name, home, applies=None):
    """The entry of PRINTED[name], read at each call; without `applies` it
    exists only at its home."""
    if applies is None:
        applies = lambda k, l, m: (k, l, m) == home
    return local_endo(name, home, applies,
                      lambda k, lam, mu: printed_terms(*PRINTED[name](k, lam, mu)))


CATALOG: dict[str, CatalogEntry] = {e.name: e for e in [
    _on("Id", (3, Fraction(1, 3), Fraction(1, 5)), lambda l, m: True, None,
        lambda k: [(r, r, 0, 1) for r in range(k + 1)]),
    _on("C", (3, Fraction(1, 4), Fraction(3, 4)), lambda l, m: l + m == 1,
        "C is an endomorphism only on lam + mu = 1",
        conjugation_terms),
    _on("P0", (3, Fraction(0), Fraction(2, 7)), lambda l, m: l == 0,
        "the scalar-term projection needs lam = 0",
        lambda k: [(0, 0, 0, 1)]),
    _printed("P0star", (3, Fraction(2, 7), Fraction(1)), lambda k, l, m: m == 1),
    _printed("P1", (3, Fraction(0), Fraction(1)),
             lambda k, l, m: k >= 1 and (l, m) == (0, 1)),
    CatalogEntry("L", "endo", lambda k, l, m: k >= 1 and (l, m) == (0, 1),
                 lambda k, l, m: nonlocal_trace, (3, Fraction(0), Fraction(1)),
                 terms=lambda k, l, m: [(0, 1, None, 1)]),
    _on("S", (4, Fraction(0), Fraction(0)), lambda l, m: (l, m) == (0, 0),
        "S needs (lam, mu) = (0, 0)", _s_terms),
    _on("Sstar", (4, Fraction(1), Fraction(1)), lambda l, m: (l, m) == (1, 1),
        "Sstar needs (lam, mu) = (1, 1)", lambda k: mirror_terms(_s_terms(k), k)),
    _printed("calV", (2, Fraction(1, 3), Fraction(1, 5)), lambda k, l, m: k == 2),
    _printed("calW", (3, Fraction(1, 3), Fraction(7, 6)),
             lambda k, l, m: k == 3 and second_analog_locus(3, l, m) == 0),
    _printed("JV", (3, Fraction(1, 5), Fraction(11, 5)),
             lambda k, l, m: _jv_kind(k, l, m) is not None),
    _printed("JW", (4, Fraction(0), Fraction(5, 4))),
    _printed("Jsigma", (3, Fraction(0), Fraction(3))),
    _printed("GV", (4, Fraction(-2, 3), Fraction(5, 3))),
    _printed("Gsigma", (3, Fraction(-2, 3), Fraction(5, 3))),
    _printed("wilGen", (2, Fraction(-1, 2), Fraction(3, 2))),
    CatalogEntry("sigma", "projection",
                 lambda k, l, m: True,
                 symbol,
                 (3, Fraction(1, 3), Fraction(1, 5))),
    # V, wilmodB and piDelta are the zero map at k = 0
    CatalogEntry("V", "projection",
                 lambda k, l, m: k >= 1,
                 v_formula,
                 (3, Fraction(1, 3), Fraction(1, 5))),
    CatalogEntry("W", "projection",
                 lambda k, l, m: k >= 3 and second_analog_locus(k, l, m) == 0,
                 w_formula,
                 (4, Fraction(0), Fraction(5, 4))),
    CatalogEntry("wilmodA", "projection",
                 lambda k, l, m: (l, m) == wilmod_weights(k),
                 partial(wilmod, 0),
                 (2, Fraction(-1, 2), Fraction(3, 2))),
    CatalogEntry("wilmodB", "projection",
                 lambda k, l, m: k >= 1 and (l, m) == wilmod_weights(k),
                 partial(wilmod, 1),
                 (2, Fraction(-1, 2), Fraction(3, 2))),
    CatalogEntry("piDelta", "projection",
                 lambda k, l, m: k >= 1 and (l, m) == (0, 1),
                 partial(alternating, 1),
                 (3, Fraction(0), Fraction(1))),
    CatalogEntry("poisson", "bilinear",
                 lambda k, l, m: True,
                 lambda nu, lam: BilinearOp("poisson", nu, lam),
                 (0, Fraction(2, 3), Fraction(1, 5))),
    CatalogEntry("grozman", "bilinear",
                 lambda k, l, m: True,
                 lambda nu, lam: BilinearOp("grozman", nu, lam),
                 (0, Fraction(-2, 3), Fraction(-2, 3))),
]}


def catalog_entry(name: str) -> CatalogEntry:
    """The catalog's entry for name; an unknown name raises KeyError."""
    entry = CATALOG.get(name)
    if entry is None:
        raise KeyError(f"unknown catalog name {name!r}")
    return entry
