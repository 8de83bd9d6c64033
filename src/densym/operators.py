"""The catalog of invariant maps on operator modules.

Covers: conjugation, the scalar-term projections and their adjoints, the
nonlocal trace on the circle, right composition with d and its inverse, the
order-lowering projections onto densities (principal symbol and its first-
and second-order analogs), the classified bilinear operators on densities,
and the general bilinear-after-projection construction that produces the
remaining symmetry generators.

Every map is an explicit exact formula on coefficient lists; a projection
onto densities (`Projection`) and a bilinear operator (`BILINEAR`) are each
one row of coefficients.  Weight preconditions are hard errors: the maps
move between modules and silent coercion would mask bugs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from math import comb

from . import rings
from .densities import DensityOperator, apply, compose, density_value
from .errors import (
    InapplicableSymmetryError,
    NotInKernelError,
    UnsupportedFunctionalError,
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
    if A.space != CIRCLE:
        raise UnsupportedFunctionalError("the nonlocal trace exists only on the circle")
    c = rings.circle_mean(A.coeffs[0])
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


def s_map(A: DensityOperator) -> DensityOperator:
    """The involutive symmetry of D^k_{0,0}.

    Explicit form: sum_{i<k} (-1)^i d^i o (a_i + a_{i+1}') + (-1)^k d^k o a_k.
    Equal to the composition chain -C o delta^{-1} o (Id - P0) o C o delta o C,
    which is asserted in tests.
    """
    if (A.lam, A.mu) != (0, 0):
        raise InapplicableSymmetryError("this symmetry needs (lam, mu) = (0, 0)")
    # sum_i (-1)^i d^i o f_i is the conjugate of sum_i f_i d^i in D^k_{1,1}
    a = A.coeffs + (rings.zero(A.space),)
    return conjugate(DensityOperator(1, 1, [a[i] + a[i + 1].diff()
                                            for i in range(A.order + 1)]))


def s_map_chain(A: DensityOperator) -> DensityOperator:
    """The same symmetry through its defining composition chain."""
    if (A.lam, A.mu) != (0, 0):
        raise InapplicableSymmetryError("this symmetry needs (lam, mu) = (0, 0)")
    step = conjugate(A)                      # D^k_{1,1}
    step = delta_compose(step)               # D^{k+1}_{0,1}
    step = conjugate(step)                   # D^{k+1}_{0,1}
    step = step - p0(step)                   # Ker P0
    step = delta_inverse(step)               # D^k_{1,1}
    return -1 * conjugate(step)              # D^k_{0,0}


def s_star(A: DensityOperator) -> DensityOperator:
    """Conjugate of s_map, acting on D^k_{1,1}."""
    if (A.lam, A.mu) != (1, 1):
        raise InapplicableSymmetryError("this symmetry needs (lam, mu) = (1, 1)")
    return conjugate(s_map(conjugate(A)))


# ----------------------------------------------------------------------
# projections onto densities
# ----------------------------------------------------------------------

class Projection:
    """A -> (sum_r c_r a_r^(r-n)) (dx)^nu on D^k_{lam,mu}, nu = mu - lam - n,
    kept as its row of nonzero (r, c_r).  The image is a density, the
    order-0 operator in D^0_{0,nu}; operators of another module or of order
    above k are rejected."""

    __slots__ = ("k", "lam", "mu", "n", "nu", "row")

    def __init__(self, k: int, lam, mu, n: int, row: dict):
        self.k, self.lam, self.mu, self.n = k, rat(lam), rat(mu), n
        self.nu = self.mu - self.lam - n
        # a_r is zero for r < 0, so such slots drop out with the zero c_r
        self.row = tuple((r, rat(c)) for r, c in row.items() if c and r >= 0)

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
    operator at weights (-2/3, -2/3).  Its row in BILINEAR and its output
    weight are evaluated once, at construction.  Densities are order-0
    operators from weight 0, and J(phi, psi) is the density J(phi, .)(psi).
    """

    __slots__ = ("kind", "nu", "lam", "row", "out_weight")

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
# symmetries built as bilinear-after-projection
# ----------------------------------------------------------------------

def symmetry_from_projection(J: BilinearOp, pi: Projection):
    """The endomorphism A -> J(pi(A), .) of D^k_{lam,mu}, for a projection
    pi: D^k_{lam,mu} -> F_nu.

    The weight chain J: F_nu x F_lam -> F_mu is checked up front; pi's call
    checks that each operator is in D^k_{lam,mu}.
    """
    if J.nu != pi.nu:
        raise WeightMismatchError(
            f"bilinear left weight {J.nu} != projection target {pi.nu}"
        )
    if J.lam != pi.lam:
        raise WeightMismatchError(
            f"bilinear right weight {J.lam} != module source weight {pi.lam}"
        )
    if J.out_weight != pi.mu:
        raise WeightMismatchError(
            f"bilinear output weight {J.out_weight} != module target weight {pi.mu}"
        )
    return lambda A: J.operator(pi(A))


# ----------------------------------------------------------------------
# named catalog
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str                   # endo | projection | bilinear
    applies: object             # callable (k, lam, mu, space) -> bool
    make: object                # endo/projection: (k, lam, mu) -> callable on
                                # operators; bilinear: (nu, lam) -> BilinearOp
    home: tuple                 # (k, lam, mu) that `verify --op` checks by
                                # default; (0, nu, lam) for a bilinear map
    circle_only: bool = False


def _e(name, home, applies, action, circle_only=False):
    # formulas that read fixed coefficient slots do not depend on k
    return CatalogEntry(
        name, "endo", applies, lambda k, l, m, _a=action: _a, home, circle_only
    )


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


def _printed(name, home, kind, projection, scale=1, applies=None):
    """A printed generator: A -> J(pi(A), .) on D^k_{lam,mu}, where pi is
    scale times projection(k, lam, mu) and J the bilinear operator of the
    given kind (a name, or a function of (k, lam, mu)) at the weights the
    chain forces.  Without `applies` it exists only at its home."""

    def make(k, lam, mu):
        lam, mu = rat(lam), rat(mu)
        J_kind = kind(k, lam, mu) if callable(kind) else kind
        J = BilinearOp(J_kind, mu - lam - BILINEAR[J_kind][0], lam)
        return symmetry_from_projection(J, scale * projection(k, lam, mu))

    if applies is None:
        applies = lambda k, l, m, s: (k, l, m) == home
    return CatalogEntry(name, "endo", applies, make, home)


CATALOG: dict[str, CatalogEntry] = {e.name: e for e in [
    _e("Id", (3, Fraction(1, 3), Fraction(1, 5)), lambda k, l, m, s: True, lambda A: A),
    _e("C", (3, Fraction(1, 4), Fraction(3, 4)), lambda k, l, m, s: l + m == 1, conjugate),
    _e("P0", (3, Fraction(0), Fraction(2, 7)), lambda k, l, m, s: l == 0, p0),
    _printed("P0star", (3, Fraction(2, 7), Fraction(1)), "product", partial(alternating, 0),
             applies=lambda k, l, m, s: m == 1),
    _printed("P1", (3, Fraction(0), Fraction(1)), "phi_dpsi", partial(alternating, 1),
             applies=lambda k, l, m, s: k >= 1 and (l, m) == (0, 1)),
    _e("L", (3, Fraction(0), Fraction(1)),
       lambda k, l, m, s: k >= 1 and (l, m) == (0, 1) and s == CIRCLE,
       nonlocal_trace, circle_only=True),
    _e("S", (4, Fraction(0), Fraction(0)), lambda k, l, m, s: (l, m) == (0, 0), s_map),
    _e("Sstar", (4, Fraction(1), Fraction(1)), lambda k, l, m, s: (l, m) == (1, 1), s_star),
    # each scale is the printed normalization: JW and GV are idempotent, calW
    # drops the common factor 4 of W at k = 3, and Gsigma is GV with a4 = 0
    _printed("calV", (2, Fraction(1, 3), Fraction(1, 5)), "poisson", v_formula,
             applies=lambda k, l, m, s: k == 2),
    _printed("calW", (3, Fraction(1, 3), Fraction(7, 6)), "poisson", w_formula,
             Fraction(1, 4),
             applies=lambda k, l, m, s: k == 3 and second_analog_locus(3, l, m) == 0),
    _printed("JV", (3, Fraction(1, 5), Fraction(11, 5)), _jv_kind, v_formula,
             applies=lambda k, l, m, s: _jv_kind(k, l, m) is not None),
    _printed("JW", (4, Fraction(0), Fraction(5, 4)), "d_right", w_formula, Fraction(-2, 21)),
    _printed("Jsigma", (3, Fraction(0), Fraction(3)), "dd_inner", symbol),
    _printed("GV", (4, Fraction(-2, 3), Fraction(5, 3)), "grozman", v_formula,
             Fraction(-3, 10)),
    _printed("Gsigma", (3, Fraction(-2, 3), Fraction(5, 3)), "grozman", symbol,
             Fraction(1, 2)),
    _printed("wilGen", (2, Fraction(-1, 2), Fraction(3, 2)), "d_left", symbol),
    CatalogEntry("sigma", "projection",
                 lambda k, l, m, s: True,
                 symbol,
                 (3, Fraction(1, 3), Fraction(1, 5))),
    # V, wilmodB and piDelta are the zero map at k = 0
    CatalogEntry("V", "projection",
                 lambda k, l, m, s: k >= 1,
                 v_formula,
                 (3, Fraction(1, 3), Fraction(1, 5))),
    CatalogEntry("W", "projection",
                 lambda k, l, m, s: k >= 3 and second_analog_locus(k, l, m) == 0,
                 w_formula,
                 (4, Fraction(0), Fraction(5, 4))),
    CatalogEntry("wilmodA", "projection",
                 lambda k, l, m, s: (l, m) == wilmod_weights(k),
                 partial(wilmod, 0),
                 (2, Fraction(-1, 2), Fraction(3, 2))),
    CatalogEntry("wilmodB", "projection",
                 lambda k, l, m, s: k >= 1 and (l, m) == wilmod_weights(k),
                 partial(wilmod, 1),
                 (2, Fraction(-1, 2), Fraction(3, 2))),
    CatalogEntry("piDelta", "projection",
                 lambda k, l, m, s: k >= 1 and (l, m) == (0, 1),
                 partial(alternating, 1),
                 (3, Fraction(0), Fraction(1))),
    CatalogEntry("poisson", "bilinear",
                 lambda k, l, m, s: True,
                 lambda nu, lam: BilinearOp("poisson", nu, lam),
                 (0, Fraction(2, 3), Fraction(1, 5))),
    CatalogEntry("grozman", "bilinear",
                 lambda k, l, m, s: True,
                 lambda nu, lam: BilinearOp("grozman", nu, lam),
                 (0, Fraction(-2, 3), Fraction(-2, 3))),
]}


def conjugated_endo(build):
    """C o T o C: transports an endomorphism from (1-mu, 1-lam) to (lam, mu)."""

    def act(A: DensityOperator) -> DensityOperator:
        return conjugate(build(conjugate(A)))

    return act
