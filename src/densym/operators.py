"""The catalog of invariant maps on operator modules.

Covers: conjugation, the scalar-term projections and their adjoints, the
nonlocal trace on the circle, right composition with d and its inverse, the
order-lowering projections onto densities (principal symbol and its first-
and second-order analogs), the classified bilinear operators on densities,
and the general bilinear-after-projection construction that produces the
remaining symmetry generators.

Every map is an explicit exact formula on coefficient lists.  Weight
preconditions are hard errors: the maps move between modules and silent
coercion would mask bugs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import rings
from .densities import Density, DensityOperator, compose
from .errors import (
    InapplicableSymmetryError,
    NotInKernelError,
    UnsupportedFunctionalError,
    WeightMismatchError,
)
from .rings import CIRCLE, CoefficientFunction, rat


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
    return DensityOperator.multiplication(A.lam, A.mu, A.coeffs[0])


def p0_star(A: DensityOperator) -> DensityOperator:
    """Conjugated scalar-term projection: multiplication by sum (-1)^i a_i^(i)."""
    if A.mu != 1:
        raise InapplicableSymmetryError("the adjoint projection needs mu = 1")
    total = rings.zero(A.space)
    for i, a in enumerate(A.coeffs):
        term = a.diff(i)
        total = total + (term if i % 2 == 0 else -term)
    return DensityOperator.multiplication(A.lam, A.mu, total)


def _p1_scalar(A: DensityOperator) -> CoefficientFunction:
    total = rings.zero(A.space)
    for i in range(1, A.order + 1):
        term = A.coeffs[i].diff(i - 1)
        total = total + (term if (i - 1) % 2 == 0 else -term)
    return total


def p1(A: DensityOperator) -> DensityOperator:
    """(sum_{i>=1} (-1)^(i-1) a_i^(i-1)) o d, on D^k_{0,1}."""
    if (A.lam, A.mu) != (0, 1):
        raise InapplicableSymmetryError("this projection needs (lam, mu) = (0, 1)")
    return DensityOperator(0, 1, [rings.zero(A.space), _p1_scalar(A)])


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


def pi_delta(A: DensityOperator) -> Density:
    """P0 o C o delta^{-1} o (Id - P0): an invariant projection to F_0."""
    if (A.lam, A.mu) != (0, 1):
        raise InapplicableSymmetryError("this projection needs (lam, mu) = (0, 1)")
    step = A - p0(A)
    step = delta_inverse(step)               # D^{k-1}_{1,1}
    step = conjugate(step)                   # D^{k-1}_{0,0}
    return Density(0, p0(step).coeffs[0])


# ----------------------------------------------------------------------
# projections onto densities
# ----------------------------------------------------------------------

def principal_symbol(A: DensityOperator, k: int) -> Density:
    """a_k as a density of weight mu - lam - k (zero if ord(A) < k)."""
    if A.order > k:
        raise WeightMismatchError(f"operator order {A.order} exceeds k = {k}")
    return Density(A.delta - k, A.coefficient(k))


def v_coefficients(k: int, lam, mu) -> tuple[Fraction, Fraction]:
    lam, mu = rat(lam), rat(mu)
    alpha = lam * k + Fraction(k * (k - 1), 2)
    beta = mu - lam - k
    return alpha, beta


def v_map(A: DensityOperator, k: int) -> Density:
    """First-order analog of the principal symbol: alpha a_k' + beta a_{k-1}."""
    if A.order > k:
        raise WeightMismatchError(f"operator order {A.order} exceeds k = {k}")
    alpha, beta = v_coefficients(k, A.lam, A.mu)
    val = alpha * A.coefficient(k).diff() + beta * A.coefficient(k - 1)
    return Density(A.delta - k + 1, val)


def wilmod_weights(k: int) -> tuple[Fraction, Fraction]:
    return Fraction(1 - k, 2), Fraction(1 + k, 2)


def wilmod_projections(A: DensityOperator, k: int) -> tuple[Density, Density]:
    """The two independent projections to 1-forms at the degenerate weights."""
    if (A.lam, A.mu) != wilmod_weights(k):
        raise InapplicableSymmetryError(
            f"these projections need (lam, mu) = ((1-{k})/2, (1+{k})/2)"
        )
    if A.order > k:
        raise WeightMismatchError(f"operator order {A.order} exceeds k = {k}")
    return (
        Density(1, A.coefficient(k).diff()),
        Density(1, A.coefficient(k - 1)),
    )


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


def w_formula(k: int, lam, mu):
    """The second-order analog's formula on D^k_{lam,mu}, without its locus
    gate: A -> a2 a_k'' + a1 a_{k-1}' + a0 a_{k-2}, coefficients computed once."""
    a2, a1, a0 = w_coefficients(k, lam)
    nu = rat(mu) - rat(lam) - k + 2

    def apply(A: DensityOperator) -> Density:
        if A.order > k:
            raise WeightMismatchError(f"operator order {A.order} exceeds k = {k}")
        val = (
            a2 * A.coefficient(k).diff(2)
            + a1 * A.coefficient(k - 1).diff()
            + a0 * A.coefficient(k - 2)
        )
        return Density(nu, val)

    return apply


def w_map(A: DensityOperator, k: int) -> Density:
    """Second-order analog of the symbol map, defined on its weight locus."""
    if k < 3:
        raise InapplicableSymmetryError("the second-order analog needs k >= 3")
    if second_analog_locus(k, A.lam, A.mu) != 0:
        raise InapplicableSymmetryError(
            "weights are off the locus carrying the second-order analog"
        )
    return w_formula(k, A.lam, A.mu)(A)


# ----------------------------------------------------------------------
# bilinear invariant operators on densities
# ----------------------------------------------------------------------

BILINEAR_ORDERS = {
    "product": 0,
    "poisson": 1,
    "d_left": 2,
    "d_right": 2,
    "d_outer": 2,
    "dd_inner": 3,
    "d_d_left": 3,
    "d_d_right": 3,
    "grozman": 3,
}


@dataclass(frozen=True)
class BilinearOp:
    """An invariant bilinear differential operator F_nu x F_lam -> F_mu.

    The catalog is the complete one-dimensional classification: the product,
    the Poisson bracket, the compositions of the bracket with d, and the
    exceptional third-order operator at weights (-2/3, -2/3).
    """

    kind: str
    nu: Fraction
    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "nu", rat(self.nu))
        object.__setattr__(self, "lam", rat(self.lam))
        constraints = {
            "product": True,
            "poisson": True,
            "d_left": self.nu == 0,
            "d_right": self.lam == 0,
            "d_outer": self.nu + self.lam == -1,
            "dd_inner": (self.nu, self.lam) == (0, 0),
            "d_d_left": (self.nu, self.lam) == (0, -2),
            "d_d_right": (self.nu, self.lam) == (-2, 0),
            "grozman": (self.nu, self.lam) == (Fraction(-2, 3), Fraction(-2, 3)),
        }
        if self.kind not in constraints:
            raise ValueError(f"unknown bilinear kind {self.kind!r}")
        if not constraints[self.kind]:
            raise WeightMismatchError(
                f"bilinear operator {self.kind!r} is not defined at "
                f"(nu, lam) = ({self.nu}, {self.lam})"
            )

    @property
    def order(self) -> int:
        return BILINEAR_ORDERS[self.kind]

    @property
    def out_weight(self) -> Fraction:
        return self.nu + self.lam + self.order

    def coefficient_list(self, phi: CoefficientFunction) -> list[CoefficientFunction]:
        """Coefficients c_j with J(phi, psi) = sum_j c_j psi^(j)."""
        nu, lam = self.nu, self.lam
        z = rings.zero(phi.space)
        if self.kind == "product":
            return [phi]
        if self.kind == "poisson":
            return [-lam * phi.diff(), nu * phi]
        if self.kind == "d_left":
            return [-lam * phi.diff(2), phi.diff()]
        if self.kind == "d_right":
            return [z, -phi.diff(), nu * phi]
        if self.kind == "d_outer":
            return [-lam * phi.diff(2), (nu - lam) * phi.diff(), nu * phi]
        if self.kind == "dd_inner":
            return [z, -phi.diff(2), phi.diff()]
        if self.kind == "d_d_left":
            return [2 * phi.diff(3), 3 * phi.diff(2), phi.diff()]
        if self.kind == "d_d_right":
            return [z, -phi.diff(2), -3 * phi.diff(), -2 * phi]
        # grozman
        return [-2 * phi.diff(3), -3 * phi.diff(2), 3 * phi.diff(), 2 * phi]

    def __call__(self, phi: Density, psi: Density) -> Density:
        if phi.weight != self.nu or psi.weight != self.lam:
            raise WeightMismatchError(
                f"bilinear operator {self.kind!r} expects weights "
                f"({self.nu}, {self.lam}), got ({phi.weight}, {psi.weight})"
            )
        out = rings.zero(phi.space)
        der = psi.value
        for j, c in enumerate(self.coefficient_list(phi.value)):
            if j > 0:
                der = der.diff()
            if not c.is_zero:
                out = out + c * der
        return Density(self.out_weight, out)


# ----------------------------------------------------------------------
# symmetries built as bilinear-after-projection
# ----------------------------------------------------------------------

def symmetry_from_projection(J: BilinearOp, pi, lam, mu):
    """The endomorphism A -> J(pi(A), .) of D^k_{lam,mu}, for a projection
    pi: D^k_{lam,mu} -> F_nu.

    The weight chain J: F_nu x F_lam -> F_mu is checked up front, with nu the
    weight of the density pi gives the zero operator; the result is a plain
    callable on operators.
    """
    lam, mu = rat(lam), rat(mu)
    nu = pi(DensityOperator.zero(lam, mu, rings.LINE)).weight
    if J.nu != nu:
        raise WeightMismatchError(
            f"bilinear left weight {J.nu} != projection target {nu}"
        )
    if J.lam != lam:
        raise WeightMismatchError(
            f"bilinear right weight {J.lam} != module source weight {lam}"
        )
    if J.out_weight != mu:
        raise WeightMismatchError(
            f"bilinear output weight {J.out_weight} != module target weight {mu}"
        )

    def act(A: DensityOperator) -> DensityOperator:
        if (A.lam, A.mu) != (lam, mu):
            raise WeightMismatchError("operator weights do not match the projection")
        return DensityOperator(lam, mu, J.coefficient_list(pi(A).value))

    return act


# ----------------------------------------------------------------------
# the printed generators (fixed normalizations)
# ----------------------------------------------------------------------

def cal_v(A: DensityOperator) -> DensityOperator:
    """Order-2 generator built from the bracket and the first symbol analog.

    (d-1)[(2L+1)a2' + (d-2)a1] d/dx - L[(2L+1)a2'' + (d-2)a1'],
    where L is the source weight and d the weight difference.  Defined for
    every weight pair; squares to (d-1)(d-2) times itself.
    """
    if A.order > 2:
        raise InapplicableSymmetryError("this generator lives on order-2 modules")
    lam, d = A.lam, A.delta
    a2, a1 = A.coefficient(2), A.coefficient(1)
    inner = (2 * lam + 1) * a2.diff() + (d - 2) * a1
    c1 = (d - 1) * inner
    c0 = -lam * inner.diff()
    return DensityOperator(A.lam, A.mu, [c0, c1])


def cal_w_coefficients(lam) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients of the order-3 hyperbola generator.

    The middle coefficient is -(3L+1)(1+2L): the specialization of the
    general second-analog coefficients to k = 3 after removing the overall
    factor 4.  (The variant with (1-2L) fails both the equivariance check and
    the exact decomposition against the exceptional-bilinear generator; see
    tests.)
    """
    lam = rat(lam)
    return (
        (3 * lam + 1) ** 2,
        -(3 * lam + 1) * (1 + 2 * lam),
        3 * lam * lam + 3 * lam + 1,
    )


def cal_w(A: DensityOperator) -> DensityOperator:
    """Order-3 generator on the hyperbola (3L+1)(3M-4) = -1."""
    if A.order > 3:
        raise InapplicableSymmetryError("this generator lives on order-3 modules")
    if second_analog_locus(3, A.lam, A.mu) != 0:
        raise InapplicableSymmetryError("weights are off the order-3 hyperbola")
    lam, d = A.lam, A.delta
    a2c, a1c, a0c = cal_w_coefficients(lam)
    inner = (
        a2c * A.coefficient(3).diff(2)
        + a1c * A.coefficient(2).diff()
        + a0c * A.coefficient(1)
    )
    c1 = (d - 1) * inner
    c0 = -lam * inner.diff()
    return DensityOperator(A.lam, A.mu, [c0, c1])


def j_v(A: DensityOperator, k: int) -> DensityOperator:
    """Bilinear-after-V generator of the order-k module, per weights:

    * k = 1, any weights: multiplication by L a1' + (d-1) a0.
    * k = 3 on the line M - L = 2: (3(L+1)a3'' - a2') d - L (3(L+1)a3''' - a2'').
    * k = 4 at (0, 3): (6a4'' - a3') d^2 - (6a4''' - a3'') d.
    * k = 3 with L = 0: the raw second-order composition.

    k is the order of the module, not of the particular element: the same
    formula must be applied to every element of D^k for the map to be linear.
    """
    lam, mu, d = A.lam, A.mu, A.delta
    if A.order > k:
        raise InapplicableSymmetryError(f"element order {A.order} exceeds k={k}")
    z = rings.zero(A.space)
    if k == 1:
        val = lam * A.coefficient(1).diff() + (d - 1) * A.coefficient(0)
        return DensityOperator(lam, mu, [val])
    if k == 3 and d == 2:
        inner = 3 * (lam + 1) * A.coefficient(3).diff() - A.coefficient(2)
        return DensityOperator(lam, mu, [-lam * inner.diff(2), inner.diff()])
    if k == 4 and (lam, mu) == (0, 3):
        inner = 6 * A.coefficient(4).diff() - A.coefficient(3)
        return DensityOperator(lam, mu, [z, -inner.diff(2), inner.diff()])
    if k == 3 and lam == 0:
        J = BilinearOp("d_right", d - 2, lam)  # V's target weight at k = 3
        return symmetry_from_projection(J, lambda B: v_map(B, 3), lam, mu)(A)
    raise InapplicableSymmetryError(
        f"no bilinear-after-V generator at k={k}, (lam, mu)=({lam}, {mu})"
    )


def j_w(A: DensityOperator) -> DensityOperator:
    """Order-4 generator at (0, 5/4):

        (16/7 a4'' - 12/7 a3' + a2) d^2
            + 4/3 (16/7 a4''' - 12/7 a3'' + a2') d.

    This is the unique idempotent scaling of the bilinear-after-projection
    composition; the variant with the d-coefficient scaled by a further 3/4
    fails the equivariance check (see tests).
    """
    if A.order > 4 or (A.lam, A.mu) != (0, Fraction(5, 4)):
        raise InapplicableSymmetryError("this generator lives on D^4_{0,5/4}")
    a4, a3, a2 = A.coefficient(4), A.coefficient(3), A.coefficient(2)
    c2 = Fraction(16, 7) * a4.diff(2) - Fraction(12, 7) * a3.diff() + a2
    c1 = Fraction(4, 3) * (
        Fraction(16, 7) * a4.diff(3) - Fraction(12, 7) * a3.diff(2) + a2.diff()
    )
    z = rings.zero(A.space)
    return DensityOperator(A.lam, A.mu, [z, c1, c2])


def j_sigma(A: DensityOperator) -> DensityOperator:
    """Order-3 generator at (0, 3): a3' d^2 - a3'' d."""
    if A.order > 3 or (A.lam, A.mu) != (0, 3):
        raise InapplicableSymmetryError("this generator lives on D^3_{0,3}")
    a3 = A.coefficient(3)
    z = rings.zero(A.space)
    return DensityOperator(A.lam, A.mu, [z, -a3.diff(2), a3.diff()])


def g_v(A: DensityOperator) -> DensityOperator:
    """Order-4 generator at (-2/3, 5/3) built from the exceptional bilinear map:

    (a3 - 2a4') d^3 + (3/2 a3' - 3a4'') d^2 - (3/2 a3'' - 3a4''') d - (a3''' - 2a4'''').
    """
    if A.order > 4 or (A.lam, A.mu) != (Fraction(-2, 3), Fraction(5, 3)):
        raise InapplicableSymmetryError("this generator lives on D^4_{-2/3,5/3}")
    a4, a3 = A.coefficient(4), A.coefficient(3)
    inner = a3 - 2 * a4.diff()
    return DensityOperator(A.lam, A.mu, [
        -inner.diff(3),
        Fraction(-3, 2) * inner.diff(2),
        Fraction(3, 2) * inner.diff(),
        inner,
    ])


def wil_gen(A: DensityOperator) -> DensityOperator:
    """Order-2 generator at (-1/2, 3/2): a2' d + 1/2 a2''."""
    if A.order > 2 or (A.lam, A.mu) != (Fraction(-1, 2), Fraction(3, 2)):
        raise InapplicableSymmetryError("this generator lives on D^2_{-1/2,3/2}")
    a2 = A.coefficient(2)
    return DensityOperator(A.lam, A.mu, [Fraction(1, 2) * a2.diff(2), a2.diff()])


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


def _at_home(name, home, action):
    """An endomorphism that exists only at its home (k, lam, mu)."""
    return _e(name, home, lambda k, l, m, s: (k, l, m) == home, action)


def _jv_applies(k, lam, mu, space):
    d = mu - lam
    return (
        k == 1
        or (k == 3 and d == 2)
        or (k == 4 and (lam, mu) == (0, 3))
        or (k == 3 and lam == 0)
    )


CATALOG: dict[str, CatalogEntry] = {e.name: e for e in [
    _e("Id", (3, Fraction(1, 3), Fraction(1, 5)), lambda k, l, m, s: True, lambda A: A),
    _e("C", (3, Fraction(1, 4), Fraction(3, 4)), lambda k, l, m, s: l + m == 1, conjugate),
    _e("P0", (3, Fraction(0), Fraction(2, 7)), lambda k, l, m, s: l == 0, p0),
    _e("P0star", (3, Fraction(2, 7), Fraction(1)), lambda k, l, m, s: m == 1, p0_star),
    _e("P1", (3, Fraction(0), Fraction(1)),
       lambda k, l, m, s: k >= 1 and (l, m) == (0, 1), p1),
    _e("L", (3, Fraction(0), Fraction(1)),
       lambda k, l, m, s: k >= 1 and (l, m) == (0, 1) and s == CIRCLE,
       nonlocal_trace, circle_only=True),
    _e("S", (4, Fraction(0), Fraction(0)), lambda k, l, m, s: (l, m) == (0, 0), s_map),
    _e("Sstar", (4, Fraction(1), Fraction(1)), lambda k, l, m, s: (l, m) == (1, 1), s_star),
    _e("calV", (2, Fraction(1, 3), Fraction(1, 5)), lambda k, l, m, s: k == 2, cal_v),
    _e("calW", (3, Fraction(1, 3), Fraction(7, 6)),
       lambda k, l, m, s: k == 3 and second_analog_locus(3, l, m) == 0, cal_w),
    CatalogEntry("JV", "endo", _jv_applies, lambda k, l, m: (lambda A: j_v(A, k)),
                 (3, Fraction(1, 5), Fraction(11, 5))),
    _at_home("JW", (4, Fraction(0), Fraction(5, 4)), j_w),
    _at_home("Jsigma", (3, Fraction(0), Fraction(3)), j_sigma),
    _at_home("GV", (4, Fraction(-2, 3), Fraction(5, 3)), g_v),
    _at_home("Gsigma", (3, Fraction(-2, 3), Fraction(5, 3)), g_v),  # GV with a4 = 0
    _at_home("wilGen", (2, Fraction(-1, 2), Fraction(3, 2)), wil_gen),
    CatalogEntry("sigma", "projection",
                 lambda k, l, m, s: True,
                 lambda k, l, m: lambda A: principal_symbol(A, k),
                 (3, Fraction(1, 3), Fraction(1, 5))),
    CatalogEntry("V", "projection",
                 lambda k, l, m, s: True,
                 lambda k, l, m: lambda A: v_map(A, k),
                 (3, Fraction(1, 3), Fraction(1, 5))),
    CatalogEntry("W", "projection",
                 lambda k, l, m, s: k >= 3 and second_analog_locus(k, l, m) == 0,
                 lambda k, l, m: lambda A: w_map(A, k),
                 (4, Fraction(0), Fraction(5, 4))),
    CatalogEntry("wilmodA", "projection",
                 lambda k, l, m, s: (l, m) == wilmod_weights(k),
                 lambda k, l, m: lambda A: wilmod_projections(A, k)[0],
                 (2, Fraction(-1, 2), Fraction(3, 2))),
    CatalogEntry("wilmodB", "projection",
                 lambda k, l, m, s: (l, m) == wilmod_weights(k),
                 lambda k, l, m: lambda A: wilmod_projections(A, k)[1],
                 (2, Fraction(-1, 2), Fraction(3, 2))),
    CatalogEntry("piDelta", "projection",
                 lambda k, l, m, s: (l, m) == (0, 1),
                 lambda k, l, m: pi_delta,
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
