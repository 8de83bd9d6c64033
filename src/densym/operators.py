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
from .densities import Density, DensityOperator, apply, compose
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


def v_formula(k: int, lam, mu):
    """The first-order analog of the symbol on D^k_{lam,mu}:
    A -> alpha a_k' + beta a_{k-1}, coefficients computed once."""
    lam, mu = rat(lam), rat(mu)
    alpha = lam * k + Fraction(k * (k - 1), 2)
    beta = mu - lam - k
    nu = beta + 1

    def apply(A: DensityOperator) -> Density:
        if A.order > k:
            raise WeightMismatchError(f"operator order {A.order} exceeds k = {k}")
        return Density(nu, alpha * A.coefficient(k).diff() + beta * A.coefficient(k - 1))

    return apply


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
        """J(phi, psi): the operator sum_j c_j d^j, built from phi, applied to psi."""
        if phi.weight != self.nu:
            raise WeightMismatchError(
                f"bilinear operator {self.kind!r} expects left weight "
                f"{self.nu}, got {phi.weight}"
            )
        A = DensityOperator(self.lam, self.out_weight, self.coefficient_list(phi.value))
        return apply(A, psi)


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


def _symbol(k, lam, mu):
    return lambda A: principal_symbol(A, k)


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
    """A printed generator: A -> J(scale pi(A), .) on D^k_{lam,mu}, where pi
    is projection(k, lam, mu) and J the bilinear operator of the given kind
    (a name, or a function of (k, lam, mu)) at the weights the chain forces.
    Without `applies` it exists only at its home."""

    def make(k, lam, mu):
        lam, mu = rat(lam), rat(mu)
        J_kind = kind(k, lam, mu) if callable(kind) else kind
        J = BilinearOp(J_kind, mu - lam - BILINEAR_ORDERS[J_kind], lam)
        pi = projection(k, lam, mu)
        if scale != 1:
            pi = lambda A, _pi=pi: scale * _pi(A)
        return symmetry_from_projection(J, pi, lam, mu)

    if applies is None:
        applies = lambda k, l, m, s: (k, l, m) == home
    return CatalogEntry(name, "endo", applies, make, home)


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
    _printed("Jsigma", (3, Fraction(0), Fraction(3)), "dd_inner", _symbol),
    _printed("GV", (4, Fraction(-2, 3), Fraction(5, 3)), "grozman", v_formula,
             Fraction(-3, 10)),
    _printed("Gsigma", (3, Fraction(-2, 3), Fraction(5, 3)), "grozman", _symbol,
             Fraction(1, 2)),
    _printed("wilGen", (2, Fraction(-1, 2), Fraction(3, 2)), "d_left", _symbol),
    CatalogEntry("sigma", "projection",
                 lambda k, l, m, s: True,
                 _symbol,
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
                 lambda k, l, m: lambda A: wilmod_projections(A, k)[0],
                 (2, Fraction(-1, 2), Fraction(3, 2))),
    CatalogEntry("wilmodB", "projection",
                 lambda k, l, m, s: k >= 1 and (l, m) == wilmod_weights(k),
                 lambda k, l, m: lambda A: wilmod_projections(A, k)[1],
                 (2, Fraction(-1, 2), Fraction(3, 2))),
    CatalogEntry("piDelta", "projection",
                 lambda k, l, m, s: k >= 1 and (l, m) == (0, 1),
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
