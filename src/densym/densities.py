"""Differential operators between density spaces, densities among them.

An operator A in D^k_{lam,mu} maps F_lam -> F_mu and is stored by its
ordered coefficient list [a_0, ..., a_k] for A = a_k d^k/dx^k + ... + a_0.
A weight-nu density phi(x)(dx)^nu is the order-0 operator
DensityOperator(0, nu, [phi]) in D^0_{0,nu}, the multiplication F_0 -> F_nu
by phi: the two are the same Diff-module.  Vector fields act on operators by
commutator, exactly; at order 0 that is the Lie derivative of densities,
X phi' + nu X' phi.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from . import rings
from .errors import RingMismatchError, UnsupportedFunctionalError, WeightMismatchError
from .rings import CIRCLE, CoefficientFunction, monomial_product, rat


class VectorField:
    """X = X(x) d/dx, stored by its component X(x)."""

    __slots__ = ("value",)

    def __init__(self, value: CoefficientFunction):
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, v):
        raise AttributeError("VectorField is immutable")

    @property
    def space(self):
        return self.value.space

    def __repr__(self):
        return f"VectorField({self.value!r})"


class DensityOperator:
    """Differential operator in D^k_{lam,mu}: sum_i a_i(x) d^i/dx^i.

    The coefficient list is normalized so it never ends in the zero function
    unless the operator has order 0; the zero operator is order 0 with a zero
    coefficient.
    """

    __slots__ = ("lam", "mu", "coeffs", "space")

    def __init__(self, lam, mu, coeffs, space=None):
        coeffs = list(coeffs)
        sp = space
        if sp is None:
            sp = next(
                (c.space for c in coeffs if isinstance(c, (rings.PolyFn, rings.TrigFn))),
                None,
            )
        if sp is None:
            raise ValueError("cannot infer the space: pass a ring coefficient or space=")
        coeffs = [
            c if isinstance(c, (rings.PolyFn, rings.TrigFn)) else rings.constant(sp, c)
            for c in coeffs
        ] or [rings.zero(sp)]
        if any(c.space != sp for c in coeffs):
            raise RingMismatchError("coefficients live over different spaces")
        while len(coeffs) > 1 and coeffs[-1].is_zero:
            coeffs.pop()
        object.__setattr__(self, "lam", rat(lam))
        object.__setattr__(self, "mu", rat(mu))
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "space", sp)

    def __setattr__(self, name, v):
        raise AttributeError("DensityOperator is immutable")

    @classmethod
    def zero(cls, lam, mu, space):
        return cls(lam, mu, [rings.zero(space)])

    @classmethod
    def de_rham(cls, space):
        """The operator d, an element of D^1_{0,1}."""
        return cls(0, 1, [rings.zero(space), rings.one(space)])

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def delta(self) -> Fraction:
        return self.mu - self.lam

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    def coefficient(self, i: int) -> CoefficientFunction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else rings.zero(self.space)

    def _check_same_module(self, other):
        if (self.lam, self.mu) != (other.lam, other.mu):
            raise WeightMismatchError("operators live in different modules")
        if self.space != other.space:
            raise RingMismatchError("operators live over different spaces")

    def __add__(self, other):
        self._check_same_module(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return DensityOperator(
            self.lam, self.mu,
            [self.coefficient(i) + other.coefficient(i) for i in range(n)],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DensityOperator(self.lam, self.mu, [-c for c in self.coeffs])

    def __mul__(self, scalar):
        q = rat(scalar)
        return DensityOperator(self.lam, self.mu, [c * q for c in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, DensityOperator)
            and (self.lam, self.mu) == (other.lam, other.mu)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.lam, self.mu, self.coeffs))

    def __repr__(self):
        return (
            f"DensityOperator(lam={self.lam}, mu={self.mu}, "
            f"coeffs={[str(c) for c in self.coeffs]})"
        )


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def density_value(phi: DensityOperator) -> CoefficientFunction:
    """phi of a density phi(dx)^nu in D^0_{0,nu}; rejects every other operator."""
    if phi.lam != 0 or phi.order != 0:
        raise WeightMismatchError(
            f"expected a density, an order-0 operator from weight 0; got {phi!r}"
        )
    return phi.coeffs[0]


def apply(A: DensityOperator, phi: DensityOperator) -> DensityOperator:
    """A(phi) = (sum_i a_i phi^(i))(dx)^mu for a density phi of weight lam."""
    der = density_value(phi)
    if phi.mu != A.lam:
        raise WeightMismatchError(
            f"operator expects weight {A.lam}, density has weight {phi.mu}"
        )
    if phi.space != A.space:
        raise RingMismatchError("operator and density live over different spaces")
    out = rings.zero(A.space)
    for i, a in enumerate(A.coeffs):
        if i > 0:
            der = der.diff()
        if not a.is_zero:
            out = out + a * der
    return DensityOperator(0, A.mu, [out])


def compose(A: DensityOperator, B: DensityOperator) -> DensityOperator:
    """A o B via the Leibniz expansion of d^i o b."""
    if B.mu != A.lam:
        raise WeightMismatchError(
            f"cannot compose: inner operator lands in weight {B.mu}, "
            f"outer expects {A.lam}"
        )
    if A.space != B.space:
        raise RingMismatchError("operators live over different spaces")
    out = [rings.zero(A.space) for _ in range(A.order + B.order + 1)]
    for i, a in enumerate(A.coeffs):
        if a.is_zero:
            continue
        for j, b in enumerate(B.coeffs):
            if b.is_zero:
                continue
            # d^i o (b d^j) = sum_t C(i,t) b^(t) d^(i-t+j)
            der = b
            for t in range(i + 1):
                if t > 0:
                    der = der.diff()
                out[i - t + j] = out[i - t + j] + (a * der) * comb(i, t)
    return DensityOperator(B.lam, A.mu, out)


def lie_terms(i: int, lam, mu):
    """The closed form of the commutator action on one coefficient: the
    terms (m, p, q, c) of L_X(a d^i) = sum c X^(p) a^(q) d^m in D_{lam,mu}.

    With C(i,-1) = 0 they are X a' and (mu-lam-i) X' a at order i, and
    -(C(i,m-1) + lam C(i,m)) X^(i-m+1) a at each order m < i: the Leibniz
    expansion of both products after their t = 0 terms X a d^(i+1) cancel.
    Terms whose scalar vanishes are left out.  lie_derivative_operator,
    formal_defect, formal_rows and the density windows' L_X all read it.
    """
    terms = [(i, 0, 1, 1)]
    if c := mu - lam - i:
        terms.append((i, 1, 0, c))
    for m in range(i):
        if c := (comb(i, m - 1) if m else 0) + lam * comb(i, m):
            terms.append((m, i - m + 1, 0, -c))
    return terms


def lie_derivative_operator(X: VectorField, A: DensityOperator) -> DensityOperator:
    """Commutator action L^mu_X o A - A o L^lam_X, with L^w_X = X d + w X'.
    On a density phi in D^0_{0,nu} it is the Lie derivative X phi' + nu X' phi.

    Each coefficient a_i contributes the terms of lie_terms(i, lam, mu), the
    closed form of the action.
    """
    if X.space != A.space:
        raise RingMismatchError("field and operator live over different spaces")
    ders = [X.value.diff(t) for t in range(A.order + 2)]
    out = [rings.zero(A.space)] * len(A.coeffs)
    for i, a in enumerate(A.coeffs):
        if a.is_zero:
            continue
        jet = (a, a.diff())
        for m, p, q, c in lie_terms(i, A.lam, A.mu):
            out[m] = out[m] + c * (ders[p] * jet[q])
    return DensityOperator(A.lam, A.mu, out)


def pairing(phi: DensityOperator, psi: DensityOperator) -> Fraction:
    """Invariant pairing of the densities F_lam and F_{1-lam}: the mean of
    the product, so only on the circle.  As mean(m_a m_b) = 0 for a != b, it
    is sum f_a g_a mean(m_a m_a), read off monomial_product with no product."""
    f, g = density_value(phi), density_value(psi)
    if phi.mu + psi.mu != 1:
        raise WeightMismatchError("pairing needs weights summing to 1")
    if {f.space, g.space} != {CIRCLE}:
        raise UnsupportedFunctionalError("the mean functional needs circle elements")
    return sum((c * g.terms[a] * Fraction(w, 2) for a, c in f.terms.items() if a in g.terms
                for s, w in monomial_product(CIRCLE, a, a) if s == 0), Fraction(0))
