"""Densities and differential operators between density spaces.

A weight-lam density is phi(x)(dx)^lam.  An operator A in D^k_{lam,mu} maps
F_lam -> F_mu and is stored by its ordered coefficient list [a_0, ..., a_k]
for A = a_k d^k/dx^k + ... + a_0.  Vector fields act by Lie derivative on
densities and by commutator on operators; both actions are exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

from . import rings
from .errors import RingMismatchError, WeightMismatchError
from .rings import CoefficientFunction, rat


class Density:
    """phi(x)(dx)^weight over one of the two base geometries."""

    __slots__ = ("weight", "value")

    def __init__(self, weight, value: CoefficientFunction):
        object.__setattr__(self, "weight", rat(weight))
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, v):
        raise AttributeError("Density is immutable")

    @property
    def space(self):
        return self.value.space

    def __add__(self, other):
        if self.weight != other.weight:
            raise WeightMismatchError("cannot add densities of different weights")
        return Density(self.weight, self.value + other.value)

    def __sub__(self, other):
        if self.weight != other.weight:
            raise WeightMismatchError("cannot subtract densities of different weights")
        return Density(self.weight, self.value - other.value)

    def __mul__(self, scalar):
        return Density(self.weight, self.value * rat(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Density(self.weight, -self.value)

    @property
    def is_zero(self):
        return self.value.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, Density)
            and self.weight == other.weight
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.weight, self.value))

    def __repr__(self):
        return f"Density({self.weight}, {self.value!r})"


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
    def identity(cls, lam, space):
        return cls(lam, lam, [rings.one(space)])

    @classmethod
    def de_rham(cls, space):
        """The operator d, an element of D^1_{0,1}."""
        return cls(0, 1, [rings.zero(space), rings.one(space)])

    @classmethod
    def multiplication(cls, lam, mu, fn: CoefficientFunction):
        """Multiplication by the (mu-lam)-density fn, as an order-0 operator."""
        return cls(lam, mu, [fn])

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

def apply(A: DensityOperator, phi: Density) -> Density:
    """A(phi) = (sum_i a_i phi^(i))(dx)^mu."""
    if phi.weight != A.lam:
        raise WeightMismatchError(
            f"operator expects weight {A.lam}, density has weight {phi.weight}"
        )
    if phi.space != A.space:
        raise RingMismatchError("operator and density live over different spaces")
    out = rings.zero(A.space)
    der = phi.value
    for i, a in enumerate(A.coeffs):
        if i > 0:
            der = der.diff()
        if not a.is_zero:
            out = out + a * der
    return Density(A.mu, out)


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


def lie_derivative_density(X: VectorField, phi: Density) -> Density:
    """L_X(phi) = (X phi' + weight X' phi)(dx)^weight."""
    if X.space != phi.space:
        raise RingMismatchError("field and density live over different spaces")
    val = X.value * phi.value.diff() + phi.weight * (X.value.diff() * phi.value)
    return Density(phi.weight, val)


def lie_derivative_operator(X: VectorField, A: DensityOperator) -> DensityOperator:
    """Commutator action L^mu_X o A - A o L^lam_X, with L^w_X = X d + w X'.

    Closed form (C(i,-1) = 0): (L_X A)_m = X a_m' + (mu-lam-m) X' a_m
    - sum_{i>m} (C(i,m-1) + lam C(i,m)) X^(i-m+1) a_i, the Leibniz expansion
    of both products after their t = 0 terms X a_i d^(i+1) cancel.
    """
    if X.space != A.space:
        raise RingMismatchError("field and operator live over different spaces")
    ders = [X.value.diff(t) for t in range(A.order + 2)]
    out = [rings.zero(A.space)] * len(A.coeffs)
    for i, a in enumerate(A.coeffs):
        if a.is_zero:
            continue
        out[i] = out[i] + ders[0] * a.diff() + (A.delta - i) * (ders[1] * a)
        for m in range(i):
            if c := (comb(i, m - 1) if m else 0) + A.lam * comb(i, m):
                out[m] = out[m] - c * (ders[i - m + 1] * a)
    return DensityOperator(A.lam, A.mu, out)


def pairing(phi: Density, psi: Density) -> Fraction:
    """Invariant pairing of F_lam with F_{1-lam}: mean of the product."""
    if phi.space != rings.CIRCLE or psi.space != rings.CIRCLE:
        raise WeightMismatchError("the pairing is only defined on the circle")
    if phi.weight + psi.weight != 1:
        raise WeightMismatchError("pairing needs weights summing to 1")
    return rings.circle_mean(phi.value * psi.value)
