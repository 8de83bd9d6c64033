"""Exact coefficient rings on the two base geometries.

Two computable dense subrings of the smooth functions are used everywhere:
rational polynomials in x on the line, and finite trigonometric polynomials
with rational coefficients on the circle.  All arithmetic is exact; nothing
here ever truncates or rounds.

An element of either ring is one sparse map {index: c} of Fractions with no
zero entry: a polynomial keyed by degree, a trigonometric polynomial by the
signed index of its basis e_0 = 1, e_n = cos nx, e_-n = sin nx (n >= 1).
The two rings differ only in their rules on these monomials,
monomial_product and monomial_derivative, the one statement of each.
"""
from __future__ import annotations

from fractions import Fraction
from math import perm

from .errors import RingMismatchError, UnsupportedFunctionalError

LINE = "line"
CIRCLE = "circle"

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def rat(value) -> Fraction:
    """Coerce ints and Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def monomial_derivative(space: str, i: int, q: int):
    """m_i^(q) as (signed index, int c), one monomial times c (c = 0 when it
    vanishes): (x^i)^(q) = perm(i, q) x^(i-q) on the line, and on the circle
    m_i' = -i m_-i, so m_i^(q) = (-1)^ceil(q/2) i^q m_((-1)^q i)."""
    if space == LINE:
        return i - q, perm(i, q)
    return (-i if q % 2 else i), (-1) ** ((q + 1) // 2) * i ** q


def monomial_product(space: str, a: int, b: int):
    """m_a m_b as (signed index, int c) terms: x^(a+b) on the line; on the
    circle twice the product, by the product-to-sum identities, so at most
    two terms with c = +-1."""
    if space == LINE:
        return [(a + b, 1)]
    if a >= 0 and b >= 0:  # 2 cos a cos b = cos(a-b) + cos(a+b)
        return [(abs(a - b), 1), (a + b, 1)]
    if a < 0 and b < 0:  # 2 sin u sin v = cos(u-v) - cos(u+v)
        return [(abs(a - b), 1), (-a - b, -1)]
    u, v = (-a, b) if a < 0 else (-b, a)  # 2 sin u cos v = sin(u+v) + sin(u-v)
    return [(-u - v, 1)] + ([(-abs(u - v), 1 if u > v else -1)] if u != v else [])


class _SparseFn:
    """A ring element as the map `terms` = {index: c}: Fraction values, no
    zero entry, index 0 the constant term.  Elements are immutable, so each
    ring keeps one shared zero, the element with no terms."""

    __slots__ = ("terms",)

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._zero = object.__new__(cls)
        object.__setattr__(cls._zero, "terms", {})

    @classmethod
    def _of(cls, terms: dict):
        """Trusted constructor: terms the ring itself produced are already
        canonical, so they skip the coercion and validation of the public
        constructors."""
        if not terms:
            return cls._zero
        f = object.__new__(cls)
        object.__setattr__(f, "terms", terms)
        return f

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls._zero

    @classmethod
    def constant(cls, c):
        return cls.monomial(0, c)

    @classmethod
    def monomial(cls, index: int, c=1):
        """c times the monomial with the given index: x^index on the line,
        the basis function e_index on the circle."""
        q = rat(c)
        return cls._of({index: q} if q else {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def size(self) -> int:
        """The largest |index|: the degree on the line, the top frequency on
        the circle; 0 for constants and zero."""
        return max(map(abs, self.terms), default=0)

    def _scale(self, q):
        """q * self for an int or Fraction q."""
        if not q:
            return self._zero
        if q == 1:
            return self
        q = rat(q)
        return self._of({i: q * c for i, c in self.terms.items()})

    def __add__(self, other):
        other = _coerce(other, self)
        a, b = self.terms, other.terms
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for i, c in b.items():
            if i in out:
                c += out[i]
                if not c:
                    del out[i]
                    continue
            out[i] = c
        return self._of(out)

    __radd__ = __add__

    def __neg__(self):
        return self._of({i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other, self))

    def __rsub__(self, other):
        return _coerce(other, self) - self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.constant(other)
        # a constant is its rational in either ring, so equal constants of
        # the two rings are equal, as each is to that rational
        return (isinstance(other, _SparseFn) and self.terms == other.terms
                and (type(other) is type(self) or self.terms.keys() <= {0}))

    def __hash__(self):
        # a constant equals its rational, so it hashes as that rational
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, _ZERO))
        return hash((self.space, frozenset(self.terms.items())))

    def _product(self, other):
        """self * other through monomial_product: each ring's __mul__."""
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        other = _coerce(other, self)
        space, out = self.space, {}
        for a, c in self.terms.items():
            for b, d in other.terms.items():
                cd = c * d
                for i, w in monomial_product(space, a, b):
                    v = cd if w > 0 else -cd
                    out[i] = out[i] + v if i in out else v
        halve = space == CIRCLE  # the circle rule gives twice each product
        return self._of({i: c * _HALF if halve else c for i, c in out.items() if c})

    def _derivative(self, n: int = 1):
        """Each ring's diff(n), through monomial_derivative, which sends
        distinct monomials to distinct ones."""
        return self._of({j: c * v for i, c in self.terms.items()
                         for j, v in [monomial_derivative(self.space, i, n)] if v})

    def __str__(self):
        return to_text(self)


class PolyFn(_SparseFn):
    """Polynomial in x with Fraction coefficients, keyed by monomial degree.

    The zero polynomial has an empty coefficient tuple and degree None.
    """

    __slots__ = ()
    space = LINE

    def __init__(self, coeffs=()):
        object.__setattr__(self, "terms",
                           {t: c for t, c in enumerate(map(rat, coeffs)) if c})

    @property
    def coeffs(self) -> tuple:
        """The dense coefficients c_0, ..., c_degree."""
        return tuple(self.terms.get(t, _ZERO) for t in range(max(self.terms, default=-1) + 1))

    @property
    def degree(self):
        return max(self.terms, default=None)

    # own entries of each ring: perfbench/tracing.py replaces them in the class __dict__
    __mul__ = __rmul__ = _SparseFn._product
    diff = _SparseFn._derivative

    def __repr__(self):
        return f"PolyFn({list(self.coeffs)})"


class TrigFn(_SparseFn):
    """Finite trigonometric polynomial: mean + sum of cos(nx), sin(nx) terms,
    keyed 0 for the mean, n for cos nx and -n for sin nx.

    Products are re-expanded through the product-to-sum identities
    (monomial_product), so the ring is closed.
    """

    __slots__ = ()
    space = CIRCLE

    def __init__(self, mean=0, cos=None, sin=None):
        terms = {0: rat(mean)}
        for sign, harmonics in ((1, cos), (-1, sin)):
            for n, c in (harmonics or {}).items():
                c = rat(c)
                if c:
                    if n < 1:
                        raise ValueError("harmonic frequencies must be >= 1")
                    terms[sign * n] = c
        object.__setattr__(self, "terms", {i: c for i, c in terms.items() if c})

    @classmethod
    def cosine(cls, n: int, c=1) -> "TrigFn":
        return cls(cos={n: c})

    @classmethod
    def sine(cls, n: int, c=1) -> "TrigFn":
        return cls(sin={n: c})

    @property
    def mean_coeff(self) -> Fraction:
        return self.terms.get(0, _ZERO)

    @property
    def cos(self) -> dict:
        return {i: c for i, c in sorted(self.terms.items()) if i > 0}

    @property
    def sin(self) -> dict:
        return {-i: c for i, c in sorted(self.terms.items(), reverse=True) if i < 0}

    __mul__ = __rmul__ = _SparseFn._product
    diff = _SparseFn._derivative

    def __repr__(self):
        return f"TrigFn({self.mean_coeff!r}, {self.cos!r}, {self.sin!r})"


CoefficientFunction = PolyFn | TrigFn


def _coerce(value, like):
    if isinstance(value, (int, Fraction)):
        return like.constant(value)
    if not isinstance(value, _SparseFn):
        raise TypeError(f"cannot use {value!r} as a ring element")
    if value.space != like.space:
        raise RingMismatchError(
            f"cannot combine a {value.space} element with a {like.space} element"
        )
    return value


def zero(space: str) -> CoefficientFunction:
    return PolyFn.zero() if space == LINE else TrigFn.zero()


def one(space: str) -> CoefficientFunction:
    return constant(space, 1)


def constant(space: str, c) -> CoefficientFunction:
    if space == LINE:
        return PolyFn.constant(c)
    if space == CIRCLE:
        return TrigFn.constant(c)
    raise ValueError(f"unknown space {space!r}")


def circle_mean(f: CoefficientFunction) -> Fraction:
    """The mean over one period (the raw integral divided by 2*pi); only
    defined on the circle."""
    if f.space != CIRCLE:
        raise UnsupportedFunctionalError("the mean functional needs a circle element")
    return f.mean_coeff


# ----------------------------------------------------------------------
# text form: `poly: c0 + c1*x + ...` / `trig: m | n:cos=c,sin=s ; ...`
# ----------------------------------------------------------------------

def to_text(f: CoefficientFunction) -> str:
    if isinstance(f, PolyFn):
        parts = [format_rat(c) if t == 0 else f"{format_rat(c)}*x^{t}"
                 for t, c in sorted(f.terms.items())]
        return "poly: " + (" + ".join(parts) or "0")
    if isinstance(f, TrigFn):
        chunks = {}  # frequency -> its cos and sin fields, cos first
        for i, c in sorted(f.terms.items(), key=lambda e: (abs(e[0]), e[0] < 0)):
            if i:
                chunks.setdefault(abs(i), []).append(
                    f"{'cos' if i > 0 else 'sin'}={format_rat(c)}")
        tail = " ; ".join(f"{n}:" + ",".join(fields) for n, fields in chunks.items())
        return f"trig: {format_rat(f.mean_coeff)}" + (" | " + tail if tail else "")
    raise TypeError(f"not a ring element: {f!r}")
