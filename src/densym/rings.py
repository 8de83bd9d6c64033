"""Exact coefficient rings on the two base geometries.

Two computable dense subrings of the smooth functions are used everywhere:
rational polynomials in x on the line, and finite trigonometric polynomials
with rational coefficients on the circle.  All arithmetic is exact; nothing
here ever truncates or rounds.
"""
from __future__ import annotations

from fractions import Fraction

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


class PolyFn:
    """Polynomial in x with Fraction coefficients, index = monomial degree.

    Trailing zero coefficients are stripped; the zero polynomial has an empty
    coefficient tuple and degree None.
    """

    __slots__ = ("coeffs",)
    space = LINE

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PolyFn is immutable")

    @classmethod
    def zero(cls) -> "PolyFn":
        return _POLY_ZERO

    @classmethod
    def constant(cls, c) -> "PolyFn":
        return cls((rat(c),))

    @classmethod
    def monomial(cls, degree: int, c=1) -> "PolyFn":
        return cls((Fraction(0),) * degree + (rat(c),))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, degree: int) -> Fraction:
        return self.coeffs[degree] if 0 <= degree < len(self.coeffs) else _ZERO

    def __add__(self, other):
        other = _coerce(other, self)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        if len(a) == len(b):  # only equal degrees can cancel the top
            while cs and not cs[-1]:
                cs.pop()
        return _poly(tuple(cs))

    __radd__ = __add__

    def __neg__(self):
        return _poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce(other, self))

    def __rsub__(self, other):
        return _coerce(other, self) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return _POLY_ZERO
            if other == 1:
                return self
            q = rat(other)
            return _poly(tuple(q * c for c in self.coeffs))
        other = _coerce(other, self)
        if self.is_zero or other.is_zero:
            return _POLY_ZERO
        # the top coefficient is a product of nonzero rationals: no stripping
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return _poly(tuple(out))

    __rmul__ = __mul__

    def diff(self, n: int = 1) -> "PolyFn":
        cur = self.coeffs
        for _ in range(n):
            cur = tuple(cur[i] * i for i in range(1, len(cur)))
        return _poly(cur)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PolyFn.constant(other)
        return isinstance(other, PolyFn) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("poly", self.coeffs))

    def __repr__(self):
        return f"PolyFn({list(self.coeffs)})"

    def __str__(self):
        return to_text(self)


class TrigFn:
    """Finite trigonometric polynomial: mean + sum of cos(nx), sin(nx) terms.

    Zero entries are pruned from the frequency maps.  Products are re-expanded
    through the product-to-sum identities, so the ring is closed.
    """

    __slots__ = ("mean_coeff", "cos", "sin")
    space = CIRCLE

    def __init__(self, mean=0, cos=None, sin=None):
        object.__setattr__(self, "mean_coeff", rat(mean))
        object.__setattr__(
            self, "cos", {n: rat(c) for n, c in (cos or {}).items() if rat(c) != 0}
        )
        object.__setattr__(
            self, "sin", {n: rat(c) for n, c in (sin or {}).items() if rat(c) != 0}
        )
        if any(n < 1 for n in self.cos) or any(n < 1 for n in self.sin):
            raise ValueError("harmonic frequencies must be >= 1")

    def __setattr__(self, name, value):
        raise AttributeError("TrigFn is immutable")

    @classmethod
    def zero(cls) -> "TrigFn":
        return _TRIG_ZERO

    @classmethod
    def constant(cls, c) -> "TrigFn":
        return cls(mean=c)

    @classmethod
    def cosine(cls, n: int, c=1) -> "TrigFn":
        return cls(cos={n: c})

    @classmethod
    def sine(cls, n: int, c=1) -> "TrigFn":
        return cls(sin={n: c})

    @property
    def is_zero(self) -> bool:
        return not self.mean_coeff and not self.cos and not self.sin

    @property
    def max_frequency(self) -> int:
        return max([0, *self.cos.keys(), *self.sin.keys()])

    def __add__(self, other):
        other = _coerce(other, self)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return _trig(self.mean_coeff + other.mean_coeff,
                     _add_terms(self.cos, other.cos),
                     _add_terms(self.sin, other.sin))

    __radd__ = __add__

    def __neg__(self):
        return _trig(
            -self.mean_coeff,
            {n: -c for n, c in self.cos.items()},
            {n: -c for n, c in self.sin.items()},
        )

    def __sub__(self, other):
        return self + (-_coerce(other, self))

    def __rsub__(self, other):
        return _coerce(other, self) - self

    def _terms(self):
        # (kind, freq, coeff) with kind 'c' or 's'; the mean is ('c', 0, m)
        if self.mean_coeff:
            yield ("c", 0, self.mean_coeff)
        for n, c in self.cos.items():
            yield ("c", n, c)
        for n, c in self.sin.items():
            yield ("s", n, c)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return _TRIG_ZERO
            if other == 1:
                return self
            q = rat(other)
            return _trig(
                q * self.mean_coeff,
                {n: q * c for n, c in self.cos.items()},
                {n: q * c for n, c in self.sin.items()},
            )
        other = _coerce(other, self)
        acc = _TrigAcc()
        right = list(other._terms())
        for k1, n1, c1 in self._terms():
            for k2, n2, c2 in right:
                c = c1 * c2 * _HALF
                # product-to-sum: indices n1+n2 and n1-n2
                if k1 == "c" and k2 == "c":
                    acc.add_cos(n1 - n2, c)
                    acc.add_cos(n1 + n2, c)
                elif k1 == "s" and k2 == "s":
                    acc.add_cos(n1 - n2, c)
                    acc.add_cos(n1 + n2, -c)
                elif k1 == "s" and k2 == "c":
                    acc.add_sin(n1 + n2, c)
                    acc.add_sin(n1 - n2, c)
                else:  # cos * sin
                    acc.add_sin(n1 + n2, c)
                    acc.add_sin(n2 - n1, c)
        return acc.build()

    __rmul__ = __mul__

    def diff(self, n: int = 1) -> "TrigFn":
        cur = self
        for _ in range(n):
            cos = {m: m * c for m, c in cur.sin.items()}
            sin = {m: -m * c for m, c in cur.cos.items()}
            cur = _trig(_ZERO, cos, sin)
        return cur

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TrigFn.constant(other)
        return (
            isinstance(other, TrigFn)
            and self.mean_coeff == other.mean_coeff
            and self.cos == other.cos
            and self.sin == other.sin
        )

    def __hash__(self):
        return hash(
            ("trig", self.mean_coeff, tuple(sorted(self.cos.items())),
             tuple(sorted(self.sin.items())))
        )

    def __repr__(self):
        return f"TrigFn({self.mean_coeff!r}, {self.cos!r}, {self.sin!r})"

    def __str__(self):
        return to_text(self)


class _TrigAcc:
    """Accumulator normalizing signed frequencies during products."""

    def __init__(self):
        self.mean = _ZERO
        self.cos = {}
        self.sin = {}

    def add_cos(self, n, c):
        n = abs(n)
        if n == 0:
            self.mean += c
        else:
            self.cos[n] = self.cos.get(n, _ZERO) + c

    def add_sin(self, n, c):
        if n == 0:
            return
        if n < 0:
            n, c = -n, -c
        self.sin[n] = self.sin.get(n, _ZERO) + c

    def build(self):
        return _trig(
            self.mean,
            {n: c for n, c in self.cos.items() if c},
            {n: c for n, c in self.sin.items() if c},
        )


# ----------------------------------------------------------------------
# trusted constructors: data the ring itself produced is already canonical
# (Fraction values, no zero harmonic, no trailing zero, frequencies >= 1),
# so it skips the coercion and validation of the public constructors
# ----------------------------------------------------------------------

def _poly(coeffs: tuple) -> PolyFn:
    if not coeffs:
        return _POLY_ZERO
    f = object.__new__(PolyFn)
    object.__setattr__(f, "coeffs", coeffs)
    return f


def _trig(mean: Fraction, cos: dict, sin: dict) -> TrigFn:
    f = object.__new__(TrigFn)
    object.__setattr__(f, "mean_coeff", mean)
    object.__setattr__(f, "cos", cos)
    object.__setattr__(f, "sin", sin)
    return f


def _add_terms(a: dict, b: dict) -> dict:
    """Termwise sum of two harmonic maps, pruning the entries that cancel."""
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for n, c in b.items():
        if n in out:
            c += out[n]
            if not c:
                del out[n]
                continue
        out[n] = c
    return out


# one shared zero per ring; nothing mutates a ring element in place
_POLY_ZERO = object.__new__(PolyFn)
object.__setattr__(_POLY_ZERO, "coeffs", ())
_TRIG_ZERO = _trig(_ZERO, {}, {})


CoefficientFunction = PolyFn | TrigFn


def _coerce(value, like):
    if isinstance(value, (int, Fraction)):
        return type(like).constant(value)
    if not isinstance(value, (PolyFn, TrigFn)):
        raise TypeError(f"cannot use {value!r} as a ring element")
    if value.space != like.space:
        raise RingMismatchError(
            f"cannot combine a {value.space} element with a {like.space} element"
        )
    return value


def zero(space: str) -> CoefficientFunction:
    return _POLY_ZERO if space == LINE else _TRIG_ZERO


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
        if f.is_zero:
            return "poly: 0"
        parts = []
        for i, c in enumerate(f.coeffs):
            if c == 0:
                continue
            parts.append(format_rat(c) if i == 0 else f"{format_rat(c)}*x^{i}")
        return "poly: " + " + ".join(parts)
    if isinstance(f, TrigFn):
        head = format_rat(f.mean_coeff)
        freqs = sorted(set(f.cos) | set(f.sin))
        chunks = []
        for n in freqs:
            fields = []
            if n in f.cos:
                fields.append(f"cos={format_rat(f.cos[n])}")
            if n in f.sin:
                fields.append(f"sin={format_rat(f.sin[n])}")
            chunks.append(f"{n}:" + ",".join(fields))
        return f"trig: {head}" + (" | " + " ; ".join(chunks) if chunks else "")
    raise TypeError(f"not a ring element: {f!r}")
