from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from densym import rings
from densym.errors import RingMismatchError, UnsupportedFunctionalError
from densym.rings import CIRCLE, LINE, PolyFn, TrigFn, circle_mean, to_text

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def polys(draw):
    coeffs = draw(st.lists(rationals, max_size=5))
    return PolyFn(coeffs)


@st.composite
def trigs(draw):
    mean = draw(rationals)
    cos = {n: draw(rationals) for n in draw(st.sets(st.integers(1, 3), max_size=2))}
    sin = {n: draw(rationals) for n in draw(st.sets(st.integers(1, 3), max_size=2))}
    return TrigFn(mean, cos, sin)


elements = st.one_of(polys(), trigs())

X = sympy.Symbol("x")


def sympy_trig(f):
    """A TrigFn as a sympy expression in x."""
    terms = [(f.mean_coeff, sympy.Integer(1))]
    terms += [(c, sympy.cos(n * X)) for n, c in f.cos.items()]
    terms += [(c, sympy.sin(n * X)) for n, c in f.sin.items()]
    return sum(sympy.Rational(c.numerator, c.denominator) * t for c, t in terms)


def test_monomial_product():
    assert PolyFn.monomial(1) * PolyFn.monomial(2) == PolyFn.monomial(3)


def test_cos_times_cos_product_to_sum():
    got = TrigFn.cosine(1) * TrigFn.cosine(1)
    assert got == TrigFn(F(1, 2), {2: F(1, 2)}, {})
    # independent oracle: sympy's own expansion of cos(x)^2
    assert sympy.simplify(sympy_trig(got) - sympy.cos(X) ** 2) == 0


def test_multiplication_by_zero_absorbs():
    f = TrigFn(2, {1: F(3)}, {2: F(-1, 2)})
    assert (f * TrigFn.zero()).is_zero
    assert (PolyFn([1, 2]) * PolyFn.zero()).is_zero


def test_multiplication_by_one_returns_the_function():
    for f in (PolyFn([1, F(2, 3)]), TrigFn(2, {1: F(3)}, {2: F(-1, 2)})):
        assert 1 * f is f and f * F(1) is f


def test_space_mismatch_raises():
    with pytest.raises(RingMismatchError):
        PolyFn.monomial(1) * TrigFn.cosine(1)
    with pytest.raises(RingMismatchError):
        TrigFn.cosine(1) * PolyFn.monomial(1)


def test_diff_examples():
    assert PolyFn.monomial(3).diff() == 3 * PolyFn.monomial(2)
    assert TrigFn.cosine(2).diff() == TrigFn.sine(2, -2)
    assert TrigFn.sine(1).diff(2) == TrigFn.sine(1, -1)


def test_circle_mean_examples():
    assert circle_mean(TrigFn.constant(2) + TrigFn.cosine(1)) == 2
    assert circle_mean(TrigFn.sine(3)) == 0
    with pytest.raises(UnsupportedFunctionalError):
        circle_mean(PolyFn.monomial(1))


def test_product_frequency_adds():
    f = TrigFn.cosine(2) + TrigFn.sine(1)
    g = TrigFn.sine(3)
    assert (f * g).size == 5


def test_zero_polynomial_degree_is_none():
    assert PolyFn.zero().degree is None
    assert (PolyFn([1]) - PolyFn([1])).degree is None
    assert PolyFn([0, 0, 1]).degree == 2


@settings(max_examples=60, deadline=None)
@given(elements, elements, elements)
def test_ring_axioms(f, g, h):
    if not (f.space == g.space == h.space):
        return
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f


@settings(max_examples=60, deadline=None)
@given(elements, elements)
def test_leibniz_rule(f, g):
    if f.space != g.space:
        return
    assert (f * g).diff() == f.diff() * g + f * g.diff()


@settings(max_examples=60, deadline=None)
@given(trigs())
def test_mean_of_derivative_vanishes(f):
    assert circle_mean(f.diff(1)) == 0


def test_text_format_shape():
    assert to_text(PolyFn([F(1, 2), 0, F(-3)])) == "poly: 1/2 + -3*x^2"
    assert to_text(TrigFn(2, {1: F(1, 3)}, {2: F(-1)})) == \
        "trig: 2 | 1:cos=1/3 ; 2:sin=-1"
    assert to_text(TrigFn.zero()) == "trig: 0" and str(PolyFn()) == "poly: 0"


# ----------------------------------------------------------------------
# ring operations build their results without re-validation: every result
# must still be in the canonical form the public constructors produce
# ----------------------------------------------------------------------

scalars = st.one_of(st.integers(-3, 3), rationals)


def assert_canonical(f):
    if isinstance(f, PolyFn):
        assert all(type(c) is F for c in f.coeffs)
        assert not f.coeffs or f.coeffs[-1] != 0
        rebuilt = PolyFn(f.coeffs)
    else:
        assert type(f.mean_coeff) is F
        for terms in (f.cos, f.sin):
            for n, c in terms.items():
                assert type(n) is int and n >= 1
                assert type(c) is F and c != 0
        rebuilt = TrigFn(f.mean_coeff, f.cos, f.sin)
    assert f == rebuilt and hash(f) == hash(rebuilt)


def results(f, g, q):
    """Every ring operation on f, g (same space) and the scalar q."""
    yield f + g
    yield f - g
    yield f - f
    yield f + (g - f)  # g rebuilt after cancelling f
    yield -f
    yield q * f
    yield f * q
    yield f * g
    yield q + f
    yield q - f
    for n in range(4):
        yield f.diff(n)


same_space_pairs = st.one_of(st.tuples(polys(), polys()), st.tuples(trigs(), trigs()))


@settings(max_examples=80, deadline=None)
@given(same_space_pairs, scalars)
def test_operations_return_canonical_form(pair, q):
    f, g = pair
    for h in results(f, g, q):
        assert_canonical(h)


@settings(max_examples=40, deadline=None)
@given(same_space_pairs, scalars)
def test_operations_on_canonical_results_stay_canonical(pair, q):
    f, g = pair
    for h in results(f * g + q, f.diff() - g, q):
        assert_canonical(h)


def test_each_ring_has_one_zero():
    assert rings.zero(LINE) is PolyFn.zero() is PolyFn.zero()
    assert rings.zero(CIRCLE) is TrigFn.zero() is TrigFn.zero()
    assert (PolyFn([1]) - PolyFn([1])) is PolyFn.zero()
    assert TrigFn.constant(3).diff() == TrigFn.zero()


def test_a_constant_hashes_as_its_rational():
    assert PolyFn.constant(3) == 3 and 3 in {PolyFn.constant(3)}
    assert TrigFn.constant(F(-1, 2)) in {F(-1, 2)} and F(-1, 2) in {TrigFn.constant(F(-1, 2))}
    assert hash(PolyFn.zero()) == hash(TrigFn.zero()) == hash(0)


@settings(max_examples=80, deadline=None)
@given(scalars, elements, elements)
def test_equal_objects_hash_equal(q, f, g):
    """Python's rule that f == g implies hash(f) == hash(g), across both
    rings, ints and Fractions: a constant element equals its rational."""
    values = [q, F(q), PolyFn.constant(q), TrigFn.constant(q), f, g, (f - f) + q, f + q - q]
    if f.space == g.space:
        values += [(f + g) - g, f * g, g * f, (g - f) + f]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)


@settings(max_examples=60, deadline=None)
@given(same_space_pairs, scalars)
def test_no_operation_changes_the_shared_zero(pair, q):
    f, g = pair
    zero = rings.zero(f.space)
    for h in (*results(zero, f, q), *results(f, zero, q), *results(zero, zero, q)):
        assert_canonical(h)
    assert zero.is_zero
    if f.space == LINE:
        assert zero.coeffs == ()
    else:
        assert zero.mean_coeff == 0 and zero.cos == {} and zero.sin == {}
    assert zero == (PolyFn() if f.space == LINE else TrigFn())


# ----------------------------------------------------------------------
# the product rules and derivatives against sympy
# ----------------------------------------------------------------------

def sympy_poly(f):
    """A PolyFn as a sympy expression in x."""
    return sum(sympy.Rational(c.numerator, c.denominator) * X ** i
               for i, c in enumerate(f.coeffs))


def sympy_zero(expr):
    """Whether a trig or polynomial expression in x is identically zero:
    written in exp(i n x), it expands to a unique sum."""
    return sympy.expand(sympy.sympify(expr).rewrite(sympy.exp)) == 0


@settings(max_examples=40, deadline=None)
@given(same_space_pairs)
def test_product_and_derivative_match_sympy(pair):
    """Independent oracle for the two product rules and derivatives:
    sympy's own expansion of f * g and (d/dx)^n f for n = 0..5; a
    polynomial here has degree at most 4, so n = 5 is above its degree."""
    f, g = pair
    to_sympy = sympy_poly if f.space == LINE else sympy_trig
    assert sympy_zero(to_sympy(f * g) - to_sympy(f) * to_sympy(g))
    for n in range(6):
        assert sympy_zero(to_sympy(f.diff(n)) - sympy.diff(to_sympy(f), X, n))
    if f.space == LINE:
        assert f.diff(f.size + 1).is_zero and g.diff(5).is_zero
