import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from densym.densities import (
    DensityOperator, VectorField, apply, compose, lie_derivative_operator, pairing,
)
from densym.errors import UnsupportedFunctionalError, WeightMismatchError
from densym.operators import p0
from densym.rings import PolyFn, TrigFn, circle_mean
from densym.truncation import generator_family
from oracle import brute_force_fields
from reference import density, lie_derivative_density

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def poly_op(lam, mu, *coeff_lists):
    return DensityOperator(lam, mu, [PolyFn(c) for c in coeff_lists])


@st.composite
def small_poly_ops(draw, lam=None, mu=None):
    lam = lam if lam is not None else draw(rationals)
    mu = mu if mu is not None else draw(rationals)
    k = draw(st.integers(0, 2))
    coeffs = [PolyFn(draw(st.lists(rationals, max_size=3))) for _ in range(k + 1)]
    return DensityOperator(lam, mu, coeffs, space="line")


def sympy_poly(f):
    x = sympy.Symbol("x")
    return sum(sympy.Rational(c) * x ** i for i, c in enumerate(f.coeffs))


def test_apply_first_derivative():
    A = poly_op(0, F(1, 2), [0], [1])  # d/dx
    out = apply(A, density(0, PolyFn.monomial(2)))
    assert out == density(F(1, 2), 2 * PolyFn.monomial(1))


def test_apply_multiplication_operator():
    a = TrigFn.cosine(1)
    A = DensityOperator(F(1, 3), F(5, 3), [a])
    phi = density(F(1, 3), TrigFn.sine(2))
    assert apply(A, phi) == density(F(5, 3), a * TrigFn.sine(2))


def test_apply_spec_example_against_sympy():
    # x d^2/dx^2 + 1 applied to sin x equals -x sin x + sin x
    x = sympy.Symbol("x")
    phi = sympy.sin(x)
    assert sympy.simplify(x * phi.diff(x, 2) + phi - (-x * sympy.sin(x) + sympy.sin(x))) == 0
    # same operator on ring elements, cross-checked against sympy
    A = poly_op(0, 1, [1], [0], [0, 1])  # x d^2 + 1
    for fn in (PolyFn.monomial(3), PolyFn([2, 0, 1])):
        got = apply(A, density(0, fn)).coeffs[0]
        expected = sympy.expand(x * sympy_poly(fn).diff(x, 2) + sympy_poly(fn))
        assert sympy.expand(sympy_poly(got) - expected) == 0


def test_apply_weight_mismatch():
    A = poly_op(0, 1, [1])
    with pytest.raises(WeightMismatchError):
        apply(A, density(F(1, 2), PolyFn.monomial(1)))


def test_apply_rejects_a_non_density():
    # a density is an order-0 operator from weight 0; A's source weight is 0
    A = poly_op(0, 1, [1], [2])
    for phi in (poly_op(0, 0, [0, 1], [1]), poly_op(F(1, 2), 0, [1])):
        with pytest.raises(WeightMismatchError, match="expected a density"):
            apply(A, phi)


def test_compose_leibniz_example():
    d = DensityOperator(F(1), F(1), [PolyFn.zero(), PolyFn([1])])
    mult_x = DensityOperator(F(1), F(1), [PolyFn.monomial(1)])
    assert compose(d, mult_x) == DensityOperator(
        F(1), F(1), [PolyFn([1]), PolyFn.monomial(1)])


def test_compose_identity_and_powers():
    A = poly_op(F(1, 2), F(3, 2), [1, 2], [0, 0, 1])
    assert compose(A, DensityOperator(F(1, 2), F(1, 2), [1], space="line")) == A
    d1 = poly_op(0, 0, [0], [1])
    assert compose(d1, d1) == poly_op(0, 0, [0], [0], [1])


def test_compose_weight_mismatch():
    A = poly_op(0, 1, [1])
    B = poly_op(0, F(1, 2), [1])
    with pytest.raises(WeightMismatchError):
        compose(A, B)


def test_lie_derivative_density_examples():
    lie = lie_derivative_operator  # a density is an order-0 operator
    const_field = VectorField(PolyFn([1]))
    assert lie(const_field, density(F(2), PolyFn([5]))).is_zero
    euler = VectorField(PolyFn.monomial(1))
    for lam in (F(0), F(1, 2), F(-2, 3)):
        out = lie(euler, density(lam, PolyFn.monomial(1)))
        assert out == density(lam, (1 + lam) * PolyFn.monomial(1))
    quad = VectorField(PolyFn.monomial(2))
    for lam in (F(1, 3), F(2)):
        out = lie(quad, density(lam, PolyFn([1])))
        assert out == density(lam, 2 * lam * PolyFn.monomial(1))


def test_lie_derivative_operator_examples():
    for X in (VectorField(PolyFn.monomial(2)), VectorField(PolyFn([1, 3]))):
        Id = DensityOperator(F(1, 4), F(1, 4), [1], space="line")
        assert lie_derivative_operator(X, Id).is_zero
        d_rham = DensityOperator.de_rham("line")
        assert lie_derivative_operator(X, d_rham).is_zero
    # [x d/dx, d/dx] = -d/dx on D^1_{0,0}
    A = poly_op(0, 0, [0], [1])
    out = lie_derivative_operator(VectorField(PolyFn.monomial(1)), A)
    assert out == poly_op(0, 0, [0], [-1])


def lie_operator(X, weight):
    """The Lie derivative along X as a first-order operator in D^1_{w,w}."""
    return DensityOperator(weight, weight, [weight * X.value.diff(), X.value])


spaces = st.sampled_from(["line", "circle"])


def ring_elements(space):
    """Polynomials of degree < 4, or trig polynomials of frequency <= 2."""
    if space == "line":
        return st.lists(rationals, max_size=4).map(PolyFn)
    harmonics = st.dictionaries(st.integers(1, 2), rationals, max_size=2)
    return st.builds(TrigFn, rationals, harmonics, harmonics)


@st.composite
def ring_ops(draw, max_order=6):
    """Operators of order 0..max_order on either space, zero coefficients included."""
    space = draw(spaces)
    k = draw(st.integers(0, max_order))
    coeffs = draw(st.lists(ring_elements(space), min_size=k + 1, max_size=k + 1))
    return DensityOperator(draw(rationals), draw(rationals), coeffs, space=space)


@settings(max_examples=80, deadline=None)
@given(ring_ops())
def test_lie_derivative_operator_is_the_commutator(A):
    # the closed form against its definition L^mu_X o A - A o L^lam_X, for
    # every field the windowed checks and oracle use (x^3 d, cos 2x d, sin 2x d)
    for X in generator_family(A.space) + brute_force_fields(A.space):
        want = compose(lie_operator(X, A.mu), A) - compose(A, lie_operator(X, A.lam))
        assert lie_derivative_operator(X, A) == want


@settings(max_examples=60, deadline=None)
@given(spaces, rationals, st.data())
def test_lie_derivative_operator_on_a_density_is_the_density_formula(space, nu, data):
    # F_nu is D^0_{0,nu}: the commutator action at order 0 is X phi' + nu X' phi
    phi = density(nu, data.draw(ring_elements(space)))
    drawn = VectorField(data.draw(ring_elements(space)))
    for X in generator_family(space) + brute_force_fields(space) + [drawn]:
        assert lie_derivative_operator(X, phi) == lie_derivative_density(X, phi)


@settings(max_examples=60, deadline=None)
@given(ring_ops(max_order=3), st.data())
def test_apply_is_the_scalar_term_of_the_composition(A, data):
    # with phi in D^0_{0,lam}, A o phi is in D^k_{0,mu} and A(phi) = (A o phi)(1)
    phi = density(A.lam, data.draw(ring_elements(A.space)))
    assert apply(A, phi) == p0(compose(A, phi))


@settings(max_examples=40, deadline=None)
@given(small_poly_ops(), st.lists(rationals, max_size=3),
       st.lists(rationals, max_size=3))
def test_action_axiom(A, xc, yc):
    X, Y = VectorField(PolyFn(xc)), VectorField(PolyFn(yc))
    bracket = VectorField(
        X.value * Y.value.diff() - Y.value * X.value.diff())
    lhs = lie_derivative_operator(bracket, A)
    rhs = (lie_derivative_operator(X, lie_derivative_operator(Y, A))
           - lie_derivative_operator(Y, lie_derivative_operator(X, A)))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(small_poly_ops(lam=F(1, 2)), small_poly_ops(mu=F(1, 2)),
       st.lists(rationals, max_size=3))
def test_compose_is_action(A, B, phic):
    phi = density(B.lam, PolyFn(phic))
    assert apply(compose(A, B), phi) == apply(A, apply(B, phi))


def test_action_axiom_on_the_circle():
    A = DensityOperator(F(1, 3), F(1, 5), [TrigFn.cosine(1), TrigFn.sine(2)])
    X = VectorField(TrigFn(1, {1: F(1, 2)}, {}))
    Y = VectorField(TrigFn(0, {}, {2: F(1)}))
    bracket = VectorField(X.value * Y.value.diff() - Y.value * X.value.diff())
    lhs = lie_derivative_operator(bracket, A)
    rhs = (lie_derivative_operator(X, lie_derivative_operator(Y, A))
           - lie_derivative_operator(Y, lie_derivative_operator(X, A)))
    assert lhs == rhs


def test_compose_associative():
    A = poly_op(F(1), F(2), [1, 1], [0, 2])
    B = poly_op(F(1, 2), F(1), [3], [0, 0, 1])
    C = poly_op(F(0), F(1, 2), [0, 1], [1])
    assert compose(compose(A, B), C) == compose(A, compose(B, C))


def test_pairing_examples():
    lam = F(2, 7)
    c = density(lam, TrigFn.cosine(1))
    c2 = density(1 - lam, TrigFn.cosine(1))
    assert pairing(c, c2) == F(1, 2)
    assert pairing(density(lam, TrigFn.constant(1)),
                   density(1 - lam, TrigFn.sine(1))) == 0
    assert pairing(density(0, TrigFn.constant(1)),
                   density(1, TrigFn.constant(1))) == 1
    with pytest.raises(WeightMismatchError):
        pairing(c, density(lam, TrigFn.cosine(1)))


def test_pairing_rejects_a_non_density():
    phi = density(F(1, 3), TrigFn.cosine(1))
    for psi in (DensityOperator(0, F(2, 3), [TrigFn.cosine(1), TrigFn.sine(1)]),
                DensityOperator(F(1, 2), F(2, 3), [TrigFn.cosine(1)])):
        for args in ((phi, psi), (psi, phi)):
            with pytest.raises(WeightMismatchError, match="expected a density"):
                pairing(*args)


def test_pairing_is_the_mean_of_the_product():
    # the pairing reads each matched monomial pair's weight off the monomial
    # rule; the mean of the ring product is the reference, on 200 random pairs
    rng = random.Random(34)
    for _ in range(200):
        lam = F(rng.randint(-9, 9), rng.randint(1, 9))
        f, g = (sum((F(rng.randint(-5, 5), rng.randint(1, 4)) * TrigFn.monomial(i)
                     for i in range(-3, 4) if rng.random() < 0.6), TrigFn.zero())
                for _ in range(2))
        assert pairing(density(lam, f), density(1 - lam, g)) == circle_mean(f * g)


def test_pairing_on_the_line_is_unsupported():
    # the mean exists only on the circle, as circle_mean says
    with pytest.raises(UnsupportedFunctionalError):
        pairing(density(F(1, 3), PolyFn([1, 2])), density(F(2, 3), PolyFn([3])))


@settings(max_examples=30, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=2),
       st.lists(rationals, min_size=1, max_size=2), rationals)
def test_pairing_infinitesimal_invariance(xc, pc, lam):
    # <L_X phi, psi> + <phi, L_X psi> = 0 on the circle
    X = VectorField(TrigFn(xc[0], {1: xc[-1]}, {}))
    phi = density(lam, TrigFn(pc[0], {}, {2: pc[-1]}))
    psi = density(1 - lam, TrigFn(pc[-1], {1: pc[0]}, {}))
    assert pairing(lie_derivative_operator(X, phi), psi) + \
        pairing(phi, lie_derivative_operator(X, psi)) == 0


def test_symbol_intertwines_affine_action():
    # for X in {d/dx, x d/dx} the operator action matches the symbol action,
    # which on the degree-m component is X a' + (delta - m) X' a
    lam, mu = F(2, 7), F(9, 5)
    delta = mu - lam
    A = poly_op(lam, mu, [1, 1, 1], [0, 2], [3, 0, 1])
    for X in (VectorField(PolyFn([1])), VectorField(PolyFn.monomial(1))):
        want = tuple(X.value * a.diff() + (delta - m) * (X.value.diff() * a)
                     for m, a in enumerate(A.coeffs))
        assert lie_derivative_operator(X, A).coeffs == want


def test_zero_operator_normalization():
    Z = DensityOperator.zero(0, 1, "line")
    assert Z.order == 0 and Z.is_zero
    A = poly_op(0, 1, [1], [0], [0])
    assert A.order == 0
