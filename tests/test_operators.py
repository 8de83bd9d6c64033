import random
from fractions import Fraction as F
from math import perm

import pytest

from densym import densities, rings, truncation
from densym.densities import DensityOperator, apply, compose, lie_derivative_operator, pairing
from densym.errors import (
    InapplicableSymmetryError, NotInKernelError, UnsupportedFunctionalError,
    WeightMismatchError,
)
from densym.identities import CheckConfig, check_catalog_op
from densym.operators import (
    BILINEAR, CATALOG, BilinearOp, Projection, alternating, component_unknowns,
    componentwise_map, compose_terms, conjugate, delta_compose, delta_inverse,
    nonlocal_trace, p0, printed_terms, second_analog_locus, second_analog_mu, symbol,
    term_coordinates, terms_jet, v_formula, w_coefficients, w_formula, wilmod, wilmod_weights,
)
from densym.rings import CIRCLE, LINE, PolyFn, TrigFn
from densym.truncation import (
    SymmetryMap, TruncatedBasis, bilinear_defect, check_window, circle_fields, line_fields,
    ring_basis,
)
from oracle import AppliedMap, element_defect_columns, sparse_vectors
from reference import (
    density, j_after_pi, jet_map, jet_terms, lie_derivative_density, mirrored,
    reference_bilinear_defect, ring_vector, s_map, s_map_chain,
)


def poly_op(lam, mu, *coeff_lists):
    return DensityOperator(lam, mu, [PolyFn(c) for c in coeff_lists])


def trig_op(lam, mu, *coeffs):
    return DensityOperator(lam, mu, list(coeffs))


# ----------------------------------------------------------------------
# reference formulas for the maps the catalog builds from alternating rows
# ----------------------------------------------------------------------

def reference_p0_star(A):
    """Conjugated scalar-term projection: multiplication by sum (-1)^i a_i^(i)."""
    total = rings.zero(A.space)
    for i, a in enumerate(A.coeffs):
        term = a.diff(i)
        total = total + (term if i % 2 == 0 else -term)
    return DensityOperator(A.lam, A.mu, [total])


def reference_p1_scalar(A):
    """sum_{i>=1} (-1)^(i-1) a_i^(i-1)."""
    total = rings.zero(A.space)
    for i in range(1, A.order + 1):
        term = A.coeffs[i].diff(i - 1)
        total = total + (term if (i - 1) % 2 == 0 else -term)
    return total


def reference_p1(A):
    """(sum_{i>=1} (-1)^(i-1) a_i^(i-1)) o d, on D^k_{0,1}."""
    return DensityOperator(0, 1, [rings.zero(A.space), reference_p1_scalar(A)])


def reference_pi_delta(A):
    """The alternating sum a_1 - a_2' + a_3'' - ..., a density of weight 0."""
    return density(0, reference_p1_scalar(A))


def pi_delta_chain(A):
    """P0 o C o delta^{-1} o (Id - P0): an invariant projection to F_0."""
    step = A - p0(A)
    step = delta_inverse(step)               # D^{k-1}_{1,1}
    step = conjugate(step)                   # D^{k-1}_{0,0}
    return density(0, p0(step).coeffs[0])


def catalog_map(name, k=3):
    """The catalog map `name` on D^k of the operator it is applied to."""
    return lambda A: CATALOG[name].make(k, A.lam, A.mu)(A)


P0STAR, P1, PI_DELTA = catalog_map("P0star"), catalog_map("P1"), catalog_map("piDelta")


class TestConjugation:
    def test_order_zero_swaps_weights(self):
        A = DensityOperator(F(1, 3), F(2, 3), [PolyFn.monomial(1)])
        out = conjugate(A)
        assert (out.lam, out.mu) == (F(1, 3), F(2, 3))
        assert out == DensityOperator(F(1, 3), F(2, 3), [PolyFn.monomial(1)])
        B = DensityOperator(0, F(1, 5), [PolyFn.monomial(1)])
        assert (conjugate(B).lam, conjugate(B).mu) == (F(4, 5), F(1))

    def test_first_derivative(self):
        assert conjugate(poly_op(0, 0, [0], [1])) == poly_op(1, 1, [0], [-1])

    def test_x_ddx(self):
        got = conjugate(poly_op(0, 0, [0], [0, 1]))
        assert got == poly_op(1, 1, [-1], [0, -1])

    def test_involution_on_random_shapes(self):
        A = poly_op(F(2, 7), F(9, 5), [1, 2, 3], [0, 1], [4, 0, 0, 1])
        assert conjugate(conjugate(A)) == A

    def test_adjoint_defining_property(self):
        A = trig_op(F(1, 3), F(4, 5), TrigFn.cosine(1), TrigFn(0, {}, {2: F(1, 2)}))
        phi = density(1 - A.mu, TrigFn.sine(1))
        psi = density(A.lam, TrigFn(1, {2: F(2)}, {}))
        assert pairing(apply(conjugate(A), phi), psi) == pairing(phi, apply(A, psi))


class TestScalarProjections:
    def test_p0_reads_scalar_term(self):
        A = poly_op(0, F(5, 2), [0, 3], [0], [1])  # d^2 + 3x
        assert p0(A) == DensityOperator(0, F(5, 2), [PolyFn([0, 3])])

    def test_p0_kills_pure_derivative(self):
        assert p0(poly_op(0, 1, [0], [1])).is_zero

    def test_p0_idempotent(self):
        A = poly_op(0, F(1, 3), [1, 1], [2], [0, 5])
        assert p0(p0(A)) == p0(A)

    def test_p0_requires_source_weight_zero(self):
        with pytest.raises(InapplicableSymmetryError):
            p0(poly_op(F(1, 2), 1, [1]))

    def test_p0_star_examples(self):
        assert P0STAR(poly_op(F(1, 2), 1, [0], [0, 1])) == \
            DensityOperator(F(1, 2), 1, [PolyFn([-1])])
        a0 = PolyFn([2, 0, 1])
        assert P0STAR(poly_op(0, 1, list(a0.coeffs))) == \
            DensityOperator(0, 1, [a0])
        assert P0STAR(poly_op(F(1, 3), 1, [0], [0], [5])).is_zero

    def test_p0_star_requires_target_weight_one(self):
        applies = CATALOG["P0star"].applies
        assert applies(3, F(2, 7), 1) and not applies(3, 0, 0)
        with pytest.raises(InapplicableSymmetryError):
            check_catalog_op("P0star", CheckConfig(mu=F(0)))

    def test_p1_examples(self):
        assert P1(poly_op(0, 1, [0], [0], [0, 0, 1])) == \
            poly_op(0, 1, [0], [0, -2])
        assert P1(poly_op(0, 1, [1, 2, 3])).is_zero
        c = F(5, 3)
        assert P1(poly_op(0, 1, [0], [c])) == poly_op(0, 1, [0], [c])

    def test_p1_is_projection_composition(self):
        # P1(A) equals the invariant scalar of piDelta composed with d
        A = trig_op(0, 1, TrigFn.cosine(2), TrigFn.sine(1), TrigFn(F(1, 2), {1: F(1)}, {}))
        val = PI_DELTA(A).coeffs[0]
        assert P1(A) == DensityOperator(0, 1, [TrigFn.zero(), val])


class TestNonlocalTrace:
    def test_mean_times_d(self):
        A = trig_op(0, 1, TrigFn(2, {1: F(1)}, {}), TrigFn.sine(1))
        assert nonlocal_trace(A) == trig_op(0, 1, TrigFn.zero(), TrigFn.constant(2))

    def test_zero_on_pure_derivative_term(self):
        assert nonlocal_trace(trig_op(0, 1, TrigFn.zero(), TrigFn.constant(1))).is_zero

    def test_nilpotent(self):
        A = trig_op(0, 1, TrigFn(3, {2: F(1)}, {}), TrigFn.cosine(1))
        assert nonlocal_trace(nonlocal_trace(A)).is_zero

    def test_line_is_rejected(self):
        with pytest.raises(UnsupportedFunctionalError):
            nonlocal_trace(poly_op(0, 1, [1]))

    def test_wrong_weights_rejected(self):
        with pytest.raises(InapplicableSymmetryError):
            nonlocal_trace(trig_op(0, F(1, 2), TrigFn.constant(1)))


def s_map_by_composition(A):
    """The docstring formula of s_map, term by term: sum_i (-1)^i d^i o f_i
    with f_i = a_i + a_{i+1}', each d^i as i compositions with d."""
    d = DensityOperator(0, 0, [0, 1], space=A.space)
    out = DensityOperator.zero(0, 0, A.space)
    for i in range(A.order + 1):
        term = DensityOperator(0, 0, [A.coefficient(i) + A.coefficient(i + 1).diff()])
        for _ in range(i):
            term = compose(d, term)
        out = out + (-1) ** i * term
    return out


class TestInvolutiveSymmetry:
    def test_order_zero_fixed(self):
        A = poly_op(0, 0, [1, 2, 3])
        assert s_map(A) == A

    def test_first_order_constant_coefficient(self):
        assert s_map(poly_op(0, 0, [0], [1])) == poly_op(0, 0, [0], [-1])

    def test_involution(self):
        A = poly_op(0, 0, [1, 1], [0, 2], [3], [0, 0, 1])
        assert s_map(s_map(A)) == A

    @pytest.mark.parametrize("space", ["line", "circle"])
    @pytest.mark.parametrize("k", range(7))
    def test_explicit_formula_matches_chain(self, space, k):
        if space == "line":
            coeffs = [PolyFn([i + 1, F(-1, i + 2), 0, i]) for i in range(k + 1)]
        else:
            coeffs = [TrigFn(F(i, 3), {1: i + 1, 2: F(1, i + 1)}, {1 + i % 2: -1})
                      for i in range(k + 1)]
        A = DensityOperator(0, 0, coeffs)
        assert s_map(A) == s_map_chain(A) == s_map_by_composition(A)

    def test_s_star_on_target_side(self):
        A = poly_op(1, 1, [0, 1], [2], [1])
        s_star = CATALOG["Sstar"].make(2, 1, 1)
        assert s_star(s_star(A)) == A
        assert s_star(A) == mirrored(s_map)(A)


class TestRightCompositionWithD:
    def test_shift(self):
        a = PolyFn([1, 2])
        A = DensityOperator(1, 1, [a])
        assert delta_compose(A) == DensityOperator(0, 1, [PolyFn.zero(), a])

    def test_round_trip(self):
        A = poly_op(1, F(5, 3), [1, 1], [0, 2])
        assert delta_inverse(delta_compose(A)) == A

    def test_raises_order(self):
        assert delta_compose(poly_op(1, 1, [0], [1])) == poly_op(0, 1, [0], [0], [1])

    def test_inverse_needs_kernel(self):
        with pytest.raises(NotInKernelError):
            delta_inverse(poly_op(0, 1, [1], [1]))


class TestPiDelta:
    def test_kills_multiplication_operators(self):
        assert PI_DELTA(poly_op(0, 1, [1, 5])).is_zero

    def test_de_rham_goes_to_one(self):
        assert PI_DELTA(DensityOperator.de_rham("line")) == density(0, PolyFn([1]))

    def test_x_ddx(self):
        assert PI_DELTA(poly_op(0, 1, [0], [0, 1])) == density(0, PolyFn.monomial(1))

    def test_explicit_alternating_sum(self):
        A = poly_op(0, 1, [7], [1, 2], [0, 0, 3], [0, 1])
        expected = (A.coeffs[1] - A.coeffs[2].diff() + A.coeffs[3].diff(2))
        assert PI_DELTA(A) == density(0, expected) == pi_delta_chain(A)


def random_operator(rng, k, lam, mu, space):
    """A seeded element of D^k_{lam,mu}; some coefficients are zero."""
    def q():
        return F(rng.randint(-6, 6), rng.randint(1, 5))

    def coefficient():
        if rng.random() < 0.2:
            return rings.zero(space)
        if space == LINE:
            return PolyFn([q() for _ in range(rng.randint(1, k + 3))])
        return TrigFn(q(), {n: q() for n in range(1, rng.randint(1, 3) + 1)},
                      {n: q() for n in range(1, rng.randint(1, 3) + 1)})
    return DensityOperator(lam, mu, [coefficient() for _ in range(k + 1)], space=space)


class TestAlternatingRows:
    """P0star, P1 and piDelta are the alternating rows n = 0 and n = 1."""

    def test_rows(self):
        assert alternating(1, 3, 0, 1).row == ((1, 1), (2, -1), (3, 1))
        pi = alternating(0, 2, F(2, 7), 1)
        assert (pi.n, pi.nu, pi.row) == (0, F(5, 7), ((0, 1), (1, -1), (2, 1)))
        assert alternating(1, 0, 0, 1).row == ()

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("k", range(7))
    def test_row_maps_are_the_reference_formulas(self, k, space):
        rng = random.Random(1000 + k)
        for _ in range(3):
            A = random_operator(rng, k, 0, 1, space)
            assert CATALOG["P1"].make(k, 0, 1)(A) == reference_p1(A)
            assert CATALOG["piDelta"].make(k, 0, 1)(A) == reference_pi_delta(A) \
                == pi_delta_chain(A)
            for lam in (F(0), F(rng.randint(-6, 6), rng.randint(1, 5))):
                A = random_operator(rng, k, lam, 1, space)
                assert CATALOG["P0star"].make(k, lam, 1)(A) == reference_p0_star(A)

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_p1_and_p0star_are_order_one_kinds_after_pi_delta(self, k, space):
        rng = random.Random(2000 + k)
        phi_dpsi, dphi_psi = BilinearOp("phi_dpsi", 0, 0), BilinearOp("dphi_psi", 0, 0)
        for _ in range(3):
            A = random_operator(rng, k, 0, 1, space)
            pi = CATALOG["piDelta"].make(k, 0, 1)(A)
            assert CATALOG["P1"].make(k, 0, 1)(A) == phi_dpsi.operator(pi)
            assert CATALOG["P0star"].make(k, 0, 1)(A) - p0(A) == \
                -1 * dphi_psi.operator(pi)


class TestDensityProjections:
    def test_principal_symbol(self):
        A = poly_op(F(1, 2), F(3, 2), [0], [1], [0, 0, 0, 1])
        sigma = symbol(2, F(1, 2), F(3, 2))
        assert (sigma.n, sigma.nu, sigma.row) == (2, -1, ((2, 1),))
        assert sigma(A) == density(-1, PolyFn.monomial(3))
        assert symbol(2, 0, 0)(poly_op(0, 0, [0], [1])).is_zero
        B = poly_op(F(1, 2), F(3, 2), [1], [0], [2])
        assert sigma(A + B) == density(-1, PolyFn.monomial(3) + PolyFn([2]))
        with pytest.raises(WeightMismatchError):
            symbol(1, F(1, 2), F(3, 2))(A)  # order 2 above k = 1

    def test_projection_row_keeps_nonzero_slots(self):
        # V at the degenerate weights has alpha = beta = 0: the empty row
        assert v_formula(2, *wilmod_weights(2)).row == ()
        assert v_formula(0, F(1, 3), F(1, 5)).row == ()  # a_{-1} = 0, alpha = 0
        assert w_formula(4, 0, F(5, 4)).row == ((4, 32), (3, -24), (2, 14))
        assert (F(1, 2) * symbol(3, 0, 3)).row == ((3, F(1, 2)),)
        with pytest.raises(WeightMismatchError):
            symbol(2, 0, 1)(poly_op(0, 2, [1]))  # another module

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_a_negative_derivative_slot_raises(self, space):
        # a_1^(-1) at n = 2 is no derivative: it raises, where the row once
        # read a_1 underived
        with pytest.raises(ValueError, match=r"slot a_1\^\(-1\) is a negative derivative"):
            Projection(2, 0, 1, 2, {1: 1})
        with pytest.raises(ValueError, match=r"slot a_0\^\(-1\)"):
            Projection(3, 0, 1, 1, {3: 1, 0: F(1, 2)})
        # zero slots and slots below r = 0 drop out, as V's a_{-1} at k = 0
        assert Projection(2, 0, 1, 2, {1: 0, 2: 3, -1: 5}).row == ((2, 3),)
        V = v_formula(0, F(1, 3), F(2, 5))
        assert V.row == () and V(DensityOperator(F(1, 3), F(2, 5), [rings.one(space)])).is_zero

    def test_v_formula_at_zero_zero(self):
        # (lam, mu) = (0, 0), k = 2: alpha = 1, beta = -2, so a2' - 2 a1
        V = v_formula(2, 0, 0)
        A = poly_op(0, 0, [1], [1], [0, 0, 0, 1])  # a2 = x^3, a1 = 1
        assert V(A) == density(-1, PolyFn([-2, 0, 3]))
        B = poly_op(0, 0, [0], [0, 1], [0, 0, 1])  # a2' = 2x cancels 2 a1 = 2x
        assert V(B).is_zero

    def test_v_formula_vanishes_at_degenerate_weights(self):
        lam, mu = wilmod_weights(2)
        A = poly_op(lam, mu, [1, 2], [3, 4], [5, 6])
        assert v_formula(2, lam, mu)(A).is_zero

    def test_v_formula_constant_coefficients_with_zero_beta(self):
        # beta = 0 at mu - lam = k; constant a_k kills the alpha term too
        A = poly_op(0, 2, [0], [1], [3])
        assert v_formula(2, 0, 2)(A).is_zero

    def test_wilmod_projections(self):
        lam, mu = wilmod_weights(2)
        A = poly_op(lam, mu, [0], [0, 1], [0, 0, 1])
        pa, pb = wilmod(0, 2, lam, mu), wilmod(1, 2, lam, mu)
        assert pa(A) == density(1, 2 * PolyFn.monomial(1))
        assert pb(A) == density(1, PolyFn.monomial(1))
        B = poly_op(lam, mu, [0], [0], [5])
        assert pa(B).is_zero and pb(B).is_zero
        with pytest.raises(InapplicableSymmetryError):
            wilmod(0, 2, 0, 1)
        with pytest.raises(WeightMismatchError):
            pa(poly_op(0, 1, [1]))

    def test_w_coefficients_frozen_values(self):
        assert w_coefficients(4, 0) == (32, -24, 14)
        # ratios match the order-4 generator at (0, 5/4)
        assert F(32, 14) == F(16, 7)
        assert F(24, 14) == F(12, 7)
        assert w_coefficients(3, 0) == (4, -4, 4)

    def test_w_formula_at_the_order_four_point(self):
        # a4 = x^2, a3 = 0, a2 = x: 32 a4'' - 24 a3' + 14 a2 = 64 + 14x
        A = poly_op(0, F(5, 4), [0], [0], [0, 1], [0], [0, 0, 1])
        assert w_formula(4, 0, F(5, 4))(A) == density(F(-3, 4), PolyFn([64, 14]))

    def test_w_locus_gate(self):
        applies = CATALOG["W"].applies
        assert second_analog_locus(4, 0, F(5, 4)) == 0
        assert applies(4, 0, F(5, 4))
        assert not applies(4, 0, 1)  # off the locus
        assert not applies(2, 0, F(5, 4))  # below k = 3

    def test_second_analog_mu_solves_the_locus(self):
        rng = random.Random(3)
        for k in range(3, 8):
            for _ in range(40):
                lam = F(rng.randint(-97, 97), rng.randint(1, 97))
                if lam != F(2 - k, 3):
                    assert second_analog_locus(k, lam, second_analog_mu(k, lam)) == 0

    def test_second_analog_mu_is_the_printed_hyperbola_at_order_three(self):
        # HYPERBOLA: (3 lam + 1)(3 mu - 4) = -1
        for lam in (F(1, 3), F(-2, 5), F(7)):
            mu = second_analog_mu(3, lam)
            assert isinstance(mu, F) and (3 * lam + 1) * (3 * mu - 4) == -1
        mu = second_analog_mu(3, 0.5)  # the figures call it on floats
        assert isinstance(mu, float) and abs((3 * 0.5 + 1) * (3 * mu - 4) + 1) < 1e-12

    def test_w_formula_low_order_input_gives_zero(self):
        A = poly_op(0, F(5, 4), [1, 2])
        assert w_formula(4, 0, F(5, 4))(A).is_zero


class TestBilinearOperators:
    def test_poisson_example(self):
        J = BilinearOp("poisson", 1, 0)
        out = J(density(1, PolyFn.monomial(1)), density(0, PolyFn.monomial(1)))
        assert out == density(2, PolyFn.monomial(1))

    def test_poisson_antisymmetric_at_equal_weights(self):
        J = BilinearOp("poisson", F(1, 3), F(1, 3))
        phi = density(F(1, 3), PolyFn([1, 2, 3]))
        assert J(phi, phi).is_zero

    def test_grozman_example(self):
        J = BilinearOp("grozman", F(-2, 3), F(-2, 3))
        out = J(density(F(-2, 3), PolyFn([1])), density(F(-2, 3), PolyFn.monomial(3)))
        assert out == density(F(5, 3), PolyFn([12]))

    def test_weight_constraints_enforced(self):
        with pytest.raises(WeightMismatchError):
            BilinearOp("d_left", F(1, 2), 0)
        with pytest.raises(WeightMismatchError):
            BilinearOp("grozman", 0, 0)
        J = BilinearOp("poisson", 1, 0)
        with pytest.raises(WeightMismatchError):
            J(density(0, PolyFn.monomial(1)), density(0, PolyFn.monomial(1)))

    def test_operator_rejects_a_non_density(self):
        # phi has the left weight 1 as its target, but is not an order-0
        # operator from weight 0
        J = BilinearOp("poisson", 1, 0)
        for phi in (DensityOperator(0, 1, [PolyFn([1]), PolyFn([0, 1])]),
                    DensityOperator(F(1, 2), 1, [PolyFn([1])])):
            with pytest.raises(WeightMismatchError, match="expected a density"):
                J.operator(phi)

    def test_composition_kinds_match_their_definitions(self):
        # {d phi, psi} at nu=0 equals the bracket of phi' (weight 1) with psi
        lam = F(2, 5)
        J = BilinearOp("d_left", 0, lam)
        phi, psi = PolyFn([0, 0, 1]), PolyFn([1, 1])
        got = J(density(0, phi), density(lam, psi))
        bracket = BilinearOp("poisson", 1, lam)
        expected = bracket(density(1, phi.diff()), density(lam, psi))
        assert got == expected
        # d{phi, psi} at nu + lam = -1 is the derivative of the bracket
        J2 = BilinearOp("d_outer", F(-1, 3), F(-2, 3))
        got2 = J2(density(F(-1, 3), phi), density(F(-2, 3), psi))
        inner = BilinearOp("poisson", F(-1, 3), F(-2, 3))(
            density(F(-1, 3), phi), density(F(-2, 3), psi))
        assert got2 == density(1, inner.coeffs[0].diff())


# ----------------------------------------------------------------------
# the printed generators, as their formulas are printed; a = A.coefficient,
# L the source weight and d = mu - L the weight difference
# ----------------------------------------------------------------------

def _op(A, *coeffs):
    return DensityOperator(A.lam, A.mu, list(coeffs))


def printed_cal_v(A):
    """(d-1)[(2L+1)a2' + (d-2)a1] d - L[(2L+1)a2'' + (d-2)a1']."""
    a, L, d = A.coefficient, A.lam, A.delta
    inner = (2 * L + 1) * a(2).diff() + (d - 2) * a(1)
    return _op(A, -L * inner.diff(), (d - 1) * inner)


def printed_cal_w(A):
    """On (3L+1)(3M-4) = -1: (d-1) w d - L w', with
    w = (3L+1)^2 a3'' - (3L+1)(1+2L) a2' + (3L^2+3L+1) a1."""
    a, L, d = A.coefficient, A.lam, A.delta
    inner = ((3 * L + 1) ** 2 * a(3).diff(2) - (3 * L + 1) * (1 + 2 * L) * a(2).diff()
             + (3 * L * L + 3 * L + 1) * a(1))
    return _op(A, -L * inner.diff(), (d - 1) * inner)


def printed_j_v1(A):
    """k = 1, any weights: multiplication by L a1' + (d-1) a0."""
    a, L, d = A.coefficient, A.lam, A.delta
    return _op(A, L * a(1).diff() + (d - 1) * a(0))


def printed_j_v3_shift(A):
    """k = 3 on d = 2: (3(L+1)a3'' - a2') d - L (3(L+1)a3''' - a2'')."""
    a, L = A.coefficient, A.lam
    inner = 3 * (L + 1) * a(3).diff() - a(2)
    return _op(A, -L * inner.diff(2), inner.diff())


def printed_j_v4(A):
    """k = 4 at (0, 3): (6a4'' - a3') d^2 - (6a4''' - a3'') d."""
    a = A.coefficient
    inner = 6 * a(4).diff() - a(3)
    return _op(A, 0 * inner, -inner.diff(2), inner.diff())


def printed_j_v3_source0(A):
    """k = 3 with L = 0: (d-2) v d^2 - v' d, with v = 3a3' + (d-3)a2."""
    a, d = A.coefficient, A.delta
    v = 3 * a(3).diff() + (d - 3) * a(2)
    return _op(A, 0 * v, -v.diff(), (d - 2) * v)


def printed_j_w(A):
    """At (0, 5/4): (16/7 a4'' - 12/7 a3' + a2) d^2
    + 4/3 (16/7 a4''' - 12/7 a3'' + a2') d."""
    a = A.coefficient
    inner = F(16, 7) * a(4).diff(2) - F(12, 7) * a(3).diff() + a(2)
    return _op(A, 0 * inner, F(4, 3) * inner.diff(), inner)


def printed_j_sigma(A):
    """At (0, 3): a3' d^2 - a3'' d."""
    a3 = A.coefficient(3)
    return _op(A, 0 * a3, -a3.diff(2), a3.diff())


def printed_g_v(A):
    """At (-2/3, 5/3): (a3 - 2a4') d^3 + (3/2 a3' - 3a4'') d^2
    - (3/2 a3'' - 3a4''') d - (a3''' - 2a4'''')."""
    a = A.coefficient
    inner = a(3) - 2 * a(4).diff()
    return _op(A, -inner.diff(3), F(-3, 2) * inner.diff(2), F(3, 2) * inner.diff(), inner)


def printed_wil_gen(A):
    """At (-1/2, 3/2): a2' d + 1/2 a2''."""
    a2 = A.coefficient(2)
    return _op(A, F(1, 2) * a2.diff(2), a2.diff())


# (catalog name, printed formula, k, lam, mu): every home, a few other points
# for the entries that exist off their home, and JV once per branch at least
PRINTED_CASES = [
    ("calV", printed_cal_v, 2, F(1, 3), F(1, 5)),
    ("calV", printed_cal_v, 2, F(2, 7), F(9, 5)),
    ("calV", printed_cal_v, 2, F(-3, 5), F(7, 11)),
    ("calV", printed_cal_v, 2, F(2), F(-1)),
    ("calW", printed_cal_w, 3, F(1, 3), F(7, 6)),
    ("calW", printed_cal_w, 3, F(1), F(5, 4)),
    ("calW", printed_cal_w, 3, F(2, 3), F(11, 9)),
    ("calW", printed_cal_w, 3, F(-2, 3), F(5, 3)),
    ("JV", printed_j_v1, 1, F(1, 3), F(1, 5)),
    ("JV", printed_j_v1, 1, F(-1, 2), F(3, 2)),
    ("JV", printed_j_v3_shift, 3, F(1, 5), F(11, 5)),
    ("JV", printed_j_v3_shift, 3, F(-4, 7), F(10, 7)),
    ("JV", printed_j_v3_shift, 3, F(-1, 2), F(3, 2)),
    ("JV", printed_j_v4, 4, F(0), F(3)),
    ("JV", printed_j_v3_source0, 3, F(0), F(7, 5)),
    ("JV", printed_j_v3_source0, 3, F(0), F(3)),
    ("JW", printed_j_w, 4, F(0), F(5, 4)),
    ("Jsigma", printed_j_sigma, 3, F(0), F(3)),
    ("GV", printed_g_v, 4, F(-2, 3), F(5, 3)),
    ("Gsigma", printed_g_v, 3, F(-2, 3), F(5, 3)),
    ("wilGen", printed_wil_gen, 2, F(-1, 2), F(3, 2)),
]


def sample_operator(k, lam, mu, space):
    """An element of D^k_{lam,mu} with distinct, generic coefficients."""
    if space == LINE:
        coeffs = [PolyFn([r + 1, -2 * r, F(r + 3, 2), 0, 1, F(1, r + 2)][: k + 3])
                  for r in range(k + 1)]
    else:
        coeffs = [TrigFn(F(r, 3), {1: r + 1, 2: F(-1, r + 2)}, {1: F(2, r + 1), 3: r})
                  for r in range(k + 1)]
    return DensityOperator(lam, mu, coeffs)


class TestBilinearAfterProjection:
    def test_order3_symbol_generator_exact(self):
        J = BilinearOp("dd_inner", 0, 0)
        T = j_after_pi(J, symbol(3, 0, 3))
        A = poly_op(0, 3, [1], [0, 1], [0], [0, 0, 0, 1])
        assert T(A) == printed_j_sigma(A)
        assert T(A) == poly_op(0, 3, [0], [0, -6], [0, 0, 3])

    def test_cal_v_is_bracket_after_v(self):
        lam, mu = F(1, 3), F(1, 5)
        J = BilinearOp("poisson", mu - lam - 1, lam)
        T = j_after_pi(J, v_formula(2, lam, mu))
        A = poly_op(lam, mu, [1, 2], [0, 1], [3, 0, 1])
        assert T(A) == printed_cal_v(A)

    def test_line_shift_generator_is_dleft_after_v(self):
        lam, mu = F(1, 5), F(11, 5)
        J = BilinearOp("d_left", 0, lam)
        T = j_after_pi(J, v_formula(3, lam, mu))
        A = poly_op(lam, mu, [1], [2, 1], [0, 3], [0, 0, 1])
        assert T(A) == printed_j_v3_shift(A)

    def test_g_v_proportional_to_raw_composition(self):
        lam, mu = F(-2, 3), F(5, 3)
        J = BilinearOp("grozman", lam, lam)
        T = j_after_pi(J, v_formula(4, lam, mu))
        A = poly_op(lam, mu, [0], [0], [1], [0, 0, 1], [0, 0, 0, 1])
        assert T(A) == F(-10, 3) * printed_g_v(A)

    def test_j_w_proportional_to_raw_composition(self):
        J = BilinearOp("d_right", F(-3, 4), 0)
        T = j_after_pi(J, w_formula(4, 0, F(5, 4)))
        A = poly_op(0, F(5, 4), [1], [0], [0, 1], [0, 0, 1], [0, 0, 0, 1])
        assert T(A) == F(-21, 2) * printed_j_w(A)

    def test_wil_gen_is_bracket_after_wilmod(self):
        lam, mu = wilmod_weights(2)
        J = BilinearOp("poisson", 1, lam)
        T = j_after_pi(J, wilmod(0, 2, lam, mu))
        A = poly_op(lam, mu, [1], [0, 2], [0, 0, 1])
        assert T(A) == printed_wil_gen(A)

    def test_weight_chain_is_checked(self):
        sigma = symbol(3, 0, 3)  # D^3_{0,3} -> F_0
        printed_terms(BilinearOp("dd_inner", 0, 0), sigma)
        for J in [BilinearOp("poisson", 1, 0),    # left weight
                  BilinearOp("d_left", 0, 1),     # right weight
                  BilinearOp("poisson", 0, 0)]:   # output weight
            with pytest.raises(WeightMismatchError, match=f"bilinear {J.kind!r} maps"):
                printed_terms(J, sigma)

    def test_operator_of_another_module_is_rejected(self):
        T = j_after_pi(BilinearOp("dd_inner", 0, 0), symbol(3, 0, 3))
        with pytest.raises(WeightMismatchError):
            T(poly_op(0, 2, [1], [0, 1]))
        with pytest.raises(WeightMismatchError):
            T(poly_op(0, 3, [1], [0], [0], [0], [1]))  # order 4 above k = 3


class TestPrintedGenerators:
    def test_expsym_formula_order4(self):
        # (6 a4'' - a3') d^2 - (6 a4''' - a3'') d at (0, 3)
        A = poly_op(0, 3, [0], [0], [0], [0, 0, 1], [0, 0, 0, 1])
        got = CATALOG["JV"].make(4, 0, 3)(A)
        a4, a3 = PolyFn.monomial(3), PolyFn.monomial(2)
        inner = 6 * a4.diff() - a3
        assert got == DensityOperator(0, 3, [PolyFn.zero(), -inner.diff(2), inner.diff()])

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("name, printed, k, lam, mu", PRINTED_CASES)
    def test_catalog_map_is_the_printed_formula(self, name, printed, k, lam, mu, space):
        assert CATALOG[name].applies(k, lam, mu)
        A = sample_operator(k, lam, mu, space)
        got = CATALOG[name].make(k, lam, mu)(A)
        assert not got.is_zero and got == printed(A)

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    def test_jv_precedence_at_0_2(self, space):
        # k = 3 at (0, 2) is on both d = 2 and L = 0; the first branch, d_left,
        # wins, and the d_right formula has the opposite sign there
        A = sample_operator(3, 0, 2, space)
        got = CATALOG["JV"].make(3, 0, 2)(A)
        assert not got.is_zero
        assert got == printed_j_v3_shift(A) == -1 * printed_j_v3_source0(A)


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_home_is_applicable(name):
    # `verify --op NAME` checks the entry at its home unless told otherwise
    k, lam, mu = CATALOG[name].home
    assert CATALOG[name].exists(k, lam, mu, CIRCLE)


# ----------------------------------------------------------------------
# the coefficient rows against the code they replaced: the former
# per-kind if-chain, projection closures and pairwise bilinear defect
# ----------------------------------------------------------------------

def former_coefficient_list(kind, nu, lam, phi):
    """Coefficients c_j with J(phi, psi) = sum_j c_j psi^(j), one branch a kind."""
    z = TrigFn.zero() if phi.space == CIRCLE else PolyFn.zero()
    if kind == "product":
        return [phi]
    if kind == "poisson":
        return [-lam * phi.diff(), nu * phi]
    if kind == "d_left":
        return [-lam * phi.diff(2), phi.diff()]
    if kind == "d_right":
        return [z, -phi.diff(), nu * phi]
    if kind == "d_outer":
        return [-lam * phi.diff(2), (nu - lam) * phi.diff(), nu * phi]
    if kind == "dd_inner":
        return [z, -phi.diff(2), phi.diff()]
    if kind == "d_d_left":
        return [2 * phi.diff(3), 3 * phi.diff(2), phi.diff()]
    if kind == "d_d_right":
        return [z, -phi.diff(2), -3 * phi.diff(), -2 * phi]
    assert kind == "grozman"
    return [-2 * phi.diff(3), -3 * phi.diff(2), 3 * phi.diff(), 2 * phi]


def former_symbol(k):
    def apply_(A):
        if A.order > k:
            raise WeightMismatchError(f"operator order {A.order} exceeds k = {k}")
        return density(A.delta - k, A.coefficient(k))
    return apply_


def former_v_formula(k, lam, mu):
    alpha = lam * k + F(k * (k - 1), 2)
    beta = mu - lam - k
    return lambda A: density(beta + 1, alpha * A.coefficient(k).diff()
                             + beta * A.coefficient(k - 1))


def former_w_formula(k, lam, mu):
    a2, a1, a0 = w_coefficients(k, lam)
    return lambda A: density(mu - lam - k + 2, a2 * A.coefficient(k).diff(2)
                             + a1 * A.coefficient(k - 1).diff() + a0 * A.coefficient(k - 2))


def former_wilmod(k):
    return (lambda A: density(1, A.coefficient(k).diff()),
            lambda A: density(1, A.coefficient(k - 1)))


def pairwise_bilinear_defect(J, space, M, fields):
    """J(L_X phi, psi) + J(phi, L_X psi) - L_X J(phi, psi), three J calls a pair."""
    check_window(J.order, M)
    monos = ring_basis(space, M)
    sizes = [f.size for f in monos]
    phis = [density(J.nu, f) for f in monos]
    psis = [density(J.lam, f) for f in monos]
    cols = []
    for X in fields:
        room = [M - X.value.size - s for s in sizes]
        for i, r in enumerate(room):
            for j, s in enumerate(sizes):
                if s > r:
                    continue
                lhs = (J(lie_derivative_density(X, phis[i]), psis[j])
                       + J(phis[i], lie_derivative_density(X, psis[j])))
                rhs = lie_derivative_density(X, J(phis[i], psis[j]))
                cols.append(ring_vector((lhs - rhs).coeffs[0], M))
    return cols


# one (nu, lam) for each kind, where it is defined
BILINEAR_HOMES = {
    "product": (F(1, 3), F(2, 5)),
    "poisson": (F(2, 3), F(1, 5)),
    "phi_dpsi": (F(3, 7), F(0)),
    "dphi_psi": (F(0), F(2, 5)),
    "d_left": (F(0), F(2, 5)),
    "d_right": (F(3, 7), F(0)),
    "d_outer": (F(-1, 3), F(-2, 3)),
    "dd_inner": (F(0), F(0)),
    "d_d_left": (F(0), F(-2)),
    "d_d_right": (F(-2), F(0)),
    "grozman": (F(-2, 3), F(-2, 3)),
}

# the two order-1 kinds besides poisson, with J(phi, .) as coefficients of
# psi, psi'; neither had a former branch
ORDER_ONE_KINDS = {"phi_dpsi": lambda phi: [rings.zero(phi.space), phi],
                   "dphi_psi": lambda phi: [phi.diff()]}

SAMPLE_PHIS = [PolyFn([3, F(-1, 2), 0, 2, F(1, 7)]),
               TrigFn(F(1, 3), {1: 2, 3: F(-1, 4)}, {2: F(5, 3)})]


def defect_fields(space):
    return circle_fields(3) if space == CIRCLE else line_fields(5)


class TestCoefficientRows:
    def test_table_covers_every_kind_at_its_home(self):
        assert set(BILINEAR) == set(BILINEAR_HOMES)
        for kind, (nu, lam) in BILINEAR_HOMES.items():
            J = BilinearOp(kind, nu, lam)
            assert J.order == BILINEAR[kind][0] == len(J.row) - 1

    @pytest.mark.parametrize("phi", SAMPLE_PHIS, ids=[LINE, CIRCLE])
    @pytest.mark.parametrize("kind", [k for k in BILINEAR_HOMES if k not in ORDER_ONE_KINDS])
    def test_operator_is_the_former_coefficient_list(self, kind, phi):
        nu, lam = BILINEAR_HOMES[kind]
        J = BilinearOp(kind, nu, lam)
        A = J.operator(density(nu, phi))
        assert (A.lam, A.mu) == (lam, J.out_weight)
        assert A == DensityOperator(lam, J.out_weight, former_coefficient_list(kind, nu, lam, phi))

    @pytest.mark.parametrize("phi", SAMPLE_PHIS, ids=[LINE, CIRCLE])
    @pytest.mark.parametrize("kind", list(ORDER_ONE_KINDS))
    def test_order_one_kind_operator(self, kind, phi):
        nu, lam = BILINEAR_HOMES[kind]
        J = BilinearOp(kind, nu, lam)
        assert J.out_weight == nu + lam + 1
        assert J.operator(density(nu, phi)) == \
            DensityOperator(lam, J.out_weight, ORDER_ONE_KINDS[kind](phi))

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("kind", list(ORDER_ONE_KINDS))
    def test_order_one_kind_is_equivariant_only_on_its_line(self, monkeypatch, kind, space):
        with pytest.raises(WeightMismatchError):
            BilinearOp(kind, F(1, 3), F(1, 5))
        order, _, row = BILINEAR[kind]
        monkeypatch.setitem(BILINEAR, kind, (order, lambda nu, lam: True, row))
        cols = bilinear_defect(BilinearOp(kind, F(1, 3), F(1, 5)), space, 8,
                               defect_fields(space))
        assert any(v != 0 for col in cols for v in col)

    def test_row_is_evaluated_once_per_operator(self, monkeypatch):
        calls = []
        order, defined, row = BILINEAR["poisson"]
        monkeypatch.setitem(BILINEAR, "poisson",
                            (order, defined, lambda nu, lam: calls.append(1) or row(nu, lam)))
        J = BilinearOp("poisson", F(2, 3), F(1, 5))
        for phi in SAMPLE_PHIS:
            J(density(J.nu, phi), density(J.lam, phi))
            J.operator(density(J.nu, phi))
        assert len(calls) == 1

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("kind", list(BILINEAR_HOMES))
    def test_every_kind_is_equivariant(self, kind, space):
        cols = bilinear_defect(BilinearOp(kind, *BILINEAR_HOMES[kind]), space, 8,
                               defect_fields(space))
        assert cols and all(v == 0 for col in cols for v in col)

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("kind", ["poisson", "grozman"])
    def test_defect_makes_no_ring_arithmetic(self, monkeypatch, kind, space):
        # every derivative and product is read off the monomial rules: no
        # ring derivative or product, no J(phi, .) and no Lie action on
        # operators; J(phi, .)'s defect is one formal_defect of its terms
        # per call, with no image, and the windows of F_nu and D^n, the map's
        # source and target, share one product table
        ring = PolyFn if space == LINE else TrigFn
        calls, images, formal, windows = [], [], [], set()

        def recorded(name, f):
            return lambda *args: calls.append(name) or f(*args)

        for name in ("__mul__", "__rmul__", "diff"):
            monkeypatch.setattr(ring, name, recorded(name, getattr(ring, name)))
        monkeypatch.setattr(BilinearOp, "operator", recorded("operator", BilinearOp.operator))
        monkeypatch.setattr(densities, "lie_derivative_operator",
                            recorded("lie_derivative_operator", lie_derivative_operator))
        real_images, real_formal = truncation.term_images, truncation.formal_defect
        real_columns = SymmetryMap.defect_columns
        monkeypatch.setattr(truncation, "term_images",
                            lambda *args: images.append(args) or real_images(*args))
        monkeypatch.setattr(truncation, "formal_defect",
                            lambda *args: formal.append(args) or real_formal(*args))
        monkeypatch.setattr(SymmetryMap, "defect_columns", lambda T, X, elements: windows.update(
            (T.basis, T.target)) or real_columns(T, X, elements))
        J = BilinearOp(kind, *BILINEAR_HOMES[kind])
        cols = bilinear_defect(J, space, 8, defect_fields(space))
        assert cols and all(v == 0 for col in cols for v in col)
        assert calls == []
        assert images == [] and len(formal) == 1
        assert {(w.k, w.lam, w.mu) for w in windows} == {
            (0, 0, J.nu), (J.order, J.lam, J.out_weight)}
        assert len({id(w._products) for w in windows}) == 1

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("kind", list(BILINEAR_HOMES))
    def test_operator_defect_is_the_operator_route(self, monkeypatch, kind, perturbed,
                                                   space):
        # bilinear_defect checks J as the linear map T: phi -> J(phi, .); T's
        # defect at each phi, read on the D^n window, is the operator
        # J(L_X phi, .) - L_X J(phi, .) of ring arithmetic; the row with a
        # term 1/3 phi psi^(n+1) appended makes it nonzero for every kind
        if perturbed:
            order, defined, row = BILINEAR[kind]
            monkeypatch.setitem(BILINEAR, kind, (order + 1, defined,
                                                 lambda nu, lam: (*row(nu, lam), F(1, 3))))
        J = BilinearOp(kind, *BILINEAR_HOMES[kind])
        defects, real_columns = [], SymmetryMap.defect_columns

        def spy(T, X, elements):
            den, cols = real_columns(T, X, elements)
            defects.append((T, X, elements, den, cols))
            return den, cols

        monkeypatch.setattr(SymmetryMap, "defect_columns", spy)
        fields = defect_fields(space)
        bilinear_defect(J, space, 8, fields)
        assert [X for _, X, *_ in defects] == fields
        nonzero = False
        for T, X, elements, den, cols in defects:
            assert (T.target.k, T.target.lam, T.target.mu) == (J.order, J.lam, J.out_weight)
            assert elements
            for t, col in zip(elements, cols, strict=True):
                phi = DensityOperator(0, J.nu, [T.basis.monomials[t]])
                D = (J.operator(lie_derivative_operator(X, phi))
                     - lie_derivative_operator(X, J.operator(phi)))
                got = sorted((i, F(v, den)) for i, v in col.items() if v)
                assert got == T.target.entries_of(D)
                nonzero = nonzero or bool(got)
        assert nonzero == perturbed

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("kind", list(BILINEAR_HOMES))
    def test_defect_columns_are_the_reference_columns(self, monkeypatch, kind, perturbed,
                                                      space):
        # the columns read off the monomial rules equal those of ring
        # arithmetic on the operators of phi and L_X phi; the row with a
        # term 1/3 phi psi^(n+1) appended is equivariant for no kind
        if perturbed:
            order, defined, row = BILINEAR[kind]
            monkeypatch.setitem(BILINEAR, kind, (order + 1, defined,
                                                 lambda nu, lam: (*row(nu, lam), F(1, 3))))
        J = BilinearOp(kind, *BILINEAR_HOMES[kind])
        cols = bilinear_defect(J, space, 8, defect_fields(space))
        assert cols == reference_bilinear_defect(J, space, 8, defect_fields(space))
        assert any(v != 0 for col in cols for v in col) == perturbed

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("kind", list(BILINEAR_HOMES))
    def test_formal_columns_are_the_per_element_columns(self, monkeypatch, kind, perturbed,
                                                        space):
        # J(phi, .) as bilinear_defect reads it, from the window of F_nu into
        # its order-n sibling: its columns off formal_defect equal the
        # per-element reference's, as vectors; the row with a term
        # 1/3 phi psi^(n+1) appended is equivariant for no kind
        if perturbed:
            order, defined, row = BILINEAR[kind]
            monkeypatch.setitem(BILINEAR, kind, (order + 1, defined,
                                                 lambda nu, lam: (*row(nu, lam), F(1, 3))))
        J = BilinearOp(kind, *BILINEAR_HOMES[kind])
        phis = TruncatedBasis(0, 8, space, 0, J.nu)
        T = SymmetryMap(phis, (phis.sibling(J.order, J.lam, J.out_weight), J.terms), kind)
        nonzero = False
        for X in defect_fields(space):
            safe = phis.safe_indices(X)
            got = sparse_vectors(*T.defect_columns(X, safe))
            assert got == sparse_vectors(*element_defect_columns(T, X, safe))
            nonzero = nonzero or any(got)
        assert nonzero == perturbed

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("changed", [False, True])
    def test_defect_columns_are_the_pairwise_formula(self, monkeypatch, space, changed):
        if changed:  # grozman with c_3 = 1 instead of 2: not equivariant
            order, defined, _ = BILINEAR["grozman"]
            monkeypatch.setitem(BILINEAR, "grozman",
                                (order, defined, lambda nu, lam: (-2, -3, 3, 1)))
        J = BilinearOp("grozman", F(-2, 3), F(-2, 3))
        cols = bilinear_defect(J, space, 8, defect_fields(space))
        assert cols == pairwise_bilinear_defect(J, space, 8, defect_fields(space))
        assert any(v != 0 for col in cols for v in col) == changed

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("k", range(2, 6))
    def test_projections_are_the_former_closures(self, k, space):
        for lam, mu in [(F(1, 3), F(1, 5)), (F(-2, 7), F(5, 4)), (F(0), F(3))]:
            A = sample_operator(k, lam, mu, space)
            assert symbol(k, lam, mu)(A) == former_symbol(k)(A)
            assert v_formula(k, lam, mu)(A) == former_v_formula(k, lam, mu)(A)
            assert w_formula(k, lam, mu)(A) == former_w_formula(k, lam, mu)(A)
        lam, mu = wilmod_weights(k)
        A = sample_operator(k, lam, mu, space)
        for drop, former in enumerate(former_wilmod(k)):
            got = wilmod(drop, k, lam, mu)(A)
            assert got == former(A) and not got.is_zero


# ----------------------------------------------------------------------
# compose_terms, the one composition rule, against the composition of the
# maps applied to operators (oracle.AppliedMap), and the conversion between
# jet vectors and terms (reference.jet_terms, term_coordinates)
# ----------------------------------------------------------------------

def as_dict(terms):
    return {(r, o, l): c for r, o, l, c in terms}


def jet_callable(x, k, lam, mu):
    """A -> the jet map of x's local part at A, plus x's trace coordinate
    times nonlocal_trace(A) when x carries one."""
    n = len(component_unknowns(k))
    local = jet_map(x[:n], k, lam, mu)
    if len(x) == n:
        return local
    return lambda A: local(A) + x[-1] * nonlocal_trace(A)


class TestComposeTerms:
    # the trace exists only at (0, 1) on the circle, for k >= 1
    @pytest.mark.parametrize("k, space, trace", [(k, space, False) for k in range(7)
                                                 for space in (LINE, CIRCLE)]
                             + [(k, CIRCLE, True) for k in range(1, 7)])
    @pytest.mark.parametrize("kind", ["int", "Fraction"])
    def test_compose_terms_is_the_composite_on_operators(self, k, space, trace, kind):
        rng = random.Random(f"{k} {space} {trace} {kind}")
        size = len(component_unknowns(k)) + trace
        lam, mu = (F(0), F(1)) if trace else (F(2, 9), F(-5, 7))
        basis = TruncatedBasis(k, k + 4, space, lam, mu)

        def jet():
            # about a third of the entries zero, as in classify's sparse jets
            return [0 if rng.random() < 0.3 else rng.randint(-5, 5) if kind == "int"
                    else F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(size)]

        for _ in range(30):
            x, y = jet(), jet()
            got = compose_terms(jet_terms(x, k), jet_terms(y, k))
            assert len(got) == len(as_dict(got))
            if kind == "int":
                assert all(type(c) is int for *_, c in got)
            X, Y = (AppliedMap(basis, jet_callable(v, k, lam, mu)) for v in (x, y))
            assert SymmetryMap(basis, (basis, got)).columns == (X @ Y).columns

    @pytest.mark.parametrize("k", range(1, 7))
    def test_trace_rules(self, k):
        # L o L = 0, L o T = t[0,0] L and T o L = t[1,0] L
        rng = random.Random(k)
        unknowns = component_unknowns(k)
        L = jet_terms([0] * len(unknowns) + [1], k)
        assert L == [(0, 1, None, 1)]
        assert compose_terms(L, L) == []
        for _ in range(10):
            t = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in unknowns]
            t00, t10 = t[unknowns.index((0, 0))], t[unknowns.index((1, 0))]
            T = jet_terms(t, k)
            for got, c in ((compose_terms(L, T), t00), (compose_terms(T, L), t10)):
                assert got == ([(0, 1, None, c)] if c else [])
                assert term_coordinates(got, k, True) == [0] * len(unknowns) + [c]

    def test_a_mean_meets_only_the_zeroth_derivative(self):
        # the mean of a derivative is 0, and a constant's derivative is 0
        mean = [(0, 1, None, 2)]
        assert compose_terms([(1, 1, 0, 3), (1, 0, 1, 5)], mean) == [(0, 1, None, 6)]
        assert compose_terms(mean, [(0, 0, 0, 3), (1, 0, 1, 5)]) == [(0, 1, None, 6)]
        assert compose_terms(mean, [(1, 0, 1, 5)]) == []

    def test_a_term_below_d0_never_cancels(self):
        guard = (0, -1, 0, 1)
        # it passes through an outer map, and an inner term that reaches it
        # adds another
        assert compose_terms([(0, 0, 0, 7)], [guard]) == [guard]
        assert as_dict(compose_terms([guard, (1, 0, 0, 1)], [(1, 0, 1, 3), (1, 1, 0, 2)])) == {
            (1, -1, 1): 3, (1, 0, 0): 2}
        # a guard scaled to 0 (0 * X) still guards
        assert compose_terms([(0, -1, 0, 0)], [(1, 0, 1, 3)]) == [(1, -1, 1, 0)]


class TestTermConversion:
    """The test-side jet_terms and term_coordinates, the conversion between
    jet vectors and terms, and its refusals."""

    @pytest.mark.parametrize("k", range(6))
    def test_term_coordinates_invert_jet_terms(self, k):
        rng = random.Random(700 + k)
        unknowns = component_unknowns(k)
        scale = [perm(r, l) for r, l in unknowns]
        for trace in (False, True):
            t = [F(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.7 else F(0)
                 for _ in range(len(unknowns) + trace)]
            terms = jet_terms(t, k)
            assert term_coordinates(terms, k, trace) == [
                c * p for c, p in zip(t, scale + [1] * trace)]
            if not trace:
                assert terms_jet(terms, k) == t
        ints = [rng.randint(-9, 9) for _ in unknowns] + [5]
        assert all(type(c) is int for c in term_coordinates(jet_terms(ints, k), k, True))

    def test_a_jet_of_another_length_raises(self):
        # order 1 has the 3 coordinates t[0,0], t[1,0], t[1,1], and the trace
        with pytest.raises(ValueError, match="shorter"):
            jet_terms([1] * 2, 1)
        with pytest.raises(ValueError, match="too many values"):
            jet_terms([1] * 5, 1)
        assert jet_terms([1] * 4, 1)[-1] == (0, 1, None, 1)

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("term", [
        (0, 1, None, 1),  # the trace's mean term: no local action
        (1, 0, 0, 1),     # o != r - l: a_1 at d^0
        (4, 4, 0, 1),     # a slot past k
    ])
    def test_componentwise_map_refuses_terms_of_no_local_endomorphism(self, k, term):
        # refused at construction, not dropped or failing when applied
        with pytest.raises(ValueError, match=f"^no endomorphism of order {k}, trace False, has"):
            componentwise_map([(0, 0, 0, 1), term], k, 0, 1)

    @pytest.mark.parametrize("trace", [False, True])
    @pytest.mark.parametrize("term", [
        (2, 0, 1, 1),     # o != r - l: a projection's term, a_2' at d^0
        (1, 2, 0, 1),     # o != r - l: right composition with d
        (3, 0, 3, 1),     # a slot past k = 2
        (0, -1, 0, 1),    # a guard term below d^0 (delta^-1 of a_0)
        (0, -1, 0, 0),    # a guard scaled to 0 still guards
        (1, 1, None, 1),  # a mean of a_1, not the trace's
        (0, 0, None, 1),  # the mean of a_0 at d^0, not the trace's
    ])
    def test_a_term_of_no_endomorphism_raises(self, term, trace):
        with pytest.raises(ValueError, match=f"^no endomorphism of order 2, trace {trace}, has"):
            term_coordinates([(0, 0, 0, 1), term], 2, trace)

    def test_the_trace_term_needs_a_trace_slot(self):
        trace = (0, 1, None, 1)
        assert term_coordinates([trace], 2, True) == [0] * 6 + [1]
        message = r"^no endomorphism of order 2, trace False, has \(0, 1, None, 1\)$"
        with pytest.raises(ValueError, match=message):
            term_coordinates([trace], 2, False)
        with pytest.raises(ValueError, match=message):
            terms_jet([trace], 2)
