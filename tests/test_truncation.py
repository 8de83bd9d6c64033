import inspect
import operator
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from densym import cli, densities, identities, rings, truncation
from densym.densities import DensityOperator, VectorField, lie_derivative_operator, lie_terms
from densym.errors import (
    InapplicableSymmetryError, NotInKernelError, TruncationOverflowError, WeightMismatchError,
)
from densym.identities import CATALOG_HOMES, CheckConfig, check_catalog_op
from densym.linalg import integer_row, max_abs, nullspace, rank
from densym.operators import (
    CATALOG, BilinearOp, Projection, component_unknowns, componentwise_map, compose_terms,
    conjugate, conjugation_terms, delta_compose, delta_inverse, nonlocal_trace, p0, symbol,
    w_formula,
)
from densym.recurrence import build_system
from densym.rings import CIRCLE, LINE, PolyFn, TrigFn, monomial_derivative, monomial_product
from densym.truncation import (
    SymmetryMap, TruncatedBasis, brute_force_local_symmetries,
    circle_fields, conjugation_map, coordinate, dense, equivariance_defect, formal_defect,
    formal_rows, generator_family, invariant_functionals_dimension, line_fields, numerator_over,
    projection_terms, realize, ring_basis, ring_coordinates, ring_dim, ring_entries, shift_map,
    signed_index,
)
import oracle
from oracle import (
    AppliedMap, brute_force_fields, element_defect_columns, elements, sparse_vectors,
    windowed_local_symmetries,
)
from reference import (
    density, jet_map, jet_terms, lie_derivative_density, reference_bilinear_defect, ring_vector,
    s_map_chain,
)


# the operator routes of the closed-form maps that leave the module:
# conjugation_map and shift_map(basis, 1) and (basis, -1), by name
OPERATOR_ROUTES = {"C": conjugate, "delta": delta_compose, "delta^-1": delta_inverse}


def callable_of(T):
    """T's func, or, for a closed-form leaf, the callable of its name: the
    operator route of OPERATOR_ROUTES (C on lam + mu = 1 too), else that of
    its catalog entry: the map of a local endomorphism's terms, its
    Projection, or the trace."""
    if isinstance(T, AppliedMap):
        return T.func
    if T.name in OPERATOR_ROUTES:
        return OPERATOR_ROUTES[T.name]
    entry, (k, lam, mu) = CATALOG[T.name], (T.basis.k, T.basis.lam, T.basis.mu)
    if entry.kind == "endo" and entry.exists(k, lam, mu, LINE):
        return componentwise_map(entry.terms(k, lam, mu), k, lam, mu)
    return entry.make(k, lam, mu)


def direct_equivariance_defect(T, X):
    """Reference for equivariance_defect: T o L_X - L_X o T evaluated on each
    safe basis element directly, with no appeal to linearity."""
    basis, func = T.basis, callable_of(T)
    ops = elements(basis)
    safe = [ops[j] for j in basis.safe_indices(X)]
    if not safe:
        raise TruncationOverflowError("no safe sub-basis: window M is too small")
    cols = []
    for b in safe:
        lhs, image = func(lie_derivative_operator(X, b)), func(b)
        if (image.lam, image.mu) != (basis.lam, basis.mu):  # a density off the module
            cols.append(ring_vector((lhs - lie_derivative_density(X, image)).coeffs[0], basis.M))
        else:
            cols.append(basis.vector_of(lhs - lie_derivative_operator(X, image)))
    return cols


def true_image(T, j):
    """T.image(j), integers over T.den, as a dict of its true values."""
    return {t: F(v, T.den) for t, v in T.image(j)}


def true_lie(window, X, j):
    """oracle.lie_entries(window, X, j), integers over lie_den, as true values."""
    return [(t, F(v, oracle.lie_den(window, X))) for t, v in oracle.lie_entries(window, X, j)]


def true_columns(window, X):
    """The L_X columns of the window's safe elements that window.columns reads
    off lie_terms, as true values."""
    lie = [{(m, p, q, False): c for m, p, q, c in lie_terms(i, window.lam, window.mu)}
           for i in range(window.k + 1)]
    return [sorted((t, F(v, window.product_den(X))) for t, v in col.items() if v)
            for col in window.columns(X, lie, window.safe_indices(X))]


def dense_defect(T, X):
    """equivariance_defect with each sparse column written out densely."""
    return [dense(col.items(), T.target.dim) for col in equivariance_defect(T, X)]


class TestTruncatedBasis:
    def test_dimensions(self):
        assert TruncatedBasis(2, 4, LINE, 0, 1).dim == 3 * 5
        assert TruncatedBasis(2, 4, CIRCLE, 0, 1).dim == 3 * 9

    def test_ordering_is_order_then_monomial(self):
        basis = TruncatedBasis(1, 1, LINE, 0, 0)
        ops = elements(basis)
        assert [b.order for b in ops] == [0, 0, 1, 1]
        assert ops[1].coeffs[0] == PolyFn.monomial(1)
        assert ops[3].coeffs[1] == PolyFn.monomial(1)

    def test_vector_round_trip(self):
        basis = TruncatedBasis(2, 3, CIRCLE, F(1, 3), F(1, 5))
        A = DensityOperator(F(1, 3), F(1, 5), [
            TrigFn(1, {2: F(1, 2)}, {}), TrigFn.sine(3), TrigFn.cosine(1)])
        vec = basis.vector_of(A)
        assert len(vec) == basis.dim
        assert sum((c * b for c, b in zip(vec, elements(basis)) if c),
                   DensityOperator.zero(A.lam, A.mu, CIRCLE)) == A

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_ring_coordinates_follow_the_monomial_order(self, space):
        """The window reads coordinates in ring_basis order: the monomial m_t
        is the one at signed_index(space, t), x^t on the line and 1, cos x,
        sin x, cos 2x, ... on the circle, with the one coordinate (t, 1), and
        the coordinates of any element come out ascending."""
        monos = ring_basis(space, 5)
        if space == LINE:
            want = [PolyFn([0] * d + [1]) for d in range(6)]
        else:
            want = [TrigFn.constant(1)] + [f for n in range(1, 6)
                                           for f in (TrigFn.cosine(n), TrigFn.sine(n))]
        assert monos == want
        for t, mono in enumerate(monos):
            assert mono.terms == {signed_index(space, t): 1}
            assert truncation.ring_coordinates(mono) == [(t, 1)]
        rng = random.Random(11)
        for _ in range(50):
            picked = sorted(rng.sample(range(len(monos)), rng.randint(0, len(monos))))
            want = [(t, F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))) for t in picked]
            fn = sum((c * monos[t] for t, c in want), rings.zero(space))
            assert truncation.ring_coordinates(fn) == want

    def test_unknown_space_raises(self):
        with pytest.raises(ValueError, match="unknown space 'sphere'"):
            TruncatedBasis(2, 6, "sphere", 0, 1)

    def test_overflow_on_high_degree(self):
        basis = TruncatedBasis(1, 2, LINE, 0, 0)
        A = DensityOperator(0, 0, [PolyFn.monomial(5)])
        with pytest.raises(TruncationOverflowError):
            basis.vector_of(A)

    def test_overflow_on_high_order(self):
        basis = TruncatedBasis(1, 2, LINE, 0, 0)
        A = DensityOperator(0, 0, [PolyFn.zero()] * 3 + [PolyFn([1])])
        with pytest.raises(TruncationOverflowError):
            basis.vector_of(A)

    def test_safe_indices_shrink_with_field_size(self):
        basis = TruncatedBasis(1, 4, CIRCLE, 0, 0)
        big = len(basis.safe_indices(VectorField(TrigFn.cosine(1))))
        small = len(basis.safe_indices(VectorField(TrigFn.cosine(3))))
        assert big > small > 0


class TestRealize:
    def test_identity_columns(self):
        basis = TruncatedBasis(1, 2, LINE, 0, 1)
        T = realize("Id", basis)
        n = basis.dim
        assert T.columns == [[F(int(i == j)) for i in range(n)] for j in range(n)]

    def test_conjugation_squares_to_identity(self):
        basis = TruncatedBasis(1, 2, LINE, 0, 1)
        C = realize("C", basis)
        assert (C @ C - realize("Id", basis)).is_zero()

    def test_p0_idempotent_as_map(self):
        basis = TruncatedBasis(2, 3, CIRCLE, 0, 1)
        P = realize("P0", basis)
        assert (P @ P - P).is_zero()

    def test_inapplicable_raises(self):
        basis = TruncatedBasis(2, 3, CIRCLE, F(1, 2), F(1, 2))
        with pytest.raises(InapplicableSymmetryError):
            realize("P0", basis)
        with pytest.raises(InapplicableSymmetryError, match="'poisson' is a bilinear map"):
            realize("poisson", basis)

    def test_projection_lands_in_its_density_window(self):
        basis = TruncatedBasis(2, 3, CIRCLE, F(1, 2), F(1, 2))
        assert realize("sigma", basis).target is basis.densities(-2)  # nu = mu - lam - k

    def test_linear_combinations_of_maps(self):
        basis = TruncatedBasis(1, 2, CIRCLE, 0, 1)
        C = realize("C", basis)
        Id = realize("Id", basis)
        Z = (C @ C) - Id
        assert Z.is_zero()
        assert (2 * Id - Id - Id).is_zero()


def _catalog_maps(space, names, k=3, lam=F(0), mu=F(1), M=None):
    """The named catalog maps at (lam, mu) on one basis, in closed form, and
    their callables."""
    basis = TruncatedBasis(k, k + 6 if M is None else M, space, lam, mu)
    funcs = {n: CATALOG[n].make(k, lam, mu) for n in names}
    return basis, {n: realize(n, basis) for n in names}, funcs


class TestTermArithmetic:
    # each derived closed form against the callables applied per element
    @pytest.mark.parametrize("space, x, y", [
        (space, x, y) for space in (LINE, CIRCLE)
        for x, y in [("C", "P1"), ("P0star", "C"), ("P1", "P0"), ("P0", "P0star")]
    ] + [(CIRCLE, "L", "C"), (CIRCLE, "P1", "L")])  # the trace L exists only on the circle
    def test_images_match_the_callables(self, space, x, y):
        basis, maps, f = _catalog_maps(space, [x, y])
        X, Y, q = maps[x], maps[y], F(-3, 7)
        derived = [
            (X @ Y, lambda A: f[x](f[y](A))),
            (X + Y, lambda A: f[x](A) + f[y](A)),
            (X - Y, lambda A: f[x](A) - f[y](A)),
            (q * X, lambda A: q * f[x](A)),
            (X * q - Y @ X, lambda A: q * f[x](A) - f[y](f[x](A))),
        ]
        for T, func in derived:
            assert type(T) is SymmetryMap
            for j, b in enumerate(elements(basis)):
                assert true_image(T, j) == dict(basis.entries_of(func(b))), (T.name, j)
            assert T.target is basis

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    def test_projection_as_outer_map_gives_density_columns(self, space):
        basis, maps, f = _catalog_maps(space, ["sigma", "C", "P1"])
        sigma, C, P1 = maps["sigma"], maps["C"], maps["P1"]
        nu = f["sigma"](elements(basis)[0]).mu
        derived = [
            (sigma @ C, lambda A: f["sigma"](f["C"](A))),
            (sigma @ (C - P1), lambda A: f["sigma"](f["C"](A) - f["P1"](A))),
            (2 * sigma - sigma @ P1, lambda A: 2 * f["sigma"](A) - f["sigma"](f["P1"](A))),
        ]
        densities = basis.densities(nu)
        assert (densities.k, densities.lam, densities.mu) == (0, 0, nu)
        assert densities.dim == ring_dim(space, basis.M)
        for T, func in derived:
            assert T.target is sigma.target is densities
            assert len(T.columns[0]) == densities.dim
            for j, b in enumerate(elements(basis)):
                image = func(b)
                assert (image.lam, image.mu, image.order) == (0, nu, 0)
                assert true_image(T, j) == dict(ring_entries(image.coeffs[0], basis.M))

    def test_composing_after_a_projection_raises(self):
        # sigma's target is the density window, which no map of the basis reads
        _, maps, _ = _catalog_maps(CIRCLE, ["sigma", "C"])
        with pytest.raises(ValueError, match="cannot compose C after sigma"):
            maps["C"] @ maps["sigma"]
        with pytest.raises(ValueError, match=r"cannot compose sigma after sigma\*C"):
            maps["sigma"] @ (maps["sigma"] @ maps["C"])
        with pytest.raises(ValueError, match="different spaces"):
            maps["C"] + maps["sigma"]

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.matmul])
    def test_maps_on_different_bases_raise(self, op):
        _, one, _ = _catalog_maps(CIRCLE, ["C"])
        _, other, _ = _catalog_maps(CIRCLE, ["C"])
        with pytest.raises(ValueError, match="different bases"):
            op(one["C"], other["C"])
        with pytest.raises(ValueError, match="different bases"):
            op(one["C"], 2 * other["C"])

    def test_a_derived_map_is_one_closed_form(self, monkeypatch):
        # its images come from one term_images call, on its own terms; no
        # operand builds its images
        _, _, images, _, _ = spy_window_kernel(monkeypatch)
        basis = TruncatedBasis(2, 8, CIRCLE, F(0), F(1))
        C, L = realize("C", basis), realize("L", basis)
        Z = C @ C - 3 * C + L @ C
        for _ in range(2):
            Z.flat()
        assert type(Z) is SymmetryMap and Z.target is basis
        assert [args for _, args in images] == [(basis, Z.closed[1])]
        assert C._images is None and L._images is None


class TestDensityWindow:
    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("nu", [F(0), F(1), F(-2, 3)])
    def test_a_density_is_read_as_an_order_0_operator(self, space, nu):
        basis = TruncatedBasis(2, 6, space, F(1, 2), F(3))
        window = basis.densities(nu)
        assert basis.densities(nu) is window and basis.densities(nu + 1) is not window
        rng = random.Random(f"{space} {nu}")
        for _ in range(5):
            f = sum((rng.randint(-4, 4) * m for m in window.monomials), rings.zero(space))
            assert window.entries_of(density(nu, f)) == ring_entries(f, basis.M)
            with pytest.raises(TruncationOverflowError):
                window.entries_of(density(nu + F(1, 3), f))
            # only densities have coordinates: not an operator from weight
            # 1/2, nor one of order 1
            with pytest.raises(TruncationOverflowError):
                window.entries_of(DensityOperator(F(1, 2), nu, [f]))
            with pytest.raises(TruncationOverflowError):
                window.entries_of(DensityOperator(0, nu, [f, window.monomials[1]]))

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    def test_window_lie_derivative_is_the_density_one(self, space):
        window = TruncatedBasis(3, 6, space, 0, 1).densities(F(-1, 2))
        for X in generator_family(space):
            for j in window.safe_indices(X):
                phi = density(window.mu, window.monomials[j])
                want = ring_entries(lie_derivative_density(X, phi).coeffs[0], window.M)
                assert true_lie(window, X, j) == want


def lie_outcome(read):
    """read()'s entries as a dict, or the message of the overflow it raises."""
    try:
        return dict(read())
    except TruncationOverflowError as exc:
        return f"overflow: {exc}"


class TestWindowLieDerivative:
    # every element of the window, safe or not, under the verify and oracle
    # fields, on the basis and on two of its density windows: the reference's
    # L_X (oracle.lie_entries), and on the safe elements the columns that
    # the functionals read (TruncatedBasis.columns of lie_terms)
    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    def test_every_column_is_the_operator_action(self, space, k):
        fields = generator_family(space) + brute_force_fields(space)
        outcomes = Counter()
        for M in (k + 4, k + 6):
            for lam, mu in [(F(0), F(1)), (F(1, 3), F(1, 5)), (F(-1, 2), F(3, 2))]:
                basis = TruncatedBasis(k, M, space, lam, mu)
                for window in (basis, basis.densities(mu), basis.densities(-1)):
                    for X in fields:
                        for j, b in enumerate(elements(window)):
                            want = lie_outcome(
                                lambda: window.entries_of(lie_derivative_operator(X, b)))
                            assert lie_outcome(lambda: true_lie(window, X, j)) == want
                            outcomes[isinstance(want, str)] += 1
                        assert true_columns(window, X) == [
                            true_lie(window, X, j) for j in window.safe_indices(X)]
        assert outcomes[True] and outcomes[False]

    def test_products_that_cancel_past_the_window_do_not_overflow(self):
        # at nu = -1, X = cos x, phi = cos x and M = 1: X phi' = -sin(2x)/2
        # and -X' phi = sin(2x)/2 both reach past the window, and cancel
        window = TruncatedBasis(0, 1, CIRCLE, 0, 0).densities(-1)
        X, phi = VectorField(TrigFn.cosine(1)), TrigFn.cosine(1)
        j = window.monomials.index(phi)
        assert j not in window.safe_indices(X)
        assert (X.value * phi.diff()).size == 2
        assert window.entries_of(lie_derivative_operator(X, elements(window)[j])) == []
        assert oracle.lie_entries(window, X, j) == []


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)


@st.composite
def multi_term_fields(draw):
    """A field X with two to four terms and fractional coefficients, on
    either space."""
    space = draw(st.sampled_from([LINE, CIRCLE]))
    indices = st.integers(0, 4) if space == LINE else st.integers(-3, 3)
    terms = draw(st.dictionaries(indices, rationals, min_size=2, max_size=4))
    if space == LINE:
        return VectorField(PolyFn([terms.get(d, 0) for d in range(5)]))
    return VectorField(TrigFn(terms.get(0, 0), {n: c for n, c in terms.items() if n > 0},
                              {-n: c for n, c in terms.items() if n < 0}))


x = sympy.Symbol("x")


def sympy_monomial(space, i):
    """The monomial with signed index i as a sympy expression in x."""
    if space == LINE:
        return x ** i
    return sympy.cos(i * x) if i >= 0 else sympy.sin(-i * x)


class TestMonomialRules:
    # the two rules that the ring product and derivative, the product table
    # and J(m_a, m_b) all read, against sympy's own expansion: written in
    # exp(i n x), a trig or polynomial expression is zero when it expands to 0
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([LINE, CIRCLE]), st.integers(-5, 5), st.integers(-5, 5),
           st.integers(0, 3))
    def test_rules_match_sympy(self, space, a, b, q):
        if space == LINE:
            a, b = abs(a), abs(b)
        ma, mb = sympy_monomial(space, a), sympy_monomial(space, b)
        assert signed_index(space, coordinate(space, a)) == a
        i, c = monomial_derivative(space, a, q)
        want = sympy.diff(ma, x, q)
        assert sympy.expand((c * sympy_monomial(space, i) - want).rewrite(sympy.exp)) == 0
        twice = 1 if space == LINE else 2
        got = sum(c * sympy_monomial(space, s) for s, c in monomial_product(space, a, b))
        assert sympy.expand((got - twice * ma * mb).rewrite(sympy.exp)) == 0

    @settings(max_examples=150, deadline=None)
    @given(multi_term_fields(), st.integers(0, 6), st.integers(0, 3), st.integers(0, 8))
    def test_product_rows_are_the_ring_products(self, X, p, q, t):
        # the row of X^(p) m_t^(q), ints over the table's den, is the ring
        # product's coordinates times den; den clears every value (9
        # monomials on either window)
        window = TruncatedBasis(0, 8 if X.space == LINE else 4, X.space, 0, 0)
        den = window.product_den(X)
        product = X.value.diff(p) * window.monomials[t].diff(q)
        assert window.product_row(X, p, q, t) == [
            (s, numerator_over(den, v)) for s, v in ring_coordinates(product)]


# the projections at n = 0 and lam = 0, whose F_nu = F_mu is read in the
# order-k window itself: (name, k, lam, mu, then the verify line's counts on
# the circle and on the line)
IN_MODULE_PROJECTIONS = [
    ("V", 1, F(0), F(1, 2), (126, 30), (58, 16)),
    ("sigma", 0, F(0), F(3, 5), (53, 13), (25, 7)),
    ("wilmodA", 1, F(0), F(1), (126, 30), (58, 16)),
    ("wilmodB", 1, F(0), F(1), (126, 30), (58, 16)),
]


def density_window_defect(func, basis, X):
    """func o L_X - L_X o func on each safe element, read on the explicit
    window basis.densities(mu), with L_X of the image by the density formula."""
    window = basis.densities(basis.mu)
    return [dict(window.entries_of(func(lie_derivative_operator(X, b))
                                   - lie_derivative_density(X, func(b))))
            for b in (elements(basis)[j] for j in basis.safe_indices(X))]


class TestProjectionIntoItsOwnModule:
    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    @pytest.mark.parametrize("name, k, lam, mu, circle, line", IN_MODULE_PROJECTIONS)
    def test_verify_line(self, capsys, space, name, k, lam, mu, circle, line):
        entries, size = circle if space == CIRCLE else line
        argv = ["verify", "--op", name, "-k", str(k), "--lambda", str(lam), "--mu", str(mu)]
        assert cli.main(argv + ["--space", space]) == 0
        assert capsys.readouterr().out == \
            f"op:{name}: pass, defect 0, {entries} entries checked, basis size {size}\n"

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    @pytest.mark.parametrize("name, k, lam, mu, circle, line", IN_MODULE_PROJECTIONS)
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_defect_columns_equal_the_density_window(self, space, name, k, lam, mu,
                                                     circle, line, perturbed):
        proj = CATALOG[name].make(k, lam, mu)
        assert proj.nu == mu  # n = 0 at lam = 0
        # + a_0', a map into F_mu that no field leaves invariant
        func = (lambda A: proj(A) + density(mu, A.coefficient(0).diff())) if perturbed else proj
        T = AppliedMap(TruncatedBasis(k, k + 6, space, lam, mu), func)
        assert T.target is T.basis
        defects = []
        for X in generator_family(space):
            cols = [{i: v for i, v in col.items() if v} for col in equivariance_defect(T, X)]
            assert cols == density_window_defect(func, T.basis, X)
            defects.append(any(cols))
        assert any(defects) == perturbed


class TestEquivarianceDefect:
    def test_identity_commutes(self):
        basis = TruncatedBasis(1, 4, LINE, F(1, 3), F(1, 5))
        T = realize("Id", basis)
        for X in line_fields(3):
            assert max_abs(dense_defect(T, X)) == 0

    def test_conjugation_commutes_on_symmetric_line(self):
        basis = TruncatedBasis(2, 5, LINE, F(1, 4), F(3, 4))
        T = realize("C", basis)
        for X in line_fields(3):
            assert max_abs(dense_defect(T, X)) == 0

    def test_non_symmetry_has_nonzero_defect(self):
        # a1 d/dx -> a1' is translation-invariant but not a symmetry of
        # D^1_{0,0}: the quadratic field must detect it
        basis = TruncatedBasis(1, 4, LINE, 0, 0)
        # t[1,1] = 1: the one term a_1' at d^0
        T = AppliedMap(basis, componentwise_map([(1, 0, 1, 1)], 1, 0, 0))
        defects = [dense_defect(T, X) for X in line_fields(3)]
        assert any(max_abs(cols) != 0 for cols in defects)
        assert defects == [direct_equivariance_defect(T, X) for X in line_fields(3)]

    def test_degree_raising_map_overflows_instead_of_truncating(self):
        basis = TruncatedBasis(1, 4, LINE, 0, 0)

        def raises_degree(A):
            return DensityOperator(0, 0, [PolyFn.monomial(1) * c for c in A.coeffs])

        T = AppliedMap(basis, raises_degree, name="x*")
        with pytest.raises(TruncationOverflowError):
            for X in line_fields(3):
                equivariance_defect(T, X)

    @pytest.mark.parametrize("X", circle_fields(2), ids=repr)
    def test_frequency_raising_map_overflows_instead_of_truncating(self, X):
        # T(b) of a top-frequency element leaves the window; every field's
        # defect needs such an image, so each one raises
        basis = TruncatedBasis(1, 4, CIRCLE, 0, 0)

        def raises_frequency(A):
            return DensityOperator(0, 0, [TrigFn.cosine(1) * c for c in A.coeffs])

        T = AppliedMap(basis, raises_frequency, name="cos*")
        with pytest.raises(TruncationOverflowError):
            equivariance_defect(T, X)

    def test_window_too_small_raises(self):
        basis = TruncatedBasis(1, 1, CIRCLE, 0, 1)
        T = realize("Id", basis)
        with pytest.raises(TruncationOverflowError):
            equivariance_defect(T, VectorField(TrigFn.cosine(2)))

    def test_defect_stable_under_window_growth(self):
        # zero at M = k+6 stays zero at M = k+8
        for M in (9, 11):
            basis = TruncatedBasis(3, M, CIRCLE, 0, 1)
            for name in ("C", "P1", "L"):
                T = realize(name, basis)
                for X in circle_fields(2):
                    assert max_abs(dense_defect(T, X)) == 0


def every_home_entry():
    out = []
    for name in sorted(CATALOG_HOMES):
        for space in (CIRCLE, LINE):
            if not CATALOG[name].exists(*CATALOG_HOMES[name], space):
                continue
            out.append((name, space))
    return out


@pytest.mark.parametrize("name,space", every_home_entry())
def test_catalog_equivariance_at_home(name, space):
    res = check_catalog_op(name, CheckConfig(space=space))
    assert res.passed, res.line()


@pytest.mark.parametrize("name", ["calW", "GV", "JW", "S"])
def test_catalog_equivariance_stable_under_larger_window(name):
    k = CATALOG_HOMES[name][0]
    res = check_catalog_op(name, CheckConfig(space=CIRCLE, M=k + 8))
    assert res.passed, res.line()


def home_map(name, space, M=None):
    """The catalog map `name` at its home, on the window of its --op check."""
    k, lam, mu = CATALOG_HOMES[name]
    basis = TruncatedBasis(k, k + 6 if M is None else M, space, lam, mu)
    return AppliedMap(basis, CATALOG[name].make(k, lam, mu), name=name)


def every_map_home():
    return [(name, space) for name, space in every_home_entry()
            if CATALOG[name].kind != "bilinear"]


class TestDefectByLinearity:
    @pytest.mark.parametrize("wide", [False, True], ids=["M=k+6", "M=k+8"])
    @pytest.mark.parametrize("name,space", every_map_home())
    def test_columns_equal_the_direct_route(self, name, space, wide):
        k = CATALOG_HOMES[name][0]
        T = home_map(name, space, k + 8 if wide else None)
        for X in generator_family(space):
            assert dense_defect(T, X) == direct_equivariance_defect(T, X)

    @pytest.mark.parametrize("lam,mu", [(F(0), F(1, 2)), (F(1, 3), F(2)), (F(-1, 3), F(0))])
    def test_nonzero_columns_equal_the_direct_route(self, lam, mu):
        # the points w_sharpness checks off the order-4 locus
        T = AppliedMap(TruncatedBasis(4, 10, CIRCLE, lam, mu), w_formula(4, lam, mu))
        defects = [dense_defect(T, X) for X in circle_fields(2)]
        assert any(max_abs(cols) != 0 for cols in defects)
        assert defects == [direct_equivariance_defect(T, X) for X in circle_fields(2)]

    def test_wrong_formula_fails_on_both_routes(self, capsys, monkeypatch):
        def s_sign_flipped(A):
            a = A.coeffs + (rings.zero(A.space),)
            return conjugate(DensityOperator(1, 1, [a[i] - a[i + 1].diff()
                                                    for i in range(A.order + 1)]))

        def s_sign_flipped_terms(k, lam, mu):
            # c o n, with n's terms a_r at d^r and -a_r' at d^(r-1)
            n = [(r, r, 0, 1) for r in range(k + 1)] + [(r, r - 1, 1, -1) for r in range(1, k + 1)]
            return compose_terms(conjugation_terms(k), n)

        monkeypatch.setitem(CATALOG, "S", replace(
            CATALOG["S"], make=lambda k, lam, mu: s_sign_flipped, terms=s_sign_flipped_terms))
        T = home_map("S", CIRCLE)
        defects = [dense_defect(T, X) for X in circle_fields(2)]
        assert any(max_abs(cols) != 0 for cols in defects)
        assert defects == [direct_equivariance_defect(T, X) for X in circle_fields(2)]
        # verify reads the flipped terms in closed form: the same columns
        assert realize("S", T.basis).columns == T.columns
        assert cli.main(["verify", "--op", "S"]) == 1
        assert "op:S: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["S", "W", "piDelta"])
    def test_columns_are_the_image_vectors(self, name):
        # an operator image is read on the basis, a density on the ring window
        T = home_map(name, CIRCLE)
        module = (T.basis.lam, T.basis.mu)
        images = [T.func(b) for b in elements(T.basis)]
        assert T.columns == [ring_vector(A.coeffs[0], T.basis.M) if (A.lam, A.mu) != module
                             else T.basis.vector_of(A) for A in images]

    @pytest.mark.parametrize("name,space", every_map_home())
    def test_maps_are_linear(self, name, space):
        T = home_map(name, space)
        ops = elements(T.basis)
        rng = random.Random(f"{name} {space}")
        for _ in range(4):
            b1, b2 = rng.sample(ops, 2)
            # odd over even: never an integer
            q1, q2 = (F(2 * rng.randint(-5, 4) + 1, 2 * rng.randint(1, 4)) for _ in range(2))
            assert T.func(q1 * b1 + q2 * b2) == q1 * T.func(b1) + q2 * T.func(b2)

    @pytest.mark.parametrize("name", ["S", "Sstar", "W", "L"])
    def test_each_map_reads_one_formal_defect(self, name, monkeypatch):
        # every map, the trace L too, is read in closed form: one
        # formal_defect of its terms, from its module into the target's
        # weights (W's into F_nu), gives its defect under every field, so its
        # callable is never applied, no image is built and no window L_X is
        # read per element
        applied, built = [], []
        real_make, real_call = CATALOG[name].make, Projection.__call__

        def make(k, lam, mu):
            T = real_make(k, lam, mu)
            return lambda A: applied.append(A) or T(A)

        if name == "W":  # realize reads the row of the Projection that make returns
            monkeypatch.setattr(Projection, "__call__",
                                lambda pi, A: applied.append(A) or real_call(pi, A))
        else:
            monkeypatch.setitem(CATALOG, name, replace(CATALOG[name], make=make))
        real_images = truncation.term_images
        monkeypatch.setattr(truncation, "term_images",
                            lambda *args: built.append(args) or real_images(*args))
        _, _, _, _, formal = spy_window_kernel(monkeypatch)
        lie_builds = count_window_lie_builds(monkeypatch)
        res = check_catalog_op(name, CheckConfig())
        assert res.passed, res.line()
        assert applied == [] and built == [] and not lie_builds
        k, lam, mu = CATALOG_HOMES[name]
        [(_, source, target)] = [args for _, args in formal]
        assert source == (k, lam, mu)
        assert target == ((0, w_formula(k, lam, mu).nu) if name == "W" else (lam, mu))

    @pytest.mark.parametrize("name, wrong", [
        ("S", lambda e: replace(e, terms=perturbed_terms(e.terms))),
        ("W", lambda e: replace(e, make=perturbed_w)),
    ])
    def test_ring_products_stay_within_the_product_table(self, name, wrong, monkeypatch):
        # the map's formal defect is empty, so its check fills no product
        # row.  A perturbed map's defect reads the rows X^(p) m^(q) of its
        # formal defect's (p, q): at most that many ring_dim rows per field,
        # each filled once off the monomial rules however many elements and
        # windows read it (W reads the basis and its density window, which
        # share the table), with no ring product or derivative
        ring, fills, _, windows, formal = spy_window_kernel(monkeypatch)
        res = check_catalog_op(name, CheckConfig())
        assert res.passed and fills == [], res.line()
        windows.clear()
        formal.clear()
        monkeypatch.setitem(CATALOG, name, wrong(CATALOG[name]))
        assert not check_catalog_op(name, CheckConfig()).passed
        basis = max(windows, key=lambda w: w.k)
        assert len(windows) == (2 if name == "W" else 1)
        assert len({id(w._products) for w in windows}) == 1
        rows = sum(len(rows) for _, _, rows in basis._products.values())
        [(terms, source, target)] = [args for _, args in formal]
        products = {(p, q or 0) for col in truncation.formal_defect(terms, source, target)[1]
                    for _, p, q, _ in col}
        fields = generator_family(CIRCLE)
        assert 0 < len(fills) == rows <= len(fields) * len(products) * ring_dim(CIRCLE, basis.M)
        assert ring == []


def spy_window_kernel(monkeypatch):
    """Spies on the window kernel from here on; returns (ring, fills, images,
    windows, formal).  ring lists the ring products and derivatives and the
    lie_derivative_operator and BilinearOp.operator calls made inside a
    window's columns, oracle.lie_entries, bilinear_defect,
    equivariance_defect or a map's image
    build (SymmetryMap._load), and every operator built there (no kernel
    needs one); fills the product_entries
    calls, one per product-table row filled (and per coefficient of a
    bilinear defect operator at d^o and psi); images the term_images calls,
    one per closed-form map whose images are built; windows the windows
    whose columns (TruncatedBasis.columns, the functionals' L_X) or
    reference L_X (oracle.lie_entries) are read, and the basis and target
    of each closed-form map whose defect is read
    (SymmetryMap.defect_columns); and formal the formal_defect calls, one
    per closed-form map whose defect is read."""
    # truncation binds no name of the Lie action on operators, so the spy
    # on densities.lie_derivative_operator sees every call
    assert not hasattr(truncation, "lie_derivative_operator")
    ring, fills, images, windows, formal, depth = [], [], [], set(), [], [0]

    def inside(f):
        def run(*args):
            depth[0] += 1
            try:
                return f(*args)
            finally:
                depth[0] -= 1
        return run

    def logged(name, f, log, always=False):
        def run(*args):
            if always or depth[0]:
                log.append((name, args))
            return f(*args)
        return run

    for cls in (PolyFn, TrigFn):
        for name in ("__mul__", "__rmul__", "diff"):
            monkeypatch.setattr(cls, name, logged(f"{cls.__name__}.{name}",
                                                  getattr(cls, name), ring))
    monkeypatch.setattr(densities, "lie_derivative_operator", logged(
        "lie_derivative_operator", densities.lie_derivative_operator, ring))
    monkeypatch.setattr(BilinearOp, "operator",
                        logged("BilinearOp.operator", BilinearOp.operator, ring))
    for name, log in (("product_entries", fills), ("term_images", images),
                      ("formal_defect", formal)):
        monkeypatch.setattr(truncation, name,
                            logged(name, getattr(truncation, name), log, always=True))
    real_lie_entries, real_columns = oracle.lie_entries, TruncatedBasis.columns
    real_defect_columns = SymmetryMap.defect_columns

    def lie_entries(window, X, j):
        windows.add(window)
        return real_lie_entries(window, X, j)

    def columns(self, X, sigma, elements):
        windows.add(self)
        return real_columns(self, X, sigma, elements)

    def defect_columns(self, X, elements):
        windows.update((self.basis, self.target))
        return real_defect_columns(self, X, elements)

    monkeypatch.setattr(oracle, "lie_entries", inside(lie_entries))
    monkeypatch.setattr(TruncatedBasis, "columns", inside(columns))
    monkeypatch.setattr(SymmetryMap, "defect_columns", defect_columns)
    monkeypatch.setattr(SymmetryMap, "_load", inside(SymmetryMap._load))
    for name in ("bilinear_defect", "equivariance_defect"):
        kernel = inside(getattr(truncation, name))
        monkeypatch.setattr(truncation, name, kernel)
        monkeypatch.setattr(identities, name, kernel)
    monkeypatch.setattr(DensityOperator, "__init__",
                        logged("DensityOperator", DensityOperator.__init__, ring))
    return ring, fills, images, windows, formal


def count_window_lie_builds(monkeypatch):
    """Counter of the reference's window L_X builds, keyed (repr(X), element
    index, id(window)).

    A build is an oracle.lie_entries call that returns a column no earlier
    call returned; every column is kept here, so no id is reused.
    """
    builds, columns = Counter(), {}
    real_lie_entries = oracle.lie_entries

    def lie_entries(window, X, j):
        col = real_lie_entries(window, X, j)
        if id(col) not in columns:
            columns[id(col)] = col
            builds[repr(X), j, id(window)] += 1
        return col

    monkeypatch.setattr(oracle, "lie_entries", lie_entries)
    return builds


FROZEN_LOCAL_DIMS = {
    (F(1, 3), F(1, 5)): [1, 2, 2, 1, 1],
    (F(0), F(2, 7)): [1, 2, 3, 3, 2],
    (F(0), F(1)): [1, 3, 4, 5, 5],
    (F(-1, 2), F(3, 2)): [1, 2, 3, 3, 2],
    (F(-2, 3), F(5, 3)): [1, 2, 2, 3, 3],
}


def oracle_maps(k, lam, mu, space, M):
    """The formal oracle's solutions as SymmetryMaps on a window M."""
    basis = TruncatedBasis(k, M, space, lam, mu)
    return [AppliedMap(basis, jet_map(sol, k, lam, mu))
            for sol in brute_force_local_symmetries(k, lam, mu)]


class TestBruteForce:
    @pytest.mark.parametrize("point,dims", sorted(FROZEN_LOCAL_DIMS.items()))
    def test_dimensions_on_line(self, point, dims):
        lam, mu = point
        assert [len(brute_force_local_symmetries(k, lam, mu)) for k in range(5)] == dims

    def test_circle_route_matches_line_route(self):
        for lam, mu in [(F(1, 3), F(1, 5)), (F(0), F(1)), (F(-1, 2), F(3, 2))]:
            for k in (1, 2, 3):
                line = windowed_local_symmetries(k, lam, mu, LINE)
                circ = windowed_local_symmetries(k, lam, mu, CIRCLE)
                assert len(line) == len(circ)

    def test_representatives_commute_with_quartic_and_quintic_fields(self):
        # solutions found with x^2, x^3 also commute with x^4 and x^5 d/dx
        for lam, mu in [(F(0), F(1)), (F(1, 3), F(7, 6))]:
            for T in oracle_maps(3, lam, mu, LINE, M=9):
                for p in (4, 5):
                    X = VectorField(PolyFn.monomial(p))
                    assert max_abs(dense_defect(T, X)) == 0

    def test_window_floor_enforced(self):
        with pytest.raises(ValueError):
            windowed_local_symmetries(3, 0, 1, LINE, M=5)

    def test_unknown_space_raises(self):
        with pytest.raises(ValueError, match="'sphere'"):
            windowed_local_symmetries(2, 0, 1, "sphere")

    def test_solutions_are_symmetry_maps(self):
        maps = oracle_maps(2, F(1, 3), F(1, 5), LINE, 6)
        assert len(maps) == 2
        fields = [VectorField(PolyFn.monomial(2)), VectorField(PolyFn.monomial(3))]
        for T in maps:
            for X in fields:
                assert max_abs(dense_defect(T, X)) == 0


# brute-force nullspace bases (rows over component_unknowns) at the default
# window M = k+4, as the per-elementary-map route computed them; the formal
# oracle, which reads no space, finds the same rows
PINNED_SOLUTIONS = {
    (CIRCLE, 1, F("0"), F("1")): [
        "1 0 0",
        "0 1 0",
        "0 0 1",
    ],
    (CIRCLE, 2, F("0"), F("1")): [
        "1 0 0 0 0 0",
        "0 1 0 1 0 0",
        "0 -2 0 0 1 0",
        "0 0 -2 0 0 1",
    ],
    (CIRCLE, 3, F("0"), F("1")): [
        "1 0 0 0 0 0 0 0 0 0",
        "0 1 0 1 0 0 1 0 0 0",
        "0 -3 0 -2 1/2 0 0 1 0 0",
        "0 6 0 0 -3 0 0 0 1 0",
        "0 0 6 0 0 -3 0 0 0 1",
    ],
    (CIRCLE, 4, F("0"), F("1")): [
        "1 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
        "0 1 0 1 0 0 1 0 0 0 1 0 0 0 0",
        "0 4 0 0 -2 0 -4 -2 1/3 0 0 2 1 0 0",
        "0 -24 0 0 12 0 0 0 -4 0 0 0 0 1 0",
        "0 0 -24 0 0 12 0 0 0 -4 0 0 0 0 1",
    ],
    (CIRCLE, 3, F("-1/2"), F("3/2")): [
        "1 1 0 1 0 0 1 0 0 0",
        "-12 0 6 -12 -2 -1 0 6 1 0",
        "24 0 -12 24 0 0 0 -12 0 1",
    ],
    (CIRCLE, 2, F("2/7"), F("9/7")): [
        "1 1 0 1 0 0",
        "0 0 -14/11 0 0 1",
    ],
    (LINE, 1, F("0"), F("1")): [
        "1 0 0",
        "0 1 0",
        "0 0 1",
    ],
    (LINE, 2, F("0"), F("1")): [
        "1 0 0 0 0 0",
        "0 1 0 1 0 0",
        "0 -2 0 0 1 0",
        "0 0 -2 0 0 1",
    ],
    (LINE, 3, F("0"), F("1")): [
        "1 0 0 0 0 0 0 0 0 0",
        "0 1 0 1 0 0 1 0 0 0",
        "0 -3 0 -2 1/2 0 0 1 0 0",
        "0 6 0 0 -3 0 0 0 1 0",
        "0 0 6 0 0 -3 0 0 0 1",
    ],
    (LINE, 4, F("0"), F("1")): [
        "1 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
        "0 1 0 1 0 0 1 0 0 0 1 0 0 0 0",
        "0 4 0 0 -2 0 -4 -2 1/3 0 0 2 1 0 0",
        "0 -24 0 0 12 0 0 0 -4 0 0 0 0 1 0",
        "0 0 -24 0 0 12 0 0 0 -4 0 0 0 0 1",
    ],
    (LINE, 3, F("-1/2"), F("3/2")): [
        "1 1 0 1 0 0 1 0 0 0",
        "-12 0 6 -12 -2 -1 0 6 1 0",
        "24 0 -12 24 0 0 0 -12 0 1",
    ],
    (LINE, 2, F("2/7"), F("9/7")): [
        "1 1 0 1 0 0",
        "0 0 -14/11 0 0 1",
    ],
}


class TestBruteForceByLinearity:
    @pytest.mark.parametrize("case", sorted(PINNED_SOLUTIONS, key=str))
    def test_solution_vectors_are_pinned(self, case):
        space, k, lam, mu = case
        want = [[F(v) for v in row.split()] for row in PINNED_SOLUTIONS[case]]
        assert windowed_local_symmetries(k, lam, mu, space) == want
        assert brute_force_local_symmetries(k, lam, mu) == want

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rows_match_the_direct_defect(self, space, k, monkeypatch):
        # the equation at (safe element b, coordinate i) is the row
        # u -> defect of e_u at (b, i); sum_u t_u row_u must be the direct
        # defect of the map with coefficients t, and the rows handed to the
        # elimination must be exactly these equations, kept once each
        rng = random.Random(1000 * k + len(space))
        lam, mu = F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), 7)
        defects, kept = {}, []  # field -> the defect of each e_u, in unknown order
        real_defect, real_nullspace = oracle.equivariance_defect, oracle.nullspace

        def spy(T, X):
            defects.setdefault(X, []).append(real_defect(T, X))
            return defects[X][-1]

        monkeypatch.setattr(oracle, "equivariance_defect", spy)
        monkeypatch.setattr(oracle, "nullspace",
                            lambda rows, n: kept.append(rows) or real_nullspace(rows, n))
        windowed_local_symmetries(k, lam, mu, space)
        unknowns = component_unknowns(k)
        t = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in unknowns]
        T = AppliedMap(TruncatedBasis(k, k + 4, space, lam, mu), jet_map(t, k, lam, mu))
        assert len(defects) == len(brute_force_fields(space))
        rows = set()
        for X, per_unit in defects.items():
            assert len(per_unit) == len(unknowns)
            want = direct_equivariance_defect(T, X)
            for b, col in enumerate(want):
                for i, value in enumerate(col):
                    row = [cols[b].get(i, 0) for cols in per_unit]
                    assert sum(tu * v for tu, v in zip(t, row) if v) == value
                    if any(row):
                        rows.add(tuple(integer_row(row)))
        assert {tuple(row) for row in kept[0]} == rows and len(kept[0]) == len(rows)

    def test_proportional_rows_are_kept_once(self, monkeypatch):
        seen = []
        real = oracle.nullspace
        monkeypatch.setattr(oracle, "nullspace",
                            lambda rows, n: seen.append(rows) or real(rows, n))
        windowed_local_symmetries(3, F(0), F(1), CIRCLE)
        rows = seen[0]

        def normalized(row):
            lead = next(v for v in row if v)
            return tuple(v / lead for v in row)

        assert rows and len({normalized(row) for row in rows}) == len(rows)

    def test_one_lie_derivative_per_safe_element(self, monkeypatch):
        # every elementary map reads L_X off the shared basis
        builds = count_window_lie_builds(monkeypatch)
        windowed_local_symmetries(3, F(1, 3), F(1, 5), CIRCLE, 7)
        basis = TruncatedBasis(3, 7, CIRCLE, F(1, 3), F(1, 5))
        assert Counter((X, j) for X, j, _ in builds.elements()) == Counter(
            (repr(X), j)
            for X in brute_force_fields(CIRCLE) for j in basis.safe_indices(X))
        assert len({w for _, _, w in builds}) == 1


def _with_flipped_sign(module, function, term, flipped):
    """module's function with its one occurrence of term replaced by flipped."""
    source = inspect.getsource(getattr(module, function))
    assert source.count(term) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(term, flipped), module.__file__, "exec"), namespace)
    return namespace[function]


class TestFlippedKernel:
    """The --op checks and the bilinear checks share one kernel, the formal
    defect of a closed form; with the sign of its L_X o T half flipped every
    check fails.  The windowed oracle reads the per-element reference
    instead (oracle.element_defect_columns); flipped there, the oracle
    disagrees with the recurrence."""

    @pytest.fixture
    def flipped(self, monkeypatch):
        # SymmetryMap.defect_columns reads formal_defect from truncation's
        # namespace, so every check sees the fault
        monkeypatch.setattr(truncation, "formal_defect", _with_flipped_sign(
            truncation, "formal_defect", "col.get(key, 0) - c * c2", "col.get(key, 0) + c * c2"))

    def test_verify_op_exit_1(self, capsys, flipped):
        assert cli.main(["verify", "--op", "S"]) == 1
        assert capsys.readouterr().out.startswith("op:S: FAIL, defect ")

    def test_verify_op_on_the_line_exit_1(self, capsys, flipped):
        assert cli.main(["verify", "--op", "S", "--space", LINE]) == 1
        assert capsys.readouterr().out.startswith("op:S: FAIL, defect ")

    @pytest.mark.parametrize("argv", [["--op", "grozman"], ["grozman_equivariance"]])
    def test_verify_bilinear_exit_1(self, capsys, flipped, argv):
        assert cli.main(["verify", *argv]) == 1
        out = capsys.readouterr().out
        assert ": FAIL, defect " in out and ", defect 0," not in out

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    def test_windowed_oracle_disagrees(self, monkeypatch, space):
        monkeypatch.setattr(AppliedMap, "defect_columns", _with_flipped_sign(
            oracle, "element_defect_columns", "col[i] = col.get(i, 0) - c * v",
            "col[i] = col.get(i, 0) + c * v"))
        rec = nullspace(build_system(3, 0, 1), len(component_unknowns(3)))
        assert windowed_local_symmetries(3, 0, 1, space) != rec


def test_a_flipped_combination_term_fails_s_relations(capsys, monkeypatch):
    # once the pairs are built, every difference X - Y adds its last summand
    # instead, so S o S - Id reads S o S + Id = 2 Id, and S - (the chain)
    # reads 2 S.  The chain's own Id - P0 is built before: flipped, it would
    # leave Ker P0, and the check would exit 2 (test_the_chain_without_p0_*)
    row = identities.RELATIONS["s_relations"]

    def pairs(*args):
        built = row.pairs(*args)
        monkeypatch.setattr(SymmetryMap, "__sub__", SymmetryMap.__add__)
        return built

    monkeypatch.setitem(identities.RELATIONS, "s_relations", replace(row, pairs=pairs))
    assert cli.main(["verify", "s_relations"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("s_relations: FAIL, defect ") and "defect 0," not in out


def random_jet_map(k, lam, mu, space, seed):
    """A jet map with random coefficients t[r,l]: no symmetry, for rational
    jets in general, on the window M = k+6."""
    rng = random.Random(seed)
    t = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in component_unknowns(k)]
    return AppliedMap(TruncatedBasis(k, k + 6, space, lam, mu), jet_map(t, k, lam, mu))


def assert_defects_are_direct(T, fields):
    """Every field's integer-kernel defect equals the direct Fraction route;
    returns whether any of them is nonzero."""
    defects = [dense_defect(T, X) for X in fields]
    assert defects == [direct_equivariance_defect(T, X) for X in fields]
    return any(max_abs(cols) != 0 for cols in defects)


# fields with fractional coefficients: halving trig products and thirds,
# sevenths and fifths in the coefficients themselves
FRACTIONAL_FIELDS = {
    CIRCLE: [VectorField(TrigFn(0, {2: F(2, 3)})),
             VectorField(TrigFn(F(1, 2), {1: F(-3, 4)}, {1: F(5, 6)}))],
    LINE: [VectorField(PolyFn.monomial(3, F(5, 7))),
           VectorField(PolyFn([F(1, 3), 0, F(-2, 5)]))],
}

HUGE_WEIGHTS = (F(10 ** 22 + 1, 3), F(-7, 9))


def applied(T):
    """The AppliedMap of callable_of(T), into T's target."""
    return AppliedMap(T.basis, callable_of(T), T.name, T.target)


def relation_pairs_by_callables(name, basis):
    """The pairs of a RELATIONS row on the basis, every map an AppliedMap:
    identities' realize, conjugation_map and shift_map give the applied
    maps of their closed forms, so the pairs, and the chain of S, compose
    the callables."""
    row = identities.RELATIONS[name]
    with pytest.MonkeyPatch.context() as patch:
        for leaf in ("realize", "conjugation_map", "shift_map"):
            patch.setattr(identities, leaf,
                          lambda *args, real=getattr(identities, leaf): applied(real(*args)))
        return row.pairs(basis, *[identities.realize(n, basis) for n in row.uses])


def relation_defect_by_callables(name, space=CIRCLE):
    """The worst defect of a RELATIONS row, every image built by the
    composed callables and read on the window with Fractions."""
    row = identities.RELATIONS[name]
    worst = F(0)
    for lam, mu in row.points:
        basis = TruncatedBasis(row.k, row.k + 6, space, lam, mu)
        for lhs, rhs in relation_pairs_by_callables(name, basis):
            worst = max(worst, max_abs((lhs if rhs is None else lhs - rhs).columns))
    return worst


class TestIntegerKernel:
    """The window's columns are integers over one denominator; every value
    they give is the one the Fraction routes give."""

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("k, seed", [(1, 5), (2, 6), (3, 7)])
    def test_random_jets_equal_the_direct_route(self, space, k, seed):
        rng = random.Random(seed)
        lam, mu = F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), 7)
        T = random_jet_map(k, lam, mu, space, seed)
        assert assert_defects_are_direct(T, generator_family(space))

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    def test_a_perturbed_projection_equals_the_direct_route(self, space):
        # W at a point of the order-4 locus is equivariant; a third more on
        # its a_4'' slot is not
        lam, mu = F(1, 3), F(25, 18)
        W = w_formula(4, lam, mu)
        assert assert_defects_are_direct(
            AppliedMap(TruncatedBasis(4, 10, space, lam, mu), W), generator_family(space)) is False
        row = {r: c + (F(1, 3) if r == 4 else 0) for r, c in W.row}
        T = AppliedMap(TruncatedBasis(4, 10, space, lam, mu), Projection(4, lam, mu, 2, row))
        assert T.target is T.basis.densities(W.nu)
        assert assert_defects_are_direct(T, generator_family(space))

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    def test_large_denominators(self, space):
        lam, mu = HUGE_WEIGHTS
        T = random_jet_map(3, lam, mu, space, 8)
        assert oracle.lie_den(T.basis, generator_family(space)[0]) % 9 == 0
        assert assert_defects_are_direct(T, generator_family(space))
        V = realize("V", TruncatedBasis(3, 9, space, lam, mu))
        assert assert_defects_are_direct(V, generator_family(space)) is False
        res = check_catalog_op("V", CheckConfig(k=3, lam=lam, mu=mu, space=space))
        assert res.passed, res.line()

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    def test_fields_with_fractional_coefficients(self, space):
        fields = FRACTIONAL_FIELDS[space]
        basis = TruncatedBasis(2, 8, space, F(2, 5), F(-1, 3))
        for window in (basis, basis.densities(F(-4, 3))):
            ops = elements(window)
            for X in fields:
                for j in window.safe_indices(X):
                    want = window.entries_of(lie_derivative_operator(X, ops[j]))
                    assert true_lie(window, X, j) == want
        assert assert_defects_are_direct(random_jet_map(2, F(2, 5), F(-1, 3), space, 9), fields)
        assert assert_defects_are_direct(home_map("S", space), fields) is False

    @pytest.mark.parametrize("name, pairs", [
        ("calv_square", lambda basis, V: [(V @ V, F(1, 7) * V)]),
        ("gsigma_decomposition", lambda basis, G, W, Id, C: [
            (G, F(1, 2) * (Id - C) - F(7, 3) * W)]),
        ("jv_square_zero", lambda basis, J: [(J @ J - F(2, 9) * J, None)]),
    ])
    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_a_wrong_relation_reports_the_fraction_defect(self, name, pairs, space, monkeypatch):
        monkeypatch.setitem(identities.RELATIONS, name,
                            replace(identities.RELATIONS[name], pairs=pairs))
        res = identities.run_identity(name, CheckConfig(space=space))
        want = relation_defect_by_callables(name, space)
        assert not res.passed and res.defect == want != 0
        assert type(res.defect) is F

    def test_a_wrong_mult_table_entry_reports_the_fraction_defect(self, monkeypatch):
        # C o P1 = P0star - P1 - P0, read with + P0
        monkeypatch.setitem(identities.MULT_TABLE_01["C"], "P1", {"P0star": 1, "P1": -1, "P0": 1})
        res = identities.run_identity("mult_table_01")
        want = relation_defect_by_callables("mult_table_01")
        assert not res.passed and res.defect == want != 0
        assert type(res.defect) is F


# the points of the closed-form check: every catalog home, a generic point,
# points on the loci (lam + mu = 1, lam = 0, mu = 1, mu - lam = 2, W's
# order-4 curve, the Wilczynski weights at k = 4, and (0, nu) at k = 0, where
# sigma maps into its own module) and weights with large denominators
CLOSED_FORM_POINTS = sorted(set(CATALOG_HOMES.values()) | {
    (3, F(2, 7), F(-3, 5)), (5, F(2, 9), F(7, 9)), (3, F(0), F(3, 7)), (3, F(5, 3), F(1)),
    (3, F(-2, 3), F(4, 3)), (4, F(1, 3), F(25, 18)), (4, F(-3, 2), F(5, 2)),
    (0, F(0), F(1, 3)), (2, *HUGE_WEIGHTS), (3, *HUGE_WEIGHTS)})


def closed_form_cases():
    """(name, k, lam, mu, space) for each catalog map read in closed form (a
    local endomorphism's jet, a projection's row, the trace's rule) at each
    point where it exists."""
    return [(name, k, lam, mu, space) for name, entry in sorted(CATALOG.items())
            if entry.kind != "bilinear"
            for k, lam, mu in CLOSED_FORM_POINTS for space in (CIRCLE, LINE)
            if entry.exists(k, lam, mu, space)]


def perturbed_terms(terms):
    """The terms function terms with the term at t[2,1] a third larger."""
    def wrong(k, lam, mu):
        return [(r, o, l, c * F(4, 3) if (r, l) == (2, 1) else c)
                for r, o, l, c in terms(k, lam, mu)]
    return wrong


def perturbed_w(k, lam, mu):
    """W with a third more on its a_k'' slot: no symmetry."""
    W = w_formula(k, lam, mu)
    return Projection(k, lam, mu, k - 2, {r: c + F(1, 3) * (r == k) for r, c in W.row})


class TestClosedFormColumns:
    """realize reads a local endomorphism off its jet, a projection off its
    row and the trace off its rule, with no ring element: the columns are
    the callable's."""

    @pytest.mark.parametrize("wide", [False, True], ids=["M=k+4", "M=k+6"])
    @pytest.mark.parametrize("name, k, lam, mu, space", closed_form_cases())
    def test_columns_are_the_callables(self, name, k, lam, mu, space, wide):
        basis = TruncatedBasis(k, k + (6 if wide else 4), space, lam, mu)
        T = realize(name, basis)
        assert type(T) is SymmetryMap
        images = [CATALOG[name].make(k, lam, mu)(b) for b in elements(basis)]
        module = (images[0].lam, images[0].mu)
        assert T.target is (basis if module == (lam, mu) else basis.densities(module[1]))
        assert [T.image(j) for j in range(basis.dim)] == [
            [(t, v * T.den) for t, v in T.target.entries_of(A)] for A in images]

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("k, seed", [(2, 11), (4, 12)])
    def test_random_jets_are_the_callables(self, space, k, seed):
        # denominators 1..9: the columns are over the lcm of the terms'
        lam, mu = F(2, 9), F(-5, 7)
        rng = random.Random(seed)
        t = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in component_unknowns(k)]
        basis = TruncatedBasis(k, k + 4, space, lam, mu)
        T = SymmetryMap(basis, (basis, jet_terms(t, k)), "T")
        reference = AppliedMap(basis, jet_map(t, k, lam, mu))
        assert T.columns == reference.columns and T.target is reference.target is basis

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    def test_a_projection_of_another_module_raises(self, space):
        # the closed form when its terms are read, the callable on the first
        # element it cannot take
        basis = TruncatedBasis(3, 7, space, F(1, 3), F(1, 5))
        for pi in (symbol(3, 0, F(1, 5)), symbol(2, F(1, 3), F(1, 5))):
            with pytest.raises(WeightMismatchError):
                SymmetryMap(basis, projection_terms(basis, pi), "sigma").target
            for T in (AppliedMap(basis, pi), AppliedMap(basis, lambda A: pi(A))):
                with pytest.raises(WeightMismatchError):
                    T.target
        pi = symbol(4, F(1, 3), F(1, 5))  # no a_4 below k = 4
        assert SymmetryMap(basis, projection_terms(basis, pi), "sigma").is_zero()
        assert AppliedMap(basis, pi).is_zero()

    def test_every_map_is_covered(self):
        names = {name for name, *_ in closed_form_cases()}
        assert names == {n for n, e in CATALOG.items() if e.kind != "bilinear"}

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("name", ["S", "W"])
    def test_no_ring_element_and_no_basis_element(self, name, space, monkeypatch):
        # the defect reads one formal_defect of the terms: no ring element,
        # no image of a basis element and no window L_X
        ring, _, images, windows, formal = spy_window_kernel(monkeypatch)
        k, lam, mu = CATALOG_HOMES[name]
        T = realize(name, TruncatedBasis(k, k + 6, space, lam, mu))
        for X in generator_family(space):
            assert equivariance_defect(T, X) == [{} for _ in T.basis.safe_indices(X)]
        assert ring == [] and images == [] and len(formal) == 1
        assert windows == {T.basis, T.target}

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("name, wrong", [
        ("S", lambda e: replace(e, terms=perturbed_terms(e.terms))),
        ("W", lambda e: replace(e, make=perturbed_w)),
    ])
    def test_a_perturbed_map_fails_through_the_closed_form(self, capsys, monkeypatch,
                                                           space, name, wrong):
        monkeypatch.setitem(CATALOG, name, wrong(CATALOG[name]))
        k, lam, mu = CATALOG_HOMES[name]
        T = realize(name, TruncatedBasis(k, k + 6, space, lam, mu))
        assert type(T) is SymmetryMap
        reference = AppliedMap(T.basis, callable_of(T))  # applied per element
        for X in generator_family(space):
            assert equivariance_defect(T, X) == equivariance_defect(reference, X)
        assert assert_defects_are_direct(T, generator_family(space))
        assert cli.main(["verify", "--op", name, "--space", space]) == 1
        assert capsys.readouterr().out.startswith(f"op:{name}: FAIL, defect ")


# the --op points of the CI's console-script step, (name, k, lam, mu), the
# weights a home's when the step does not set them
CI_OP_POINTS = [
    ("V", 1, F(0), F(1, 2)), ("V", 3, *HUGE_WEIGHTS), ("S", 6, F(0), F(0)),
    ("sigma", 0, F(0), F(1, 3)), ("wilmodB", 4, F(-3, 2), F(5, 2)), ("C", 5, F(2, 9), F(7, 9)),
    ("Sstar", 7, F(1), F(1)), ("L", 5, F(0), F(1)), ("S", 20, F(0), F(0)), ("L", 8, F(0), F(1)),
    ("P0star", 10, F(2, 7), F(1)),
]


def formal_defect_cases():
    """(name, k, lam, mu, space) for every non-bilinear catalog name at its
    home and at its CI points, on each space where it exists."""
    points = [(name, *home) for name, home in CATALOG_HOMES.items()] + CI_OP_POINTS
    return [(name, k, lam, mu, space) for name, k, lam, mu in points
            for space in (CIRCLE, LINE)
            if CATALOG[name].kind != "bilinear" and CATALOG[name].exists(k, lam, mu, space)]


def defect_is_the_per_element_defect(T, fields):
    """Every field's defect columns of the closed form T equal the
    per-element reference's, as vectors; returns whether any is nonzero."""
    nonzero = False
    for X in fields:
        safe = T.basis.safe_indices(X)
        got = sparse_vectors(*T.defect_columns(X, safe))
        assert got == sparse_vectors(*element_defect_columns(T, X, safe))
        nonzero = nonzero or any(got)
    return nonzero


class TestFormalDefect:
    """SymmetryMap.defect_columns reads every column off formal_defect, the
    map's defect as coefficients of f^(p) a^(q) d^m: on jets it is the
    formal oracle's rows, and on every map its columns are the per-element
    reference's (oracle.element_defect_columns)."""

    @pytest.mark.parametrize("k", range(7))
    def test_jets_are_the_formal_rows(self, k):
        # at f = x^p/p! and a = x^q/q! the x^0 coefficient at d^m of the
        # defect is sigma_s(m, p, q): formal_rows(k, lam, mu)[p, s, q, m] . t
        rng = random.Random(3700 + k)
        for _ in range(4):
            lam, mu = F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), 7)
            t = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in component_unknowns(k)]
            den, sigma = formal_defect(jet_terms(t, k), (k, lam, mu), (lam, mu))
            rows = formal_rows(k, lam, mu)
            got = {(p, s, q, m): F(v, den) for s, col in enumerate(sigma)
                   for (m, p, q, mean), v in col.items() if p in (2, 3)}
            assert all(q is not None and not mean
                       for col in sigma for _, _, q, mean in col)
            assert set(got) <= set(rows)
            assert got == {key: value for key, row in rows.items()
                           if (value := sum(c * x for c, x in zip(row, t) if c))}

    @pytest.mark.parametrize("name, k, lam, mu, space", formal_defect_cases())
    def test_columns_are_the_per_element_columns(self, name, k, lam, mu, space):
        T = realize(name, TruncatedBasis(k, k + 6, space, lam, mu))
        assert not defect_is_the_per_element_defect(T, generator_family(space))

    @pytest.mark.parametrize("name, k, lam, mu, space", [
        case for case in formal_defect_cases() if case[1:4] == CATALOG_HOMES[case[0]]])
    def test_a_perturbed_map_is_the_per_element_defect(self, name, k, lam, mu, space):
        # plus a third of a_k^(k+1) at d^0, a derivative no term of any map
        # takes: no symmetry
        T = realize(name, TruncatedBasis(k, k + 6, space, lam, mu))
        wrong = SymmetryMap(T.basis, (T.target, T.closed[1] + [(k, 0, k + 1, F(1, 3))]))
        assert defect_is_the_per_element_defect(wrong, generator_family(space))

    @pytest.mark.parametrize("k", [1, 3])
    def test_means_off_the_trace(self, k):
        # delta o L puts mean(a_0) at d^2 of D^{k+1}_{-1,1}, where L_X of a
        # constant is not 0, while L_X o L = 0 on D^k_{0,1}; off (0, 1) the
        # trace's rule takes L_X a_0 to mean(X a_0' + (mu - lam) X' a_0),
        # which is not 0
        basis = TruncatedBasis(k, k + 6, CIRCLE, F(0), F(1))
        L = realize("L", basis)
        assert defect_is_the_per_element_defect(shift_map(basis, 1) @ L, circle_fields(2))
        assert not defect_is_the_per_element_defect(L, circle_fields(2))
        other = basis.sibling(k, F(1, 3), F(1, 5))
        trace = SymmetryMap(other, (other, [(0, 1, None, 1)]), "L")
        assert defect_is_the_per_element_defect(trace, circle_fields(2))

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_a_product_past_the_window_raises(self, space):
        # an element off the safe sub-basis reaches past M; its coordinates
        # must not wrap into the next order's
        basis = TruncatedBasis(2, 6, space, F(0), F(1))
        T = SymmetryMap(basis, (basis, [(2, 0, 0, F(1, 3))]))
        X = generator_family(space)[-1]
        assert defect_is_the_per_element_defect(T, [X])
        with pytest.raises(TruncationOverflowError, match="exceeds the window M=6"):
            T.defect_columns(X, range(basis.dim))

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_a_term_below_d0_raises_and_gives_no_column(self, space):
        # delta^-1 takes no element at d^0, and neither does X o delta^-1:
        # its guard passes through; after Id - P0 the chain has a defect
        w = TruncatedBasis(3, 9, space, F(0), F(1, 5))
        inverse = shift_map(w, -1)
        Id, P0 = realize("Id", w), realize("P0", w)
        for T in (inverse, conjugation_map(inverse.target) @ inverse, inverse @ Id):
            for X in generator_family(space):
                with pytest.raises(NotInKernelError):
                    equivariance_defect(T, X)
        assert not defect_is_the_per_element_defect(inverse @ (Id - P0), generator_family(space))


def test_bilinear_defect_reads_j_as_one_closed_form_map(monkeypatch):
    # J(phi, .) is one closed-form map from the window of F_nu into its
    # order-n sibling, its defect read off one formal_defect of its terms
    # per call: no density operator, Lie action, ring product or
    # derivative, and no image.  Both windows share one product table
    ring, _, images, windows, formal = spy_window_kernel(monkeypatch)
    entry = CATALOG["grozman"]
    J = entry.make(*entry.home[1:])
    M = 8
    for space, fields in ((CIRCLE, circle_fields(3)), (LINE, line_fields(5))):
        formal.clear()
        windows.clear()
        cols = truncation.bilinear_defect(J, space, M, fields)
        assert ring == [] and images == []
        [(terms, source, target)] = [args for _, args in formal]
        assert (source, target) == ((0, 0, J.nu), (J.lam, J.out_weight))
        assert sorted(terms) == [(0, j, J.order - j, c) for j, c in enumerate(J.row)]
        assert {(w.k, w.lam, w.mu) for w in windows} == {
            (0, 0, J.nu), (J.order, J.lam, J.out_weight)}
        assert len({id(w._products) for w in windows}) == 1
        assert cols == reference_bilinear_defect(J, space, M, fields)
    formal.clear()
    res = identities.run_identity("grozman_equivariance")
    assert res.passed and ring == [] and images == []
    # one formal defect of J(phi, .) per space
    assert len(formal) == 2


def test_w_sharpness_fills_one_product_table(monkeypatch):
    # its six points and their density windows are one ring window (circle,
    # M = 10): each row X^(p) m^(q) is read off the monomial rules once.  On
    # the locus W's formal defect is empty, so the rows are those of the
    # three points off it
    ring, fills, _, windows, _ = spy_window_kernel(monkeypatch)
    res = identities.run_identity("w_sharpness")
    assert res.passed, res.line()
    tables = {id(w._products): w._products for w in windows}
    assert len(windows) == 12 and len(tables) == 1
    rows = sum(len(rows) for table in tables.values() for _, _, rows in table.values())
    assert len(fills) == rows == 120
    assert ring == []


def test_lemma_functionals_fills_one_product_table_per_window(monkeypatch):
    # its five weights at each of N = 3, 5 are density windows of one base
    # window per N, so the ten windows fill two tables, each row once: 172
    # rows, where a table per weight filled 774
    ring, fills, _, windows, _ = spy_window_kernel(monkeypatch)
    res = identities.run_identity("lemma_functionals")
    assert res.passed, res.line()
    tables = {id(w._products): w._products for w in windows}
    assert len(windows) == 10 and len(tables) == 2
    rows = sum(len(rows) for table in tables.values() for _, _, rows in table.values())
    assert len(fills) == rows == 172
    assert ring == []


def monomial_loop_functionals_dimension(lam, N):
    """Reference for invariant_functionals_dimension: the rank of the density
    Lie derivatives of each monomial that stays in the window."""
    rows = []
    for X in circle_fields(N):
        n = X.value.size
        for mono in ring_basis(CIRCLE, N):
            if mono.size + n <= N:
                phi = density(lam, mono)
                rows.append(ring_vector(lie_derivative_density(X, phi).coeffs[0], N))
    return ring_dim(CIRCLE, N) - rank(rows)


class TestInvariantFunctionals:
    @pytest.mark.parametrize("lam", [F(1), F(0), F(1, 2), F(-2, 3), F(2), F(3, 2)])
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
    def test_matches_the_monomial_loop(self, lam, N):
        assert invariant_functionals_dimension(lam, N) == monomial_loop_functionals_dimension(lam, N)

    @pytest.mark.parametrize("N", [3, 5])
    def test_weight_one_unique(self, N):
        assert invariant_functionals_dimension(1, N) == 1

    @pytest.mark.parametrize("lam", [F(0), F(1, 2), F(-2, 3), F(2)])
    @pytest.mark.parametrize("N", [3, 5])
    def test_other_weights_have_none(self, lam, N):
        assert invariant_functionals_dimension(lam, N) == 0

    def test_needs_window(self):
        with pytest.raises(ValueError):
            invariant_functionals_dimension(1, 1)

    def test_surviving_functional_is_the_mean(self):
        # at weight 1 the mean annihilates every Lie derivative in the window
        from densym.rings import circle_mean
        for X in circle_fields(2):
            for mono in ring_basis(CIRCLE, 2):
                phi = density(1, mono)
                assert circle_mean(lie_derivative_operator(X, phi).coeffs[0]) == 0


# ----------------------------------------------------------------------
# the maps that leave the module on the way (conjugation off lam + mu = 1,
# right composition with d and its inverse) in closed form between sibling
# windows, against the operator route applied per element
# ----------------------------------------------------------------------

# conj_involution's points, then two more off lam + mu = 1
CONJUGATION_POINTS = [*identities.RELATIONS["conj_involution"].points,
                      (F(-3, 5), F(7, 4)), (F(5, 2), F(1, 9))]


def perturbed_s_terms(k, lam, mu):
    """c o n, with n's term at t[2,1] a third larger than 1: no symmetry."""
    n = [(r, r, 0, 1) for r in range(k + 1)] + \
        [(r, r - 1, 1, F(4, 3) if r == 2 else 1) for r in range(1, k + 1)]
    return compose_terms(conjugation_terms(k), n)


def flipped_conjugation_terms(k):
    """conjugation_terms(k) with the sign of its t[1,1] term flipped."""
    return [(r, o, l, -c if (r, l) == (1, 1) else c) for r, o, l, c in conjugation_terms(k)]


def s_chain_without_p0():
    """identities._s_chain with its Id - P0 step dropped."""
    source = inspect.getsource(identities._s_chain)
    step = '(realize("Id", w) - realize("P0", w)) @ '
    assert source.count(step) == 1
    namespace = dict(vars(identities))
    exec(compile(source.replace(step, ""), identities.__file__, "exec"), namespace)
    return namespace["_s_chain"]


class TestMapsBetweenSiblings:
    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    @pytest.mark.parametrize("lam, mu", CONJUGATION_POINTS)
    def test_conjugation_twice_is_the_operator_route(self, space, lam, mu):
        basis = TruncatedBasis(3, 9, space, lam, mu)
        C = conjugation_map(basis)
        assert C.target is basis.sibling(3, 1 - mu, 1 - lam)
        assert C.columns == AppliedMap(basis, conjugate, target=C.target).columns
        twice = conjugation_map(C.target) @ C
        assert twice.target is basis
        assert twice.columns == AppliedMap(basis, lambda A: conjugate(conjugate(A))).columns
        assert (twice - realize("Id", basis)).is_zero()

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_s_chain_is_the_operator_route(self, space, k):
        basis = TruncatedBasis(k, k + 6, space, 0, 0)
        chain = identities._s_chain(basis)
        assert chain.target is basis
        assert chain.columns == AppliedMap(basis, s_map_chain).columns
        assert chain.columns == realize("S", basis).columns

    @pytest.mark.parametrize("k", range(1, 5))
    def test_trace_is_the_operator_route(self, k):
        basis = TruncatedBasis(k, k + 6, CIRCLE, 0, 1)
        L = realize("L", basis)
        assert L.columns == AppliedMap(basis, nonlocal_trace).columns
        # only the constant at d^0 maps, to the constant at d^1
        n = len(basis.monomials)
        assert [(j, L.image(j)) for j in range(basis.dim) if L.image(j)] == [(0, [(n, 1)])]

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_shifts_are_the_operator_route(self, space):
        basis = TruncatedBasis(3, 7, space, 1, F(2, 3))
        delta = shift_map(basis, 1)
        assert delta.target is basis.sibling(4, 0, F(2, 3))
        assert delta.columns == AppliedMap(basis, delta_compose, target=delta.target).columns
        inverse = shift_map(delta.target, -1)
        assert inverse.target is basis
        assert (inverse @ delta - realize("Id", basis)).is_zero()
        n = len(basis.monomials)
        for j, B in enumerate(elements(delta.target)):
            if j < n:  # a nonzero a_0: delta^-1 would put it below d^0
                with pytest.raises(NotInKernelError):
                    delta_inverse(B)
                with pytest.raises(NotInKernelError, match="below d\\^0"):
                    inverse.image(j)
            else:
                assert true_image(inverse, j) == dict(basis.entries_of(delta_inverse(B)))


class TestChainMutations:
    """A wrong S term or a wrong conjugation fails the relations read in
    closed form, and delta^-1 keeps delta_inverse's guard."""

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_a_perturbed_s_jet_fails_s_relations(self, capsys, monkeypatch, space):
        monkeypatch.setitem(CATALOG, "S", replace(CATALOG["S"], terms=perturbed_s_terms))
        basis = TruncatedBasis(5, 11, space, 0, 0)
        assert not (realize("S", basis) - identities._s_chain(basis)).is_zero()
        assert cli.main(["verify", "s_relations", "--space", space]) == 1
        assert capsys.readouterr().out.startswith("s_relations: FAIL, defect ")

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_a_sign_flip_in_conjugation_fails_both_checks(self, capsys, monkeypatch, space):
        monkeypatch.setattr(truncation, "conjugation_terms", flipped_conjugation_terms)
        basis = TruncatedBasis(5, 11, space, 0, 0)
        assert not (realize("S", basis) - identities._s_chain(basis)).is_zero()
        for name in ("conj_involution", "s_relations"):
            assert cli.main(["verify", name, "--space", space]) == 1
            assert capsys.readouterr().out.startswith(f"{name}: FAIL, defect ")

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_the_chain_without_p0_leaves_ker_p0(self, capsys, monkeypatch, space):
        monkeypatch.setattr(identities, "_s_chain", s_chain_without_p0())
        with pytest.raises(NotInKernelError):
            identities._s_chain(TruncatedBasis(5, 11, space, 0, 0)).columns
        assert cli.main(["verify", "s_relations", "--space", space]) == 2
        assert "below d^0" in capsys.readouterr().err


class TestCompositionAcrossWindows:
    def test_windows_that_do_not_chain_raise(self):
        basis = TruncatedBasis(2, 8, CIRCLE, F(1, 3), F(1, 5))
        C = conjugation_map(basis)
        # C lands in the sibling at (4/5, 2/3), which C of the basis does not read
        with pytest.raises(ValueError, match="cannot compose C after C"):
            C @ C
        with pytest.raises(ValueError, match="different bases"):
            shift_map(basis, 1) @ C
        assert (conjugation_map(C.target) @ C).target is basis

    def test_adding_maps_into_different_targets_raises(self):
        basis = TruncatedBasis(2, 8, CIRCLE, F(1, 3), F(1, 5))
        with pytest.raises(ValueError, match="different spaces"):
            conjugation_map(basis) + realize("Id", basis)
        with pytest.raises(ValueError, match="different spaces"):
            realize("sigma", basis) - realize("V", basis)

    @pytest.mark.parametrize("name,space", every_map_home())
    def test_realize_is_closed_form_at_every_home(self, name, space, monkeypatch):
        ring, _, images, _, _ = spy_window_kernel(monkeypatch)
        k, lam, mu = CATALOG_HOMES[name]
        T = realize(name, TruncatedBasis(k, k + 6, space, lam, mu))
        assert type(T) is SymmetryMap
        assert len(T.columns) == T.basis.dim
        assert ring == [] and len(images) == 1


# ----------------------------------------------------------------------
# the term algebra: X @ Y, X + Y, X - Y and q * X of closed forms are closed
# forms, against the composed callables of tests/oracle.AppliedMap
# ----------------------------------------------------------------------

def relation_cases():
    """(name, space) for each RELATIONS row and each space where its maps
    exist at every point."""
    return [(name, space) for name, row in identities.RELATIONS.items()
            for space in (CIRCLE, LINE)
            if all(CATALOG[n].exists(row.k, lam, mu, space)
                   for n in row.uses for lam, mu in row.points)]


def coefficient(rng):
    """A random rational, zero or not, with a small denominator."""
    return F(rng.randint(-4, 4), rng.randint(1, 3))


def random_step(rng, w):
    """A random closed-form map from the window w, with its callable: a jet
    map, a projection onto densities, conjugation, right composition with d
    (on lam = 1), delta^-1 after Id - P0 (on lam = 0, k >= 1), or the trace
    L (on (0, 1) on the circle, k >= 1)."""
    k, lam, mu = w.k, w.lam, w.mu
    kinds = ["jet", "projection", "C"]
    kinds += ["delta"] * (lam == 1) + ["inverse"] * (lam == 0 and k >= 1)
    kinds += ["L"] * ((lam, mu) == (0, 1) and k >= 1 and w.space == CIRCLE)
    kind = rng.choice(kinds)
    if kind == "jet":
        return random_jet(rng, w)
    if kind == "projection":
        n = rng.randint(0, k)
        pi = Projection(k, lam, mu, n, {r: coefficient(rng) for r in range(n, k + 1)})
        return SymmetryMap(w, projection_terms(w, pi), "pi"), pi
    if kind == "C":
        return conjugation_map(w), conjugate
    if kind == "delta":
        return shift_map(w, 1), delta_compose
    if kind == "L":
        return realize("L", w), nonlocal_trace
    kernel = realize("Id", w) - realize("P0", w)
    return shift_map(w, -1) @ kernel, lambda A: delta_inverse(A - p0(A))


def random_jet(rng, w):
    """A jet map with random coefficients on the window w, with its callable."""
    t = [coefficient(rng) for _ in component_unknowns(w.k)]
    return SymmetryMap(w, (w, jet_terms(t, w.k)), "J"), jet_map(t, w.k, w.lam, w.mu)


def random_chain(seed, space):
    """The steps (map, callable) of a random chain of two to five maps from
    a window at order 1..3, each step from the last one's target."""
    rng = random.Random(f"{seed} {space}")
    lam, mu = rng.choice([(F(0), F(0)), (F(1), F(2, 3)), (F(0), F(1)), (F(2, 7), F(3, 5))])
    w, steps = TruncatedBasis(rng.randint(1, 3), 5, space, lam, mu), []
    for _ in range(rng.randint(2, 5)):
        steps.append(random_step(rng, w))
        w = steps[-1][0].target
    return rng, steps


def term_dict(T):
    """T's terms as {(r, o, l): c}: the term list up to order."""
    terms = {(r, o, l): c for r, o, l, c in T.closed[1]}
    assert len(terms) == len(T.closed[1])
    return terms


class TestTermAlgebra:
    @pytest.mark.parametrize("name, space", relation_cases())
    def test_every_relation_is_the_composed_callables(self, name, space):
        # each side of each pair, at each point, read in closed form and by
        # the callables of its leaves, composed, added and scaled
        row = identities.RELATIONS[name]
        for lam, mu in row.points:
            basis = TruncatedBasis(row.k, row.k + 6, space, lam, mu)
            pairs = row.pairs(basis, *[realize(n, basis) for n in row.uses])
            references = relation_pairs_by_callables(name, basis)
            assert len(pairs) == len(references)
            for pair, reference in zip(pairs, references):
                for T, R in zip(pair, reference):
                    assert (T is None) == (R is None)
                    if T is not None:
                        assert type(T) is SymmetryMap and T.target is R.target
                        assert T.columns == R.columns, (name, lam, mu, T.name)

    def test_every_row_is_covered(self):
        assert {name for name, _ in relation_cases()} == set(identities.RELATIONS)

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    @pytest.mark.parametrize("seed", range(20))
    def test_random_chains_are_the_composed_callables(self, space, seed):
        rng, steps = random_chain(seed, space)
        (T, f), *rest = steps
        for X, g in rest:
            T, f = X @ T, lambda A, f=f, g=g: g(f(A))
            if rng.random() < 0.4:  # and a sum: T + q J T, J a jet map on T's target
                (J, j), q = random_jet(rng, T.target), coefficient(rng)
                T, f = T + q * (J @ T), lambda A, f=f, j=j, q=q: f(A) + q * j(f(A))
        assert type(T) is SymmetryMap
        assert T.columns == AppliedMap(T.basis, f, target=T.target).columns

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    @pytest.mark.parametrize("seed", range(20))
    def test_associative_and_distributive_as_term_lists(self, space, seed):
        # no step has a term below d^0 (delta^-1 comes after Id - P0); one
        # that had would never cancel in a sum, see the test below
        rng, steps = random_chain(seed, space)
        maps = [X for X, _ in steps]
        for Z, Y, X in zip(maps, maps[1:], maps[2:]):
            assert term_dict((X @ Y) @ Z) == term_dict(X @ (Y @ Z))
        for Y, X in zip(maps, maps[1:]):
            q = coefficient(rng)
            # Y' = q Y + J Y has Y's basis and target, for a jet map J
            Y2 = q * Y + random_jet(rng, Y.target)[0] @ Y
            assert term_dict(X @ (Y + Y2)) == term_dict(X @ Y + X @ Y2)
            assert term_dict((X @ Y) * q) == term_dict((q * X) @ Y) == term_dict(X @ (Y * q))
            assert term_dict(X @ Y - X @ Y) == {}

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_terms_on_one_coordinate_add(self, space):
        # a_2 + a_2'' at d^0: on the circle m and m'' are on one coordinate,
        # and (cos x)'' + cos x = 0
        basis = TruncatedBasis(2, 6, space, F(1, 3), F(1, 5))
        T = (SymmetryMap(basis, (basis, [(2, 0, 0, 1)]), "a_2")
             + SymmetryMap(basis, (basis, [(2, 0, 2, 1)]), "a_2''"))
        assert T.columns == AppliedMap(basis, lambda A: DensityOperator(
            A.lam, A.mu, [A.coefficient(2) + A.coefficient(2).diff(2)])).columns
        cos = 2 * len(basis.monomials) + coordinate(space, 1)  # cos x d^2, or x d^2
        assert T.image(cos) == ([] if space == CIRCLE else [(1, T.den)])

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_a_term_below_d0_survives_the_term_algebra(self, space):
        # delta^-1 of D^3_{0,2/3} has the term (0, -1, 0, 1): a_0 below d^0
        w = TruncatedBasis(3, 7, space, 0, F(2, 3))
        X = shift_map(w, -1)
        Id, P0 = realize("Id", w), realize("P0", w)
        guarded = [X, shift_map(X.target, 1) @ X, X @ Id, X @ (2 * Id - P0),
                   0 * X, X - X, 0 * X @ Id, X @ P0 - X @ P0, X @ Id - X @ P0]
        for T in guarded:
            assert any(o < 0 for _, o, _, _ in T.closed[1]), T.name
            with pytest.raises(NotInKernelError, match="below d\\^0"):
                T.is_zero()
        assert (X - X).closed[1] == [(0, -1, 0, 0)]
        # composed after Id - P0, nothing reaches the guard: delta^-1 on Ker P0;
        # X @ Id - X @ P0 above keeps it, so distributivity stops at a guard
        kernel = X @ (Id - P0)
        assert not any(o < 0 for _, o, _, _ in kernel.closed[1])
        assert kernel.columns == AppliedMap(w, lambda A: delta_inverse(A - p0(A)),
                                            target=X.target).columns

