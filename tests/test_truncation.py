import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from densym import cli, rings, truncation
from densym.densities import (
    Density, DensityOperator, VectorField, lie_derivative_density,
    lie_derivative_operator,
)
from densym.errors import InapplicableSymmetryError, TruncationOverflowError
from densym.identities import CATALOG_HOMES, CheckConfig, check_catalog_op
from densym.linalg import max_abs
from densym.operators import CATALOG, conjugate, w_formula
from densym.rings import CIRCLE, LINE, PolyFn, TrigFn
from densym.truncation import (
    SymmetryMap, TruncatedBasis, brute_force_fields,
    brute_force_local_symmetries, circle_fields, component_unknowns,
    componentwise_map, elementary_defects, equivariance_defect,
    generator_family, invariant_functionals_dimension, line_fields, realize,
    ring_vector,
)


def direct_equivariance_defect(T, X):
    """Reference for equivariance_defect: T o L_X - L_X o T evaluated on each
    safe basis element directly, with no appeal to linearity."""
    basis = T.basis
    safe = basis.safe_elements(X)
    if not safe:
        raise TruncationOverflowError("no safe sub-basis: window M is too small")
    cols = []
    for b in safe:
        lhs, image = T.func(lie_derivative_operator(X, b)), T.func(b)
        if isinstance(image, Density):
            cols.append(ring_vector((lhs - lie_derivative_density(X, image)).value, basis.M))
        else:
            cols.append(basis.vector_of(lhs - lie_derivative_operator(X, image)))
    return cols


class TestTruncatedBasis:
    def test_dimensions(self):
        assert TruncatedBasis(2, 4, LINE, 0, 1).dim == 3 * 5
        assert TruncatedBasis(2, 4, CIRCLE, 0, 1).dim == 3 * 9

    def test_ordering_is_order_then_monomial(self):
        basis = TruncatedBasis(1, 1, LINE, 0, 0)
        assert [b.order for b in basis.elements] == [0, 0, 1, 1]
        assert basis.elements[1].coeffs[0] == PolyFn.monomial(1)
        assert basis.elements[3].coeffs[1] == PolyFn.monomial(1)

    def test_vector_round_trip(self):
        basis = TruncatedBasis(2, 3, CIRCLE, F(1, 3), F(1, 5))
        A = DensityOperator(F(1, 3), F(1, 5), [
            TrigFn(1, {2: F(1, 2)}, {}), TrigFn.sine(3), TrigFn.cosine(1)])
        vec = basis.vector_of(A)
        assert len(vec) == basis.dim
        assert sum((c * b for c, b in zip(vec, basis.elements) if c),
                   DensityOperator.zero(A.lam, A.mu, CIRCLE)) == A

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

    def test_safe_elements_shrink_with_field_size(self):
        basis = TruncatedBasis(1, 4, CIRCLE, 0, 0)
        big = len(basis.safe_elements(VectorField(TrigFn.cosine(1))))
        small = len(basis.safe_elements(VectorField(TrigFn.cosine(3))))
        assert big > small > 0


class TestRealize:
    def test_identity_matrix(self):
        basis = TruncatedBasis(1, 2, LINE, 0, 1)
        T = realize("Id", basis)
        n = basis.dim
        assert T.matrix == [[F(int(i == j)) for j in range(n)] for i in range(n)]

    def test_conjugation_squares_to_identity(self):
        basis = TruncatedBasis(1, 2, LINE, 0, 1)
        C = realize("C", basis)
        assert (C @ C).equals(realize("Id", basis))

    def test_p0_idempotent_as_map(self):
        basis = TruncatedBasis(2, 3, CIRCLE, 0, 1)
        P = realize("P0", basis)
        assert (P @ P).equals(P)

    def test_inapplicable_raises(self):
        basis = TruncatedBasis(2, 3, CIRCLE, F(1, 2), F(1, 2))
        with pytest.raises(InapplicableSymmetryError):
            realize("P0", basis)
        with pytest.raises(InapplicableSymmetryError):
            realize("sigma", basis)  # projection, not an endomorphism

    def test_linear_combinations_of_maps(self):
        basis = TruncatedBasis(1, 2, CIRCLE, 0, 1)
        C = realize("C", basis)
        Id = realize("Id", basis)
        Z = (C @ C) - Id
        assert Z.is_zero()
        assert (2 * Id - Id - Id).is_zero()


class TestEquivarianceDefect:
    def test_identity_commutes(self):
        basis = TruncatedBasis(1, 4, LINE, F(1, 3), F(1, 5))
        T = realize("Id", basis)
        for X in line_fields(3):
            assert max_abs(equivariance_defect(T, X)) == 0

    def test_conjugation_commutes_on_symmetric_line(self):
        basis = TruncatedBasis(2, 5, LINE, F(1, 4), F(3, 4))
        T = realize("C", basis)
        for X in line_fields(3):
            assert max_abs(equivariance_defect(T, X)) == 0

    def test_non_symmetry_has_nonzero_defect(self):
        # a1 d/dx -> a1' is translation-invariant but not a symmetry of
        # D^1_{0,0}: the quadratic field must detect it
        basis = TruncatedBasis(1, 4, LINE, 0, 0)
        # t[1,1] = 1 in the order t[0,0], t[1,0], t[1,1]
        T = SymmetryMap(basis, componentwise_map([F(0), F(0), F(1)], 1, 0, 0, LINE))
        defects = [equivariance_defect(T, X) for X in line_fields(3)]
        assert any(max_abs(cols) != 0 for cols in defects)
        assert defects == [direct_equivariance_defect(T, X) for X in line_fields(3)]

    def test_degree_raising_map_overflows_instead_of_truncating(self):
        basis = TruncatedBasis(1, 4, LINE, 0, 0)

        def raises_degree(A):
            return DensityOperator(0, 0, [PolyFn.monomial(1) * c for c in A.coeffs])

        T = SymmetryMap(basis, raises_degree, name="x*")
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

        T = SymmetryMap(basis, raises_frequency, name="cos*")
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
                    assert max_abs(equivariance_defect(T, X)) == 0


def every_home_entry():
    out = []
    for name in sorted(CATALOG_HOMES):
        for space in (CIRCLE, LINE):
            if CATALOG[name].circle_only and space == LINE:
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
    return SymmetryMap(basis, CATALOG[name].make(k, lam, mu), name=name)


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
            assert equivariance_defect(T, X) == direct_equivariance_defect(T, X)

    @pytest.mark.parametrize("lam,mu", [(F(0), F(1, 2)), (F(1, 3), F(2)), (F(-1, 3), F(0))])
    def test_nonzero_columns_equal_the_direct_route(self, lam, mu):
        # the points w_sharpness checks off the order-4 locus
        T = SymmetryMap(TruncatedBasis(4, 10, CIRCLE, lam, mu), w_formula(4, lam, mu))
        defects = [equivariance_defect(T, X) for X in circle_fields(2)]
        assert any(max_abs(cols) != 0 for cols in defects)
        assert defects == [direct_equivariance_defect(T, X) for X in circle_fields(2)]

    def test_wrong_formula_fails_on_both_routes(self, capsys, monkeypatch):
        def s_sign_flipped(A):
            a = A.coeffs + (rings.zero(A.space),)
            return conjugate(DensityOperator(1, 1, [a[i] - a[i + 1].diff()
                                                    for i in range(A.order + 1)]))

        monkeypatch.setitem(CATALOG, "S", replace(
            CATALOG["S"], make=lambda k, lam, mu: s_sign_flipped))
        T = home_map("S", CIRCLE)
        defects = [equivariance_defect(T, X) for X in circle_fields(2)]
        assert any(max_abs(cols) != 0 for cols in defects)
        assert defects == [direct_equivariance_defect(T, X) for X in circle_fields(2)]
        assert cli.main(["verify", "--op", "S"]) == 1
        assert "op:S: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["S", "W", "piDelta"])
    def test_columns_are_the_image_vectors(self, name):
        # an operator image is read on the basis, a density on the ring window
        T = home_map(name, CIRCLE)
        images = [T.func(b) for b in T.basis.elements]
        assert T.columns == [ring_vector(A.value, T.basis.M) if isinstance(A, Density)
                             else T.basis.vector_of(A) for A in images]

    @pytest.mark.parametrize("name,space", every_map_home())
    def test_maps_are_linear(self, name, space):
        T = home_map(name, space)
        elements = T.basis.elements
        rng = random.Random(f"{name} {space}")
        for _ in range(4):
            b1, b2 = rng.sample(elements, 2)
            # odd over even: never an integer
            q1, q2 = (F(2 * rng.randint(-5, 4) + 1, 2 * rng.randint(1, 4)) for _ in range(2))
            assert T.func(q1 * b1 + q2 * b2) == q1 * T.func(b1) + q2 * T.func(b2)

    @pytest.mark.parametrize("name", ["S", "Sstar", "W"])
    def test_each_map_and_each_lie_derivative_once_per_element(self, name, monkeypatch):
        applied, lie_calls = [], Counter()
        real_make = CATALOG[name].make

        def make(k, lam, mu):
            T = real_make(k, lam, mu)
            return lambda A: applied.append(A) or T(A)

        def lie(X, A):
            lie_calls[repr(X)] += 1
            return lie_derivative_operator(X, A)

        monkeypatch.setitem(CATALOG, name, replace(CATALOG[name], make=make))
        monkeypatch.setattr(truncation, "lie_derivative_operator", lie)
        res = check_catalog_op(name, CheckConfig())
        assert res.passed, res.line()
        assert 0 < len(applied) <= res.basis_size
        assert len(lie_calls) == len(generator_family(CIRCLE))
        assert max(lie_calls.values()) <= res.basis_size


FROZEN_LOCAL_DIMS = {
    (F(1, 3), F(1, 5)): [1, 2, 2, 1, 1],
    (F(0), F(2, 7)): [1, 2, 3, 3, 2],
    (F(0), F(1)): [1, 3, 4, 5, 5],
    (F(-1, 2), F(3, 2)): [1, 2, 3, 3, 2],
    (F(-2, 3), F(5, 3)): [1, 2, 2, 3, 3],
}


def oracle_maps(k, lam, mu, space, M=None):
    """The oracle's solutions as SymmetryMaps on the oracle's own window."""
    basis = TruncatedBasis(k, k + 4 if M is None else M, space, lam, mu)
    return [SymmetryMap(basis, componentwise_map(sol, k, lam, mu, space))
            for sol in brute_force_local_symmetries(k, lam, mu, space, M)]


class TestBruteForce:
    @pytest.mark.parametrize("point,dims", sorted(FROZEN_LOCAL_DIMS.items()))
    def test_dimensions_on_line(self, point, dims):
        lam, mu = point
        got = [len(brute_force_local_symmetries(k, lam, mu, LINE))
               for k in range(5)]
        assert got == dims

    def test_circle_route_matches_line_route(self):
        for lam, mu in [(F(1, 3), F(1, 5)), (F(0), F(1)), (F(-1, 2), F(3, 2))]:
            for k in (1, 2, 3):
                line = brute_force_local_symmetries(k, lam, mu, LINE)
                circ = brute_force_local_symmetries(k, lam, mu, CIRCLE)
                assert len(line) == len(circ)

    def test_representatives_commute_with_quartic_and_quintic_fields(self):
        # solutions found with x^2, x^3 also commute with x^4 and x^5 d/dx
        for lam, mu in [(F(0), F(1)), (F(1, 3), F(7, 6))]:
            for T in oracle_maps(3, lam, mu, LINE, M=9):
                for p in (4, 5):
                    X = VectorField(PolyFn.monomial(p))
                    assert max_abs(equivariance_defect(T, X)) == 0

    def test_window_floor_enforced(self):
        with pytest.raises(ValueError):
            brute_force_local_symmetries(3, 0, 1, LINE, M=5)

    def test_unknown_space_raises(self):
        with pytest.raises(ValueError, match="'sphere'"):
            brute_force_local_symmetries(2, 0, 1, "sphere")

    def test_solutions_are_symmetry_maps(self):
        maps = oracle_maps(2, F(1, 3), F(1, 5), LINE)
        assert len(maps) == 2
        fields = [VectorField(PolyFn.monomial(2)), VectorField(PolyFn.monomial(3))]
        for T in maps:
            for X in fields:
                assert max_abs(equivariance_defect(T, X)) == 0


# brute-force nullspace bases (rows over component_unknowns) at the default
# window M = k+4, as the per-elementary-map route computed them
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
        got = brute_force_local_symmetries(k, lam, mu, space)
        want = [[F(v) for v in row.split()] for row in PINNED_SOLUTIONS[case]]
        assert got == want

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_rows_match_the_generic_defect(self, space, k):
        # sum_u t_u column_u must be the defect of the map with coefficients t
        rng = random.Random(1000 * k + len(space))
        lam, mu = F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), 7)
        basis = TruncatedBasis(k, k + 4, space, lam, mu)
        unknowns = component_unknowns(k)
        t = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in unknowns]
        T = SymmetryMap(basis, componentwise_map(t, k, lam, mu, space))
        for X in brute_force_fields(space):
            defects = elementary_defects(basis, X)
            want = equivariance_defect(T, X)
            assert len(defects) == len(want)
            for eqs, col in zip(defects, want):
                got = [F(0)] * basis.dim
                for coord, entries in eqs.items():
                    got[coord] = sum(t[j] * v for j, v in entries.items())
                assert got == col

    def test_proportional_rows_are_kept_once(self, monkeypatch):
        from densym import truncation
        seen = []
        real = truncation.nullspace
        monkeypatch.setattr(truncation, "nullspace",
                            lambda rows, n: seen.append(rows) or real(rows, n))
        brute_force_local_symmetries(3, F(0), F(1), CIRCLE)
        rows = seen[0]

        def normalized(row):
            lead = next(v for v in row if v)
            return tuple(v / lead for v in row)

        assert rows and len({normalized(row) for row in rows}) == len(rows)

    def test_one_lie_derivative_per_safe_element(self, monkeypatch):
        from densym import truncation
        calls = []
        real = truncation.lie_derivative_operator
        monkeypatch.setattr(truncation, "lie_derivative_operator",
                            lambda X, A: calls.append(A) or real(X, A))
        basis = TruncatedBasis(3, 7, CIRCLE, F(1, 3), F(1, 5))
        X = brute_force_fields(CIRCLE)[0]
        elementary_defects(basis, X)
        assert len(calls) == len(basis.safe_elements(X))


class TestInvariantFunctionals:
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
        from densym.densities import Density, lie_derivative_density
        from densym.rings import circle_mean
        from densym.truncation import ring_basis
        for X in circle_fields(2):
            for mono in ring_basis(CIRCLE, 2):
                phi = Density(1, mono)
                assert circle_mean(lie_derivative_density(X, phi).value) == 0
