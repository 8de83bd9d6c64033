from fractions import Fraction as F

import pytest

from densym import recurrence
from densym.algebras import span_algebra
from densym.densities import DensityOperator, VectorField
from densym.errors import SpanMismatchError, SpanNotClosedError
from densym.errors import InapplicableSymmetryError, WeightMismatchError
from densym.identities import CATALOG_HOMES, GENERIC_POINTS
from densym.linalg import max_abs, nullspace
from densym.operators import (
    CATALOG, component_unknowns, componentwise_map, compose_jets, conjugation_jet,
)
from densym.recurrence import (
    EXCEPTIONAL_LOCI, MIRRORED_GENERATORS, SWEEP_SEED, _sample_on_condition,
    build_system, candidate_generators, classify, exceptional_conditions, is_generic,
    jet_algebra, local_dimension, nonlocal_dimension, residual, sample_generic, sweep,
)
from densym.rings import CIRCLE, LINE, PolyFn
from densym.truncation import (
    SymmetryMap, TruncatedBasis, brute_force_local_symmetries, equivariance_defect,
)
from reference import acts_on_circle_as, read_jet, reference_map
import random


# dimension table rows, k = 0..6, at fixed representative points
FROZEN_TABLE = [
    ((F(1, 3), F(1, 5)), [1, 2, 2, 1, 1, 1, 1]),         # generic
    ((F(0), F(2, 7)), [1, 2, 3, 3, 2, 2, 2]),            # lambda = 0
    ((F(3, 5), F(1)), [1, 2, 3, 3, 2, 2, 2]),            # mu = 1
    ((F(1, 5), F(4, 5)), [1, 2, 2, 2, 2, 2, 2]),         # lambda + mu = 1
    ((F(1, 3), F(7, 6)), [1, 2, 2, 2, 1, 1, 1]),         # order-3 locus
    ((F(1, 5), F(11, 5)), [1, 2, 2, 2, 1, 1, 1]),        # mu - lambda = 2
    ((F(0), F(5, 4)), [1, 2, 3, 3, 3, 2, 2]),
    ((F(0), F(3)), [1, 2, 3, 3, 3, 2, 2]),
    ((F(-1, 4), F(1)), [1, 2, 3, 3, 3, 2, 2]),
    ((F(-2), F(1)), [1, 2, 3, 3, 3, 2, 2]),
    ((F(0), F(0)), [1, 2, 3, 3, 3, 3, 3]),
    ((F(1), F(1)), [1, 2, 3, 3, 3, 3, 3]),
    ((F(-2, 3), F(5, 3)), [1, 2, 2, 3, 3, 2, 2]),
    ((F(-1, 2), F(3, 2)), [1, 2, 3, 3, 2, 2, 2]),
    ((F(0), F(1)), [1, 3, 4, 5, 5, 5, 5]),
]


class TestRecurrenceSystem:
    def test_unknown_count(self):
        assert len(component_unknowns(3)) == 10
        assert len(component_unknowns(0)) == 1
        assert all(len(row) == 10 for row in build_system(3, 0, 1))

    def test_order_zero_is_unconstrained(self):
        assert local_dimension(0, F(1, 3), F(1, 5)) == 1

    def test_order_one_generic(self):
        assert local_dimension(1, F(1, 3), F(1, 5)) == 2

    @pytest.mark.parametrize("point,dims", FROZEN_TABLE)
    def test_dimension_table(self, point, dims):
        lam, mu = point
        got = [local_dimension(k, lam, mu) for k in range(7)]
        assert got == dims

    def test_identity_always_solves(self):
        rows = build_system(4, F(2, 7), F(9, 5))
        identity = [F(int(l == 0)) for r, l in component_unknowns(4)]
        assert residual(rows, identity) == 0

    def test_conjugation_solves_on_symmetric_line(self):
        # T[r, l] = (-1)^r / l! in the component normalization
        import math
        lam = F(2, 7)
        rows = build_system(4, lam, 1 - lam)
        t = [F((-1) ** r, math.factorial(l)) for r, l in component_unknowns(4)]
        assert residual(rows, t) == 0

    def test_printed_two_term_relation_rejected(self):
        # regression: the two-term variant of the cubic-field relation is
        # violated by the conjugation map at (0,1), k=1, so it cannot be part
        # of a correct system; the derived four-term family is used instead
        lam, mu = F(0), F(1)
        d = mu - lam
        conj = [F(1), F(-1), F(-1)]  # t[0,0], t[1,0], t[1,1]
        rows = build_system(1, lam, mu)
        assert residual(rows, conj) == 0  # C is a true solution
        r, l = 1, 1
        two_term = ((6 * lam + 3 * r - 3) * conj[0]  # t[r-1,l-1]
                    + l * (3 * d - 3 * r + l - 2) * conj[2])  # t[r,l]
        assert two_term != 0

    def test_solutions_satisfy_brute_force_and_conversely(self):
        for lam, mu in [(F(1, 3), F(1, 5)), (F(0), F(1)), (F(-2, 3), F(5, 3))]:
            k = 3
            rec_solutions = nullspace(build_system(k, lam, mu), len(component_unknowns(k)))
            brute = brute_force_local_symmetries(k, lam, mu)
            assert len(rec_solutions) == len(brute)
            # recurrence solutions realize to equivariant maps
            fields = [VectorField(PolyFn.monomial(2)), VectorField(PolyFn.monomial(3))]
            basis = TruncatedBasis(k, k + 4, LINE, lam, mu)
            for sol in rec_solutions:
                T = SymmetryMap(basis, componentwise_map(sol, k, lam, mu))
                for X in fields:
                    assert max_abs(col.values() for col in equivariance_defect(T, X)) == 0


class TestStructuralProperties:
    @pytest.mark.parametrize("point", [
        (F(0), F(2, 7)), (F(1, 3), F(1, 5)), (F(-2, 3), F(5, 3)),
        (F(0), F(3)), (F(-1, 2), F(3, 2)),
    ])
    def test_conjugation_duality_of_dimensions(self, point):
        lam, mu = point
        for k in range(6):
            d1 = local_dimension(k, lam, mu)
            d2 = local_dimension(k, 1 - mu, 1 - lam)
            assert d1 == d2

    @pytest.mark.parametrize("point", [p for p, _ in FROZEN_TABLE])
    def test_monotone_stabilization_beyond_order_three(self, point):
        lam, mu = point
        dims = [local_dimension(k, lam, mu) for k in range(3, 8)]
        assert all(dims[i] >= dims[i + 1] for i in range(len(dims) - 1))

    def test_nonlocal_rule(self):
        assert nonlocal_dimension(3, 0, 1, CIRCLE) == 1
        assert nonlocal_dimension(0, 0, 1, CIRCLE) == 0
        assert nonlocal_dimension(3, 0, 1, LINE) == 0
        assert nonlocal_dimension(3, F(1, 2), F(1, 2), CIRCLE) == 0


class TestGenericSampling:
    def test_rejects_exceptional_points(self):
        assert not is_generic(0, F(2, 7))
        assert not is_generic(F(1, 5), F(4, 5))
        assert not is_generic(F(1, 3), F(7, 6))
        assert not is_generic(F(-1, 2), F(3, 2))
        assert not is_generic(F(1, 5), F(11, 5))
        assert is_generic(F(1, 3), F(1, 5))

    def test_sampler_produces_generic_points_with_generic_dims(self):
        rng = random.Random(7)
        for _ in range(3):
            lam, mu = sample_generic(rng)
            dims = [local_dimension(k, lam, mu) for k in range(5)]
            assert dims == [1, 2, 2, 1, 1]


class TestClassify:
    def test_spec_cli_cases(self):
        rep = classify(3, F(-1, 2), F(3, 2), CIRCLE)
        assert rep.total == 3 and rep.algebra_kind == "t2"
        rep = classify(2, F(0), F(1), CIRCLE)
        assert rep.total == 5 and rep.algebra_kind == "b+R"
        rep = classify(1, F(2, 7), F(9, 7), LINE)
        assert rep.total == 2 and rep.algebra_kind == "a"

    def test_report_json_schema(self):
        import json
        rep = classify(5, 0, 1, CIRCLE)
        data = json.loads(rep.to_json())
        assert data == {
            "k": 5, "lambda": "0", "mu": "1", "space": "circle",
            "local_dim": 5, "nonlocal_dim": 1, "total": 6,
            "algebra": "b+R^2",
            "generators": ["Id", "P0", "P0star", "C", "P1", "L"],
        }

    @pytest.mark.parametrize("k", range(5, 13))
    def test_high_orders_at_zero_one_with_the_oracle(self, k):
        # the k >= 5 column of the table: the algebra stops growing at k = 3
        rep = classify(k, 0, 1, CIRCLE)
        assert (rep.total, rep.algebra_kind) == (6, "b+R^2")
        rep = classify(k, 0, 1, LINE)
        assert (rep.total, rep.algebra_kind) == (5, "t2+R^2")

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_structure_constants_stay_fractions(self, monkeypatch, space):
        built = []
        real = recurrence.jet_algebra

        def spy(names, vectors, k):
            built.append(real(names, vectors, k))
            return built[-1]

        monkeypatch.setattr(recurrence, "jet_algebra", spy)
        for k in range(1, 5):
            classify(k, 0, 1, space)
        assert len(built) == 4
        for alg in built:
            assert all(type(v) is F for row in alg.sc for vec in row for v in vec)

    def test_line_and_circle_agree_away_from_zero_one(self):
        for lam, mu in [(F(1, 3), F(1, 5)), (F(0), F(2, 7)), (F(1, 5), F(4, 5))]:
            line = classify(2, lam, mu, LINE)
            circ = classify(2, lam, mu, CIRCLE)
            assert (line.total, line.algebra_kind) == (circ.total, circ.algebra_kind)

    def test_generator_lists_span_exactly(self):
        rep = classify(4, F(-2, 3), F(5, 3), CIRCLE)
        assert rep.generator_names == ["Id", "C", "GV"]
        rep = classify(4, F(0), F(5, 4), CIRCLE)
        assert rep.generator_names == ["Id", "P0", "JW"]

    def test_oracle_check_runs_by_default(self):
        rep = classify(2, F(1, 3), F(1, 5), CIRCLE, check_oracle=True)
        assert rep.local_dimension == 2

    @pytest.mark.parametrize("point", [(F(0), F(1)), (F(1, 3), F(7, 6)),
                                       (F(-2, 3), F(5, 3))])
    def test_oracle_finds_the_recurrence_solutions(self, point):
        for k in (2, 3):
            rows = build_system(k, *point)
            brute = brute_force_local_symmetries(k, *point)
            assert brute == nullspace(rows, len(component_unknowns(k)))

    @pytest.mark.parametrize("count", ["same", "fewer"])
    def test_oracle_must_find_the_same_space(self, monkeypatch, count):
        # unit vectors: the right dimension but another solution space, or
        # one vector short
        real = recurrence.brute_force_local_symmetries

        def skewed(k, lam, mu):
            dim = len(real(k, lam, mu))
            n = len(component_unknowns(k))
            units = [[F(int(i == j)) for i in range(n)] for j in range(dim)]
            return units if count == "same" else units[1:]

        monkeypatch.setattr(recurrence, "brute_force_local_symmetries", skewed)
        with pytest.raises(SpanMismatchError, match="span different spaces"):
            classify(2, F(0), F(1), CIRCLE)
        assert classify(2, F(0), F(1), CIRCLE, check_oracle=False).total == 5

    @pytest.mark.parametrize("args, bad", [
        ((2, 0, 1, "sphere"), "'sphere'"),
        ((-1, 0, 1), "got -1"),
    ])
    def test_rejects_a_module_that_does_not_exist(self, args, bad):
        with pytest.raises(ValueError, match=bad):
            classify(*args)


class TestSweep:
    def test_table_rows_and_determinism(self):
        t1 = sweep(kmax=4, samples=3, with_kinds=False)
        t2 = sweep(kmax=4, samples=3, with_kinds=False)
        assert t1 == t2
        assert len(t1) == 9
        by_row = {row["row"]: row["dims"] for row in t1}
        assert by_row["generic"] == [1, 2, 2, 1, 1]
        assert by_row["(0,1)"] == [1, 3, 4, 5, 5]
        assert by_row["(-1/2,3/2)"] == [1, 2, 3, 3, 2]

    def test_sampled_points_respect_row_conditions(self):
        t = sweep(kmax=3, samples=3, with_kinds=False)
        for row in t:
            if row["row"] == "lambda+mu=1, generic":
                for lam_s, mu_s in row["points"]:
                    assert F(lam_s) + F(mu_s) == 1
            if row["row"] == "generic":
                for lam_s, mu_s in row["points"]:
                    assert is_generic(F(lam_s), F(mu_s))

    def test_span_mismatch_is_raised_not_downgraded(self, monkeypatch):
        def mismatch(*args, **kwargs):
            raise SpanMismatchError("forced mismatch")

        monkeypatch.setattr(recurrence, "classify", mismatch)
        with pytest.raises(SpanMismatchError, match="forced mismatch"):
            sweep(kmax=1, samples=3, with_kinds=True)

    @pytest.mark.parametrize("kwargs, bad", [
        ({"kmax": 2, "space": "sphere"}, "'sphere'"),
        ({"kmax": -1}, "got -1"),
    ])
    def test_rejects_a_module_that_does_not_exist(self, kwargs, bad):
        with pytest.raises(ValueError, match=bad):
            sweep(samples=3, with_kinds=False, **kwargs)

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_sampled_points_are_pinned(self, space):
        points = [row["points"] for row in sweep(6, space, with_kinds=False)]
        assert points == SWEEP_POINTS

    def test_candidate_generators_cover_mirrors(self):
        names = [n for n, _ in candidate_generators(4, F(-1, 4), F(1), CIRCLE)]
        assert "JW*" in names and "P0star" in names


# the points column of sweep(6) at SWEEP_SEED, recorded before the loci moved
# into one table; the samplers must keep drawing exactly these
SWEEP_POINTS = [
    [("-27/47", "-69/62"), ("61/2", "-73/50"), ("-27/4", "-54/73")],
    [("0", "-46/39"), ("-76/85", "1"), ("0", "-16/23")],
    [("-61/69", "130/69"), ("-61/13", "74/13"), ("-13/81", "94/81")],
    [("11/6", "50/39"), ("-28/55", "82/55"), ("4", "17/13")],
    [("-1/4", "1"), ("-2", "1"), ("0", "5/4"), ("0", "3")],
    [("0", "0"), ("1", "1")],
    [("-2/3", "5/3")],
    [("-1/2", "3/2")],
    [("0", "1")],
]


# ----------------------------------------------------------------------
# the exceptional loci table, against the classifier
# ----------------------------------------------------------------------

# every curve and point where some order up to 5 is exceptional; the table
# must pick out of these exactly the ones the classifier finds at each order.
# A candidate curve the table leaves out has the generic value, so comparing a
# point with every candidate curve through it equals comparing with the table's.
CANDIDATE_LINES = ["lambda=0", "mu=1", "lambda+mu=1", "mu-lambda=1", "mu-lambda=2"]
CANDIDATE_CURVES = CANDIDATE_LINES + ["locus-k3"]
CANDIDATE_POINTS = [
    (F(0), F(0)), (F(1), F(1)), (F(0), F(1)), (F(0), F(2)), (F(0), F(3)),
    (F(0), F(5, 4)), (F(-1, 4), F(1)), (F(-1), F(1)), (F(-2), F(1)),
    (F(-2, 3), F(5, 3)), (F(-1, 2), F(3, 2)),
]


class TestExceptionalLoci:
    def test_sampler_skips_the_pole_of_the_order3_curve(self):
        # no mu lies on the curve at lam = -1/3, which `table --samples 1000` draws
        class Draws:
            def __init__(self, *values):
                self.values = iter(values)

            def randint(self, a, b):
                return next(self.values)

        point = _sample_on_condition("locus-k3", Draws(-1, 3, 1, 3), 6)
        assert point == (F(1, 3), F(7, 6))

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_table_is_what_the_classifier_finds(self, k, space):
        def value(lam, mu):
            rep = classify(k, lam, mu, space, check_oracle=False)
            return rep.total, rep.algebra_kind

        rng = random.Random(SWEEP_SEED)
        generic = value(*sample_generic(rng))
        on_curve = {
            name: value(*_sample_on_condition(name, rng, 6))
            for name in CANDIDATE_CURVES
        }
        conds = exceptional_conditions()
        points = [
            p for p in CANDIDATE_POINTS
            if value(*p) not in {generic} | {
                v for name, v in on_curve.items() if conds[name](*p)
            }
        ]
        loci = EXCEPTIONAL_LOCI[k]
        assert loci["lines"] == [
            name for name in CANDIDATE_LINES if on_curve[name] != generic
        ]
        assert loci["hyperbola"] == (on_curve["locus-k3"] != generic)
        assert sorted(loci["points"]) == sorted(points)


# ----------------------------------------------------------------------
# jet coordinates, against the reference formulas and the truncated-basis route
# ----------------------------------------------------------------------

LOCAL_ENDOS = [n for n, e in CATALOG.items() if e.jet is not None]


def _home_candidates():
    """(candidate name, k, lam, mu): every local endomorphism at its home
    weights, and every mirrored one at the mirror of its home, where that is
    another point."""
    out = [(name, *CATALOG_HOMES[name]) for name in LOCAL_ENDOS]
    for name in MIRRORED_GENERATORS:
        k, lam, mu = CATALOG_HOMES[name]
        if (1 - mu, 1 - lam) != (lam, mu):
            out.append((name + "*", k, 1 - mu, 1 - lam))
    return out


def _reference_points():
    """The TABLE_ROWS points (the sampled rows at SWEEP_SEED), every catalog
    home and its mirror, and GENERIC_POINTS."""
    points = [(F(l), F(m)) for row in SWEEP_POINTS for l, m in row]
    for _, lam, mu in CATALOG_HOMES.values():
        points += [(lam, mu), (1 - mu, 1 - lam)]
    return list(dict.fromkeys(points + GENERIC_POINTS))


def _jet_and_span_algebras(k, lam, mu, space):
    """The jet structure constants of classify's generators, and
    span_algebra's of their reference formulas on a window."""
    names = classify(k, lam, mu, space, check_oracle=False).generator_names
    vectors = dict(candidate_generators(k, lam, mu, space))
    basis = TruncatedBasis(k, k + 6, space, lam, mu)
    maps = [SymmetryMap(basis, reference_map(n, k, lam, mu), name=n) for n in names]
    return jet_algebra(names, [vectors[n] for n in names], k), span_algebra(maps)


class TestJetCoordinates:
    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("lam, mu", _reference_points())
    def test_catalog_jets_are_read_off_the_reference_formulas(self, lam, mu, space):
        for k in range(7):
            for name, vec in candidate_generators(k, lam, mu, space):
                build = reference_map(name, k, lam, mu)
                if name == "L":
                    assert vec == [0] * (len(vec) - 1) + [1]
                    continue
                t = read_jet(build, k, lam, mu)
                assert vec == t + [0], (name, k)
                assert space == LINE or acts_on_circle_as(build, t, k, lam, mu), (name, k)

    def test_reference_points_reach_every_candidate(self):
        # a generator whose home is its own mirror point has no mirror
        names = {n for lam, mu in _reference_points() for k in range(7)
                 for space in (LINE, CIRCLE) for n, _ in candidate_generators(k, lam, mu, space)}
        mirrors = {n + "*" for n in MIRRORED_GENERATORS
                   if CATALOG_HOMES[n][1] + CATALOG_HOMES[n][2] != 1}
        assert names == {n for n, e in CATALOG.items() if e.kind == "endo"} | mirrors

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("name, k, lam, mu", _home_candidates())
    def test_read_off_realizes_the_candidate(self, name, k, lam, mu, space):
        # the candidate's jet map is its reference formula on a window
        vec = dict(candidate_generators(k, lam, mu, space))[name]
        build = reference_map(name, k, lam, mu)
        assert vec[:-1] == read_jet(build, k, lam, mu)
        jet = componentwise_map(vec[:-1], k, lam, mu)
        for b in TruncatedBasis(k, k + 6, space, lam, mu).elements:
            assert jet(b) == build(b)

    @pytest.mark.parametrize("k", range(6))
    def test_read_off_inverts_componentwise_map(self, k):
        # a jet vector and its map are one object: reading the map back off
        # the line returns the vector
        rng = random.Random(k)
        lam, mu = F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), 7)
        for _ in range(3):
            t = [F(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.8 else F(0)
                 for _ in component_unknowns(k)]
            assert read_jet(componentwise_map(t, k, lam, mu), k, lam, mu) == t

    @pytest.mark.parametrize("k", range(9))
    def test_conjugation_jet_is_an_involution(self, k):
        rng = random.Random(900 + k)
        identity = [F(int(l == 0)) for _, l in component_unknowns(k)]
        c = conjugation_jet(k)
        assert compose_jets(c, c, k) == identity
        for _ in range(3):
            lam = F(rng.randint(-9, 9), rng.randint(1, 9))
            C = CATALOG["C"].jet(k, lam, 1 - lam)
            assert C == c and compose_jets(C, C, k) == CATALOG["Id"].jet(k, lam, 1 - lam)

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("k, lam, mu", [(k, F(0), F(1)) for k in range(1, 5)] + [
        (4, F(0), F(0)), (3, F(-1, 2), F(3, 2)), (4, F(-2, 3), F(5, 3)),
        (3, F(-1, 4), F(1)), (4, F(-2), F(1)),
    ])
    def test_structure_constants_equal_span_algebra(self, k, lam, mu, space):
        jet, span = _jet_and_span_algebras(k, lam, mu, space)
        assert jet.names == span.names
        assert jet.sc == span.sc

    def test_trace_rules_match_nonlocal_trace(self):
        k, lam, mu = 2, F(0), F(1)
        basis = TruncatedBasis(k, k + 6, CIRCLE, lam, mu)
        vectors = dict(candidate_generators(k, lam, mu, CIRCLE))
        L = SymmetryMap(basis, reference_map("L", k, lam, mu), name="L")
        L_vec = vectors["L"]
        zero = [F(0)] * len(L_vec)
        assert compose_jets(L_vec, L_vec, k) == zero
        assert (L @ L).is_zero()
        index = {u: i for i, u in enumerate(component_unknowns(k))}
        for name in ("Id", "P0", "P0star", "C", "P1"):
            T = SymmetryMap(basis, reference_map(name, k, lam, mu), name=name)
            T_vec = vectors[name]
            t00, t10 = T_vec[index[0, 0]], T_vec[index[1, 0]]
            assert compose_jets(L_vec, T_vec, k) == [t00 * v for v in L_vec]
            assert compose_jets(T_vec, L_vec, k) == [t10 * v for v in L_vec]
            assert (L @ T - t00 * L).is_zero()
            assert (T @ L - t10 * L).is_zero()

    def test_local_products_match_composition(self):
        k, lam, mu = 3, F(0), F(1)
        vectors = dict(candidate_generators(k, lam, mu, LINE))
        basis = TruncatedBasis(k, k + 6, LINE, lam, mu)
        for x in ("C", "P0star", "P1"):
            for y in ("C", "P0", "P1"):
                product = compose_jets(vectors[x], vectors[y], k)
                assert product[-1] == 0
                # without the trace coordinate, the same local part
                assert compose_jets(vectors[x][:-1], vectors[y][:-1], k) == product[:-1]
                jet = componentwise_map(product[:-1], k, lam, mu)
                X, Y = reference_map(x, k, lam, mu), reference_map(y, k, lam, mu)
                for b in basis.elements:
                    assert jet(b) == X(Y(b))


# the local generators of the k >= 5 column, at weights where each exists
COLUMN_GENERATORS = ["Id", "P0", "P0star", "C", "S", "Sstar", "P1"]


class TestRestrictionToLowerOrder:
    """The order-k jet is the r <= k prefix of the order-(k+1) jet, and
    compose_jets respects that prefix: restriction is an algebra map."""

    @pytest.mark.parametrize("name", COLUMN_GENERATORS)
    def test_generator_jets_restrict(self, name):
        _, lam, mu = CATALOG[name].home
        n = lambda k: (k + 1) * (k + 2) // 2
        jets = {k: CATALOG[name].jet(k, lam, mu) for k in range(1, 14)}
        for k in range(1, 13):
            assert len(jets[k]) == n(k)
            assert jets[k + 1][:n(k)] == jets[k]
        assert any(jets[13])

    @pytest.mark.parametrize("k", range(1, 7))
    def test_compose_jets_block_depends_only_on_the_input_blocks(self, k):
        rng = random.Random(500 + k)
        low, high = (k + 1) * (k + 2) // 2, (k + 2) * (k + 3) // 2

        def q():
            return F(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.8 else F(0)

        for _ in range(4):
            x, y = [q() for _ in range(high + 1)], [q() for _ in range(high + 1)]
            block = compose_jets(x, y, k + 1)[:low]
            # the order-k product of the blocks, traces kept
            assert block == compose_jets(x[:low] + x[-1:], y[:low] + y[-1:], k)[:low]
            # new top rows t[k+1, .] leave the block unchanged
            x2 = x[:low] + [q() for _ in range(low, high)] + x[-1:]
            y2 = y[:low] + [q() for _ in range(low, high)] + y[-1:]
            assert compose_jets(x2, y2, k + 1)[:low] == block


def _times_x(A):
    return DensityOperator(A.lam, A.mu, [PolyFn.monomial(1) * c for c in A.coeffs])


def _raise_order(A):
    return DensityOperator(A.lam, A.mu, [PolyFn.zero()] + list(A.coeffs))


class TestJetHardErrors:
    @pytest.mark.parametrize("build", [_times_x, _raise_order])
    def test_read_off_rejects_a_map_that_is_not_a_jet_map(self, build):
        with pytest.raises(SpanMismatchError, match="not a jet map"):
            read_jet(build, 2, F(1, 3), F(1, 5))

    def test_read_off_rejects_a_map_into_another_module(self):
        with pytest.raises(SpanMismatchError, match="not a jet map"):
            read_jet(lambda A: DensityOperator(A.lam, A.mu + 1, A.coeffs),
                     1, F(1, 3), F(1, 5))

    def test_circle_action_must_match_the_line_read_off(self):
        def ring_dependent(A):
            return A if A.space == LINE else 2 * A

        t = read_jet(ring_dependent, 2, F(1, 3), F(1, 5))
        assert t == CATALOG["Id"].jet(2, F(1, 3), F(1, 5))
        assert not acts_on_circle_as(ring_dependent, t, 2, F(1, 3), F(1, 5))

    @pytest.mark.parametrize("name, lam, mu, why", [
        ("C", F(1, 3), F(1, 5), "lam \\+ mu = 1"),
        ("P0", F(1, 3), F(0), "lam = 0"),
        ("S", F(0), F(1), "\\(0, 0\\)"),
        ("Sstar", F(0), F(0), "\\(1, 1\\)"),
    ])
    def test_jet_off_its_weights_raises(self, name, lam, mu, why):
        with pytest.raises(InapplicableSymmetryError, match=why):
            CATALOG[name].jet(3, lam, mu)
        with pytest.raises(InapplicableSymmetryError, match=why):
            CATALOG[name].make(3, lam, mu)

    def test_jet_map_rejects_an_operator_of_another_module(self):
        T = CATALOG["Id"].make(2, F(1, 3), F(1, 5))
        with pytest.raises(WeightMismatchError):
            T(DensityOperator(F(1, 3), F(1, 2), [PolyFn.monomial(1)]))
        with pytest.raises(WeightMismatchError):
            T(DensityOperator(F(1, 3), F(1, 5), [0, 0, 0, PolyFn.monomial(1)]))

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    def test_candidate_violating_the_recurrence_raises(self, monkeypatch, space):
        # at a generic point, {Id, scalar term} spans the right dimension,
        # so only the residual check can reject it
        lam, mu = F(1, 3), F(1, 5)
        assert classify(1, lam, mu, space, check_oracle=False).total == 2
        monkeypatch.setattr(recurrence, "candidate_generators",
                            lambda *args: [("Id", [F(1), F(1), F(0), F(0)]),
                                           ("scalar", [F(1), F(0), F(0), F(0)])])
        with pytest.raises(SpanMismatchError, match="scalar violates the recurrence"):
            classify(1, lam, mu, space, check_oracle=False)

    def test_product_outside_the_span_raises(self):
        # P0 o P0 = P0 stays in the span of P0 and C; the next product in
        # row-major order, P0 o C = P0star, is the first to leave it
        k, lam, mu = 2, F(0), F(1)
        vectors = dict(candidate_generators(k, lam, mu, LINE))
        names = ["P0", "C"]
        with pytest.raises(SpanNotClosedError, match="^product P0 o C leaves the span$"):
            jet_algebra(names, [vectors[n] for n in names], k)
