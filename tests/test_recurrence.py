from dataclasses import replace
from fractions import Fraction as F
from math import factorial

import pytest

from densym import recurrence
from densym.algebras import span_algebra
from densym.densities import DensityOperator, VectorField
from densym.errors import SpanMismatchError, SpanNotClosedError
from densym.errors import InapplicableSymmetryError, WeightMismatchError
from densym.identities import CATALOG_HOMES, GENERIC_POINTS
from densym.linalg import max_abs, nullspace
from densym.operators import (
    CATALOG, CatalogEntry, component_unknowns, componentwise_map, compose_terms,
    conjugation_terms, term_coordinates, terms_jet,
)
from densym.recurrence import (
    EXCEPTIONAL_LOCI, MIRRORED_GENERATORS, SWEEP_SEED, TABLE_ROWS, _sample_on_condition,
    build_system, candidate_generators, classify, exceptional_conditions, is_generic,
    jet_algebra, local_dimension, nonlocal_dimension, residual, sample_generic, sweep,
)
from densym.rings import CIRCLE, LINE, PolyFn
from densym.truncation import TruncatedBasis, brute_force_local_symmetries, equivariance_defect
from oracle import AppliedMap, elements
from reference import acts_on_circle_as, jet_map, jet_terms, read_jet, reference_map
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
                T = AppliedMap(basis, jet_map(sol, k, lam, mu))
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

        def spy(names, terms, k, trace):
            built.append(real(names, terms, k, trace))
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
        names = [n for n, _ in candidate_generators(4, F(-1, 4), F(1))]
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

LOCAL_ENDOS = [n for n, e in CATALOG.items() if e.kind == "endo" and e.exists(*e.home, LINE)]


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


def _generator_terms(k, lam, mu, space):
    """classify's generator terms by name, and whether the space has the
    trace: the local candidates' and, with the trace, L's one term."""
    terms = dict(candidate_generators(k, lam, mu))
    trace = bool(nonlocal_dimension(k, lam, mu, space))
    if trace:
        terms["L"] = CATALOG["L"].terms(k, lam, mu)
    return terms, trace


def _jet_and_span_algebras(k, lam, mu, space):
    """The jet structure constants of classify's generators, and
    span_algebra's of their reference formulas on a window."""
    names = classify(k, lam, mu, space, check_oracle=False).generator_names
    terms, trace = _generator_terms(k, lam, mu, space)
    basis = TruncatedBasis(k, k + 6, space, lam, mu)
    maps = [AppliedMap(basis, reference_map(n, k, lam, mu), name=n) for n in names]
    return jet_algebra(names, [terms[n] for n in names], k, trace), span_algebra(maps)


class TestJetCoordinates:
    @pytest.mark.parametrize("lam, mu", _reference_points())
    def test_catalog_jets_are_read_off_the_reference_formulas(self, lam, mu):
        # one jet for both spaces: read off the formula on the line, it is
        # also the formula's action on the circle
        for k in range(7):
            for name, terms in candidate_generators(k, lam, mu):
                build = reference_map(name, k, lam, mu)
                t = read_jet(build, k, lam, mu)
                assert terms_jet(terms, k) == t, (name, k)
                assert acts_on_circle_as(build, t, k, lam, mu), (name, k)

    def test_reference_points_reach_every_candidate(self):
        # a generator whose home is its own mirror point has no mirror; the
        # nonlocal trace L is never a candidate
        names = {n for lam, mu in _reference_points() for k in range(7)
                 for n, _ in candidate_generators(k, lam, mu)}
        mirrors = {n + "*" for n in MIRRORED_GENERATORS
                   if CATALOG_HOMES[n][1] + CATALOG_HOMES[n][2] != 1}
        assert names == set(LOCAL_ENDOS) | mirrors
        assert {n for n, e in CATALOG.items() if e.kind == "endo"} - set(LOCAL_ENDOS) == {"L"}

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("name, k, lam, mu", _home_candidates())
    def test_read_off_realizes_the_candidate(self, name, k, lam, mu, space):
        # the candidate's terms' map is its reference formula on a window
        terms = dict(candidate_generators(k, lam, mu))[name]
        build = reference_map(name, k, lam, mu)
        assert terms_jet(terms, k) == read_jet(build, k, lam, mu)
        jet = componentwise_map(terms, k, lam, mu)
        for b in elements(TruncatedBasis(k, k + 6, space, lam, mu)):
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
            assert read_jet(jet_map(t, k, lam, mu), k, lam, mu) == t

    @pytest.mark.parametrize("k", range(9))
    def test_conjugation_is_an_involution(self, k):
        rng = random.Random(900 + k)
        identity = [(r, r, 0, 1) for r in range(k + 1)]
        c = conjugation_terms(k)
        # the int terms are the jet t[r,l] = (-1)^r / l!
        assert terms_jet(c, k) == [F((-1) ** r, factorial(l)) for r, l in component_unknowns(k)]
        assert all(type(v) is int for *_, v in c)
        assert compose_terms(c, c) == identity
        for _ in range(3):
            lam = F(rng.randint(-9, 9), rng.randint(1, 9))
            C = CATALOG["C"].terms(k, lam, 1 - lam)
            assert C == c
            assert compose_terms(C, C) == CATALOG["Id"].terms(k, lam, 1 - lam) == identity

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
        terms, trace = _generator_terms(k, lam, mu, CIRCLE)
        assert trace
        L = AppliedMap(basis, reference_map("L", k, lam, mu), name="L")
        L_terms = terms["L"]
        L_vec = term_coordinates(L_terms, k, True)
        assert L_vec == [0] * len(component_unknowns(k)) + [1]
        assert compose_terms(L_terms, L_terms) == []
        assert (L @ L).is_zero()
        index = {u: i for i, u in enumerate(component_unknowns(k))}
        for name in ("Id", "P0", "P0star", "C", "P1"):
            T = AppliedMap(basis, reference_map(name, k, lam, mu), name=name)
            T_terms = terms[name]
            T_vec = terms_jet(T_terms, k)
            t00, t10 = T_vec[index[0, 0]], T_vec[index[1, 0]]
            for LT, c in ((compose_terms(L_terms, T_terms), t00),
                          (compose_terms(T_terms, L_terms), t10)):
                assert term_coordinates(LT, k, True) == [c * v for v in L_vec]
            assert (L @ T - t00 * L).is_zero()
            assert (T @ L - t10 * L).is_zero()

    def test_local_products_match_composition(self):
        k, lam, mu = 3, F(0), F(1)
        terms = dict(candidate_generators(k, lam, mu))
        basis = TruncatedBasis(k, k + 6, LINE, lam, mu)
        for x in ("C", "P0star", "P1"):
            for y in ("C", "P0", "P1"):
                jet = componentwise_map(compose_terms(terms[x], terms[y]), k, lam, mu)
                X, Y = reference_map(x, k, lam, mu), reference_map(y, k, lam, mu)
                for b in elements(basis):
                    assert jet(b) == X(Y(b))


# the local generators of the k >= 5 column, at weights where each exists
COLUMN_GENERATORS = ["Id", "P0", "P0star", "C", "S", "Sstar", "P1"]


class TestRestrictionToLowerOrder:
    """The order-k terms are the order-(k+1) terms with r <= k, and
    compose_terms respects the terms with r <= k: restriction is an algebra
    map."""

    @pytest.mark.parametrize("name", COLUMN_GENERATORS)
    def test_generator_terms_restrict(self, name):
        _, lam, mu = CATALOG[name].home
        terms = {k: CATALOG[name].terms(k, lam, mu) for k in range(1, 14)}
        for k in range(1, 13):
            term_coordinates(terms[k], k, False)  # an endomorphism's of order k
            assert {t[:3]: t[3] for t in terms[k + 1] if t[0] <= k} == \
                {t[:3]: t[3] for t in terms[k]}
        assert terms[13]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_the_terms_up_to_r_k_depend_only_on_the_input_terms_up_to_r_k(self, k):
        rng = random.Random(500 + k)
        low, high = (k + 1) * (k + 2) // 2, (k + 2) * (k + 3) // 2

        def q():
            return F(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.8 else F(0)

        def block(terms):
            return {(r, o, l): c for r, o, l, c in terms if r <= k}

        for _ in range(4):
            x, y = [q() for _ in range(high + 1)], [q() for _ in range(high + 1)]
            X, Y = jet_terms(x, k + 1), jet_terms(y, k + 1)
            # the order-k jet's terms are the order-(k+1) jet's with r <= k,
            # traces kept
            assert block(X) == block(jet_terms(x[:low] + x[-1:], k))
            product = block(compose_terms(X, Y))
            assert product == block(compose_terms(jet_terms(x[:low] + x[-1:], k),
                                                  jet_terms(y[:low] + y[-1:], k)))
            # new top rows t[k+1, .] leave the terms with r <= k unchanged
            x2 = x[:low] + [q() for _ in range(low, high)] + x[-1:]
            y2 = y[:low] + [q() for _ in range(low, high)] + y[-1:]
            assert block(compose_terms(jet_terms(x2, k + 1), jet_terms(y2, k + 1))) == product


def _catalog_term_points():
    """The EXCEPTIONAL_LOCI points, the fixed points of TABLE_ROWS and
    GENERIC_POINTS."""
    points = [p for loci in EXCEPTIONAL_LOCI.values() for p in loci["points"]]
    points += [p for _, cond in TABLE_ROWS if isinstance(cond, list) for p in cond]
    return list(dict.fromkeys(points + GENERIC_POINTS))


class TestCatalogTerms:
    """Every catalog endomorphism's terms are an endomorphism's of order k,
    wherever the entry applies; only the trace L carries a mean term, so
    exactly L does not exist on the line."""

    ENDOS = [n for n, e in CATALOG.items() if e.kind == "endo"]

    @pytest.mark.parametrize("name", ENDOS)
    def test_terms_are_an_endomorphisms(self, name):
        entry, trace = CATALOG[name], name == "L"
        assert entry.applies(*entry.home)
        for k, lam, mu in [entry.home] + [(k, *p) for p in _catalog_term_points()
                                          for k in range(7)]:
            if entry.applies(k, lam, mu):
                terms = entry.terms(k, lam, mu)
                term_coordinates(terms, k, trace)  # raises on a term of no endomorphism
                assert any(l is None for _, _, l, _ in terms) == trace, (k, lam, mu)
                assert entry.exists(k, lam, mu, LINE) != trace
                assert entry.exists(k, lam, mu, CIRCLE)


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
        assert t == terms_jet(CATALOG["Id"].terms(2, F(1, 3), F(1, 5)), 2)
        assert not acts_on_circle_as(ring_dependent, t, 2, F(1, 3), F(1, 5))

    @pytest.mark.parametrize("name, lam, mu, why", [
        ("C", F(1, 3), F(1, 5), "lam \\+ mu = 1"),
        ("P0", F(1, 3), F(0), "lam = 0"),
        ("S", F(0), F(1), "\\(0, 0\\)"),
        ("Sstar", F(0), F(0), "\\(1, 1\\)"),
    ])
    def test_terms_off_their_weights_raise(self, name, lam, mu, why):
        with pytest.raises(InapplicableSymmetryError, match=why):
            CATALOG[name].terms(3, lam, mu)
        with pytest.raises(InapplicableSymmetryError, match=why):
            CATALOG[name].make(3, lam, mu)

    def test_jet_map_rejects_an_operator_of_another_module(self):
        T = CATALOG["Id"].make(2, F(1, 3), F(1, 5))
        with pytest.raises(WeightMismatchError):
            T(DensityOperator(F(1, 3), F(1, 2), [PolyFn.monomial(1)]))
        with pytest.raises(WeightMismatchError):
            T(DensityOperator(F(1, 3), F(1, 5), [0, 0, 0, PolyFn.monomial(1)]))

    def test_candidate_violating_the_recurrence_raises(self, monkeypatch):
        # at a generic point, {Id, scalar term} spans the right dimension,
        # so only the residual check, which reads no space, can reject it
        lam, mu = F(1, 3), F(1, 5)
        assert classify(1, lam, mu, check_oracle=False).total == 2
        monkeypatch.setattr(recurrence, "candidate_generators",
                            lambda *args: [("Id", [(0, 0, 0, 1), (1, 1, 0, 1)]),
                                           ("scalar", [(0, 0, 0, 1)])])
        with pytest.raises(SpanMismatchError, match="scalar violates the recurrence"):
            classify(1, lam, mu, check_oracle=False)

    def test_product_outside_the_span_raises(self):
        # P0 o P0 = P0 stays in the span of P0 and C; the next product in
        # row-major order, P0 o C = P0star, is the first to leave it
        k, lam, mu = 2, F(0), F(1)
        terms = dict(candidate_generators(k, lam, mu))
        names = ["P0", "C"]
        with pytest.raises(SpanNotClosedError, match="^product P0 o C leaves the span$"):
            jet_algebra(names, [terms[n] for n in names], k, False)


# ----------------------------------------------------------------------
# the compact and the non-compact case: the circle's answer is the line's
# plus one nonlocal stage, the trace L at (0,1) for k >= 1
# ----------------------------------------------------------------------

def _comparison_points():
    """_reference_points, the isolated points of EXCEPTIONAL_LOCI and seeded
    generic points."""
    rng = random.Random(SWEEP_SEED)
    loci = [p for loci in EXCEPTIONAL_LOCI.values() for p in loci["points"]]
    generic = [sample_generic(rng) for _ in range(4)]
    return list(dict.fromkeys(_reference_points() + loci + generic))


def space_differences(lam, mu, kmax=8):
    """(k, what) wherever the circle's report at (k, lam, mu) is not the
    line's plus the trace L, which the circle has exactly at (0,1), k >= 1."""
    out = []
    for k in range(kmax + 1):
        circle, line = (classify(k, lam, mu, s, check_oracle=False) for s in (CIRCLE, LINE))
        trace = k >= 1 and (lam, mu) == (0, 1)
        if circle.local_dimension != line.local_dimension:
            out.append((k, "local dimension"))
        if [n for n in circle.generator_names if n != "L"] != line.generator_names:
            out.append((k, "local generators"))
        if (circle.nonlocal_dimension, line.nonlocal_dimension) != (int(trace), 0):
            out.append((k, "nonlocal dimension"))
        if ("L" in circle.generator_names) != trace:
            out.append((k, "trace generator"))
        if not trace and circle.algebra_kind != line.algebra_kind:
            out.append((k, "kind"))
    return out


COMPARISON_POINTS = _comparison_points()


class TestSpaceComparison:
    @pytest.mark.parametrize("lam, mu", COMPARISON_POINTS,
                             ids=[f"{lam},{mu}" for lam, mu in COMPARISON_POINTS])
    def test_circle_is_the_line_plus_the_trace(self, lam, mu):
        assert space_differences(lam, mu) == []

    def test_points_cover_the_trace_and_every_locus_point(self):
        points = COMPARISON_POINTS
        assert (F(0), F(1)) in points and len(points) > 40
        assert all(p in points for loci in EXCEPTIONAL_LOCI.values() for p in loci["points"])

    def test_kinds_differ_where_the_trace_is(self):
        # the nonlocal stage changes the algebra, not only its dimension
        circle, line = (classify(3, 0, 1, s, check_oracle=False) for s in (CIRCLE, LINE))
        assert circle.generator_names == line.generator_names + ["L"]
        assert circle.algebra_kind != line.algebra_kind

    def test_a_trace_on_the_line_is_caught(self, monkeypatch):
        monkeypatch.setattr(CatalogEntry, "exists",
                            lambda self, k, lam, mu, space: self.applies(k, lam, mu))
        assert nonlocal_dimension(3, 0, 1, LINE) == 1
        assert (1, "nonlocal dimension") in space_differences(F(0), F(1), kmax=3)

    @pytest.mark.parametrize("point", [(F(1), F(1)), (F(0), F(0)), (F(1, 3), F(1, 5))])
    def test_a_trace_at_a_second_point_is_caught(self, monkeypatch, point):
        L = CATALOG["L"]
        monkeypatch.setitem(CATALOG, "L", replace(
            L, applies=lambda k, l, m: L.applies(k, l, m) or (k >= 1 and (l, m) == point)))
        assert nonlocal_dimension(3, *point, CIRCLE) == 1
        assert (1, "nonlocal dimension") in space_differences(*point, kmax=3)

    def test_a_trace_with_no_mean_term_is_caught(self, monkeypatch):
        # exists reads the nonlocal trace off its mean term: without one, L
        # exists on the line too, and its local term repeats P0's there
        monkeypatch.setitem(CATALOG, "L", replace(
            CATALOG["L"], terms=lambda k, l, m: [(0, 0, 0, 1)]))
        assert nonlocal_dimension(3, 0, 1, LINE) == 1
        with pytest.raises(SpanMismatchError, match="span 5 dimensions .* computed 6"):
            classify(3, 0, 1, LINE, check_oracle=False)
