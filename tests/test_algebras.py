import json
import re
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest

from densym.algebras import FiniteAlgebra, identify, span_algebra, structure_constants
from densym import algebras, recurrence
from densym.errors import SpanNotClosedError
from densym.linalg import over_one_denominator, rank, rref
from densym.operators import compose_jets
from densym.recurrence import TABLE_ROWS, candidate_generators, classify, jet_algebra, sweep
from densym.truncation import TruncatedBasis, realize
from densym.rings import CIRCLE, LINE
from reference import reference_kind_table, reference_structure_constants

CLASSIFY_GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens" / "classify.json"


def zero_one_basis(k, M=None):
    return TruncatedBasis(k, M if M else k + 6, CIRCLE, F(0), F(1))


def zero_one_maps(k, M=None):
    basis = zero_one_basis(k, M)
    return {name: realize(name, basis)
            for name in ["Id", "P0", "C", "P0star", "P1", "L"]}


def block_sum(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    n, m = a.dim, b.dim
    names = [f"x{i}" for i in range(n + m)]
    den = lcm(a.den, b.den)
    table = [[[0] * (n + m) for _ in range(n + m)] for _ in range(n + m)]
    for alg, at in ((a, 0), (b, n)):
        scale = den // alg.den
        for i in range(alg.dim):
            for j in range(alg.dim):
                for t in range(alg.dim):
                    table[at + i][at + j][at + t] = alg.table[i][j][t] * scale
    return FiniteAlgebra(names, table, den)


# ----------------------------------------------------------------------
# the invariants from their definitions: products of coordinate vectors and
# explicit left-multiplication matrices L_x, with column b = x e_b
# ----------------------------------------------------------------------

def _unit(n, i):
    return [F(int(s == i)) for s in range(n)]


def _product(alg, x, y):
    n = alg.dim
    out = [F(0)] * n
    for i in range(n):
        for j in range(n):
            if x[i] and y[j]:
                for t in range(n):
                    out[t] += x[i] * y[j] * alg.sc[i][j][t]
    return out


def _left_matrix(alg, x):
    n = alg.dim
    cols = [_product(alg, x, _unit(n, b)) for b in range(n)]
    return [[cols[b][a] for b in range(n)] for a in range(n)]


def _matmul(A, B):
    return [[sum(A[a][c] * B[c][b] for c in range(len(B))) for b in range(len(B[0]))]
            for a in range(len(A))]


def _trace(A):
    return sum(A[a][a] for a in range(len(A)))


def reference_is_associative(alg):
    """L_(e_i e_j) = L_(e_i) L_(e_j), i.e. (e_i e_j) z = e_i (e_j z) for all z."""
    n = alg.dim
    lefts = [_left_matrix(alg, _unit(n, i)) for i in range(n)]
    return all(
        _left_matrix(alg, _product(alg, _unit(n, i), _unit(n, j)))
        == _matmul(lefts[i], lefts[j])
        for i in range(n) for j in range(n)
    )


def reference_radical_dim(alg):
    """Kernel dimension of the trace form (x, y) -> tr(L_x L_y)."""
    n = alg.dim
    lefts = [_left_matrix(alg, _unit(n, i)) for i in range(n)]
    gram = [[_trace(_matmul(lefts[i], lefts[j])) for j in range(n)] for i in range(n)]
    return n - rank(gram)


def _unchecked(table, den=1):
    """A FiniteAlgebra that skips the constructor's associativity check."""
    alg = FiniteAlgebra.__new__(FiniteAlgebra)
    alg.names, alg.table, alg.den = [f"x{i}" for i in range(len(table))], table, den
    return alg


REFERENCE_KINDS = ["a", "b", "t2", "R", "R^3"]
BLOCK_SUMS = [("b", "R"), ("b", "R^2"), ("t2", "R"), ("a", "R"), ("a", "t2"),
              ("b", "a"), ("t2", "t2")]


class TestInvariantsAgainstDefinitions:
    @pytest.mark.parametrize("kind", REFERENCE_KINDS)
    def test_reference_kinds(self, kind):
        alg = reference_kind_table(kind)
        assert alg.is_associative() and reference_is_associative(alg)
        assert alg.radical_dim() == reference_radical_dim(alg)

    @pytest.mark.parametrize("kinds", BLOCK_SUMS)
    def test_block_sums(self, kinds):
        alg = block_sum(*(reference_kind_table(kind) for kind in kinds))
        assert alg.is_associative() and reference_is_associative(alg)
        assert alg.radical_dim() == reference_radical_dim(alg)

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_jet_algebras_of_classify(self, monkeypatch, k, space):
        seen = []
        real = algebras.identify
        monkeypatch.setattr(algebras, "identify", lambda alg: seen.append(alg) or real(alg))
        report = classify(k, F(0), F(1), space, check_oracle=False)
        [alg] = seen
        assert alg.dim == report.total
        assert alg.is_associative() and reference_is_associative(alg)
        assert alg.radical_dim() == reference_radical_dim(alg)

    @pytest.mark.parametrize("kind", REFERENCE_KINDS + ["b+R", "t2+R"])
    def test_perturbed_tables(self, kind):
        # one structure constant moved at a time: associativity and the trace
        # form must still agree with the definitions, associative or not
        base = (reference_kind_table(kind) if "+" not in kind else
                block_sum(*(reference_kind_table(x) for x in kind.split("+"))))
        n = base.dim
        for i in range(n):
            for j in range(n):
                t = (i + j) % n
                table = [[list(v) for v in row] for row in base.table]
                table[i][j][t] += 1
                alg = _unchecked(table, base.den)
                assert alg.is_associative() == reference_is_associative(alg)
                assert alg.radical_dim() == reference_radical_dim(alg)


class TestFiniteAlgebra:
    def test_rejects_non_associative(self):
        # x*x = y, x*y = x, all else 0 is not associative, over any denominator
        table = [[[0, 1], [1, 0]],
                 [[0, 0], [0, 0]]]
        for den in (1, 3):
            with pytest.raises(ValueError, match="not associative"):
                FiniteAlgebra(["x", "y"], table, den)

    def test_rejects_a_perturbed_integer_table(self):
        # the reference b over den 6, with one constant moved by 1/6
        b = reference_kind_table("b")
        table = [[[6 * v for v in vec] for vec in row] for row in b.table]
        assert FiniteAlgebra(b.names, table, 6).sc == b.sc
        table[0][3][3] += 1
        with pytest.raises(ValueError, match="not associative"):
            FiniteAlgebra(b.names, table, 6)

    def test_reference_fingerprints(self):
        b = reference_kind_table("b")
        assert b.dim == 4 and b.radical_dim() == 2 and b.center_dim() == 1
        assert b.center_dim() != b.dim
        t2 = reference_kind_table("t2")
        assert t2.radical_dim() == 1 and t2.center_dim() == 1
        a = reference_kind_table("a")
        assert a.radical_dim() == 1 and a.center_dim() == a.dim
        r3 = reference_kind_table("R^3")
        assert r3.radical_dim() == 0 and r3.center_dim() == r3.dim

    def test_identify_reference_algebras(self):
        for kind in ["t2", "a", "R", "R^3", "b"]:
            got = identify(reference_kind_table(kind))
            assert type(got) is str and got == kind

    def test_identify_direct_sums(self):
        bR2 = block_sum(block_sum(reference_kind_table("b"),
                                  reference_kind_table("R")),
                        reference_kind_table("R"))
        t2R = block_sum(reference_kind_table("t2"), reference_kind_table("R"))
        aR = block_sum(reference_kind_table("a"), reference_kind_table("R"))
        for alg, kind in [(bR2, "b+R^2"), (t2R, "t2+R"), (aR, "a+R")]:
            got = identify(alg)
            assert type(got) is str and got == kind

    def test_identify_reports_what_it_cannot_name(self):
        # x x = 0 has no unit; Q[x]/x^3 (basis 1, x, x^2) is local of radical 2
        assert identify(FiniteAlgebra(["x"], [[[0]]])) == "unidentified(dim=1, no unit)"
        truncated = FiniteAlgebra(["1", "x", "x2"], [
            [[int(s == i + j) for s in range(3)] for j in range(3)] for i in range(3)])
        assert identify(truncated) == \
            "unidentified(dim=3, radical=2, center=3, commutative=True)"


def _poly_mul(p, q, degree):
    """Coefficients of p q up to x^degree (higher powers dropped)."""
    out = [F(0)] * (degree + 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            if i + j <= degree:
                out[i + j] += a * b
    return out


def _values(p, points):
    return [sum(c * t ** i for i, c in enumerate(p)) for t in points]


class TestStructureConstants:
    def test_truncated_polynomial_ring(self):
        # Q[x]/x^3 in the basis 1, x, x^2, each carried by its values at four
        # points: the pivot block is not the identity, and one coordinate is
        # left over for the exact check
        polys = [[F(1)], [F(0), F(1)], [F(0), F(0), F(1)]]
        points = [0, 1, 2, 3]
        alg = structure_constants(
            ["1", "x", "x^2"], [_values(p, points) for p in polys],
            lambda i, j: _values(_poly_mul(polys[i], polys[j], 2), points))
        # x^i x^j = x^(i+j), and 0 from x^3 on
        assert alg.sc == [[[F(int(t == i + j)) for t in range(3)] for j in range(3)]
                          for i in range(3)]
        assert alg.unit() == [1, 0, 0] and alg.radical_dim() == 2

    def test_first_product_outside_the_span_is_named(self):
        # x x = x^2 stays in span{x, x^2}; x x^2, x^2 x and x^2 x^2 leave it,
        # and the first of them in row-major order is named
        polys = [[F(0), F(1)], [F(0), F(0), F(1)]]
        padded = [p + [F(0)] * (5 - len(p)) for p in polys]
        with pytest.raises(SpanNotClosedError, match=r"^product x o x\^2 leaves the span$"):
            structure_constants(["x", "x^2"], padded,
                                lambda i, j: _poly_mul(polys[i], polys[j], 4))

    @pytest.mark.parametrize("vectors", [
        [[1, 2, 3], [2, 4, 6]],
        [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
        [[0, 0]],
    ])
    def test_dependent_vectors_raise(self, vectors):
        with pytest.raises(ValueError, match="not linearly independent"):
            structure_constants([f"v{i}" for i in range(len(vectors))], vectors,
                                lambda i, j: vectors[0])


class TestSpanAlgebra:
    def test_identity_alone(self):
        basis = zero_one_basis(2)
        alg = span_algebra([realize("Id", basis)])
        assert alg.dim == 1 and alg.sc[0][0] == [F(1)]
        assert identify(alg) == "R"

    def test_mult_table_structure_constants(self):
        maps = zero_one_maps(4)
        order = ["Id", "P0", "C", "P0star", "P1", "L"]
        alg = span_algebra([maps[n] for n in order])
        idx = {n: i for i, n in enumerate(order)}

        def coords(**named):
            out = [F(0)] * 6
            for n, c in named.items():
                out[idx[n]] = F(c)
            return out

        # spot checks straight out of the printed table
        assert alg.sc[idx["C"]][idx["P1"]] == coords(P0star=1, P1=-1, P0=-1)
        assert alg.sc[idx["P1"]][idx["C"]] == coords(P1=-1)
        assert alg.sc[idx["P0star"]][idx["P1"]] == coords(P0star=1, P0=-1)
        assert alg.sc[idx["L"]][idx["C"]] == coords(L=1)
        assert alg.sc[idx["C"]][idx["L"]] == coords(L=-1)
        assert alg.sc[idx["L"]][idx["L"]] == [F(0)] * 6
        assert alg.sc[idx["P0"]][idx["C"]] == coords(P0star=1)
        assert identify(alg) == "b+R^2"

    def test_non_closed_span_raises(self):
        basis = zero_one_basis(3)
        with pytest.raises(SpanNotClosedError):
            span_algebra([realize("Id", basis), realize("C", basis),
                          realize("P1", basis)])

    def test_b_basis_change_matches_reference(self):
        maps = zero_one_maps(3)
        half = F(1, 2)
        abar = half * (2 * maps["P1"] + maps["P0"] - maps["P0star"])
        bbar = half * (maps["P0"] + maps["P0star"])
        cbar = half * (maps["P0"] - maps["P0star"])
        dbar = maps["L"]
        abar.name, bbar.name, cbar.name, dbar.name = "abar", "bbar", "cbar", "dbar"
        alg = span_algebra([abar, bbar, cbar, dbar])
        ref = reference_kind_table("b")
        assert alg.sc == ref.sc

    def test_central_elements(self):
        maps = zero_one_maps(4)
        z1 = maps["Id"] + maps["C"] - maps["P0"] - maps["P0star"]
        z2 = (maps["Id"] - maps["C"] - maps["P0"] + maps["P0star"]
              - 2 * maps["P1"])
        for z in (z1, z2):
            for name, m in maps.items():
                assert (z @ m - m @ z).is_zero(), f"z fails to commute with {name}"

    def test_z2_vanishes_at_order_two(self):
        maps = zero_one_maps(2)
        z2 = (maps["Id"] - maps["C"] - maps["P0"] + maps["P0star"]
              - 2 * maps["P1"])
        assert z2.is_zero()
        z1 = maps["Id"] + maps["C"] - maps["P0"] - maps["P0star"]
        assert not z1.is_zero()

    def test_z1_z2_vanish_at_order_one(self):
        maps = zero_one_maps(1)
        z1 = maps["Id"] + maps["C"] - maps["P0"] - maps["P0star"]
        z2 = (maps["Id"] - maps["C"] - maps["P0"] + maps["P0star"]
              - 2 * maps["P1"])
        assert z1.is_zero() and z2.is_zero()

    def test_scaling_the_trace_map_changes_nothing(self):
        maps = zero_one_maps(3)
        order = ["Id", "P0", "C", "P0star", "P1", "L"]
        scaled = [maps[n] if n != "L" else 7 * maps[n] for n in order]
        for m, n in zip(scaled, order):
            m.name = n
        alg = span_algebra(scaled)
        assert identify(alg) == "b+R^2"
        # and the rescaled basis, basis_i -> s_i basis_i, still produces the
        # exact reference table: sc[i][j][t] * s_i * s_j / s_t
        s = [F(1)] * 5 + [F(1, 7)]
        d = alg.dim
        rescaled = [[[alg.sc[i][j][t] * s[i] * s[j] / s[t] for t in range(d)]
                     for j in range(d)] for i in range(d)]
        plain = span_algebra([maps[n] for n in order])
        assert rescaled == plain.sc

    def test_structure_constants_stable_under_window_growth(self):
        for M in (9, 11):
            maps = zero_one_maps(3, M)
            order = ["Id", "P0", "C", "P0star", "P1", "L"]
            alg = span_algebra([maps[n] for n in order])
            if M == 9:
                first = alg.sc
            else:
                assert alg.sc == first

    def test_zero_zero_algebra_idempotents(self):
        basis = TruncatedBasis(5, 9, CIRCLE, F(0), F(0))
        Id, P0, S = (realize(n, basis) for n in ["Id", "P0", "S"])
        alg = span_algebra([Id, P0, S])
        assert identify(alg) == "R^3"
        # orthogonal idempotent basis: P0 and (Id - S)/2
        e2 = F(1, 2) * (Id - S)
        assert (e2 @ e2 - e2).is_zero()
        assert (P0 @ e2).is_zero() and (e2 @ P0).is_zero()


# ----------------------------------------------------------------------
# the integer reader against the Fraction reference, on classify's jets
# ----------------------------------------------------------------------

LARGE_DENOMINATORS = ((10 ** 22 + 1) / F(3), F(-7, 9))


def _flagship_points():
    """(k, lam, mu, space) of every classify-flagship query, read off its goldens."""
    points = []
    for argv in json.loads(CLASSIFY_GOLDENS.read_text(encoding="utf-8")):
        flags = dict(zip(argv.split()[1::2], argv.split()[2::2]))
        points.append((int(flags["-k"]), F(flags["--lambda"]), F(flags["--mu"]),
                       flags["--space"]))
    return points


@pytest.fixture
def jet_algebra_pairs(monkeypatch):
    """Each jet_algebra call's algebra, paired with the Fraction reference's
    on the same jets and compose_jets in Fractions."""
    pairs = []

    def spy(names, vectors, k):
        alg = jet_algebra(names, vectors, k)
        pairs.append((alg, reference_structure_constants(
            names, vectors, lambda i, j: compose_jets(vectors[i], vectors[j], k))))
        return alg

    monkeypatch.setattr(recurrence, "jet_algebra", spy)
    return pairs


def _assert_agree(pairs):
    assert pairs
    for alg, ref in pairs:
        assert all(type(v) is int for row in alg.table for vec in row for v in vec)
        assert alg.names == ref.names and alg.sc == ref.sc
        assert alg.unit() == ref.unit() and identify(alg) == identify(ref)


class TestIntegerStructureConstants:
    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_every_table_cell(self, jet_algebra_pairs, space):
        sweep(kmax=6, space=space)
        assert len(jet_algebra_pairs) == 7 * len(TABLE_ROWS)
        _assert_agree(jet_algebra_pairs)

    def test_flagship_points(self, jet_algebra_pairs):
        points = _flagship_points()
        assert len(points) == 28
        for k, lam, mu, space in points:
            classify(k, lam, mu, space)
        _assert_agree(jet_algebra_pairs)

    @pytest.mark.parametrize("space", [CIRCLE, LINE])
    def test_large_denominators(self, jet_algebra_pairs, space):
        lam, mu = LARGE_DENOMINATORS
        for k in range(9):
            for weights in ((lam, mu), (1 - mu, 1 - lam), (lam, lam + 1), (lam, lam + 2),
                            (lam, 1 - lam), (lam, F(1))):
                classify(k, *weights, space, check_oracle=False)
        _assert_agree(jet_algebra_pairs)
        # on the loci the algebras grow, up to R^3 at mu = 1 and a non-semisimple
        # a on mu - lam = 1, and their jets carry the large denominators
        assert max(alg.dim for alg, _ in jet_algebra_pairs) == 3
        assert "a" in {identify(alg) for alg, _ in jet_algebra_pairs}
        assert max(alg.den for alg, _ in jet_algebra_pairs) >= 10 ** 22


def _local_jets(k, lam, mu):
    """classify's chosen local generators at the weights, with their jets."""
    vectors = dict(candidate_generators(k, lam, mu))
    names = classify(k, lam, mu, LINE, check_oracle=False).generator_names
    return names, [vectors[n] for n in names]


class TestIntegerReaderFailures:
    @pytest.mark.parametrize("weights", [(F(0), F(1)), (F(-1, 2), F(3, 2)),
                                         (LARGE_DENOMINATORS[0], F(1))])
    def test_a_product_perturbed_in_one_coordinate_leaves_the_span(self, weights):
        # a unit vector at a non-pivot coordinate is never in the span, so
        # moving one int entry of a product there by 1 fails its check; of two
        # moved products the first in row-major order is named
        k = 3
        names, vectors = _local_jets(k, *weights)
        den, scaled = over_one_denominator(vectors)
        pivots = rref(scaled)[1]
        n = len(names)
        moved = {(n - 1, 0), (n // 2, n - 1)}
        first = min(moved)  # tuples order row-major
        for p in (p for p in range(len(scaled[0])) if p not in pivots):
            def product(i, j):
                prod = compose_jets(scaled[i], scaled[j], k)
                if (i, j) in moved:
                    prod[p] += 1
                return prod

            message = f"product {names[first[0]]} o {names[first[1]]} leaves the span"
            with pytest.raises(SpanNotClosedError, match=f"^{re.escape(message)}$"):
                structure_constants(names, scaled, product, den)
        assert structure_constants(
            names, scaled, lambda i, j: compose_jets(scaled[i], scaled[j], k), den).sc == \
            jet_algebra(names, vectors, k).sc

    def test_dependent_jets_raise(self):
        names, vectors = _local_jets(3, F(0), F(1))
        dependent = [a + 2 * b for a, b in zip(vectors[0], vectors[-1])]
        with pytest.raises(ValueError, match="not linearly independent"):
            jet_algebra(names + ["sum"], vectors + [dependent], 3)
