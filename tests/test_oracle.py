"""The formal oracle that classify runs: its rows against the reference rows,
its statement, its agreement with the windowed reference and the recurrence,
and that classify builds no window and does no ring arithmetic."""
import json
from functools import lru_cache
from pathlib import Path

import pytest

from densym import cli, densities, operators, truncation
from densym.densities import DensityOperator, compose, lie_derivative_operator, lie_terms
from densym.identities import GENERIC_POINTS
from densym.linalg import integer_row, nullspace, rank
from densym.recurrence import build_system
from densym.rings import CIRCLE, LINE, PolyFn, TrigFn
from densym.operators import component_unknowns
from densym.truncation import brute_force_local_symmetries
from oracle import brute_force_fields, formal_rows, solve, window_rows, windowed_equations
from test_acceptance import LOCI_POINTS
from test_densities import lie_operator

CLASSIFY_GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens" / "classify.json"

K = 7  # the formal rows at order k are those at K with s <= k, cut to size(k)


@lru_cache(maxsize=None)
def rows_at(point):
    return formal_rows(K, *point)


def recurrence_solutions(k, lam, mu):
    return nullspace(build_system(k, lam, mu), len(component_unknowns(k)))


def family_monomials(k):
    """The monomial f^(p) a_s^(q) d^m of each build_system row, in its order:
    (2, r, l-1, r-l) for the first family and (3, R, j, R-j-2) for the second."""
    return ([(2, r, l - 1, r - l) for r in range(1, k + 1) for l in range(1, r + 1)]
            + [(3, R, j, R - j - 2) for R in range(2, k + 1) for j in range(R - 1)])


class TestFormalRows:
    @pytest.mark.parametrize("point", GENERIC_POINTS[:3])
    def test_rows_with_p_at_most_1_are_zero(self, point):
        rows = rows_at(point)
        assert {p for p, *_ in rows} == set(range(6))
        assert not any(any(row) for (p, *_), row in rows.items() if p <= 1)

    @pytest.mark.parametrize("point", GENERIC_POINTS[:3])
    def test_every_nonzero_row_has_p_plus_q_equal_s_minus_m_plus_1(self, point):
        nonzero = [mono for mono, row in rows_at(point).items() if any(row)]
        assert nonzero
        assert all(p + q == s - m + 1 for p, s, q, m in nonzero)

    @pytest.mark.parametrize("point", GENERIC_POINTS[:3])
    def test_quartic_and_quintic_rows_add_no_rank(self, point):
        rows = rows_at(point)
        low = [row for (p, *_), row in rows.items() if p in (2, 3)]
        high = [row for (p, *_), row in rows.items() if p in (4, 5)]
        assert any(any(row) for row in high)
        assert rank(low + high) == rank(low)

    @pytest.mark.parametrize("point", GENERIC_POINTS + LOCI_POINTS)
    def test_src_rows_are_the_reference_rows(self, point):
        # truncation reads its rows off lie_terms, the reference through
        # operators; a p = 2, 3 row that src leaves out is zero
        ref, rows = rows_at(point), truncation.formal_rows(K, *point)
        assert all(row == ref[key] for key, row in rows.items())
        assert not any(any(row) for key, row in ref.items()
                       if key[0] in (2, 3) and key not in rows)

    @pytest.mark.parametrize("point", GENERIC_POINTS[:3])
    def test_the_oracle_solves_the_rows_p_2_and_3(self, point):
        low = [row for (p, *_), row in rows_at(point).items() if p in (2, 3)]
        assert (brute_force_local_symmetries(K, *point)
                == nullspace(low, len(component_unknowns(K))))

    @pytest.mark.parametrize("point", GENERIC_POINTS[:3])
    def test_each_recurrence_row_is_one_formal_row(self, point):
        # a row at k, padded with zeros to size(K), against every formal row
        # at K; integer_row is one key per line through the origin
        n = len(component_unknowns(K))
        by_line = {}
        for mono, row in rows_at(point).items():
            if any(row):
                by_line.setdefault(tuple(integer_row(row)), []).append(mono)
        for k in range(1, K + 1):
            rows = build_system(k, *point)
            assert len(rows) == len(family_monomials(k))
            for row, mono in zip(rows, family_monomials(k), strict=True):
                padded = row + [0] * (n - len(row))
                assert by_line.get(tuple(integer_row(padded))) == [mono]


class TestAgreement:
    @staticmethod
    def agree(k, point, windows):
        """Recurrence = formal oracle = windowed reference at k, on both
        spaces and M = k+4, k+6, read off windows: space -> equations of a
        window that holds them."""
        want = recurrence_solutions(k, *point)
        assert brute_force_local_symmetries(k, *point) == want
        for space in (LINE, CIRCLE):
            for M in (k + 4, k + 6):
                rows = window_rows(windows[space], k, *point, space, M)
                assert solve(rows, len(component_unknowns(k))) == want

    @pytest.mark.parametrize("point", LOCI_POINTS + GENERIC_POINTS)
    def test_formal_windowed_and_recurrence(self, point):
        windows = {space: windowed_equations(5, *point, space, 11) for space in (LINE, CIRCLE)}
        for k in range(6):
            self.agree(k, point, windows)

    def test_high_orders_at_zero_one(self):
        windows = {space: windowed_equations(8, 0, 1, space, 14) for space in (LINE, CIRCLE)}
        for k in (6, 7, 8):
            self.agree(k, (0, 1), windows)

    @pytest.mark.parametrize("space", [LINE, CIRCLE])
    def test_smaller_windows_are_read_off_a_larger_one(self, space):
        point = GENERIC_POINTS[0]
        eqs = windowed_equations(4, *point, space, 10)
        for k in range(4):
            for M in (k + 4, k + 6):
                assert (window_rows(eqs, k, *point, space, M)
                        == list(windowed_equations(k, *point, space, M).values()))


def _flipped_lie_terms(i, lam, mu):
    """densities.lie_terms with the sign of its (mu-lam-i) X' a term flipped."""
    return [(m, p, q, -c if (m, p, q) == (i, 1, 0) else c)
            for m, p, q, c in lie_terms(i, lam, mu)]


def test_flipped_lie_action_makes_classify_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(truncation, "lie_terms", _flipped_lie_terms)
    monkeypatch.setattr(densities, "lie_terms", _flipped_lie_terms)
    # the flip breaks the action against its definition L^mu_X o A - A o L^lam_X
    A = DensityOperator(0, 1, [PolyFn.monomial(2), PolyFn.monomial(1), PolyFn.monomial(3)])
    X = brute_force_fields(LINE)[0]
    assert lie_derivative_operator(X, A) != (compose(lie_operator(X, A.mu), A)
                                             - compose(A, lie_operator(X, A.lam)))
    assert cli.main(["classify", "-k", "3", "--lambda", "0", "--mu", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal assertion failed: oracle disagreement at k=3")


def classify_matches_goldens(capsys, space):
    """classify at (0,1), k = 1..4, prints the perfbench goldens' stdout."""
    golden = json.loads(CLASSIFY_GOLDENS.read_text(encoding="utf-8"))
    for k in range(1, 5):
        argv = ["classify", "-k", str(k), "--lambda", "0", "--mu", "1", "--space", space]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == golden[" ".join(argv)]


@pytest.mark.parametrize("space", [CIRCLE, LINE])
def test_classify_builds_no_window(capsys, monkeypatch, space):
    def no_window(*args):
        raise AssertionError("classify built a TruncatedBasis")

    monkeypatch.setattr(truncation, "TruncatedBasis", no_window)
    classify_matches_goldens(capsys, space)


@pytest.mark.parametrize("space", [CIRCLE, LINE])
def test_classify_does_no_ring_arithmetic(capsys, monkeypatch, space):
    def banned(name):
        def call(*args, **kwargs):
            raise AssertionError(f"classify called {name}")
        return call

    for cls in (PolyFn, TrigFn):
        for attr in ("__mul__", "__rmul__", "diff"):
            monkeypatch.setattr(cls, attr, banned(f"{cls.__name__}.{attr}"))
    monkeypatch.setattr(DensityOperator, "__init__", banned("DensityOperator.__init__"))
    monkeypatch.setattr(operators, "componentwise_map", banned("componentwise_map"))
    classify_matches_goldens(capsys, space)


@pytest.mark.parametrize("argv", [("--space", "circle"), ("--space", "line"), ("-M", "9")])
def test_oracle_agreement_reads_no_window(capsys, argv):
    assert cli.main(["verify", "oracle_agreement", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: oracle_agreement solves the formal equations, on no window; "
                   f"{argv[0]} does not apply\n")
