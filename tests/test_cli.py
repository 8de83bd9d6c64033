import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from densym import cli, identities, operators
from densym.cli import main, parse_rational
from densym.densities import DensityOperator
from densym.truncation import TruncatedBasis
from densym.operators import (
    CATALOG, PRINTED, BilinearOp, Projection, alternating, local_endo, printed_jet,
    v_formula,
)

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens"
VERIFY_GOLDENS = GOLDENS / "verify.json"
# figure and table bytes, recorded before the order-3 curve moved into operators
PINNED = Path(__file__).resolve().parent / "pinned"


def _cal_v_off_by_one(k, lam, mu):
    """calV's jet with V's factor (d-2) changed to (d-1): not equivariant."""
    J, V = PRINTED["calV"](k, lam, mu)
    row = dict(V.row)
    row[k - 1] = row.get(k - 1, 0) + 1
    return printed_jet(J, Projection(k, lam, mu, V.n, row))


def _v_beta_plus_one(k, lam, mu):
    """V with beta + 1: not equivariant."""
    V = v_formula(k, lam, mu)
    return lambda A: V(A) + DensityOperator(0, mu - lam - k + 1, [A.coefficient(k - 1)])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_exit(capsys, *argv):
    """run(), also through argparse's own exit on a flag it does not know."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a flag a subcommand or a check does not read, and how its exit-2 message
# names it; after --config comes the file's content
UNREAD_FLAGS = [
    (("classify", "-k", "1", "--lambda", "0", "--mu", "1", "--format", "json"),
     "--format"),
    (("table", "-k", "1", "--no-kinds", "-M", "5"), "-M"),
    (("table", "-k", "1", "--no-kinds", "--format", "svg"), "--format"),
    (("figures", "-k", "3", "--lambda", "1"), "--lambda"),
    (("classify", "--config", "k=1\nlambda=0\nmu=1\nsamples=3\n"), "--samples"),
    # classify builds no window
    (("classify", "-k", "3", "--lambda", "0", "--mu", "1", "-M", "0"), "-M"),
    (("classify", "-k", "1", "--config", "lambda=0\nmu=1\nM=9\n"), "-M"),
    (("classify", "-k", "2", "--config", "lambda=0\nmu=1\ntruncation=9\n"),
     "--truncation"),
    *[(("verify", "oracle_agreement", flag, value), flag)
      for flag, value in (("--space", "circle"), ("--space", "line"), ("-M", "0"))],
    *[(("verify", "w_sharpness", flag, "1/2"), flag) for flag in ("--lambda", "--mu")],
    *[(("verify", "grozman_equivariance", flag, value), flag)
      for flag, value in (("-k", "5"), ("--lambda", "1/2"), ("--mu", "1/2"))],
    *[(("verify", name, flag, value), flag)
      for name in ("adjoint_pairing", "lemma_functionals", "v_wilmod_vanishing")
      for flag, value in (("-k", "2"), ("--lambda", "1/2"), ("--mu", "3"),
                          ("-M", "9"))],
    *[(("verify", "--op", name, "-k", "7"), "-k") for name in ("poisson", "grozman")],
    (("verify", "v_wilmod_vanishing", "--space", "line"), "--space"),
    (("verify", "conj_involution", "--op", "Id"), "--op"),  # one check per run
    (("verify", "--list", "--op", "Id"), "--op"),
    *[(("verify", "--list", flag, value), flag)
      for flag, value in (("-k", "3"), ("--lambda", "1"), ("--mu", "1/2"),
                          ("--space", "line"), ("-M", "9"))],
]


class TestParsing:
    def test_accepts_integers_and_fractions(self):
        assert str(parse_rational("-3/7")) == "-3/7"
        assert parse_rational("4") == 4

    def test_rejects_decimals(self):
        with pytest.raises(ValueError):
            parse_rational("0.5")
        with pytest.raises(ValueError):
            parse_rational("1e-3")


class TestClassify:
    def test_spec_example_t2(self, capsys):
        code, out, _ = run(capsys, "classify", "-k", "3",
                           "--lambda", "-1/2", "--mu", "3/2")
        assert code == 0
        data = json.loads(out)
        assert data["algebra"] == "t2"
        assert data["local_dim"] + data["nonlocal_dim"] == 3

    def test_spec_example_b_plus_r(self, capsys):
        code, out, _ = run(capsys, "classify", "-k", "2",
                           "--lambda", "0", "--mu", "1")
        assert code == 0
        data = json.loads(out)
        assert data["algebra"] == "b+R" and data["total"] == 5

    def test_spec_example_line_a(self, capsys):
        code, out, _ = run(capsys, "classify", "-k", "1", "--lambda", "2/7",
                           "--mu", "9/7", "--space", "line")
        assert code == 0
        assert json.loads(out)["algebra"] == "a"

    def test_missing_arguments_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "-k", "3")
        assert code == 2 and "error" in err

    def test_decimal_weight_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "-k", "3",
                           "--lambda", "0.5", "--mu", "1")
        assert code == 2 and "exact rational" in err

    def test_zero_denominator_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "-k", "2",
                           "--lambda", "0", "--mu", "1/0")
        assert code == 2 and "zero denominator" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "classify", "-k", "1", "--lambda", "0",
                           "--mu", "1", "-o", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["algebra"] == "b"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "classify", "-k", "2", "--lambda", "0",
                         "--mu", "1")
        _, out2, _ = run(capsys, "classify", "-k", "2", "--lambda", "0",
                         "--mu", "1")
        assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("classify", "-k", "-1", "--lambda", "0", "--mu", "1"),
    ("table", "-k", "-1"),
])
def test_negative_order_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "got -1" in err


class TestInternalAssertion:
    """Exit 3: the catalog disagrees with the classifier."""

    def test_span_mismatch_exit_3(self, capsys, monkeypatch):
        monkeypatch.setitem(CATALOG, "calV",
                            replace(CATALOG["calV"], applies=lambda k, l, m: False))
        assert run(capsys, "classify", "-k", "2", "--lambda", "1/3", "--mu", "1/5") == (
            3, "", "internal assertion failed: catalog generators span 1 dimensions "
                   "at k=2, (1/3,1/5), circle; classifier computed 2\n")


def _alternating_flipped(n, k, lam, mu):
    """The alternating row with the sign of its r = n+1 slot flipped."""
    return Projection(k, lam, mu, n, {r: -c if r == n + 1 else c
                                      for r, c in alternating(n, k, lam, mu).row})


class TestFlippedAlternatingRow:
    """A sign flipped in the row that P1 and piDelta are built from fails
    the equivariance check and the classifier's recurrence check."""

    @pytest.fixture
    def flipped(self, monkeypatch):
        monkeypatch.setitem(PRINTED, "P1", lambda k, lam, mu: (
            BilinearOp("phi_dpsi", 0, 0), _alternating_flipped(1, k, lam, mu)))
        monkeypatch.setitem(CATALOG, "piDelta", replace(
            CATALOG["piDelta"], make=lambda k, lam, mu: _alternating_flipped(1, k, lam, mu)))

    @pytest.mark.parametrize("name", ["P1", "piDelta"])
    def test_verify_op_exit_1(self, capsys, flipped, name):
        code, out, _ = run(capsys, "verify", "--op", name)
        assert code == 1
        assert out.startswith(f"op:{name}: FAIL, defect ") and ", defect 0," not in out

    def test_classify_exit_3(self, capsys, flipped):
        code, out, err = run(capsys, "classify", "-k", "3", "--lambda", "0", "--mu", "1")
        assert (code, out) == (3, "")
        assert err.startswith("internal assertion failed: P1 violates the recurrence")


class TestFlippedConjugationJet:
    """One entry of C's jet flipped fails the equivariance check and the
    classifier's recurrence check."""

    @pytest.fixture
    def flipped(self, monkeypatch):
        C = CATALOG["C"]

        def jet(k, lam, mu):
            t = C.jet(k, lam, mu)
            t[4] = -t[4]  # t[2,1]
            return t

        monkeypatch.setitem(CATALOG, "C", local_endo("C", C.home, C.applies, jet))

    def test_verify_op_exit_1(self, capsys, flipped):
        code, out, _ = run(capsys, "verify", "--op", "C")
        assert code == 1
        assert out.startswith("op:C: FAIL, defect ") and ", defect 0," not in out

    def test_classify_exit_3(self, capsys, flipped):
        code, out, err = run(capsys, "classify", "-k", "3", "--lambda", "1/4", "--mu", "3/4")
        assert (code, out) == (3, "")
        assert err.startswith("internal assertion failed: C violates the recurrence")


def test_classify_applies_no_catalog_map(capsys, monkeypatch):
    """classify reads every generator's jet off the catalog: with every
    endomorphism's map refused, it still prints its goldens."""
    def refuse(*args):
        raise AssertionError("classify built a catalog map")

    for name, entry in CATALOG.items():
        if entry.kind == "endo":
            monkeypatch.setitem(CATALOG, name, replace(entry, make=refuse))
    golden = json.loads((GOLDENS / "classify.json").read_text(encoding="utf-8"))
    for command, want in golden.items():
        assert run(capsys, *command.split()) == (0, want, ""), command


# classify stdout for the printed mirrors JV* and JW*, recorded before the
# catalog kept its generators as jets
PRINTED_MIRRORS = {
    ("3", "-1/4", "circle"):
        '{"algebra": "R^3", "generators": ["Id", "P0star", "JV*"]'
        ', "k": 3, "lambda": "-1/4", "local_dim": 3, '
        '"mu": "1", "nonlocal_dim": 0, "space": "circle", "total": 3}\n',
    ("3", "-1/4", "line"):
        '{"algebra": "R^3", "generators": ["Id", "P0star", "JV*"]'
        ', "k": 3, "lambda": "-1/4", "local_dim": 3, '
        '"mu": "1", "nonlocal_dim": 0, "space": "line", "total": 3}\n',
    ("3", "-2", "circle"):
        '{"algebra": "a+R", "generators": ["Id", "P0star", "JV*"]'
        ', "k": 3, "lambda": "-2", "local_dim": 3, '
        '"mu": "1", "nonlocal_dim": 0, "space": "circle", "total": 3}\n',
    ("3", "-2", "line"):
        '{"algebra": "a+R", "generators": ["Id", "P0star", "JV*"]'
        ', "k": 3, "lambda": "-2", "local_dim": 3, '
        '"mu": "1", "nonlocal_dim": 0, "space": "line", "total": 3}\n',
    ("4", "-1/4", "circle"):
        '{"algebra": "R^3", "generators": ["Id", "P0star", "JW*"]'
        ', "k": 4, "lambda": "-1/4", "local_dim": 3, '
        '"mu": "1", "nonlocal_dim": 0, "space": "circle", "total": 3}\n',
    ("4", "-1/4", "line"):
        '{"algebra": "R^3", "generators": ["Id", "P0star", "JW*"]'
        ', "k": 4, "lambda": "-1/4", "local_dim": 3, '
        '"mu": "1", "nonlocal_dim": 0, "space": "line", "total": 3}\n',
    ("4", "-2", "circle"):
        '{"algebra": "a+R", "generators": ["Id", "P0star", "JV*"]'
        ', "k": 4, "lambda": "-2", "local_dim": 3, '
        '"mu": "1", "nonlocal_dim": 0, "space": "circle", "total": 3}\n',
    ("4", "-2", "line"):
        '{"algebra": "a+R", "generators": ["Id", "P0star", "JV*"]'
        ', "k": 4, "lambda": "-2", "local_dim": 3, '
        '"mu": "1", "nonlocal_dim": 0, "space": "line", "total": 3}\n',
}


@pytest.mark.parametrize("k, lam, space", PRINTED_MIRRORS)
def test_printed_mirrors_are_pinned(capsys, k, lam, space):
    assert run(capsys, "classify", "-k", k, f"--lambda={lam}", "--mu", "1",
               "--space", space) == (0, PRINTED_MIRRORS[k, lam, space], "")


class TestTable:
    def test_csv_grid(self, capsys):
        code, out, _ = run(capsys, "table", "-k", "3", "--no-kinds")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10  # header + 9 rows
        assert lines[0].startswith("row,points,k=0,k=1,k=2,k=3")
        generic = next(l for l in lines if l.startswith("generic"))
        assert generic.endswith("1,2,2,1")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "-k", "2", "--no-kinds",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 9
        assert rows[-1]["row"] == "(0,1)" and rows[-1]["dims"] == [1, 3, 4]

    def test_byte_for_byte_determinism(self, capsys):
        _, out1, _ = run(capsys, "table", "-k", "2", "--no-kinds")
        _, out2, _ = run(capsys, "table", "-k", "2", "--no-kinds")
        assert out1 == out2

    def test_default_csv_has_kinds(self, capsys):
        code, out, _ = run(capsys, "table", "-k", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "row,points,k=0,k=1,k=2,kind k=0,kind k=1,kind k=2"
        assert lines[-1].startswith('"(0,1)"') and lines[-1].endswith(",R,b,b+R")
        code, out, _ = run(capsys, "table", "-k", "2", "--format", "json")
        assert code == 0
        kinds = [row["kinds"] for row in json.loads(out)]
        assert [line.split(",")[-3:] for line in lines[1:]] == kinds


class TestVerify:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "conj_involution")
        assert code == 0
        assert "conj_involution: pass, defect 0" in out

    def test_mult_table(self, capsys):
        code, out, _ = run(capsys, "verify", "mult_table_01", "-k", "4")
        assert code == 0
        assert "36 entries checked" in out

    @pytest.mark.parametrize("name", sorted(identities.IDENTITIES))
    def test_relation_line_equals_the_benchmark_golden(self, capsys, name):
        golden = json.loads(VERIFY_GOLDENS.read_text(encoding="utf-8"))
        code, out, _ = run(capsys, "verify", name)
        assert code == 0 and out == golden[f"verify {name}"]

    @pytest.mark.parametrize("name, pairs", [
        # calV^2 = (d-1)(d-2) calV with the second factor off by one
        ("calv_square", lambda basis, V: [(
            V @ V, (basis.mu - basis.lam - 1) * (basis.mu - basis.lam - 3) * V)]),
        # the opposite sign of calV = L(2L+1)(Id - C)
        ("calv_conjugation_line", lambda basis, V, Id, C: [(
            V, basis.lam * (2 * basis.lam + 1) * (C - Id))]),
    ])
    def test_wrong_relation_fails(self, capsys, monkeypatch, name, pairs):
        row = identities.RELATIONS[name]
        monkeypatch.setitem(identities.RELATIONS, name, replace(row, pairs=pairs))
        code, out, _ = run(capsys, "verify", name)
        assert code == 1
        assert out.startswith(f"{name}: FAIL, defect ") and ", defect 0," not in out

    def test_wrong_mult_table_entry_fails(self, capsys, monkeypatch):
        # C o P1 = P0star - P1 - P0, with the sign of P1 flipped
        monkeypatch.setitem(identities.MULT_TABLE_01["C"], "P1",
                            {"P0star": 1, "P1": 1, "P0": -1})
        code, out, _ = run(capsys, "verify", "mult_table_01")
        assert code == 1
        assert out.startswith("mult_table_01: FAIL, defect ") and ", defect 0," not in out

    @pytest.mark.parametrize("name", ["mult_table_01", "calw_square"])
    def test_relation_applies_each_catalog_map_once_per_element(
            self, capsys, monkeypatch, name):
        # products and combinations are read off the maps' cached columns:
        # no catalog map is applied twice to one basis element at one point,
        # and a local map is read off its jet, so only L's callable is applied
        row = identities.RELATIONS[name]
        calls = Counter()
        for n in row.uses:
            real = CATALOG[n].make

            def make(k, lam, mu, n=n, real=real):
                T = real(k, lam, mu)
                return lambda A: calls.update([(n, lam, mu)]) or T(A)

            monkeypatch.setitem(CATALOG, n, replace(CATALOG[n], make=make))
        monkeypatch.setattr(TruncatedBasis, "vector_of", None)  # never called
        code, out, _ = run(capsys, "verify", name)
        assert code == 0, out
        dim = int(out.rsplit("basis size ", 1)[1].split()[0])
        applied = {"L"} if name == "mult_table_01" else set()
        assert {n for n, _, _ in calls} == applied
        assert len(calls) == len(applied) * len(row.points)
        assert max(calls.values(), default=0) <= dim
        if name == "mult_table_01":
            assert dim == 105 and sum(calls.values()) <= 630

    @pytest.mark.parametrize("argv, order", [
        (("calv_square", "-k", "5"), 2),
        (("jw_relations", "-k", "3"), 4),
        (("gsigma_decomposition", "-k", "0"), 3),
    ])
    def test_other_order_of_a_fixed_order_relation_exit_2(self, capsys, argv, order):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert f"{argv[0]} is stated at order k={order}, not k={argv[2]}" in err

    def test_relation_accepts_its_own_order(self, capsys):
        code, out, _ = run(capsys, "verify", "calv_square", "-k", "2")
        assert code == 0
        assert out == "calv_square: pass, defect 0, 5 entries checked, basis size 51\n"

    @pytest.mark.parametrize("flag", ["--lambda", "--mu"])
    @pytest.mark.parametrize("name", ["calv_square", "conj_involution", "mult_table_01"])
    def test_weights_on_a_relation_exit_2(self, capsys, name, flag):
        code, out, err = run(capsys, "verify", name, flag, "1/2")
        assert code == 2 and out == ""
        assert f"{name} is checked at its own weights" in err

    @pytest.mark.parametrize("argv", [
        ("mult_table_01", "-k", "1"), ("adjoint_pairing",), ("lemma_functionals",),
    ])
    def test_circle_only_check_on_the_line_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv, "--space", "line")
        assert code == 2 and out == "" and f"{argv[0]} is circle-only" in err

    def test_oracle_agreement_compares_spaces(self, capsys, monkeypatch):
        # an oracle of the right dimension that spans another space must fail
        from fractions import Fraction
        from densym import identities
        real = identities.brute_force_local_symmetries

        def wrong(k, lam, mu):
            n = len(real(k, lam, mu)[0])
            return [[Fraction(int(j == n - 1)) for j in range(n)]]

        monkeypatch.setattr(identities, "brute_force_local_symmetries", wrong)
        code, out, _ = run(capsys, "verify", "oracle_agreement")
        assert code == 1
        assert out == ("oracle_agreement: FAIL, defect 2, 1 entries checked, "
                       "basis size 0 (recurrence 1, brute force 1 at k=3, "
                       "(1/3,1/5); the solution spaces differ)\n")

    @pytest.mark.parametrize("argv, out", [
        ((), "818 entries checked, basis size 17"),
        (("--space", "circle"), "663 entries checked, basis size 17"),
        (("--space", "line"), "155 entries checked, basis size 9"),
    ])
    def test_grozman_equivariance_honours_space(self, capsys, argv, out):
        # both spaces by default: 663 circle and 155 line entries
        code, got, _ = run(capsys, "verify", "grozman_equivariance", *argv)
        assert code == 0
        assert got == f"grozman_equivariance: pass, defect 0, {out}\n"

    def test_w_sharpness_off_locus_stops_at_first_nonzero_defect(
            self, capsys, monkeypatch):
        from densym import identities
        calls = []
        real = identities.equivariance_defect

        def spy(T, X):
            calls.append((T.basis.lam, T.basis.mu))
            return real(T, X)

        monkeypatch.setattr(identities, "equivariance_defect", spy)
        code, out, _ = run(capsys, "verify", "w_sharpness")
        assert code == 0 and "6 entries checked" in out
        # 5 circle fields at each of the 3 points on the locus, fewer off it
        per_point = [calls.count(p) for p in dict.fromkeys(calls)]
        assert per_point[:3] == [5, 5, 5] and max(per_point[3:]) < 5

    @pytest.mark.parametrize("argv", [
        ("mult_table_01", "-k", "4", "-M", "1"),
        ("grozman_equivariance", "-M", "1"),
        ("--op", "poisson", "-M", "0"),
    ])
    def test_window_below_floor_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and "M >= k+4" in err

    @pytest.mark.parametrize("argv, bad", [
        (("conj_involution", "-k", "-1"), "got -1"),
        (("oracle_agreement", "-k", "-1"), "got -1"),
        (("--op", "C", "-k", "-1"), "got -1"),
        (("mult_table_01", "-k", "0"), "k >= 1"),
        (("w_sharpness", "-k", "2"), "order-2 locus"),
    ])
    def test_order_out_of_range_exit_2(self, capsys, argv, bad):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and bad in err

    @pytest.mark.parametrize("name", ["conj_involution", "s_relations"])
    def test_order_zero_is_not_the_default(self, capsys, name):
        # the default window M = k+6 at k=0 has 2*6+1 circle monomials
        code, out, _ = run(capsys, "verify", name, "-k", "0")
        assert code == 0 and out.endswith(", basis size 13\n")

    @pytest.mark.parametrize("name", ["conj_involution", "grozman_equivariance"])
    def test_unknown_space_in_config_exit_2(self, capsys, tmp_path, name):
        conf = tmp_path / "run.conf"
        conf.write_text("space=sphere\n")
        code, out, err = run_exit(capsys, "verify", name, "--config", str(conf))
        assert code == 2 and out == "" and "invalid choice: 'sphere'" in err

    def test_unknown_identity_exit_2(self, capsys):
        # the message itself, not the repr quotes a KeyError adds
        assert run(capsys, "verify", "definitely_not_a_thing") == (
            2, "", "error: unknown identity 'definitely_not_a_thing'\n")

    @pytest.mark.parametrize("argv, err", [
        (("--op", "nope"), "error: unknown catalog name 'nope'\n"),
        (("--op", "L", "--space", "line"),
         "error: 'L' is not defined at k=3, (0,1) on the line\n"),
        # the zero map at k = 0
        (("--op", "V", "-k", "0"),
         "error: 'V' is not defined at k=0, (1/3,1/5) on the circle\n"),
        (("--op", "wilmodB", "-k", "0", "--lambda", "1/2", "--mu", "1/2"),
         "error: 'wilmodB' is not defined at k=0, (1/2,1/2) on the circle\n"),
        (("--op", "piDelta", "-k", "0"),
         "error: 'piDelta' is not defined at k=0, (0,1) on the circle\n"),
    ])
    def test_unknown_or_inapplicable_op_exit_2(self, capsys, argv, err):
        assert run(capsys, "verify", *argv) == (2, "", err)

    @pytest.mark.parametrize("argv", [
        ("verify", "calv_square", "--lambda="),
        ("verify", "calv_square", "--mu="),
        ("classify", "-k", "1", "--lambda=", "--mu", "1"),
    ])
    def test_empty_weight_exit_2(self, capsys, argv):
        assert run(capsys, *argv) == (
            2, "", "error: not an exact rational: '' (use p/q or an integer)\n")

    def test_op_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--op", "GV")
        assert code == 0 and "op:GV: pass" in out

    def test_op_builds_its_generator_once(self, capsys, monkeypatch):
        # one jet, whose map the window applies
        calls = []
        build = operators.printed_jet
        monkeypatch.setattr(operators, "printed_jet",
                            lambda *args: calls.append(args) or build(*args))
        code, out, _ = run(capsys, "verify", "--op", "JV", "--lambda", "0", "--mu", "1")
        assert code == 0 and out.startswith("op:JV: pass")
        assert len(calls) == 1

    @pytest.mark.parametrize("name, wrong", [
        ("calV", lambda e: local_endo(e.name, e.home, e.applies, _cal_v_off_by_one)),
        ("V", lambda e: replace(e, make=_v_beta_plus_one)),
    ])
    def test_wrong_catalog_formula_fails(self, capsys, monkeypatch, name, wrong):
        monkeypatch.setitem(CATALOG, name, wrong(CATALOG[name]))
        code, out, _ = run(capsys, "verify", "--op", name)
        assert code == 1
        assert out.startswith(f"op:{name}: FAIL, defect ") and ", defect 0," not in out

    def test_gsigma_decomposition(self, capsys):
        code, out, _ = run(capsys, "verify", "gsigma_decomposition")
        assert code == 0

    def test_list_names(self, capsys):
        code, out, _ = run(capsys, "verify", "--list")
        assert code == 0
        assert "mult_table_01" in out and "op:grozman" in out


# `figures -k 3` CSV, recorded before the loci moved into one table
LOCI_K3_CSV = (
    b"kind,equation,lambda,mu\r\n"
    b"line,lambda=0,,\r\n"
    b"line,mu=1,,\r\n"
    b"line,lambda+mu=1,,\r\n"
    b"line,mu-lambda=2,,\r\n"
    b"hyperbola,(3*lambda+1)*(3*mu-4)=-1,,\r\n"
    b"point,,-1/2,3/2\r\n"
    b"point,,-2/3,5/3\r\n"
    b"point,,0,1\r\n"
    b"point,,0,2\r\n"
    b"point,,0,3\r\n"
    b"point,,-1,1\r\n"
    b"point,,-2,1\r\n"
)


class TestFigures:
    def test_emits_svg_and_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, "figures", "-k", "3", "-o", str(tmp_path))
        assert code == 0
        svg = (tmp_path / "loci_k3.svg").read_text()
        csv_text = (tmp_path / "loci_k3.csv").read_text()
        assert svg.startswith("<svg") and "polyline" in svg  # hyperbola drawn
        assert "lambda+mu=1" in csv_text and "mu-lambda=2" in csv_text
        assert "point,,-1/2,3/2" in csv_text and "point,,-2,1" in csv_text

    def test_k3_csv_is_pinned(self, capsys, tmp_path):
        run(capsys, "figures", "-k", "3", "-o", str(tmp_path))
        assert (tmp_path / "loci_k3.csv").read_bytes() == LOCI_K3_CSV

    def test_k5_has_three_lines_three_points(self, capsys, tmp_path):
        run(capsys, "figures", "-k", "5", "-o", str(tmp_path))
        rows = (tmp_path / "loci_k5.csv").read_text().strip().splitlines()[1:]
        kinds = [r.split(",")[0] for r in rows]
        assert kinds.count("line") == 3 and kinds.count("point") == 3

    def test_k4_isolated_points(self, capsys, tmp_path):
        run(capsys, "figures", "-k", "4", "-o", str(tmp_path))
        text = (tmp_path / "loci_k4.csv").read_text()
        for pt in ("0,5/4", "-1/4,1", "-2/3,5/3", "0,3", "-2,1"):
            assert f"point,,{pt}" in text
        assert "mu-lambda" not in text  # no shift lines at order 4

    def test_unsupported_order_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "figures", "-k", "7", "-o", str(tmp_path))
        assert code == 2

    def test_outdir_from_environment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DENSYM_OUT", str(tmp_path))
        code, out, _ = run(capsys, "figures", "-k", "2")
        assert code == 0
        assert (tmp_path / "loci_k2.svg").exists()


class TestPinnedOutputs:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_figures(self, capsys, tmp_path, k):
        assert run(capsys, "figures", "-k", str(k), "-o", str(tmp_path))[0] == 0
        for name in (f"loci_k{k}.svg", f"loci_k{k}.csv"):
            assert (tmp_path / name).read_bytes() == (PINNED / name).read_bytes(), name

    @pytest.mark.parametrize("argv, name", [
        (("table", "-k", "4"), "table_k4_circle.csv"),
        (("table", "-k", "4", "--space", "line"), "table_k4_line.csv"),
        (("table", "-k", "3", "--format", "json"), "table_k3.json"),
    ])
    def test_table(self, capsys, argv, name):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.encode() == (PINNED / name).read_bytes()


@pytest.mark.parametrize("argv, flag", UNREAD_FLAGS, ids=[
    " ".join(a for a in argv if "\n" not in a) for argv, _ in UNREAD_FLAGS])
def test_unread_flag_exit_2(capsys, tmp_path, monkeypatch, argv, flag):
    monkeypatch.setenv("DENSYM_OUT", str(tmp_path))
    written = []
    if "--config" in argv:
        conf = tmp_path / "run.conf"
        conf.write_text(argv[-1])
        argv, written = (*argv[:-1], str(conf)), [conf]
    code, out, err = run_exit(capsys, *argv)
    assert code == 2 and out == "" and flag in err
    assert list(tmp_path.iterdir()) == written  # figures wrote nothing


def test_main_reuses_one_parser(capsys, tmp_path):
    """main's calls in one process read one parser, and each gives what it
    gives on a parser built afresh."""
    assert cli.build_parser() is cli.build_parser()
    conf = tmp_path / "run.conf"
    conf.write_text("k=3\nlambda=-1/2\nmu=3/2\nspace=line\n")
    classify = ("classify", "-k", "2", "--lambda", "0", "--mu", "1")
    calls = [classify, ("classify", "-k", "1", "--lambda", "1/0", "--mu", "1"),
             ("verify", "--list"), ("table", "-k", "2"), ("classify", "--config", str(conf)),
             classify]
    shared = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in shared] == [0, 2, 0, 0, 0, 0]
    assert shared[0] == shared[-1]
    assert shared[1][2] == "error: zero denominator in '1/0'\n"
    for argv, got in zip(calls, shared):
        cli.build_parser.cache_clear()
        assert run(capsys, *argv) == got
    assert cli.build_parser() is cli.build_parser()


class TestConfigFile:
    def test_flags_fall_back_to_config(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("k=3\nlambda=-1/2\nmu=3/2\nspace=circle\n")
        code, out, _ = run(capsys, "classify", "--config", str(conf))
        assert code == 0
        assert json.loads(out)["algebra"] == "t2"

    def test_explicit_flags_win(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("k=3\nlambda=-1/2\nmu=3/2\n")
        code, out, _ = run(capsys, "classify", "--config", str(conf),
                           "-k", "2")
        assert code == 0
        assert json.loads(out)["k"] == 2

    @pytest.mark.parametrize("line, bad", [
        ("format=svg", "invalid choice: 'svg'"),
        ("samples=2", "at least 3 sample points"),  # read, not left at 3
    ])
    def test_table_reads_its_config_keys(self, capsys, tmp_path, line, bad):
        conf = tmp_path / "run.conf"
        conf.write_text(f"k=1\n{line}\n")
        code, out, err = run_exit(capsys, "table", "--no-kinds", "--config", str(conf))
        assert code == 2 and out == "" and bad in err

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("sigma=3\n")
        code, _, err = run(capsys, "classify", "--config", str(conf))
        assert code == 2
