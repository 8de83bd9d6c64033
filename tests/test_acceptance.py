"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (tolerance zero on rational defects, exact integer
equality on dimensions); run with -s to see the per-criterion lines.
"""
import random
import time
from fractions import Fraction as F

from densym.algebras import reference_kind_table, span_algebra
from densym.identities import (
    CheckConfig,
    check_adjoint_pairing,
    check_grozman_equivariance,
    check_mult_table_01,
    check_v_wilmod_vanishing,
    check_w_sharpness,
    run_identity,
)
from densym.recurrence import build_system, classify, local_dimension, sweep
from densym.rings import CIRCLE, LINE
from densym.truncation import (
    TruncatedBasis, brute_force_local_symmetries,
    invariant_functionals_dimension, realize,
)

PRINTED_TABLE = {
    "generic": [1, 2, 2, 1, 1, 1, 1],
    "lambda=0 or mu=1, generic": [1, 2, 3, 3, 2, 2, 2],
    "lambda+mu=1, generic": [1, 2, 2, 2, 2, 2, 2],
    "order-3 locus or mu-lambda=2, generic": [1, 2, 2, 2, 1, 1, 1],
    "(-1/4,1), (-2,1), (0,5/4), (0,3)": [1, 2, 3, 3, 3, 2, 2],
    "(0,0), (1,1)": [1, 2, 3, 3, 3, 3, 3],
    "(-2/3,5/3)": [1, 2, 2, 3, 3, 2, 2],
    "(-1/2,3/2)": [1, 2, 3, 3, 2, 2, 2],
    "(0,1)": [1, 3, 4, 5, 5, 5, 5],
}

LOCI_POINTS = [
    (F(1, 3), F(1, 5)), (F(0), F(2, 7)), (F(3, 5), F(1)), (F(1, 5), F(4, 5)),
    (F(1, 3), F(7, 6)), (F(1, 5), F(11, 5)), (F(0), F(5, 4)), (F(0), F(3)),
    (F(-1, 4), F(1)), (F(-2), F(1)), (F(0), F(0)), (F(1), F(1)),
    (F(-2, 3), F(5, 3)), (F(-1, 2), F(3, 2)), (F(0), F(1)),
]


def report(n, passed, text):
    line = f"criterion {n}: {'PASS' if passed else 'FAIL'} - {text}"
    print(line)
    assert passed, line


def test_criterion_1_dimension_table():
    t0 = time.time()
    rows = sweep(kmax=6, samples=3, with_kinds=False)
    elapsed = time.time() - t0
    mismatches = [
        (row["row"], row["dims"], PRINTED_TABLE[row["row"]])
        for row in rows if row["dims"] != PRINTED_TABLE[row["row"]]
    ]
    report(1, not mismatches and elapsed < 30,
           f"all 9 table rows exact for k=0..6 at 3 sampled points each "
           f"({elapsed:.1f}s)" if not mismatches else f"mismatches: {mismatches}")


def test_criterion_2_oracle_agreement():
    rng = random.Random(13)
    points = list(LOCI_POINTS)
    from densym.recurrence import sample_generic
    while len(points) < 18:
        points.append(sample_generic(rng))
    triples = [(k, lam, mu) for lam, mu in points for k in range(0, 5)]
    triples += [(k, lam, mu) for lam, mu in points[:4] for k in (5, 6)]
    assert len(triples) >= 60
    bad = []
    for k, lam, mu in triples:
        rec = local_dimension(build_system(k, lam, mu))
        brute = len(brute_force_local_symmetries(k, lam, mu, LINE))
        if rec != brute:
            bad.append((k, lam, mu, rec, brute))
    report(2, not bad,
           f"recurrence = brute force on {len(triples)} triples"
           if not bad else f"disagreements: {bad}")


def test_criterion_3_multiplication_table():
    results = []
    for k in (3, 4, 5):
        for M in (k + 6, k + 8):
            res = check_mult_table_01(CheckConfig(k=k, M=M))
            results.append(((k, M), res.passed, res.defect))
    ok = all(p for _, p, _ in results)
    report(3, ok,
           "all 36 products exact at k=3,4,5 with M=k+6 and M=k+8"
           if ok else f"failures: {[r for r in results if not r[1]]}")


def test_criterion_4_isomorphism_suite():
    half = F(1, 2)
    problems = []
    for k in (1, 2, 3):
        basis = TruncatedBasis(k, k + 6, CIRCLE, F(0), F(1))
        m = {n: realize(n, basis) for n in ["Id", "P0", "C", "P0star", "P1", "L"]}
        abar = half * (2 * m["P1"] + m["P0"] - m["P0star"])
        bbar = half * (m["P0"] + m["P0star"])
        cbar = half * (m["P0"] - m["P0star"])
        dbar = m["L"]
        for mp, nm in zip((abar, bbar, cbar, dbar), ("abar", "bbar", "cbar", "dbar")):
            mp.name = nm
        alg = span_algebra([abar, bbar, cbar, dbar])
        if alg.sc != reference_kind_table("b").sc:
            problems.append(f"k={k}: basis change does not give the reference table")
        z1 = m["Id"] + m["C"] - m["P0"] - m["P0star"]
        z2 = m["Id"] - m["C"] - m["P0"] + m["P0star"] - 2 * m["P1"]
        for z in (z1, z2):
            for g in m.values():
                if not (z @ g).equals(g @ z):
                    problems.append(f"k={k}: center fails")
        if k == 3 and (z1.is_zero() or z2.is_zero()):
            problems.append("k=3: central elements should be nonzero")
        if k == 2 and (not z2.is_zero() or z1.is_zero()):
            problems.append("k=2: expected z2 = 0 and z1 != 0")
        if k == 1 and not (z1.is_zero() and z2.is_zero()):
            problems.append("k=1: expected z1 = z2 = 0")
        kind = classify(k, 0, 1, CIRCLE).algebra_kind
        expected = {1: "b", 2: "b+R", 3: "b+R^2"}[k]
        if kind != expected:
            problems.append(f"k={k}: kind {kind} != {expected}")
    report(4, not problems,
           "reference table via the printed basis change; centers and kinds "
           "as stated for k=1,2,3" if not problems else "; ".join(problems))


def test_criterion_5_relation_suite():
    checks = [
        run_identity("conj_involution"),
        check_adjoint_pairing(CheckConfig()),
        run_identity("s_relations"),
        run_identity("calw_square"),
        run_identity("calv_square"),
        run_identity("calv_conjugation_line"),  # exact combination L(2L+1)(Id-C)
        run_identity("jv_square_zero"),
        run_identity("gv_relations"),
        run_identity("gsigma_decomposition"),   # adjudicates the middle coefficient
    ]
    bad = [c.name for c in checks if not c.passed]
    report(5, not bad,
           f"{len(checks)} exact relation families, defect 0 everywhere"
           if not bad else f"failed: {bad}")


def test_criterion_6_sharpness():
    w = check_w_sharpness(CheckConfig())
    v = check_v_wilmod_vanishing(CheckConfig())
    report(6, w.passed and v.passed,
           "second-analog defect zero exactly on its locus; first-analog "
           "vanishes exactly at the degenerate weights, k=1..5"
           if w.passed and v.passed else f"{w.line()}; {v.line()}")


def test_criterion_7_line_circle_dichotomy():
    problems = []
    expect = {
        (LINE, 1): (3, "t2"), (LINE, 2): (4, "t2+R"),
        (LINE, 3): (5, "t2+R^2"), (LINE, 4): (5, "t2+R^2"),
        (CIRCLE, 1): (4, "b"), (CIRCLE, 2): (5, "b+R"),
        (CIRCLE, 3): (6, "b+R^2"), (CIRCLE, 4): (6, "b+R^2"),
    }
    for (space, k), (total, kind) in expect.items():
        rep = classify(k, 0, 1, space)
        if (rep.total, rep.algebra_kind) != (total, kind):
            problems.append(f"(0,1) {space} k={k}: got {rep.total}, {rep.algebra_kind}")
    samples = [
        (2, F(1, 3), F(1, 5)), (3, F(0), F(2, 7)), (3, F(1, 5), F(4, 5)),
        (4, F(-2, 3), F(5, 3)), (2, F(-1, 2), F(3, 2)),
    ]
    for k, lam, mu in samples:
        line = classify(k, lam, mu, LINE)
        circ = classify(k, lam, mu, CIRCLE)
        if (line.total, line.algebra_kind) != (circ.total, circ.algebra_kind):
            problems.append(f"({lam},{mu}) k={k}: line/circle reports differ")
    report(7, not problems,
           "totals 3,4,5 (t2 family) on the line and 4,5,6 (4x4 family) on "
           "the circle at (0,1); 5 other samples coincide"
           if not problems else "; ".join(problems))


def test_criterion_8_invariant_functionals():
    cases = {F(1): 1, F(0): 0, F(1, 2): 0, F(-2, 3): 0, F(2): 0}
    bad = [(lam, N) for N in (3, 5) for lam, want in cases.items()
           if invariant_functionals_dimension(lam, N) != want]
    report(8, not bad,
           "unique functional at weight 1, none elsewhere, for N=3 and N=5"
           if not bad else f"mismatches at {bad}")


def test_criterion_9_grozman_equivariance():
    res = check_grozman_equivariance(CheckConfig(M=8))
    report(9, res.passed,
           f"defect 0 for circle fields up to frequency 3 (M=8) and line "
           f"fields up to degree 5 ({res.entries} instances)"
           if res.passed else res.line())
