"""The exact elimination kernel against sympy as an independent oracle."""
import random
from fractions import Fraction as F

import pytest
import sympy

from densym import truncation
from densym.linalg import independent_subset, max_abs, nullspace, rank, rref, solve
from densym.rings import CIRCLE, LINE


def random_matrix(rng, rows, cols):
    """Small rationals; some matrices are built rank-deficient on purpose."""
    m = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
         for _ in range(rows)]
    shape = rng.randrange(4)
    if shape == 1 and rows >= 2:
        # a row that is a combination of two others
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3), 2)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    elif shape == 2 and cols >= 1:
        # a zero column
        c = rng.randrange(cols)
        for row in m:
            row[c] = F(0)
    elif shape == 3 and cols >= 2:
        # a repeated column
        for row in m:
            row[-1] = row[0]
    return m


def cases(n=60):
    rng = random.Random(20260)
    for _ in range(n):
        yield random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))


def fraction_rref(m):
    """Fraction-pivoting Gauss-Jordan: the reference rref must agree with."""
    m = [list(map(F, row)) for row in m]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def sympy_rref(m):
    """sympy's RREF as (rows of Fractions, pivots); m needs at least one row."""
    red, pivots = sympy.Matrix(len(m), len(m[0]),
                               [sympy.Rational(str(F(v))) for row in m for v in row]).rref()
    return [[F(int(v.p), int(v.q)) for v in red.row(i)] for i in range(red.rows)], list(pivots)


def large_denominator_rows(rng, rows, cols):
    """Denominators up to ~10^15, numerators up to ~10^20, mixed signs, and
    one row dependent on two others."""
    m = [[F(rng.randint(-10**20, 10**20), rng.randint(1, 10**15)) if rng.random() < 0.8
          else F(0) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3:
        a, b = F(rng.randint(-10**9, 10**9), rng.randint(1, 10**12)), F(-7, 10**15)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    return m


def rref_cases():
    yield from cases()
    rng = random.Random(20261)
    for rows, cols in [(1, 1), (3, 3), (4, 6), (6, 4), (5, 5), (2, 9), (9, 2)]:
        yield large_denominator_rows(rng, rows, cols)
    yield [[3, -6, 9], [2, 4, 0], [1, 2, 0]]               # all ints
    yield [[0, 0], [0, 0], [5, 0]]                          # zero rows
    yield [["1/2", "-3/4", 0], ["2", "1/3", "-5/6"]]       # strings
    yield [["1/2", 2], [F(1, 4), 1]]                        # mixed, rank 1
    yield [[], [], []]                                      # zero columns
    yield [[0, 0, 0, 0]]                                    # one zero row
    yield [[F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(3)] for _ in range(12)]
    yield [[F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(12)] for _ in range(3)]


@pytest.mark.parametrize("m", list(rref_cases()))
def test_rref_is_the_unique_rref(m):
    red, pivots = rref(m)
    assert (red, pivots) == fraction_rref(m)
    assert (red, pivots) == sympy_rref(m)
    assert all(type(v) is F for row in red for v in row)


@pytest.mark.parametrize("space", [CIRCLE, LINE])
@pytest.mark.parametrize("point", [(F(0), F(1)), (F(2, 7), F(-3, 5))])
def test_rref_on_the_oracle_matrices(monkeypatch, point, space):
    seen = []  # the equations the brute-force oracle eliminates, as handed over
    real = truncation.nullspace
    monkeypatch.setattr(truncation, "nullspace",
                        lambda rows, ncols: seen.append(rows) or real(rows, ncols))
    truncation.brute_force_local_symmetries(6, *point, space, 12)
    m = seen[0]
    red, pivots = rref(m)
    assert (red, pivots) == fraction_rref(m)
    assert (red, pivots) == sympy_rref(m)


def test_rref_without_rows():
    assert rref([]) == ([], [])


def test_outputs_are_fractions():
    for m in ([[2, 4], [1, 3]], [[6, 3, 0]], [["1/2", 1, 0], [0, 0, 1]], [[0, 0]]):
        for v in [x for row in rref(m)[0] for x in row] + [x for v in nullspace(m) for x in v]:
            assert type(v) is F
    x = solve([[2, 0], [0, 4]], [6, 8])
    assert x == [3, 2] and all(type(v) is F for v in x)
    assert all(type(v) is F for v in solve([[1, 1, 0]], [0]))


def sympy_rank(m):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in m]).rank()


def mat_vec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def greedy_independent(vectors):
    chosen = []
    for i, v in enumerate(vectors):
        if sympy_rank([vectors[j] for j in chosen] + [v]) == len(chosen) + 1:
            chosen.append(i)
    return chosen


@pytest.mark.parametrize("m", list(cases()))
def test_rank_matches_sympy(m):
    assert rank(m) == sympy_rank(m)


@pytest.mark.parametrize("m", list(cases()))
def test_nullspace_is_annihilated_and_has_full_size(m):
    basis = nullspace(m)
    ncols = len(m[0])
    assert len(basis) == ncols - sympy_rank(m)
    for v in basis:
        assert mat_vec(m, v) == [0] * len(m)
    if basis:
        assert rank(basis) == len(basis)


@pytest.mark.parametrize("m", list(cases()))
def test_nullspace_depends_only_on_the_row_space(m):
    # rows shuffled, scaled, duplicated and combined span the same row space,
    # so the basis, read off the unique RREF, is the same list
    rng = random.Random(len(m) * 11 + len(m[0]))
    other = []
    for row in m:
        c = F(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))
        other.append([c * v for v in row])
    other += [list(rng.choice(m)), [a - 2 * b for a, b in zip(m[0], m[-1])]]
    rng.shuffle(other)
    assert nullspace(other, len(m[0])) == nullspace(m, len(m[0]))


@pytest.mark.parametrize("m", list(cases()))
def test_solve_satisfies_or_reports_inconsistency(m):
    rng = random.Random(len(m) * 7 + len(m[0]))
    for b in ([F(rng.randint(-3, 3)) for _ in m],
              mat_vec(m, [F(rng.randint(-3, 3), 2) for _ in m[0]])):
        x = solve(m, b)
        augmented = [row + [rhs] for row, rhs in zip(m, b)]
        if sympy_rank(augmented) > sympy_rank(m):
            assert x is None
        else:
            assert x is not None and mat_vec(m, x) == b


@pytest.mark.parametrize("m", list(cases()))
def test_independent_subset_is_the_greedy_scan(m):
    # the rows of m are the vectors
    assert independent_subset(m) == greedy_independent(m)


def test_edge_cases():
    assert independent_subset([]) == []
    assert independent_subset([[0, 0], [0, 0]]) == []
    assert independent_subset([[0, 0], [1, 2], [2, 4], [0, 1]]) == [1, 3]
    assert nullspace([], 2) == [[1, 0], [0, 1]]
    assert solve([[1, 1], [1, 1]], [1, 2]) is None
    assert solve([[2, 0], [0, 4]], [1, 1]) == [F(1, 2), F(1, 4)]


def test_max_abs():
    assert max_abs([[F(0), F(-7, 2)], [F(3), F(0)]]) == F(7, 2)
    assert max_abs([[F(0)] * 3, [F(0)]]) == 0
    assert max_abs([[F(0), F(-1, 5)], [F(0)] * 2]) == F(1, 5)
    assert max_abs([F(-5, 3)]) == F(5, 3)
    assert max_abs([F(0), F(1, 2), F(-2)]) == 2
    assert max_abs([]) == 0
    assert max_abs([[]]) == 0
    assert max_abs([0, -3]) == 3
    assert max_abs([0, 0]) == 0
    assert max_abs([[0, 2], [-5, 1]]) == 5
    assert max_abs([[F(1, 2), -1], [0, F(-3, 4)]]) == 1
