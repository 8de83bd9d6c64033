"""The exact elimination kernel against sympy as an independent oracle."""
import random
from fractions import Fraction as F

import pytest
import sympy

from densym.linalg import independent_subset, max_abs, nullspace, rank, solve


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
