"""The one exact elimination kernel and the queries that read it.

Matrices are lists of rows of Fractions (or anything Fraction accepts).
`rref` is plain fraction-pivoting Gauss-Jordan and the only function that
performs row operations; rank, nullspace, solve and independent_subset here,
and the structure-constant reader in `algebras`, each read their answer off
a single call to it.
"""
from __future__ import annotations

from fractions import Fraction


def rref(m):
    """Reduced row echelon form. Returns (rref_matrix, pivot_columns)."""
    m = [list(map(Fraction, row)) for row in m]
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


def rank(m) -> int:
    return len(rref(m)[1])


def nullspace(m, ncols=None):
    """Basis of the right nullspace of m (list of column vectors).

    Read off the unique RREF, so equal solution spaces over the same unknowns
    give equal lists."""
    if not m:
        if ncols is None:
            return []
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    ncols = len(m[0]) if ncols is None else ncols
    red, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(a, b):
    """The exact x with a·x = b (a given as rows), or None if inconsistent.

    Free unknowns are set to 0, so x is unique when a has full column rank.
    """
    n = len(a[0])
    red, pivots = rref([list(row) + [rhs] for row, rhs in zip(a, b)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return x


def independent_subset(vectors):
    """Indices of a maximal linearly independent subset, scanned in order.

    These are the pivot columns of the matrix whose columns are the vectors:
    a column is a pivot exactly when it is independent of the ones before it.
    Coordinates where every vector is 0 change no pivot and are left out.
    """
    return rref([row for row in zip(*vectors) if any(row)])[1]


def max_abs(m) -> Fraction:
    """Max |entry| of a matrix or vector; the exact 'defect norm'."""
    worst = Fraction(0)
    for row in m:
        for v in (row,) if isinstance(row, Fraction) else row:
            if v and abs(v) > worst:  # defect entries are almost all 0
                worst = abs(v)
    return worst
