"""The one exact elimination kernel and the queries that read it.

Matrices are lists of rows of Fractions (or anything Fraction accepts).
`rref` is the only function that performs row operations; it returns the
unique reduced row echelon form over Q, every entry a Fraction.  Rank,
nullspace, solve and independent_subset here, and the structure-constant
reader in `algebras`, each read their answer off a single call to it;
`over_one_denominator` scales an answer back to ints over one denominator.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)


def _primitive(row):
    """The row scaled to coprime integers (a zero row stays zero)."""
    g = gcd(*row)
    return row if g <= 1 else [v // g for v in row]


def integer_row(row):
    """The coprime integer multiple of the row with a positive leading entry."""
    row = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
    # a list, not a generator: star-unpacking an iterator leaves its
    # resized argument tuples in CPython's tuple free lists
    den = lcm(*[v.denominator for v in row])
    row = _primitive([v.numerator * (den // v.denominator) for v in row])
    return [-v for v in row] if next((v for v in row if v), 0) < 0 else row


def numerator_over(den: int, q) -> int:
    """The integer q * den, for an int or Fraction q whose denominator
    divides den."""
    n, r = divmod(den, q.denominator)
    if r:
        raise ArithmeticError(f"{q} is not a multiple of 1/{den}")
    return q.numerator * n


def over_one_denominator(rows):
    """(den, int_rows): den is the lcm of the entries' denominators, and
    int_rows the rows times den, as ints."""
    den = lcm(*[v.denominator for row in rows for v in row])
    return den, [[numerator_over(den, v) for v in row] for row in rows]


def rref(m):
    """Reduced row echelon form. Returns (rref_matrix, pivot_columns).

    The RREF over Q is unique; it is returned as Fractions.  Internally each
    row is scaled once to coprime integers (integer_row) and eliminated with
    integer row operations a*row - b*pivot_row, kept primitive, so no Fraction
    arithmetic runs until the pivots are divided out at the end.
    """
    rows = [integer_row(row) for row in m]
    if not rows:
        return [], []
    n, cols = len(rows), len(rows[0])
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, n) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(n):
            f = rows[i][c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                rows[i] = _primitive([a * x - b * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        if len(pivots) == n:
            break
    red = [[Fraction(x, row[c]) if x else ZERO for x in row]
           for row, c in zip(rows, pivots)]
    return red + [[ZERO] * cols for _ in range(n - len(pivots))], pivots


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
    """Max |entry| of a matrix or vector; the exact 'defect norm'.

    Entries are ints or Fractions; a row that is itself one is an entry."""
    worst = Fraction(0)
    for row in m:
        for v in (row,) if isinstance(row, (int, Fraction)) else row:
            if v and abs(v) > worst:  # defect entries are almost all 0
                worst = abs(v)
    return worst
