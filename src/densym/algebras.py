"""Finite associative algebras spanned by symmetries.

`structure_constants` reads an algebra off independent coordinate vectors and
a product rule, all in ints: the vectors are the basis over one denominator,
and the inverse of their pivot block is read off `rref` as ints over another.
The jet algebra `classify` prints and the windowed `span_algebra` oracle
differ only in that rule.  A `FiniteAlgebra` keeps its structure constants as
ints over one denominator, and `sc` is the Fraction tensor in the caller's
basis.  Identification with the four reference matrix algebras (and their
direct sums with copies of the scalars) goes through exact invariants, each
read straight off the integer constants: dimension, radical (via the regular
trace form, valid in characteristic zero) and center; the algebra is
commutative exactly when its center is all of it.  The explicit basis changes
printed for the flagship cases are verified in the test suite on top of this.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import SpanNotClosedError
from .linalg import nullspace, numerator_over, over_one_denominator, rref, solve


class FiniteAlgebra:
    """Associative algebra over Q given by structure constants.

    table[i][j][s] / den is the coordinate of basis_i * basis_j at basis_s;
    the table holds ints, and den is one positive int.  Scaling every
    constant by den scales both sides of associativity by den^2, the
    commutator rows by den and the trace form by den^2, so the invariants
    read the ints as they are; only the unit's equations carry den.
    """

    def __init__(self, names, table, den=1):
        self.names = list(names)
        self.table, self.den = table, den
        n = self.dim
        if any(len(table[i]) != n or any(len(table[i][j]) != n for j in range(n))
               for i in range(n)):
            raise ValueError("structure constants have the wrong shape")
        if not self.is_associative():
            raise ValueError("structure constants are not associative")

    @cached_property
    def sc(self):
        """sc[i][j] is the coordinate vector of (basis_i * basis_j) in the
        basis, as Fractions."""
        den = self.den
        return [[[Fraction(v, den) for v in vec] for vec in row] for row in self.table]

    @property
    def dim(self) -> int:
        return len(self.names)

    def is_associative(self) -> bool:
        """(e_i e_j) e_t = e_i (e_j e_t), both sides read off the table:
        sum_s table[i][j][s] table[s][t] against sum_s table[j][t][s] table[i][s]."""
        n = self.dim
        # nz[i][j]: the nonzero (s, table[i][j][s]); most structure constants are 0
        nz = [[[(s, c) for s, c in enumerate(v) if c] for v in row] for row in self.table]
        times = [[nz[s][t] for s in range(n)] for t in range(n)]  # e_s e_t, by t

        def combo(coeffs, products):
            out = [0] * n
            for s, c in coeffs:
                for u, v in products[s]:
                    out[u] += c * v
            return out

        return all(
            combo(nz[i][j], times[t]) == combo(nz[j][t], nz[i])
            for i in range(n) for j in range(n) for t in range(n)
        )

    def unit(self):
        """Coordinates of the two-sided unit, or None."""
        n, table = self.dim, self.table
        # unit u satisfies u * e_j = e_j and e_j * u = e_j for all j; over
        # the table's ints the right side is den e_j
        a, b = [], []
        for j in range(n):
            for t in range(n):
                a.append([table[i][j][t] for i in range(n)])
                a.append([table[j][i][t] for i in range(n)])
                b += [self.den * (t == j)] * 2
        return solve(a, b)

    def center_dim(self) -> int:
        n, table = self.dim, self.table
        rows = []
        for j in range(n):
            for t in range(n):
                rows.append([table[i][j][t] - table[j][i][t] for i in range(n)])
        return len(nullspace(rows, n))

    def radical_dim(self) -> int:
        """Radical = kernel of the regular trace form (characteristic zero).

        L_i has the entry table[i][b][a] at row a, column b, so
        tr(L_i L_j) = sum_{a,b} table[i][b][a] table[j][a][b] (den^2 times
        the trace form, with the same kernel).
        """
        n = self.dim
        # L_i as its nonzero entries {(a, b): table[i][b][a]}
        mats = [{(a, b): c for b, v in enumerate(row) for a, c in enumerate(v) if c}
                for row in self.table]
        gram = [[sum(c * lj[b, a] for (a, b), c in li.items() if (b, a) in lj)
                 for lj in mats] for li in mats]
        return len(nullspace(gram, n))


# ----------------------------------------------------------------------
# reading structure constants off coordinate vectors
# ----------------------------------------------------------------------

def structure_constants(names, vectors, product, den=1) -> FiniteAlgebra:
    """Structure constants of the span of independent coordinate vectors.

    The vectors are the caller's basis times den, as ints, and product(i, j)
    is the int coordinate vector of vectors[i] times vectors[j].  One rref of
    the vectors, each extended by a unit vector, gives their pivot
    coordinates and the inverse of the n x n pivot block, read as ints over
    one denominator d; each product is solved at the pivots and confirmed on
    every coordinate, in ints.  A product is bilinear, so it is den^2 times
    the basis product, and the constants come out over d * den.  Dependent
    vectors raise ValueError, and the first product (row-major) outside the
    span raises SpanNotClosedError.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    n, width = len(vectors), len(vectors[0])
    red, pivots = rref([list(v) + [int(i == j) for j in range(n)]
                        for i, v in enumerate(vectors)])
    if pivots[-1] >= width:  # a pivot in the unit block: a dependent vector
        raise ValueError("the vectors are not linearly independent")
    d, inverse = over_one_denominator([row[width:] for row in red])
    nonzero = [[(p, c) for p, c in enumerate(v) if c] for v in vectors]

    def coordinates(i, j):
        prod = product(i, j)
        at_pivots = [(prod[p], inv_row) for p, inv_row in zip(pivots, inverse) if prod[p]]
        coords = [sum(c * inv_row[s] for c, inv_row in at_pivots if inv_row[s])
                  for s in range(n)]
        # coords / d are the coordinates, so the combination is d * prod
        combo = [0] * width
        for c, entries in zip(coords, nonzero):
            if c:
                for p, v in entries:
                    combo[p] += c * v
        if combo != [d * v for v in prod]:
            raise SpanNotClosedError(f"product {names[i]} o {names[j]} leaves the span")
        return coords

    return FiniteAlgebra(names, [[coordinates(i, j) for j in range(n)] for i in range(n)],
                         d * den)


def span_algebra(maps) -> FiniteAlgebra:
    """Structure constants of the span of the given maps under composition.

    The maps must be linearly independent on their shared truncated basis and
    the span must be multiplicatively closed; a product escaping the span
    raises SpanNotClosedError (truncation too small or wrong generator set).
    """
    if any(m.basis is not maps[0].basis for m in maps):
        raise ValueError("maps live on different truncated bases")
    den, vectors = over_one_denominator([m.flat() for m in maps])
    return structure_constants(
        [m.name for m in maps], vectors,
        lambda i, j: [numerator_over(den * den, v) for v in (maps[i] @ maps[j]).flat()],
        den)


# ----------------------------------------------------------------------
# identification
# ----------------------------------------------------------------------

def _kind(atom, scalars: int) -> str:
    """The printed kind: the matrix atom b, t2 or a (None for none), then
    the copies of the scalars, as in b+R^2, t2+R or R^3."""
    parts = [atom] if atom else []
    if scalars:
        parts.append("R" if scalars == 1 else f"R^{scalars}")
    return "+".join(parts) or "0"


def identify(alg: FiniteAlgebra) -> str:
    """Match against the reference kinds through exact invariants.

    Returns the printed kind, or 'unidentified(...)' with the fingerprint
    when nothing matches; never guesses.
    """
    n = alg.dim
    if alg.unit() is None:
        return f"unidentified(dim={n}, no unit)"
    r = alg.radical_dim()
    z = alg.center_dim()
    comm = z == n
    if comm:
        if r == 0:
            return _kind(None, n)
        if r == 1 and n >= 2:
            return _kind("a", n - 2)
    else:
        if r == 1 and n >= 3 and z == n - 2:
            return _kind("t2", n - 3)
        if r == 2 and n >= 4 and z == n - 3:
            return _kind("b", n - 4)
    return f"unidentified(dim={n}, radical={r}, center={z}, commutative={comm})"
