"""Finite associative algebras spanned by symmetries.

`structure_constants` reads an algebra off independent coordinate vectors and
a product rule; the jet algebra `classify` prints and the windowed
`span_algebra` oracle differ only in that rule.  Identification with the four
reference matrix algebras (and their direct sums with copies of the scalars)
goes through exact invariants, each read straight off the structure
constants: dimension, radical (via the regular trace form, valid in
characteristic zero), center, and commutativity.  The explicit basis changes
printed for the flagship cases are verified in the test suite on top of this.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SpanNotClosedError
from .linalg import ZERO, nullspace, rref, solve


@dataclass(frozen=True)
class AlgebraKind:
    """A direct sum over the atoms b, t2, a, and R^n, in canonical order."""

    atoms: tuple  # e.g. ("b", "R", "R")

    ATOM_ORDER = {"b": 0, "t2": 1, "a": 2, "R": 3}

    @classmethod
    def of(cls, *atoms):
        matrix_atoms = sorted(
            (a for a in atoms if a != "R"), key=lambda a: cls.ATOM_ORDER[a]
        )
        scalars = tuple(a for a in atoms if a == "R")
        return cls(tuple(matrix_atoms) + scalars)

    @property
    def dim(self) -> int:
        sizes = {"b": 4, "t2": 3, "a": 2, "R": 1}
        return sum(sizes[a] for a in self.atoms)

    def __str__(self):
        parts = []
        i = 0
        atoms = self.atoms
        while i < len(atoms):
            if atoms[i] == "R":
                n = len(atoms) - i
                parts.append("R" if n == 1 else f"R^{n}")
                break
            parts.append(atoms[i])
            i += 1
        return "+".join(parts) if parts else "0"


class FiniteAlgebra:
    """Associative algebra over Q given by structure constants.

    sc[i][j] is the coordinate vector of (basis_i * basis_j) in the basis.
    """

    def __init__(self, names, sc):
        self.names = list(names)
        self.sc = sc
        n = self.dim
        if any(len(sc[i]) != n or any(len(sc[i][j]) != n for j in range(n))
               for i in range(n)):
            raise ValueError("structure constants have the wrong shape")
        if not self.is_associative():
            raise ValueError("structure constants are not associative")

    @property
    def dim(self) -> int:
        return len(self.names)

    def is_associative(self) -> bool:
        """(e_i e_j) e_t = e_i (e_j e_t), both sides read off sc:
        sum_s sc[i][j][s] sc[s][t] against sum_s sc[j][t][s] sc[i][s]."""
        n = self.dim
        # nz[i][j]: the nonzero (s, sc[i][j][s]); most structure constants are 0
        nz = [[[(s, c) for s, c in enumerate(v) if c] for v in row] for row in self.sc]
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

    def is_commutative(self) -> bool:
        n = self.dim
        return all(
            self.sc[i][j] == self.sc[j][i] for i in range(n) for j in range(i)
        )

    def unit(self):
        """Coordinates of the two-sided unit, or None."""
        n = self.dim
        # unit u satisfies u * e_j = e_j and e_j * u = e_j for all j
        a, b = [], []
        for j in range(n):
            for t in range(n):
                a.append([self.sc[i][j][t] for i in range(n)])
                a.append([self.sc[j][i][t] for i in range(n)])
                b += [Fraction(int(t == j))] * 2
        return solve(a, b)

    def center_dim(self) -> int:
        n = self.dim
        rows = []
        for j in range(n):
            for t in range(n):
                rows.append([self.sc[i][j][t] - self.sc[j][i][t] for i in range(n)])
        return len(nullspace(rows, n))

    def radical_dim(self) -> int:
        """Radical = kernel of the regular trace form (characteristic zero).

        L_i has the entry sc[i][b][a] at row a, column b, so
        tr(L_i L_j) = sum_{a,b} sc[i][b][a] sc[j][a][b].
        """
        n = self.dim
        # L_i as its nonzero entries {(a, b): sc[i][b][a]}
        mats = [{(a, b): c for b, v in enumerate(row) for a, c in enumerate(v) if c}
                for row in self.sc]
        gram = [[sum(c * lj[b, a] for (a, b), c in li.items() if (b, a) in lj)
                 for lj in mats] for li in mats]
        return len(nullspace(gram, n))

    def rescale_basis(self, scales):
        """Structure constants after basis_i -> scales[i] * basis_i."""
        n = self.dim
        sc = [[[self.sc[i][j][t] * scales[i] * scales[j] / scales[t]
                for t in range(n)] for j in range(n)] for i in range(n)]
        return FiniteAlgebra(self.names, sc)


# ----------------------------------------------------------------------
# reading structure constants off coordinate vectors
# ----------------------------------------------------------------------

def structure_constants(names, vectors, product) -> FiniteAlgebra:
    """Structure constants of the span of independent coordinate vectors.

    product(i, j) is the coordinate vector of item i times item j.  One rref
    of the vectors, each extended by a unit vector, gives their pivot
    coordinates and the inverse of the n x n pivot block; each product is
    solved there and then confirmed on every coordinate.  Dependent vectors
    raise ValueError, and the first product (row-major) outside the span
    raises SpanNotClosedError.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    n, width = len(vectors), len(vectors[0])
    red, pivots = rref([list(v) + [int(i == j) for j in range(n)]
                        for i, v in enumerate(vectors)])
    if pivots[-1] >= width:  # a pivot in the unit block: a dependent vector
        raise ValueError("the vectors are not linearly independent")
    inverse = [row[width:] for row in red]
    nonzero = [[(p, c) for p, c in enumerate(v) if c] for v in vectors]

    def coordinates(i, j):
        prod = product(i, j)
        at_pivots = [(prod[p], inv_row) for p, inv_row in zip(pivots, inverse) if prod[p]]
        # an empty sum is the int 0; the coordinates stay Fractions
        coords = [sum(c * inv_row[s] for c, inv_row in at_pivots if inv_row[s]) or ZERO
                  for s in range(n)]
        combo = [0] * width
        for c, entries in zip(coords, nonzero):
            if c:
                for p, v in entries:
                    combo[p] += c * v
        if combo != prod:
            raise SpanNotClosedError(f"product {names[i]} o {names[j]} leaves the span")
        return coords

    return FiniteAlgebra(names, [[coordinates(i, j) for j in range(n)] for i in range(n)])


def span_algebra(maps) -> FiniteAlgebra:
    """Structure constants of the span of the given maps under composition.

    The maps must be linearly independent on their shared truncated basis and
    the span must be multiplicatively closed; a product escaping the span
    raises SpanNotClosedError (truncation too small or wrong generator set).
    """
    if any(m.basis is not maps[0].basis for m in maps):
        raise ValueError("maps live on different truncated bases")
    return structure_constants([m.name for m in maps], [m.flat() for m in maps],
                               lambda i, j: (maps[i] @ maps[j]).flat())


# ----------------------------------------------------------------------
# identification
# ----------------------------------------------------------------------

def identify(alg: FiniteAlgebra):
    """Match against the reference kinds through exact invariants.

    Returns an AlgebraKind, or the string 'unidentified(...)' with the
    fingerprint when nothing matches; never guesses.
    """
    n = alg.dim
    if alg.unit() is None:
        return f"unidentified(dim={n}, no unit)"
    r = alg.radical_dim()
    z = alg.center_dim()
    comm = alg.is_commutative()
    if comm:
        if r == 0:
            return AlgebraKind.of(*(["R"] * n))
        if r == 1 and n >= 2:
            return AlgebraKind.of("a", *(["R"] * (n - 2)))
    else:
        if r == 1 and n >= 3 and z == n - 2:
            return AlgebraKind.of("t2", *(["R"] * (n - 3)))
        if r == 2 and n >= 4 and z == n - 3:
            return AlgebraKind.of("b", *(["R"] * (n - 4)))
    return f"unidentified(dim={n}, radical={r}, center={z}, commutative={comm})"


# reference multiplication tables, used by the isomorphism tests
def reference_kind_table(kind: str):
    """Structure constants of a named reference algebra in its print basis."""
    F = Fraction
    if kind == "a":
        names = ["atil", "btil"]
        table = {("atil", "atil"): {"atil": 1}, ("atil", "btil"): {"btil": 1},
                 ("btil", "atil"): {"btil": 1}}
    elif kind == "b":
        names = ["abar", "bbar", "cbar", "dbar"]
        table = {
            ("abar", "abar"): {"abar": 1}, ("abar", "dbar"): {"dbar": 1},
            ("bbar", "bbar"): {"bbar": 1}, ("bbar", "cbar"): {"cbar": 1},
            ("cbar", "abar"): {"cbar": 1}, ("dbar", "bbar"): {"dbar": 1},
        }
    elif kind == "t2":
        names = ["e11", "e22", "e21"]
        table = {
            ("e11", "e11"): {"e11": 1}, ("e22", "e22"): {"e22": 1},
            ("e21", "e11"): {"e21": 1}, ("e22", "e21"): {"e21": 1},
        }
    elif kind.startswith("R^") or kind == "R":
        n = 1 if kind == "R" else int(kind[2:])
        names = [f"u{i}" for i in range(n)]
        table = {(f"u{i}", f"u{i}"): {f"u{i}": 1} for i in range(n)}
    else:
        raise ValueError(f"unknown reference kind {kind!r}")
    idx = {nm: i for i, nm in enumerate(names)}
    n = len(names)
    sc = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for (x, y), out in table.items():
        for znm, c in out.items():
            sc[idx[x]][idx[y]][idx[znm]] = F(c)
    return FiniteAlgebra(names, sc)
