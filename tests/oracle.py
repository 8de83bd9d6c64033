"""Independent references for the formal oracle, shared by the test modules.

`truncation.brute_force_local_symmetries` solves the equivariance of the jet
ansatz t[r,l] coefficient by coefficient, at x = 0 and on no window.  This
module keeps the two routes it is checked against:

* `windowed_local_symmetries`, the brute-force oracle on a truncated basis:
  the nullspace of the stacked `equivariance_defect` columns of the unit
  jets under `brute_force_fields`, exact inside its window.  Its equations
  come from `windowed_equations`; `window_rows` reads those of every smaller
  window off one larger window, so a test of many windows builds one;
* `formal_rows`, every formal coefficient row with its monomial
  f^(p) a_s^(q) d^m, for field orders p <= 5, read through operators with
  the unit jet maps and `lie_derivative_operator`: the reference for
  `truncation.formal_rows`, which reads the rows p = 2, 3 off `lie_terms`.
"""
from fractions import Fraction
from math import factorial

from densym.densities import DensityOperator, VectorField, lie_derivative_operator
from densym.linalg import integer_row, nullspace
from densym.rings import LINE, PolyFn, TrigFn
from densym.operators import component_unknowns, componentwise_map
from densym.truncation import SymmetryMap, TruncatedBasis, check_window, equivariance_defect


def brute_force_fields(space):
    # the ansatz already commutes with d/dx and x d/dx, so only the
    # quadratic and cubic directions (or their trig stand-ins) constrain it
    if space == LINE:
        return [VectorField(PolyFn.monomial(2)), VectorField(PolyFn.monomial(3))]
    return [
        VectorField(TrigFn.cosine(1)), VectorField(TrigFn.sine(1)),
        VectorField(TrigFn.cosine(2)), VectorField(TrigFn.sine(2)),
    ]


def windowed_equations(k, lam, mu, space=LINE, M=None):
    """The equivariance conditions on the truncated basis, one row per equation.

    The general componentwise map is sum_u t_u e_u over the unit jets e_u
    (componentwise_map with t[r,l] = 1, every other unknown 0), so each
    (safe element, coordinate) pair of the equivariance_defect columns of the
    e_u is one linear equation in the t_u.  Returns {(field index, order,
    monomial index, coordinate): (unknown indices, integer_row of their
    values)}, the element monomial * d^order named by its place in
    ring_basis, which is the same on every window.  integer_row is one key
    per line through the origin, so proportional equations are equal rows.
    The rows are in element order within each field of
    brute_force_fields: at k = 10 on the circle, rref then makes 30k row
    operations, against 53k in the order the e_u produce the equations.
    """
    M = k + 4 if M is None else M
    check_window(k, M)
    basis = TruncatedBasis(k, M, space, lam, mu)
    size = len(component_unknowns(k))
    units = [SymmetryMap(basis, componentwise_map([int(v == u) for v in range(size)],
                                                  k, lam, mu)) for u in range(size)]
    n, out = len(basis.monomials), {}
    for f, X in enumerate(brute_force_fields(space)):
        safe = basis.safe_indices(X)
        eqs = {}  # (safe element, coordinate) -> {unknown index: value}
        for u, e in enumerate(units):
            for b, col in zip(safe, equivariance_defect(e, X)):
                for i, v in col.items():
                    if v:
                        eqs.setdefault((b, i), {})[u] = v
        for b, i in sorted(eqs):
            eq = eqs[b, i]
            out[f, *divmod(b, n), i] = tuple(eq), tuple(integer_row(list(eq.values())))
    return out


def window_rows(eqs, k, lam, mu, space, M):
    """The rows of windowed_equations(k, lam, mu, space, M), read off the
    equations eqs of a larger window, in the same order.

    The defect of an element under a field is one operator on every window
    in which the element is safe, and it involves only the t[r,l] with r at
    most the element's order, so the smaller window's equations are those of
    its own safe elements, row for row.
    """
    check_window(k, M)
    basis = TruncatedBasis(k, M, space, lam, mu)
    n = len(basis.monomials)
    safe = {(f, *divmod(b, n)) for f, X in enumerate(brute_force_fields(space))
            for b in basis.safe_indices(X)}
    return [row for key, row in eqs.items() if key[:3] in safe]


def solve(rows, size):
    """The nullspace of the rows (unknown indices, values) over size
    unknowns; equal rows are kept once, which leaves the nullspace
    unchanged.  Returns the solution vectors, in component_unknowns order."""
    return nullspace([[dict(zip(*row)).get(u, 0) for u in range(size)]
                      for row in dict.fromkeys(rows)], size)


def windowed_local_symmetries(k, lam, mu, space=LINE, M=None):
    """Exact nullspace of the equivariance conditions on the truncated basis
    M (default k+4): solve over windowed_equations."""
    return solve(windowed_equations(k, lam, mu, space, M).values(),
                 len(component_unknowns(k)))


def formal_rows(k, lam, mu):
    """{(p, s, q, m): row}: the x^0 coefficient at d^m of e_u(L_X A) - L_X e_u(A)
    over the unit jets e_u, for X = (x^p/p!) d and A = (x^q/q!) d^s.

    The row is the coefficient of the monomial f^(p) a_s^(q) d^m in the
    formal defect, for p <= 5, s <= k, q <= s + 2 and m <= s; the oracle
    reads the rows p = 2, 3 with p + q = s - m + 1, and p = 4, 5 are here to
    show that they add no rank.
    """
    size = len(component_unknowns(k))
    units = [componentwise_map([int(v == u) for v in range(size)], k, lam, mu)
             for u in range(size)]
    out = {}
    for p in range(6):
        X = VectorField(PolyFn.monomial(p, Fraction(1, factorial(p))))
        for s in range(k + 1):
            for q in range(s + 3):
                a = PolyFn.monomial(q, Fraction(1, factorial(q)))
                A = DensityOperator(lam, mu, [0] * s + [a])
                LA = lie_derivative_operator(X, A)
                defects = []
                for e in units:  # L_X of a zero e_u(A) is zero
                    eA, D = e(A), e(LA)
                    defects.append(D if eA.is_zero else D - lie_derivative_operator(X, eA))
                for m in range(s + 1):
                    out[p, s, q, m] = [D.coefficient(m).terms.get(0, 0) for D in defects]
    return out

