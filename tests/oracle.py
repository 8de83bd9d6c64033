"""Independent references for the formal oracle, shared by the test modules.

`truncation.brute_force_local_symmetries` solves the equivariance of the jet
ansatz t[r,l] coefficient by coefficient, at x = 0 and on no window.  This
module keeps the two routes it is checked against:

* `windowed_local_symmetries`, the brute-force oracle on a truncated basis:
  the nullspace of the stacked `equivariance_defect` columns of the unit
  jets under `brute_force_fields`, exact inside its window.  Its equations
  come from `windowed_equations`; `window_rows` reads those of every smaller
  window off one larger window, so a test of many windows builds one;
* `AppliedMap`, a window map of a callable on operators, applied to each
  basis element (`elements`): the reference for the closed forms that
  `truncation` reads every map in, and, as its `@`, `+`, `-` and `*`
  compose the callables, for their term algebra;
* `element_defect_columns`, the defect of a window map assembled element by
  element from its images and the windows' L_X columns (`lie_entries`,
  read off the windows' product tables): the defect kernel
  of `AppliedMap`, and so of the windowed oracle, and the reference for
  `SymmetryMap.defect_columns`, which reads every column off the map's
  `truncation.formal_defect`;
* `formal_rows`, every formal coefficient row with its monomial
  f^(p) a_s^(q) d^m, for field orders p <= 5, read through operators with
  the unit jet maps and `lie_derivative_operator`: the reference for
  `truncation.formal_rows`, which reads the rows p = 2, 3 off `lie_terms`.
"""
from fractions import Fraction
from math import factorial, lcm, perm
from weakref import WeakKeyDictionary

from densym import rings
from densym.densities import DensityOperator, VectorField, lie_derivative_operator, lie_terms
from densym.linalg import integer_row, nullspace, numerator_over
from densym.rings import LINE, PolyFn, TrigFn
from densym.operators import component_unknowns, componentwise_map
from densym.truncation import (
    SymmetryMap, TruncatedBasis, check_window, equivariance_defect, overflow, signed_index,
)


def elements(basis):
    """The basis elements m d^i as operators, in basis order."""
    z = rings.zero(basis.space)
    return [DensityOperator(basis.lam, basis.mu, [z] * i + [mono])
            for i in range(basis.k + 1) for mono in basis.monomials]


def lie_den(window, X):
    """The denominator of the lie_entries columns of X: the lie_terms scalars
    are affine in (lam, mu) with integer coefficients, so lcm(den lam,
    den mu) clears them, and the window's product_den(X) the product rows."""
    return lcm(window.lam.denominator, window.mu.denominator) * window.product_den(X)


_LIE = WeakKeyDictionary()  # window -> {(field, element index): lie_entries}


def lie_entries(window, X, j):
    """entries_of(L_X of element j) times lie_den(window, X), as ints,
    computed once per window, field and element.

    For e_j = m d^i the column sums the product table's rows X^(p) m^(q),
    each times its scalar c, over the terms (m', p, q, c) of
    lie_terms(i, lam, mu).  A product may reach past the window; only a
    nonzero coordinate past it that survives the sum raises
    TruncationOverflowError, as entries_of(lie_derivative_operator(X,
    e_j)) does.
    """
    lie = _LIE.setdefault(window, {})
    if (X, j) not in lie:
        scale, n = lcm(window.lam.denominator, window.mu.denominator), len(window.monomials)
        i, t = divmod(j, n)
        col = {}
        for m, p, q, c in lie_terms(i, window.lam, window.mu):
            c = numerator_over(scale, c)
            for s, v in window.product_row(X, p, q, t):
                col[m, s] = col.get((m, s), 0) + c * v
        past = [(m, s) for (m, s), v in col.items() if v and s >= n]
        if past:
            first = min(past)[0]
            s = max(s for m, s in past if m == first)
            raise overflow(window.space, abs(signed_index(window.space, s)), window.M)
        lie[X, j] = sorted((m * n + s, v) for (m, s), v in col.items() if v)
    return lie[X, j]


def element_defect_columns(T, X, elements):
    """The per-element reference for SymmetryMap.defect_columns: (den, cols),
    T o L_X - L_X o T at each of the elements, in order, one sparse column
    {coordinate on T.target: int} each, den times the defect.

    T is assumed linear, so the column of an element b is assembled from
    sparse columns, vec T(L_X b) = sum_j vec(L_X b)_j vec T(e_j) and
    vec L_X T(b) = sum_j vec T(b)_j vec L_X(e_j), over single elements e_j
    of the basis and of the target window: T.image builds T once per
    element and map, and lie_entries reads each window L_X once per
    element and field off the ring window's product table.  An image
    T(e_j) or L_X(e_j) that leaves the window raises
    TruncationOverflowError; nothing is cut off.  T's columns are over T.den
    and the two L_X over their lie_den, so den is T.den times their lcm.
    """
    basis, target = T.basis, T.target
    dx, dt = lie_den(basis, X), lie_den(target, X)
    den = lcm(dx, dt)
    sx, st = den // dx, den // dt
    cols = []
    for b in elements:
        col = {}
        for j, c in lie_entries(basis, X, b):
            c *= sx
            for i, v in T.image(j):
                col[i] = col.get(i, 0) + c * v
        for j, c in T.image(b):
            c *= st
            for i, v in lie_entries(target, X, j):
                col[i] = col.get(i, 0) - c * v
        cols.append(col)
    return den * T.den, cols


def sparse_vectors(den, cols):
    """defect_columns' (den, cols) as vectors: each column's nonzero
    coordinates with their true values."""
    return [{i: Fraction(v, den) for i, v in col.items() if v} for col in cols]


class AppliedMap(SymmetryMap):
    """A SymmetryMap of the callable func on operators, applied once to each
    basis element the first time a column, the target or den is read; den
    is the lcm over its images.  The target is the given window, else the
    basis when the first image lies in the basis's module, else
    basis.densities(nu).  An image that leaves the window raises
    TruncationOverflowError.  It has no terms, so its defect is read per
    element (element_defect_columns)."""

    defect_columns = element_defect_columns

    def __init__(self, basis, func, name="T", target=None):
        super().__init__(basis, None, name)
        self.func, self._target = func, target

    def _load(self):
        if self._images is None:
            b, cols = self.basis, []
            for element in elements(b):
                image = self.func(element)
                if self._target is None:
                    self._target = (b if (image.lam, image.mu) == (b.lam, b.mu)
                                    else b.densities(image.mu))
                cols.append(self._target.entries_of(image))
            den = self._den = lcm(*[v.denominator for col in cols for _, v in col])
            self._images = [[(t, numerator_over(den, v)) for t, v in col] for col in cols]
        return self._images

    @property
    def target(self):
        if self._target is None:
            self._load()
        return self._target

    # X @ Y, X + Y, X - Y and q * X compose the callables, not columns: the
    # reference for the closed forms' term algebra.  The result keeps the
    # given target of X, if any

    def __matmul__(self, other):
        f, g = self.func, other.func
        return AppliedMap(other.basis, lambda A: f(g(A)), f"{self.name}*{other.name}",
                          self._target)

    def __add__(self, other):
        f, g = self.func, other.func
        return AppliedMap(self.basis, lambda A: f(A) + g(A), f"({self.name}+{other.name})",
                          self._target)

    def __sub__(self, other):
        f, g = self.func, other.func
        return AppliedMap(self.basis, lambda A: f(A) - g(A), f"({self.name}-{other.name})",
                          self._target)

    def __mul__(self, scalar):
        f = self.func
        return AppliedMap(self.basis, lambda A: scalar * f(A), f"{scalar}*{self.name}",
                          self._target)

    __rmul__ = __mul__


def brute_force_fields(space):
    # the ansatz already commutes with d/dx and x d/dx, so only the
    # quadratic and cubic directions (or their trig stand-ins) constrain it
    if space == LINE:
        return [VectorField(PolyFn.monomial(2)), VectorField(PolyFn.monomial(3))]
    return [
        VectorField(TrigFn.cosine(1)), VectorField(TrigFn.sine(1)),
        VectorField(TrigFn.cosine(2)), VectorField(TrigFn.sine(2)),
    ]


def unit_jet_maps(k, lam, mu):
    """The maps e_u of the unit jets t[r,l] = 1, each componentwise_map of the
    one term (r, r-l, l, perm(r,l)), in component_unknowns order."""
    return [componentwise_map([(r, r - l, l, perm(r, l))], k, lam, mu)
            for r, l in component_unknowns(k)]


def windowed_equations(k, lam, mu, space=LINE, M=None):
    """The equivariance conditions on the truncated basis, one row per equation.

    The general componentwise map is sum_u t_u e_u over the unit jets e_u
    (t[r,l] = 1, every other unknown 0: unit_jet_maps), so each
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
    units = [AppliedMap(basis, e) for e in unit_jet_maps(k, lam, mu)]
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
    units = unit_jet_maps(k, lam, mu)
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

