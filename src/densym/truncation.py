"""Truncated test spaces for the verify checks, and the formal oracle.

Every identity in this package is a polynomial identity in finitely many
jets of the coefficients, so checking it exactly on a large enough truncated
basis is decisive.  The truncation is explicit: maps whose image leaves the
window raise instead of silently cutting off, and equivariance defects are
only ever evaluated on the sub-basis whose image provably stays inside.
One kernel, equivariance_defect, builds the windowed defect of every
linear map that verify checks, and bilinear_defect that of every bilinear
operator.  The formal oracle reads no window and builds no ring element.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, perm

from . import rings
from .densities import DensityOperator, VectorField, apply, lie_derivative_operator, lie_terms
from .errors import InapplicableSymmetryError, TruncationOverflowError
from .operators import catalog_entry, component_unknowns
from .linalg import nullspace, rank
from .rings import CIRCLE, LINE, PolyFn, TrigFn, rat


def ring_basis(space: str, M: int):
    """Monomial list: x^0..x^M on the line; 1, cos x, sin x, ... on the circle."""
    if space == LINE:
        return [PolyFn.monomial(t) for t in range(M + 1)]
    if space != CIRCLE:
        raise ValueError(f"unknown space {space!r}; use {CIRCLE!r} or {LINE!r}")
    out = [TrigFn.constant(1)]
    for n in range(1, M + 1):
        out.append(TrigFn.cosine(n))
        out.append(TrigFn.sine(n))
    return out


def check_window(k: int, M: int):
    """Reject a window below M = k+4, the floor of the windowed identity
    checks and of the windowed oracle in tests/oracle.py (k is the order of
    the operators, or of a bilinear operator)."""
    if M < k + 4:
        raise ValueError(f"window M={M} too small; need M >= k+4 = {k + 4}")


def ring_dim(space: str, M: int) -> int:
    return M + 1 if space == LINE else 2 * M + 1


def ring_coordinates(fn):
    """(coordinate, value) for the nonzero coordinates of fn, ascending, in
    the monomial order of ring_basis on any window that holds fn."""
    if fn.space == LINE:
        return sorted(fn.terms.items())
    # 1, cos nx, sin nx have the signed indices 0, n, -n
    return sorted((2 * i - 1 if i > 0 else -2 * i, c) for i, c in fn.terms.items())


def overflow(space: str, size: int, M: int) -> TruncationOverflowError:
    """The error for a ring element of degree or frequency size above M."""
    what = "polynomial degree" if space == LINE else "frequency"
    return TruncationOverflowError(f"{what} {size} exceeds the window M={M}")


def ring_entries(fn, M: int):
    """(coordinate, value) for the nonzero coordinates of ring_vector(fn, M)."""
    size = ring_content_size(fn)
    if size > M:
        raise overflow(fn.space, size, M)
    return ring_coordinates(fn)


def dense(entries, n: int):
    """The length-n vector with the given (coordinate, value) entries."""
    vec = [Fraction(0)] * n
    for t, c in entries:
        vec[t] = c
    return vec


def ring_vector(fn, M: int):
    """Exact coordinates of a ring element in the monomial list, or overflow."""
    return dense(ring_entries(fn, M), ring_dim(fn.space, M))


def ring_content_size(fn) -> int:
    """Degree (line) or max frequency (circle); 0 for constants and zero."""
    if fn.space == LINE:
        return fn.degree or 0
    return fn.max_frequency


class TruncatedBasis:
    """Finite model of D^k_{lam,mu}: elements b_{i,m} = monomial_m * d^i.

    Ordering is i ascending then m ascending; this ordering is part of any
    serialized output and must not change.

    Its L_X is read off a product table, which the basis shares with its
    density windows basis.densities(nu), as they have the same monomials:
    for each field X, the ring coordinates of X^(p) * m^(q) for the
    monomials m, filled as the columns ask for them.
    """

    def __init__(self, k: int, M: int, space: str, lam, mu):
        self.k = k
        self.M = M
        self.space = space
        self.lam = rat(lam)
        self.mu = rat(mu)
        self.monomials = ring_basis(space, M)
        self.elements = []
        z = rings.zero(space)
        for i in range(k + 1):
            for mono in self.monomials:
                coeffs = [z] * i + [mono]
                self.elements.append(DensityOperator(self.lam, self.mu, coeffs))
        self._lie = {}  # field -> {element index: entries of L_X(element)}
        self._densities = {}  # weight nu -> the window of F_nu
        self._terms = [lie_terms(i, self.lam, self.mu) for i in range(k + 1)]
        self._products = {}  # field -> ([X, X', ...], {(p, q, t): coordinates})

    def densities(self, nu) -> "TruncatedBasis":
        """F_nu as the order-0 window D^0_{0,nu} on this ring window, one per
        weight: its coordinates are ring_entries, and its L_X, the operator
        action at order 0, is X a' + nu X' a.  It shares the basis's
        product table."""
        nu = rat(nu)
        if nu not in self._densities:
            window = self._densities[nu] = TruncatedBasis(0, self.M, self.space, 0, nu)
            window._products = self._products
        return self._densities[nu]

    @property
    def dim(self) -> int:
        return (self.k + 1) * len(self.monomials)

    def entries_of(self, A: DensityOperator):
        """(coordinate, value) for the nonzero coordinates of vector_of(A).

        On a density window basis.densities(nu) only the densities of weight
        nu, order-0 operators in D^0_{0,nu}, have coordinates.
        """
        if (A.lam, A.mu) != (self.lam, self.mu):
            raise TruncationOverflowError("operator weights do not match the basis")
        if A.order > self.k:
            raise TruncationOverflowError(
                f"operator order {A.order} exceeds the window k={self.k}"
            )
        n = len(self.monomials)
        return [(i * n + t, c) for i, a in enumerate(A.coeffs[:self.k + 1])
                for t, c in ring_entries(a, self.M)]

    def vector_of(self, A: DensityOperator):
        return dense(self.entries_of(A), self.dim)

    def safe_indices(self, X: VectorField):
        """Indices of the basis elements whose image under the X-action stays
        in the window."""
        growth = max(ring_content_size(X.value) - (1 if self.space == LINE else 0), 0)
        return [j for j, b in enumerate(self.elements)
                if ring_content_size(b.coeffs[-1]) + growth <= self.M]

    def lie_entries(self, X: VectorField, j: int):
        """entries_of(L_X of element j), computed once per field and element.

        For e_j = m d^i the column sums the product table's rows X^(p) m^(q),
        each times its scalar c, over the terms (m', p, q, c) of
        lie_terms(i, lam, mu).  A product may reach past the window; only a
        nonzero coordinate past it that survives the sum raises
        TruncationOverflowError, as entries_of(lie_derivative_operator(X,
        e_j)) does.
        """
        lie = self._lie.setdefault(X, {})
        if j not in lie:
            ders, products = self._products.setdefault(X, ([X.value], {}))
            n = len(self.monomials)
            i, t = divmod(j, n)
            col = {}
            for m, p, q, c in self._terms[i]:
                row = products.get((p, q, t))
                if row is None:
                    while len(ders) <= p:
                        ders.append(ders[-1].diff())
                    mono = self.monomials[t]
                    row = products[p, q, t] = ring_coordinates(
                        ders[p] * (mono.diff() if q else mono))
                for s, v in row:
                    v = v if c == 1 else c * v
                    col[m, s] = col[m, s] + v if (m, s) in col else v
            past = [(m, s) for (m, s), v in col.items() if v and s >= n]
            if past:
                first = min(past)[0]
                s = max(s for m, s in past if m == first)
                raise overflow(self.space, s if self.space == LINE else (s + 1) // 2, self.M)
            lie[j] = sorted((m * n + s, v) for (m, s), v in col.items() if v)
        return lie[j]


class SymmetryMap:
    """A linear map on a truncated module, carried as its sparse columns.

    The columns are coordinates on its target window, read off the first
    image: the basis itself when that image lies in the basis's module
    D_{lam,mu}, else basis.densities(nu) for an image in D^0_{0,nu} (F_nu
    as the order-0 window), as a projection's.  A map built from a callable
    applies it once per basis element and keeps the image as a sparse
    column.  X @ Y, X + Y, X - Y and q * X are built from their operands'
    columns, apply no callable and keep no column of their own.  flat()
    and the equivariance defects read the columns.
    """

    def __init__(self, basis: TruncatedBasis, func, name="T"):
        self.basis = basis
        self.func = func
        self.name = name
        self._target = None
        self._images = {}  # basis index -> (coordinate, value) entries

    @property
    def target(self) -> TruncatedBasis:
        if self._target is None:
            self.image(0)
        return self._target

    def image(self, j: int):
        """Nonzero (coordinate, value) entries of the image of element j;
        an image that leaves the window raises TruncationOverflowError."""
        col = self._images.get(j)
        if col is None:
            image = self.func(self.basis.elements[j])
            if self._target is None:
                b = self.basis
                self._target = (b if (image.lam, image.mu) == (b.lam, b.mu)
                                else b.densities(image.mu))
            col = self._images[j] = self._target.entries_of(image)
        return col

    @property
    def columns(self):
        n = self.target.dim
        return [dense(self.image(j), n) for j in range(self.basis.dim)]

    def flat(self):
        return [v for col in self.columns for v in col]

    def __matmul__(self, other: "SymmetryMap") -> "SymmetryMap":
        return _Combination(f"{self.name}*{other.name}", [(1, self, other)])

    def __add__(self, other):
        return _Combination(f"({self.name}+{other.name})", [(1, self, None), (1, other, None)])

    def __sub__(self, other):
        return _Combination(f"({self.name}-{other.name})", [(1, self, None), (-1, other, None)])

    def __mul__(self, scalar):
        return _Combination(f"{scalar}*{self.name}", [(rat(scalar), self, None)])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.image(j) for j in range(self.basis.dim))


class _Combination(SymmetryMap):
    """sum c * outer o inner over its terms (c, outer, inner), inner None
    meaning the identity: each image is read off the operands' columns."""

    def __init__(self, name, terms):
        basis = terms[0][1].basis
        if any(m.basis is not basis for _, *pair in terms for m in pair if m is not None):
            raise ValueError("maps live on different bases")
        for _, outer, inner in terms:
            if inner is not None and inner.target is not basis:
                raise ValueError(f"cannot compose after the projection {inner.name}")
        if len({outer.target for _, outer, _ in terms}) > 1:
            raise ValueError(f"{name} adds maps into different spaces")
        self.basis, self.name, self.terms = basis, name, terms

    @property
    def target(self) -> TruncatedBasis:
        return self.terms[0][1].target

    def image(self, j: int):
        col = {}
        for c, outer, inner in self.terms:
            for i, v in [(j, 1)] if inner is None else inner.image(j):
                for t, w in outer.image(i):
                    col[t] = col.get(t, 0) + c * v * w
        return [(t, v) for t, v in col.items() if v]


def realize(name: str, basis: TruncatedBasis) -> SymmetryMap:
    """Realize a cataloged endomorphism or projection, by name, on the basis."""
    entry = catalog_entry(name)
    if entry.kind == "bilinear":
        raise InapplicableSymmetryError(f"{name!r} is a bilinear map, not a map of one module")
    if not entry.applies(basis.k, basis.lam, basis.mu, basis.space):
        raise InapplicableSymmetryError(f"{name!r} is not defined at k={basis.k}, "
                                        f"({basis.lam},{basis.mu}) on the {basis.space}")
    return SymmetryMap(basis, entry.make(basis.k, basis.lam, basis.mu), name=name)


# ----------------------------------------------------------------------
# generator families and equivariance defects
# ----------------------------------------------------------------------

def line_fields(max_degree: int = 3):
    """d/dx, x d/dx, ..., x^max_degree d/dx."""
    return [VectorField(PolyFn.monomial(p)) for p in range(max_degree + 1)]


def circle_fields(N: int = 2):
    """d/dx plus cos(nx) d/dx, sin(nx) d/dx for 1 <= n <= N."""
    if N < 2:
        raise ValueError("the circle family needs N >= 2")
    fields = [VectorField(TrigFn.constant(1))]
    for n in range(1, N + 1):
        fields.append(VectorField(TrigFn.cosine(n)))
        fields.append(VectorField(TrigFn.sine(n)))
    return fields


def generator_family(space: str):
    return line_fields(3) if space == LINE else circle_fields(2)


def equivariance_defect(T: SymmetryMap, X: VectorField):
    """T o L_X - L_X o T on the safe sub-basis: one sparse column, a dict
    {coordinate on T.target: value}, per safe element, in order.

    All-zero columns are equivalent to equivariance at this truncation.

    T is assumed linear, so the column of a safe element b is assembled from
    sparse columns, vec T(L_X b) = sum_j vec(L_X b)_j vec T(e_j) and
    vec L_X T(b) = sum_j vec T(b)_j vec L_X(e_j), over single elements e_j
    of the basis and of the target window: T.image applies T once per
    element and map, and lie_entries reads each window L_X once per
    element and field off the ring window's product table.  An image
    T(e_j) or L_X(e_j) that leaves the window raises
    TruncationOverflowError; nothing is cut off.
    """
    basis = T.basis
    safe = basis.safe_indices(X)
    if not safe:
        raise TruncationOverflowError("no safe sub-basis: window M is too small")
    target = T.target
    cols = []
    for b in safe:
        col = {}
        for j, c in basis.lie_entries(X, b):
            for i, v in T.image(j):
                col[i] = col.get(i, 0) + c * v
        for j, c in T.image(b):
            for i, v in target.lie_entries(X, j):
                col[i] = col.get(i, 0) - c * v
        cols.append(col)
    return cols


def bilinear_defect(J, space: str, M: int, fields):
    """Equivariance defect of a bilinear operator on density pairs.

    Checks J(L_X phi, psi) + J(phi, L_X psi) = L_X J(phi, psi) on all pairs of
    basis densities whose products stay inside the window.  With A_phi =
    J(phi, .) and L_X the commutator action on operators, phi in D^0_{0,nu}
    among them, the defect is (A_{L_X phi} - L_X A_phi)(psi): one operator
    per field and phi.
    """
    check_window(J.order, M)
    monos = ring_basis(space, M)
    sizes = [ring_content_size(f) for f in monos]
    psis = [DensityOperator(0, J.lam, [f]) for f in monos]
    cols = []
    for X in fields:
        growth = ring_content_size(X.value)
        for f, size in zip(monos, sizes):
            # the constant has size 0, so a phi with room < 0 is in no pair
            room = M - growth - size
            if room < 0:
                continue
            phi = DensityOperator(0, J.nu, [f])
            D = (J.operator(lie_derivative_operator(X, phi))
                 - lie_derivative_operator(X, J.operator(phi)))
            cols += [ring_vector(apply(D, psi).coeffs[0], M)
                     for psi, s in zip(psis, sizes) if s <= room]
    return cols


# ----------------------------------------------------------------------
# the jet ansatz and the formal classification of local symmetries
# ----------------------------------------------------------------------

def formal_rows(k: int, lam, mu):
    """{(p, s, q, m): row over the t[r,l]}: the x^0 coefficient at d^m of
    T(L_X A) - L_X T(A) for X = (x^p/p!) d, A = (x^q/q!) d^s and p = 2, 3.
    A term (r, p', q', c) of lie_terms(s) adds perm(r,l) comb(l, p-p') c at
    t[r,l] when l = r - m = p-p' + q-q'.  t[s,l] sends A to perm(s,l)
    x^(q-l)/(q-l)! d^(s-l), so the term (m, p, q-l, c) of lie_terms(s-l)
    subtracts perm(s,l) c at t[s,l]."""
    lie = [{t[:3]: t[3] for t in lie_terms(i, rat(lam), rat(mu))} for i in range(k + 1)]
    index = {u: i for i, u in enumerate(component_unknowns(k))}
    rows = {}
    for p in (2, 3):
        for s in range(p - 1, k + 1):
            for q in range(s + 2 - p):
                m = s + 1 - p - q
                row = rows[p, s, q, m] = [0] * len(index)
                for (r, a, b), c in lie[s].items():
                    if a <= p and b <= q and r - m == p - a + q - b:
                        row[index[r, r - m]] += perm(r, r - m) * comb(r - m, p - a) * c
                for l in range(q + 1):
                    row[index[s, l]] -= perm(s, l) * lie[s - l].get((m, p, q - l), 0)
    return rows


def brute_force_local_symmetries(k: int, lam, mu):
    """Exact nullspace of the equivariance conditions on the jet ansatz t[r,l].

    Independent of the recurrence route.  For X = f d and A = sum_s a_s d^s,
    the defect T(L_X A) - L_X T(A) of the jet map T (componentwise_map) is
    sum coef(p,s,q,m) f^(p) a_s^(q) d^m with constant coefficients, linear in
    t.  Jets at a point can be chosen freely on the line and on the circle,
    so T commutes with every field on every operator, on either space, if
    and only if every coef vanishes.  At f = x^p/p! and a_s = x^q/q! the x^0
    coefficient at d^m is coef(p,s,q,m), nonzero only for p + q = s - m + 1.
    By translation invariance the rows up to p vanish exactly when T
    commutes with d, ..., x^p d.  The rows with p <= 1 vanish, as the ansatz
    commutes with d and x d, and [x^2 d, x^n d] = (n-2) x^(n+1) d, so the
    rows p = 2, 3 give every row.  One nullspace of formal_rows solves them
    all; it returns the solution vectors, in component_unknowns order.
    """
    return nullspace(list(formal_rows(k, lam, mu).values()), len(component_unknowns(k)))


# ----------------------------------------------------------------------
# invariant linear functionals on densities (truncated)
# ----------------------------------------------------------------------

def invariant_functionals_dimension(lam, N: int) -> int:
    """Dimension of the invariant functionals on trig densities of frequency <= N.

    Counts linear functionals on the order-0 window F_lam annihilating every
    Lie derivative computable inside it; the unique surviving functional at
    weight 1 is the integral of 1-forms.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    window = TruncatedBasis(0, N, CIRCLE, 0, lam)
    rows = [dense(window.lie_entries(X, j), window.dim)
            for X in circle_fields(N) for j in window.safe_indices(X)]
    return window.dim - rank(rows)
