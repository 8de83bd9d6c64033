"""Truncated test spaces for the verify checks, and the formal oracle.

Every identity in this package is a polynomial identity in finitely many
jets of the coefficients, so checking it exactly on a large enough truncated
basis is decisive.  The truncation is explicit: maps whose image leaves the
window raise instead of silently cutting off, and equivariance defects are
only ever evaluated on the sub-basis whose image provably stays inside.
One kernel, equivariance_defect, builds the windowed defect of every
linear map that verify checks, and bilinear_defect that of every bilinear
operator.  The formal oracle reads no window and builds no ring element.

The window's sparse columns, the L_X columns of a basis and the images of a
map, are integers over one denominator per column set, so the defect and
relation kernels multiply and add ints; a value becomes a Fraction only
when a defect is reported.  The ring products behind them, the product
table's rows and the bilinear J(m_a, m_b), are read off the rings' two
closed-form rules on monomials (rings.monomial_derivative and
monomial_product, which the ring product and derivative read too) in ints,
so the Lie actions of verify build no ring element.  Nor do the catalog's maps
onto a window: a local endomorphism is read off its jet and a projection
off its row (term_images, one monomial_derivative per term).  Only the maps
that leave the module on the way (C o C, the defining chain of S) and the
nonlocal trace L are applied as callables, to the basis elements as
operators, which a window builds only then.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, lcm, perm

from . import rings
from .densities import DensityOperator, VectorField, lie_terms
from .errors import InapplicableSymmetryError, TruncationOverflowError, WeightMismatchError
from .operators import Projection, catalog_entry, component_unknowns, componentwise_map
from .linalg import ZERO, nullspace, numerator_over, rank
from .rings import CIRCLE, LINE, PolyFn, TrigFn, monomial_derivative, monomial_product, rat


def ring_basis(space: str, M: int):
    """The window's monomials, m_t at the signed index signed_index(space, t):
    x^0..x^M on the line; 1, cos x, sin x, ... on the circle."""
    if space not in (LINE, CIRCLE):
        raise ValueError(f"unknown space {space!r}; use {CIRCLE!r} or {LINE!r}")
    ring = PolyFn if space == LINE else TrigFn
    return [ring.monomial(signed_index(space, t)) for t in range(ring_dim(space, M))]


def check_window(k: int, M: int):
    """Reject a window below M = k+4, the floor of the windowed identity
    checks and of the windowed oracle in tests/oracle.py (k is the order of
    the operators, or of a bilinear operator)."""
    if M < k + 4:
        raise ValueError(f"window M={M} too small; need M >= k+4 = {k + 4}")


def ring_dim(space: str, M: int) -> int:
    return M + 1 if space == LINE else 2 * M + 1


def coordinate(space: str, i: int) -> int:
    """The window coordinate of the monomial with signed index i: x^i on the
    line; on the circle 1, cos nx, sin nx have the signed indices 0, n, -n."""
    if space == LINE:
        return i
    return 2 * i - 1 if i > 0 else -2 * i


def signed_index(space: str, t: int) -> int:
    """The signed index of the monomial at window coordinate t."""
    if space == LINE:
        return t
    return (t + 1) // 2 if t % 2 else -(t // 2)


def ring_coordinates(fn):
    """(coordinate, value) for the nonzero coordinates of fn, ascending, in
    the monomial order of ring_basis on any window that holds fn."""
    return sorted((coordinate(fn.space, i), c) for i, c in fn.terms.items())


def product_entries(space: str, f, i: int, q: int):
    """(coordinate, value) for the nonzero coordinates, ascending, of
    f * m_i^(q), where f = sum c m_a over the (signed index a, int c) pairs
    of f; on the circle the values are those of twice the product."""
    b, v = monomial_derivative(space, i, q)
    col = {}
    if v:
        for a, u in f:
            for s, w in monomial_product(space, a, b):
                s = coordinate(space, s)
                col[s] = col.get(s, 0) + u * v * w
    return sorted((s, c) for s, c in col.items() if c)


def overflow(space: str, size: int, M: int) -> TruncationOverflowError:
    """The error for a ring element of degree or frequency size above M."""
    what = "polynomial degree" if space == LINE else "frequency"
    return TruncationOverflowError(f"{what} {size} exceeds the window M={M}")


def ring_entries(fn, M: int):
    """(coordinate, value) for the nonzero coordinates of fn on the window
    M, ascending, or overflow."""
    if fn.size > M:
        raise overflow(fn.space, fn.size, M)
    return ring_coordinates(fn)


def dense(entries, n: int):
    """The length-n vector with the given (coordinate, value) entries."""
    vec = [Fraction(0)] * n
    for t, c in entries:
        vec[t] = c
    return vec


class TruncatedBasis:
    """Finite model of D^k_{lam,mu}: elements b_{i,m} = monomial_m * d^i.

    Ordering is i ascending then m ascending; this ordering is part of any
    serialized output and must not change.

    Its L_X columns are integers over lie_den(X), one denominator per
    field: the lie_terms scalars are affine in (lam, mu) with integer
    coefficients, so lcm(den lam, den mu) clears them, and the rest clears
    the product rows.  Those rows come off a product table, which the basis
    shares with its density windows basis.densities(nu) and its reweighted
    siblings, as they have the same monomials: for each field X, the ring
    coordinates of X^(p) * m^(q) for the monomials m, filled as the columns
    ask for them, as integers over one denominator per field.  Each row is
    read off the monomial rules from X's terms, kept as integers over that
    denominator (product_row), with no ring product or derivative.
    """

    def __init__(self, k: int, M: int, space: str, lam, mu):
        self.k = k
        self.M = M
        self.space = space
        self.lam = rat(lam)
        self.mu = rat(mu)
        self.monomials = ring_basis(space, M)
        self._lie = {}  # field -> {element index: integer entries of L_X(element)}
        self._densities = {}  # weight nu -> the window of F_nu
        self._scale = lcm(self.lam.denominator, self.mu.denominator)
        self._terms = [[(m, p, q, numerator_over(self._scale, c))
                        for m, p, q, c in lie_terms(i, self.lam, self.mu)]
                       for i in range(k + 1)]
        # field -> (den, X's (signed index, int) terms,
        #           {(p, q, t): integer coordinates over den})
        self._products = {}

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

    def reweighted(self, lam, mu) -> "TruncatedBasis":
        """The window of D^k_{lam,mu} at this order on this ring window; it
        shares the basis's product table, so a check that reads several
        weights on one ring window multiplies each ring product once."""
        if (rat(lam), rat(mu)) == (self.lam, self.mu):
            return self
        basis = TruncatedBasis(self.k, self.M, self.space, lam, mu)
        basis._products = self._products
        return basis

    @cached_property
    def elements(self):
        """The basis elements as operators, built on first read: the window
        kernels read only the monomials."""
        z = rings.zero(self.space)
        return [DensityOperator(self.lam, self.mu, [z] * i + [mono])
                for i in range(self.k + 1) for mono in self.monomials]

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
        growth = max(X.value.size - (1 if self.space == LINE else 0), 0)
        n = len(self.monomials)
        return [i * n + t for i in range(self.k + 1) for t in range(n)
                if abs(signed_index(self.space, t)) + growth <= self.M]

    def _table(self, X: VectorField):
        """The product table of X: (den, X's terms, rows).  Derivatives
        keep X's denominators and a product of trig monomials halves its
        coefficients, so den is the lcm of X's coefficient denominators,
        doubled on the circle.  X's terms are (signed index, int) pairs over
        that lcm; the monomial product rule doubles on the circle, so the
        rows come out over den."""
        table = self._products.get(X)
        if table is None:
            terms = X.value.terms
            den = lcm(*[c.denominator for c in terms.values()])
            table = self._products[X] = (
                den * (2 if self.space == CIRCLE else 1),
                [(i, numerator_over(den, c)) for i, c in terms.items()], {})
        return table

    def lie_den(self, X: VectorField) -> int:
        """The denominator of the lie_entries columns of X."""
        return self._scale * self._table(X)[0]

    def product_row(self, X: VectorField, p: int, q: int, t: int):
        """The table row of X^(p) m_t^(q): its nonzero ring coordinates,
        ascending, times the table's den, as ints; filled once per table."""
        _, terms, rows = self._table(X)
        row = rows.get((p, q, t))
        if row is None:
            der = [(j, c * v) for i, c in terms
                   for j, v in [monomial_derivative(self.space, i, p)] if v]
            row = rows[p, q, t] = product_entries(
                self.space, der, signed_index(self.space, t), q)
        return row

    def lie_entries(self, X: VectorField, j: int):
        """entries_of(L_X of element j) times lie_den(X), as ints, computed
        once per field and element.

        For e_j = m d^i the column sums the product table's rows X^(p) m^(q),
        each times its scalar c, over the terms (m', p, q, c) of
        lie_terms(i, lam, mu).  A product may reach past the window; only a
        nonzero coordinate past it that survives the sum raises
        TruncationOverflowError, as entries_of(lie_derivative_operator(X,
        e_j)) does.
        """
        lie = self._lie.setdefault(X, {})
        if j not in lie:
            n = len(self.monomials)
            i, t = divmod(j, n)
            col = {}
            for m, p, q, c in self._terms[i]:
                for s, v in self.product_row(X, p, q, t):
                    v *= c
                    col[m, s] = col[m, s] + v if (m, s) in col else v
            past = [(m, s) for (m, s), v in col.items() if v and s >= n]
            if past:
                first = min(past)[0]
                s = max(s for m, s in past if m == first)
                raise overflow(self.space, abs(signed_index(self.space, s)), self.M)
            lie[j] = sorted((m * n + s, v) for (m, s), v in col.items() if v)
        return lie[j]


def term_images(basis: TruncatedBasis, terms):
    """(den, images) of the map A -> sum c a_r^(l) d^o over its terms (r, o,
    l, c), at most one term per (r, o): the image of each basis element
    m d^i, in order, as its nonzero (coordinate, value * den) entries,
    ascending, where den is the lcm of the terms' denominators.  A term at
    r = i puts c m^(l), one monomial_derivative, at d^o, so no ring element
    is built; the target window has the basis's monomials."""
    den = lcm(*[c.denominator for *_, c in terms])
    space, n = basis.space, len(basis.monomials)
    at = [[] for _ in range(basis.k + 1)]  # r -> (offset of d^o, l, c * den)
    for r, o, l, c in sorted(terms):
        if r <= basis.k:
            at[r].append((o * n, l, numerator_over(den, c)))
    return den, [[(shift + coordinate(space, j), c * v) for shift, l, c in at[i]
                  for j, v in [monomial_derivative(space, signed_index(space, t), l)] if v]
                 for i in range(basis.k + 1) for t in range(n)]


class SymmetryMap:
    """A linear map on a truncated module, carried as its sparse columns.

    The columns are coordinates on its target window: the basis itself when
    the images lie in the basis's module D_{lam,mu}, else
    basis.densities(nu) for images in D^0_{0,nu} (F_nu as the order-0
    window), as a projection's.  Each image is a sparse column of integers
    over one denominator den, built for every basis element the first time
    any column, the target or den is read.  Two kinds of map are read in
    closed form, by term_images, with no ring element and without func:
    a map given with its jet t (func is then the jet's map), whose terms are
    (r, r-l, l, t[r,l] perm(r,l)) into the basis, and a Projection, whose
    row gives the terms (r, 0, r-n, c_r) into basis.densities(nu), or into
    the basis when (0, nu) is its weight pair.  Any other func is applied
    once per basis element, and den is the lcm over its images: the maps
    that leave the module on the way (C o C, the chain of S) and the
    nonlocal trace L.  X @ Y, X + Y, X - Y and q * X are built from their
    operands' columns, apply no callable and keep no column of their own.
    The equivariance defects and the relation checks read the integer
    columns; columns and flat() give the true values.
    """

    def __init__(self, basis: TruncatedBasis, func, name="T", jet=None):
        self.basis = basis
        self.func = func
        self.name = name
        self.jet = jet
        self._target = None
        self._images = None  # per basis element: (coordinate, value * den) entries

    def _load(self):
        """Build every image, in basis order."""
        if self._images is None:
            if self.jet is None and not isinstance(self.func, Projection):
                self._apply()
            else:
                self._target, terms = self._terms()
                self._den, self._images = term_images(self.basis, terms)
        return self._images

    def _terms(self):
        """(target, terms) of the closed form: of the jet, or of the Projection."""
        b, pi = self.basis, self.func
        if self.jet is not None:
            return b, [(r, r - l, l, c * perm(r, l)) for (r, l), c
                       in zip(component_unknowns(b.k), self.jet, strict=True) if c]
        if (pi.lam, pi.mu) != (b.lam, b.mu) or b.k > pi.k:
            raise WeightMismatchError(f"a projection of D^{pi.k}_{{{pi.lam},{pi.mu}}} "
                                      f"on a window of D^{b.k}_{{{b.lam},{b.mu}}}")
        target = b if (0, pi.nu) == (b.lam, b.mu) else b.densities(pi.nu)
        return target, [(r, 0, r - pi.n, c) for r, c in pi.row]

    def _apply(self):
        """Apply func to every basis element; an image that leaves the
        window raises TruncationOverflowError."""
        b, cols = self.basis, []
        for element in b.elements:
            image = self.func(element)
            if self._target is None:
                self._target = (b if (image.lam, image.mu) == (b.lam, b.mu)
                                else b.densities(image.mu))
            cols.append(self._target.entries_of(image))
        den = self._den = lcm(*[v.denominator for col in cols for _, v in col])
        self._images = [[(t, numerator_over(den, v)) for t, v in col] for col in cols]

    @property
    def target(self) -> TruncatedBasis:
        self._load()
        return self._target

    @property
    def den(self) -> int:
        """The common denominator of the image columns."""
        self._load()
        return self._den

    def image(self, j: int):
        """Nonzero (coordinate, value * den) entries of the image of element
        j, as ints."""
        return self._load()[j]

    @property
    def columns(self):
        n, den = self.target.dim, self.den
        return [dense([(t, Fraction(v, den)) for t, v in self.image(j)], n)
                for j in range(self.basis.dim)]

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
    meaning the identity: each image is read off the operands' columns.

    A term is over c.den * outer.den * inner.den, so the combination is over
    their lcm, den, and each term's scalar becomes the integer that puts it
    over den."""

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
        dens = [c.denominator * outer.den * (1 if inner is None else inner.den)
                for c, outer, inner in terms]
        self._den = lcm(*dens)
        self._scaled = [(c.numerator * (self._den // d), outer, inner)
                        for (c, outer, inner), d in zip(terms, dens)]

    @property
    def target(self) -> TruncatedBasis:
        return self.terms[0][1].target

    @property
    def den(self) -> int:
        return self._den

    def image(self, j: int):
        col = {}
        for c, outer, inner in self._scaled:
            for i, v in [(j, 1)] if inner is None else inner.image(j):
                v *= c
                for t, w in outer.image(i):
                    col[t] = col.get(t, 0) + v * w
        return [(t, v) for t, v in col.items() if v]


def realize(name: str, basis: TruncatedBasis) -> SymmetryMap:
    """Realize a cataloged endomorphism or projection, by name, on the basis:
    a local endomorphism by its jet, read off the entry's jet, a projection
    by the Projection its make returns, both in closed form; the trace L by
    its callable."""
    entry = catalog_entry(name)
    if entry.kind == "bilinear":
        raise InapplicableSymmetryError(f"{name!r} is a bilinear map, not a map of one module")
    if not entry.exists(basis.k, basis.lam, basis.mu, basis.space):
        raise InapplicableSymmetryError(f"{name!r} is not defined at k={basis.k}, "
                                        f"({basis.lam},{basis.mu}) on the {basis.space}")
    k, lam, mu = basis.k, basis.lam, basis.mu
    if entry.jet is not None:
        t = entry.jet(k, lam, mu)
        return SymmetryMap(basis, componentwise_map(t, k, lam, mu), name=name, jet=t)
    return SymmetryMap(basis, entry.make(k, lam, mu), name=name)


# ----------------------------------------------------------------------
# generator families and equivariance defects
# ----------------------------------------------------------------------

def line_fields(max_degree: int = 3):
    """d/dx, x d/dx, ..., x^max_degree d/dx, in ring_basis order."""
    return [VectorField(m) for m in ring_basis(LINE, max_degree)]


def circle_fields(N: int = 2):
    """d/dx plus cos(nx) d/dx, sin(nx) d/dx for 1 <= n <= N, in ring_basis order."""
    if N < 2:
        raise ValueError("the circle family needs N >= 2")
    return [VectorField(m) for m in ring_basis(CIRCLE, N)]


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

    Both sums run in integers: T's columns are over T.den and the two L_X
    over their lie_den, so each sum is put over T.den times the lcm of the
    two, and each nonzero entry is divided once at the end.
    """
    basis = T.basis
    safe = basis.safe_indices(X)
    if not safe:
        raise TruncationOverflowError("no safe sub-basis: window M is too small")
    target = T.target
    dx, dt = basis.lie_den(X), target.lie_den(X)
    den = lcm(dx, dt)
    sx, st = den // dx, den // dt
    cols = []
    for b in safe:
        col = {}
        for j, c in basis.lie_entries(X, b):
            c *= sx
            for i, v in T.image(j):
                col[i] = col.get(i, 0) + c * v
        for j, c in T.image(b):
            c *= st
            for i, v in target.lie_entries(X, j):
                col[i] = col.get(i, 0) - c * v
        cols.append(col)
    den *= T.den
    return [{i: Fraction(v, den) if v else ZERO for i, v in col.items()} for col in cols]


def bilinear_entries(space: str, row, a: int, b: int):
    """J(m_a, m_b) = sum_j c_j m_a^(n-j) m_b^(j) for the int row (c_0, ...,
    c_n) and signed indices a, b, as (coordinate, value) for its nonzero
    coordinates; on the circle the values are those of twice J(m_a, m_b)."""
    n = len(row) - 1
    col = {}
    for j, c in enumerate(row):
        x, u = monomial_derivative(space, a, n - j)
        if c and u:
            for s, v in product_entries(space, [(x, c * u)], b, j):
                col[s] = col.get(s, 0) + v
    return [(s, v) for s, v in col.items() if v]


def bilinear_defect(J, space: str, M: int, fields):
    """Equivariance defect of a bilinear operator on density pairs.

    Checks J(L_X phi, psi) + J(phi, L_X psi) = L_X J(phi, psi) on all pairs of
    basis densities whose products stay inside the window: one dense column
    per field X, monomial phi and monomial psi, in that order.  The three
    L_X are the lie_entries of the windows of F_nu, F_lam and F_out_weight,
    which share one product table, and J is read on monomial pairs,
    J(m_a, m_b) once per pair and call (bilinear_entries), so each column is
    a sum of ints over one denominator, divided once per entry.  The room
    filter keeps every term of the sum inside the window.
    """
    check_window(J.order, M)
    left = TruncatedBasis(0, M, space, 0, J.nu)
    right, out = (left.reweighted(0, w) for w in (J.lam, J.out_weight))
    jden = lcm(*[c.denominator for c in J.row])
    row = [numerator_over(jden, c) for c in J.row]
    jden *= 2 if space == CIRCLE else 1
    pairs = {}  # (coordinate a, coordinate b) -> entries of J(m_a, m_b) times jden

    def j_entries(a, b):
        if (a, b) not in pairs:
            pairs[a, b] = bilinear_entries(space, row, signed_index(space, a),
                                           signed_index(space, b))
        return pairs[a, b]

    n = ring_dim(space, M)
    sizes = [abs(signed_index(space, t)) for t in range(n)]
    cols = []
    for X in fields:
        dens = [w.lie_den(X) for w in (left, right, out)]
        den = lcm(*dens)
        sl, sr, so = (den // d for d in dens)
        den *= jden
        growth = X.value.size
        for t, size in enumerate(sizes):
            # the constant has size 0, so a phi with room < 0 is in no pair
            room = M - growth - size
            if room < 0:
                continue
            lie_phi = [(a, u * sl) for a, u in left.lie_entries(X, t)]
            for s in range(n):
                if sizes[s] > room:
                    continue
                col = {}
                for a, u in lie_phi:  # J(L_X phi, psi)
                    for i, v in j_entries(a, s):
                        col[i] = col.get(i, 0) + u * v
                for b, u in right.lie_entries(X, s):  # J(phi, L_X psi)
                    u *= sr
                    for i, v in j_entries(t, b):
                        col[i] = col.get(i, 0) + u * v
                for c, u in j_entries(t, s):  # L_X J(phi, psi)
                    u *= so
                    for i, v in out.lie_entries(X, c):
                        col[i] = col.get(i, 0) - u * v
                cols.append(dense([(i, Fraction(v, den)) for i, v in col.items() if v], n))
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
    return _functionals_dimension(TruncatedBasis(0, N, CIRCLE, 0, 0).densities(lam),
                                  circle_fields(N))


def _functionals_dimension(window: TruncatedBasis, fields) -> int:
    """dim - rank of the density window's L_X columns over the fields."""
    # each row is a column of L_X times lie_den(X), which leaves the rank alone
    rows = [dense(window.lie_entries(X, j), window.dim)
            for X in fields for j in window.safe_indices(X)]
    return window.dim - rank(rows)
