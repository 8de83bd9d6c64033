"""Truncated test spaces for the verify checks, and the formal oracle.

Every identity in this package is a polynomial identity in finitely many
jets of the coefficients, so checking it exactly on a large enough truncated
basis is decisive.  The truncation is explicit: maps whose image leaves the
window raise instead of silently cutting off, and equivariance defects are
only ever evaluated on the sub-basis whose image provably stays inside.

Every SymmetryMap is a closed form, its terms into a target window: a
catalog endomorphism, the trace L too, is its catalog terms and a
projection its row's.  Conjugation off lam + mu = 1 and right composition
with d and its inverse land in sibling windows, and a composition, a sum
or a scaling of closed forms is one (operators.compose_terms and
sum_terms).  One kernel reads every windowed defect that verify checks, of
a map (equivariance_defect) and of a bilinear operator J as the map
phi -> J(phi, .) (bilinear_defect): the map's formal_defect, off lie_terms,
each of its products X^(p) a^(q) a row of the ring window's product table
(SymmetryMap.defect_columns).  The rows and a map's images (term_images)
are ints off the rings' rules on monomials (rings.monomial_derivative and
monomial_product), over one denominator per column set: no window builds
a ring element, and a value becomes a Fraction only in a reported defect.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, perm

from .densities import DensityOperator, VectorField, lie_terms
from .errors import (
    InapplicableSymmetryError, NotInKernelError, TruncationOverflowError, WeightMismatchError,
)
from .operators import (
    Projection, catalog_entry, component_unknowns, compose_terms, conjugation_terms, sum_terms,
)
from .linalg import nullspace, numerator_over, rank
from .rings import CIRCLE, LINE, PolyFn, TrigFn, monomial_derivative, monomial_product, rat


def ring_basis(space: str, M: int):
    """The window's monomials, m_t at the signed index signed_index(space, t):
    x^0..x^M on the line; 1, cos x, sin x, ... on the circle."""
    if space not in (LINE, CIRCLE):
        raise ValueError(f"unknown space {space!r}; use {CIRCLE!r} or {LINE!r}")
    ring = PolyFn if space == LINE else TrigFn
    return [ring.monomial(signed_index(space, t)) for t in range(ring_dim(space, M))]


def check_window(k: int, M: int, bilinear: bool = False):
    """Reject a window below M = k+4, the floor of the windowed identity
    checks and of the windowed oracle in tests/oracle.py (k is the order of
    the operators, or n, that of a bilinear operator)."""
    if M < k + 4:
        need = f"n+4 = {k + 4} for the bilinear order n = {k}" if bilinear else f"k+4 = {k + 4}"
        raise ValueError(f"window M={M} too small; need M >= {need}")


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

    Its columns sum rows of a product table, shared with its siblings
    (basis.densities(nu) among them), which have the same monomials: for
    each field X, the ring coordinates of X^(p) * m^(q), filled as the
    columns ask for them off the monomial rules, with no ring product or
    derivative, as integers over one denominator, product_den(X).
    """

    def __init__(self, k: int, M: int, space: str, lam, mu):
        self.k = k
        self.M = M
        self.space = space
        self.lam = rat(lam)
        self.mu = rat(mu)
        self.monomials = ring_basis(space, M)
        # (k, lam, mu) -> the window of D^k_{lam,mu}, one dict for the family
        self._siblings = {(k, self.lam, self.mu): self}
        # field -> (den, X's (signed index, int) terms,
        #           {(p, q, t): integer coordinates over den})
        self._products = {}

    def sibling(self, k: int, lam, mu) -> "TruncatedBasis":
        """The window of D^k_{lam,mu} on this ring window, one per module
        across the family (the basis itself at its own), so maps between
        siblings chain; the family shares one product table, so each ring
        product is multiplied once across the modules."""
        key = (k, rat(lam), rat(mu))
        if key not in self._siblings:
            window = self._siblings[key] = TruncatedBasis(k, self.M, self.space, *key[1:])
            window._products, window._siblings = self._products, self._siblings
        return self._siblings[key]

    def densities(self, nu) -> "TruncatedBasis":
        """F_nu as the order-0 window D^0_{0,nu}, sibling(0, 0, nu): its L_X,
        the operator action at order 0, is X a' + nu X' a."""
        return self.sibling(0, 0, nu)

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

    def product_den(self, X: VectorField) -> int:
        """The denominator of the product rows of X."""
        return self._table(X)[0]

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

    def columns(self, X: VectorField, sigma, elements):
        """For each of the elements m_t d^s, in order, the sparse column
        {coordinate: value * product_den(X)} of sum sigma[s][m, p, q, mean]
        X^(p) m_t^(q) at d^m: each product a table row (m_t^(None) is
        mean(m_t)), a mean its constant coordinate.  A row past the window,
        which no safe element has at p + q >= 1, raises TruncationOverflowError."""
        n, cols = len(self.monomials), []
        for b in elements:
            s, t = divmod(b, n)
            col = {}
            for (m, p, q, mean), c in sigma[s].items():
                # mean(m_t) is 1 at m_0 = 1 and 0 at every other monomial
                row = self.product_row(X, p, q or 0, t) if q is not None or t == 0 else ()
                if mean:
                    row = row[:1] if row and row[0][0] == 0 else ()
                elif row and row[-1][0] >= n:
                    raise overflow(self.space, abs(signed_index(self.space, row[-1][0])), self.M)
                for i, v in row:
                    i += m * n
                    col[i] = col.get(i, 0) + c * v
            cols.append(col)
        return cols


def term_images(basis: TruncatedBasis, terms):
    """(den, images) of the map A -> sum c a_r^(l) d^o over its terms (r, o,
    l, c): the image of each basis element m d^i, in order, as its nonzero
    (coordinate, value * den) entries, ascending, where den is the lcm of the
    terms' denominators.  A term at r = i adds c m^(l), one
    monomial_derivative, at d^o (l None: c mean(m)), so no ring element is
    built, and one below d^0 leaves every m d^i with no image (None).  The
    target window has the basis's monomials."""
    den = lcm(*[c.denominator for *_, c in terms])
    space, n = basis.space, len(basis.monomials)
    at = [[] for _ in range(basis.k + 1)]  # r -> (offset of d^o, l, c * den)
    for r, o, l, c in terms:
        if r <= basis.k:
            at[r].append((o * n, l, numerator_over(den, c)))

    def image(i, t):
        col = {}
        for s, l, c in at[i]:
            j, v = (0, int(t == 0)) if l is None else \
                monomial_derivative(space, signed_index(space, t), l)
            s += coordinate(space, j)
            col[s] = col.get(s, 0) + c * v
        return sorted((s, v) for s, v in col.items() if v)

    return den, [None if any(s < 0 for s, _, _ in at[i]) else image(i, t)
                 for i in range(basis.k + 1) for t in range(n)]


def projection_terms(b: TruncatedBasis, pi: Projection):
    """(target, terms) of pi: (r, 0, r-n, c_r) into b.densities(nu), or into b
    when (0, nu) is its weight pair.  pi of another module, or of an order
    below b's, raises WeightMismatchError."""
    if (pi.lam, pi.mu) != (b.lam, b.mu) or b.k > pi.k:
        raise WeightMismatchError(f"a projection of D^{pi.k}_{{{pi.lam},{pi.mu}}} "
                                  f"on a window of D^{b.k}_{{{b.lam},{b.mu}}}")
    target = b if (0, pi.nu) == (b.lam, b.mu) else b.densities(pi.nu)
    return target, pi.terms


class SymmetryMap:
    """A linear map from a truncated module into a window of its family, in
    closed form: closed = (target, terms), the target window (the basis for
    an endomorphism, basis.densities(nu) for a projection, or a sibling) and
    the terms that term_images reads with no ring element.  The catalog,
    projection_terms, conjugation_map and shift_map give them, and X @ Y,
    X + Y, X - Y and q * X are closed forms too (compose_terms, sum_terms).
    The images are sparse integer columns over one denominator den, built
    for every basis element the first time any of them is read; columns
    and flat() give the true values.
    """

    def __init__(self, basis: TruncatedBasis, closed, name="T"):
        self.basis = basis
        self.closed = closed
        self.name = name
        self._images = None  # per basis element: (coordinate, value * den) entries
        self._formal = None  # formal_defect of the terms

    def _load(self):
        """Build every image, in basis order."""
        if self._images is None:
            self._den, self._images = term_images(self.basis, self.closed[1])
        return self._images

    @property
    def target(self) -> TruncatedBasis:
        return self.closed[0]

    @property
    def den(self) -> int:
        """The common denominator of the image columns."""
        self._load()
        return self._den

    def image(self, j: int):
        """Nonzero (coordinate, value * den) entries of the image of element
        j, as ints; an element off the map's domain raises NotInKernelError."""
        image = self._load()[j]
        if image is None:
            raise NotInKernelError(f"{self.name} takes basis element {j} below d^0")
        return image

    @property
    def columns(self):
        n, den = self.target.dim, self.den
        return [dense([(t, Fraction(v, den)) for t, v in self.image(j)], n)
                for j in range(self.basis.dim)]

    def flat(self):
        return [v for col in self.columns for v in col]

    def __matmul__(self, other: "SymmetryMap") -> "SymmetryMap":
        if other.target is not self.basis:
            raise ValueError(f"cannot compose {self.name} after {other.name}: its target "
                             f"and the source of {self.name} are different bases")
        terms = compose_terms(self.closed[1], other.closed[1])
        return SymmetryMap(other.basis, (self.target, terms), f"{self.name}*{other.name}")

    def __add__(self, other):
        return _weighted_sum(f"({self.name}+{other.name})", [(1, self), (1, other)])

    def __sub__(self, other):
        return _weighted_sum(f"({self.name}-{other.name})", [(1, self), (-1, other)])

    def __mul__(self, scalar):
        return _weighted_sum(f"{scalar}*{self.name}", [(rat(scalar), self)])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.image(j) for j in range(self.basis.dim))

    def defect_columns(self, X: VectorField, elements):
        """(den, cols): T o L_X - L_X o T at each of the elements (safe
        indices of the basis), in order, one sparse column {coordinate on the
        target: int} each, den times the defect: the basis's columns of its
        formal_defect, read once per map.  An equivariant map's are empty."""
        b, t = self.basis, self.target
        if self._formal is None:
            self._formal = formal_defect(self.closed[1], (b.k, b.lam, b.mu), (t.lam, t.mu))
        den, sigma = self._formal
        return den * b.product_den(X), b.columns(X, sigma, elements)


def _weighted_sum(name, parts):
    """sum q X over the (q, X) of parts, maps of one basis into one target."""
    basis, target = parts[0][1].basis, parts[0][1].target
    if any(X.basis is not basis for _, X in parts):
        raise ValueError("maps live on different bases")
    if any(X.target is not target for _, X in parts):
        raise ValueError(f"{name} adds maps into different spaces")
    return SymmetryMap(basis, (target, sum_terms(
        [(r, o, l, q * c) for q, X in parts for r, o, l, c in X.closed[1]])), name)


def conjugation_map(b: TruncatedBasis) -> SymmetryMap:
    """A -> A*, from b into its sibling at (1-mu, 1-lam): conjugation_terms."""
    return SymmetryMap(b, (b.sibling(b.k, 1 - b.mu, 1 - b.lam), conjugation_terms(b.k)), "C")


def shift_map(b: TruncatedBasis, s: int) -> SymmetryMap:
    """Right composition with d (s = 1), D^k_{lam,mu} -> D^{k+1}_{lam-1,mu},
    or its inverse on Ker P0 (s = -1), D^k_{lam,mu} -> D^{k-1}_{lam+1,mu}:
    the terms (r, r+s, 0, 1).  The inverse would put a_0 below d^0, so an
    element at d^0 has no image: reading it raises NotInKernelError."""
    return SymmetryMap(b, (b.sibling(b.k + s, b.lam - s, b.mu),
                           [(r, r + s, 0, 1) for r in range(b.k + 1)]),
                       "delta" if s > 0 else "delta^-1")


def realize(name: str, basis: TruncatedBasis) -> SymmetryMap:
    """Realize a cataloged endomorphism or projection, by name, on the basis,
    in closed form, by its terms: an endomorphism's catalog terms, among them
    the trace L's one term (0, 1, None, 1), and a projection's Projection's."""
    entry = catalog_entry(name)
    if entry.kind == "bilinear":
        raise InapplicableSymmetryError(f"{name!r} is a bilinear map, not a map of one module")
    if not entry.exists(basis.k, basis.lam, basis.mu, basis.space):
        raise InapplicableSymmetryError(f"{name!r} is not defined at k={basis.k}, "
                                        f"({basis.lam},{basis.mu}) on the {basis.space}")
    k, lam, mu = basis.k, basis.lam, basis.mu
    if entry.kind == "projection":
        return SymmetryMap(basis, projection_terms(basis, entry.make(k, lam, mu)), name)
    return SymmetryMap(basis, (basis, entry.terms(k, lam, mu)), name)


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
    """T o L_X - L_X o T on the safe sub-basis: T.defect_columns as dicts
    {coordinate on T.target: value} of the nonzero values, one per safe
    element, in order; empty columns are equivariance at this truncation."""
    safe = T.basis.safe_indices(X)
    if not safe:
        raise TruncationOverflowError("no safe sub-basis: window M is too small")
    den, cols = T.defect_columns(X, safe)
    return [{i: Fraction(v, den) for i, v in col.items() if v} for col in cols]


def bilinear_defect(J, space: str, M: int, fields):
    """Equivariance defect of a bilinear operator on density pairs.

    J: F_nu x F_lam -> F_out_weight of order n is invariant exactly when
    T: phi -> J(phi, .) = sum_j c_j phi^(n-j) d^j, F_nu -> D^n_{lam,out_weight},
    is equivariant: as (L_X A)(psi) = L_X(A psi) - A(L_X psi), T's defect at
    phi, J(L_X phi, .) - L_X J(phi, .), takes psi to J(L_X phi, psi) +
    J(phi, L_X psi) - L_X J(phi, psi).  T is J.terms, (0, j, n-j, c_j),
    into the order-n sibling of the F_nu window; each nonzero term v m_t d^o
    of its T.defect_columns takes psi to v m_t psi^(o) (product_entries), in
    ints.  One dense column per field X, monomial phi and monomial psi, in
    that order, over the pairs whose every term stays inside the window.
    """
    check_window(J.order, M, bilinear=True)
    phis = TruncatedBasis(0, M, space, 0, J.nu)
    T = SymmetryMap(phis, (phis.sibling(J.order, J.lam, J.out_weight), J.terms), J.kind)
    size = len(phis.monomials)
    sizes = [abs(signed_index(space, t)) for t in range(size)]
    cols = []
    for X in fields:
        # the constant has size 0, so a phi with room < 0 is in no pair
        rooms = [(t, room) for t, s in enumerate(sizes) if (room := M - X.value.size - s) >= 0]
        den, defects = T.defect_columns(X, [t for t, _ in rooms])
        den *= 2 if space == CIRCLE else 1  # product_entries doubles on the circle
        for (_, room), defect in zip(rooms, defects):
            terms = [(*divmod(i, size), v) for i, v in defect.items() if v]  # (o, t, v)
            for s in range(size):
                if sizes[s] <= room:
                    col = {}
                    for o, t, v in terms:
                        for i, w in product_entries(space, [(signed_index(space, t), v)],
                                                    signed_index(space, s), o):
                            col[i] = col.get(i, 0) + w
                    cols.append(dense([(i, Fraction(v, den)) for i, v in col.items() if v], size))
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


def formal_defect(terms, source, target):
    """(den, sigma): T(L_X A) - L_X T(A) = sum sigma[s][m, p, q, mean]
    f^(p) a^(q) d^m / den at X = f d and A = a d^s, for T of the terms
    (r, o, l, c) from D^k_{lam,mu}, source = (k, lam, mu), into
    D_{lam',mu'}, target = (lam', mu'): the nonzero int coefficients, for
    each s <= k; a^(None) is mean(a), as in the terms, and mean marks
    mean(f^(p) a^(q)).  T's terms at r = m take each c' f^(p) a^(q) d^m of
    L_X(a d^s) (lie_terms(s, lam, mu)) to C(l,j) c c' f^(p+j) a^(q+l-j)
    d^o, by Leibniz; L_X takes each c a^(l) d^o of T(a d^s) to c c''
    f^(p') a^(l+q') d^m' over lie_terms(o, lam', mu'), a mean only at
    q' = 0.  No window or ring element is read.  A term below d^0 raises
    NotInKernelError: its elements have no image."""
    k, lam, mu = source
    scale = lcm(*[w.denominator for w in (lam, mu, *target)])
    den = lcm(*[c.denominator for *_, c in terms])
    at = [[] for _ in range(k + 1)]  # r -> T's (o, l, c * den) at a_r
    for r, o, l, c in terms:
        if r <= k:
            if o < 0:
                raise NotInKernelError(f"the term {(r, o, l, c)} lies below d^0")
            at[r].append((o, l, numerator_over(den, c)))

    def lie(i, lam, mu):  # lie_terms with its scalars times scale
        return [(m, p, q, numerator_over(scale, c)) for m, p, q, c in lie_terms(i, lam, mu)]

    out = {o: lie(o, *target) for row in at for o, _, _ in row}
    sigma = []
    for s in range(k + 1):
        col = {}
        for m, p, q, c1 in lie(s, lam, mu):  # T(L_X A)
            for o, l, c in at[m]:
                leibniz = [((o, p, q, True), 1)] if l is None else \
                    [((o, p + j, q + l - j, False), comb(l, j)) for j in range(l + 1)]
                for key, b in leibniz:
                    col[key] = col.get(key, 0) + b * c * c1
        for o, l, c in at[s]:  # - L_X T(A)
            for m, p, q, c2 in out[o]:
                if l is not None or not q:
                    key = (m, p, None if l is None else l + q, False)
                    col[key] = col.get(key, 0) - c * c2
        sigma.append({key: v for key, v in col.items() if v})
    return den * scale, sigma


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
    """dim - rank of the density window's L_X columns over the fields, its
    columns of lie_terms(0, 0, nu) in ints: the same rank."""
    scale = lcm(window.lam.denominator, window.mu.denominator)
    lie = [{(m, p, q, False): numerator_over(scale, c)
            for m, p, q, c in lie_terms(0, window.lam, window.mu)}]
    return window.dim - rank([dense(col.items(), window.dim) for X in fields
                              for col in window.columns(X, lie, window.safe_indices(X))])
