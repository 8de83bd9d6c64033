"""Truncated test spaces, matrix realizations, and brute-force equivariance.

Every identity in this package is a polynomial identity in finitely many
jets of the coefficients, so checking it exactly on a large enough truncated
basis is decisive.  The truncation is explicit: maps whose image leaves the
window raise instead of silently cutting off, and equivariance defects are
only ever evaluated on the sub-basis whose image provably stays inside.
"""
from __future__ import annotations

from fractions import Fraction

from . import rings
from .densities import (
    Density,
    DensityOperator,
    VectorField,
    apply,
    lie_derivative_density,
    lie_derivative_operator,
)
from .errors import InapplicableSymmetryError, TruncationOverflowError
from .operators import CATALOG
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
    """Reject a window below M = k+4, the floor of the brute-force oracle and
    of the windowed identity checks (k is the order of a bilinear operator)."""
    if M < k + 4:
        raise ValueError(f"window M={M} too small; need M >= k+4 = {k + 4}")


def ring_dim(space: str, M: int) -> int:
    return M + 1 if space == LINE else 2 * M + 1


def ring_entries(fn, M: int):
    """(coordinate, value) for the nonzero coordinates of ring_vector(fn, M)."""
    if fn.space == LINE:
        if fn.degree is not None and fn.degree > M:
            raise TruncationOverflowError(
                f"polynomial degree {fn.degree} exceeds the window M={M}"
            )
        return [(t, c) for t, c in enumerate(fn.coeffs) if c]
    if fn.max_frequency > M:
        raise TruncationOverflowError(
            f"frequency {fn.max_frequency} exceeds the window M={M}"
        )
    out = [(0, fn.mean_coeff)] if fn.mean_coeff else []
    out += [(2 * n - 1, c) for n, c in fn.cos.items()]
    out += [(2 * n, c) for n, c in fn.sin.items()]
    return out


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

    @property
    def dim(self) -> int:
        return (self.k + 1) * len(self.monomials)

    def entries_of(self, A: DensityOperator):
        """(coordinate, value) for the nonzero coordinates of vector_of(A)."""
        if (A.lam, A.mu) != (self.lam, self.mu):
            raise TruncationOverflowError("operator weights do not match the basis")
        if A.order > self.k and not all(c.is_zero for c in A.coeffs[self.k + 1:]):
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
                if max(ring_content_size(c) for c in b.coeffs) + growth <= self.M]

    def safe_elements(self, X: VectorField):
        """Basis elements whose image under the X-action stays in the window."""
        return [self.elements[j] for j in self.safe_indices(X)]


class SymmetryMap:
    """A linear map on a truncated module, carried as an exact callable.

    The map goes into the module or, for a projection, into the densities
    F_nu.  The image of each basis element is computed once per map and kept
    as a sparse column: coordinates on the basis for an operator, on the ring
    window for a density.  The matrix, flat() and the equivariance defects
    all read these columns.
    """

    def __init__(self, basis: TruncatedBasis, func, name="T"):
        self.basis = basis
        self.func = func
        self.name = name
        self.nu = None  # the weight of the images, once one is a density
        self._images = {}  # basis index -> (coordinate, value) entries

    def image(self, j: int):
        """Nonzero (coordinate, value) entries of the image of element j;
        an image that leaves the window raises TruncationOverflowError."""
        col = self._images.get(j)
        if col is None:
            image = self.func(self.basis.elements[j])
            if isinstance(image, Density):
                self.nu = image.weight
                col = ring_entries(image.value, self.basis.M)
            else:
                col = self.basis.entries_of(image)
            self._images[j] = col
        return col

    @property
    def target_dim(self) -> int:
        """Length of an image column; read it after an image is computed."""
        basis = self.basis
        return basis.dim if self.nu is None else ring_dim(basis.space, basis.M)

    @property
    def columns(self):
        images = [self.image(j) for j in range(self.basis.dim)]
        n = self.target_dim
        return [dense(col, n) for col in images]

    @property
    def matrix(self):
        cols = self.columns
        return [[cols[j][i] for j in range(len(cols))] for i in range(self.target_dim)]

    def flat(self):
        return [v for col in self.columns for v in col]

    def compose(self, other: "SymmetryMap") -> "SymmetryMap":
        if other.basis is not self.basis:
            raise ValueError("maps live on different bases")
        return SymmetryMap(
            self.basis, lambda A: self.func(other.func(A)),
            name=f"{self.name}*{other.name}",
        )

    __matmul__ = compose

    def __add__(self, other):
        return SymmetryMap(
            self.basis, lambda A: self.func(A) + other.func(A),
            name=f"({self.name}+{other.name})",
        )

    def __sub__(self, other):
        return SymmetryMap(
            self.basis, lambda A: self.func(A) - other.func(A),
            name=f"({self.name}-{other.name})",
        )

    def __mul__(self, scalar):
        q = rat(scalar)
        return SymmetryMap(self.basis, lambda A: q * self.func(A),
                           name=f"{scalar}*{self.name}")

    __rmul__ = __mul__

    def equals(self, other: "SymmetryMap") -> bool:
        return all(
            self.func(b) == other.func(b) for b in self.basis.elements
        )

    def is_zero(self) -> bool:
        return all(self.func(b).is_zero for b in self.basis.elements)


def realize(name: str, basis: TruncatedBasis) -> SymmetryMap:
    """Realize a cataloged endomorphism, by name, on the basis."""
    entry = CATALOG.get(name)
    if entry is None:
        raise KeyError(f"unknown catalog name {name!r}")
    if entry.kind != "endo":
        raise InapplicableSymmetryError(f"{name!r} is a {entry.kind}, not an endomorphism")
    if not entry.applies(basis.k, basis.lam, basis.mu, basis.space):
        raise InapplicableSymmetryError(
            f"{name!r} is not defined at k={basis.k}, "
            f"(lam, mu)=({basis.lam}, {basis.mu}) on the {basis.space}"
        )
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
    """Matrix of T o L_X - L_X o T on the safe sub-basis (columns per element).

    T maps into the operators or, as a projection, into the densities.  The
    zero matrix is equivalent to equivariance at this truncation.

    T is assumed linear, so the column of a safe element b is assembled from
    sparse columns, vec T(L_X b) = sum_j vec(L_X b)_j vec T(e_j) and
    vec L_X T(b) = sum_j vec T(b)_j vec L_X(e_j), over single basis elements
    e_j (monomials of F_nu for a projection): T.image applies T once per
    element and map, and L_X is applied once per element here.  An image
    T(e_j) or L_X(e_j) that leaves the window raises TruncationOverflowError;
    nothing is cut off.
    """
    basis = T.basis
    safe = basis.safe_indices(X)
    if not safe:
        raise TruncationOverflowError("no safe sub-basis: window M is too small")
    lie_ops, lie_densities = {}, {}

    def lie_op(j):
        if j not in lie_ops:
            lie_ops[j] = basis.entries_of(lie_derivative_operator(X, basis.elements[j]))
        return lie_ops[j]

    def lie_density(t):
        if t not in lie_densities:
            phi = Density(T.nu, basis.monomials[t])
            lie_densities[t] = ring_entries(lie_derivative_density(X, phi).value, basis.M)
        return lie_densities[t]

    cols = []
    for b in safe:
        col = {}
        for j, c in lie_op(b):
            for i, v in T.image(j):
                col[i] = col.get(i, 0) + c * v
        image = T.image(b)
        lie = lie_op if T.nu is None else lie_density
        for j, c in image:
            for i, v in lie(j):
                col[i] = col.get(i, 0) - c * v
        cols.append(col.items())
    n = T.target_dim
    return [dense(col, n) for col in cols]


def bilinear_defect(J, space: str, M: int, fields):
    """Equivariance defect of a bilinear operator on density pairs.

    Checks J(L_X phi, psi) + J(phi, L_X psi) = L_X J(phi, psi) on all pairs of
    basis densities whose products stay inside the window.  With A_phi =
    J(phi, .) and L_X acting on operators by the commutator, the defect is
    (A_{L_X phi} - L_X A_phi)(psi): one operator per field and phi.
    """
    check_window(J.order, M)
    monos = ring_basis(space, M)
    sizes = [ring_content_size(f) for f in monos]
    psis = [Density(J.lam, f) for f in monos]
    cols = []
    for X in fields:
        growth = ring_content_size(X.value)
        for f, size in zip(monos, sizes):
            # the constant has size 0, so a phi with room < 0 is in no pair
            room = M - growth - size
            if room < 0:
                continue
            phi = Density(J.nu, f)
            D = (J.operator(lie_derivative_density(X, phi))
                 - lie_derivative_operator(X, J.operator(phi)))
            cols += [ring_vector(apply(D, psi).value, M)
                     for psi, s in zip(psis, sizes) if s <= room]
    return cols


# ----------------------------------------------------------------------
# brute-force classification of local symmetries
# ----------------------------------------------------------------------

def falling(r: int, l: int) -> int:
    out = 1
    for t in range(l):
        out *= (r - t)
    return out


def component_unknowns(k: int):
    """Index map for the ansatz unknowns t[r,l], 0 <= l <= r <= k."""
    return [(r, l) for r in range(k + 1) for l in range(r + 1)]


def componentwise_map(t, k: int, lam, mu, space: str):
    """The translation/scaling-invariant ansatz as an operator map.

    t is a jet vector in component_unknowns order: t[r,l] multiplies D^l on
    the degree-r component, so the action on coefficient lists is
    (T A)_m = sum_l t[m+l,l] * fall(m+l, l) * a_{m+l}^(l).
    """
    lam, mu = rat(lam), rat(mu)
    terms = [(r, l, c * falling(r, l))
             for (r, l), c in zip(component_unknowns(k), t, strict=True) if c != 0]

    def act(A: DensityOperator) -> DensityOperator:
        out = [rings.zero(space) for _ in range(k + 1)]
        for r, l, c in terms:
            src = A.coefficient(r)
            if src.is_zero:
                continue
            out[r - l] = out[r - l] + c * src.diff(l)
        return DensityOperator(lam, mu, out)

    return act


def brute_force_fields(space: str):
    # the ansatz already commutes with d/dx and x d/dx, so only the
    # quadratic and cubic directions (or their trig stand-ins) constrain it
    if space == LINE:
        return [VectorField(PolyFn.monomial(2)), VectorField(PolyFn.monomial(3))]
    return [
        VectorField(TrigFn.cosine(1)), VectorField(TrigFn.sine(1)),
        VectorField(TrigFn.cosine(2)), VectorField(TrigFn.sine(2)),
    ]


def elementary_defects(basis: TruncatedBasis, X: VectorField):
    """The defects e(L_X b) - L_X(e(b)) of the elementary maps e = e_{r,l}
    (the componentwise map with t[r,l] = 1, every other unknown 0), for each
    b in basis.safe_elements(X) in order: {coordinate of basis.vector_of:
    {unknown index: value}}, nonzero entries only.

    By linearity, with one Lie derivative per safe element: e_{r,l}(A) is
    fall(r,l) a_r^(l) at d^(r-l), so every lhs is read off L_X b, and
    e_{r,l}(b) vanishes unless r is the order i of b = mono d^i, when it is
    fall(i,l) mono^(l) d^(i-l), a combination of safe elements whose images
    under L_X are already known.
    """
    M, n = basis.M, len(basis.monomials)
    idx = {u: j for j, u in enumerate(component_unknowns(basis.k))}
    safe = basis.safe_elements(X)
    images = {(b.order, b.coeffs[-1]): lie_derivative_operator(X, b) for b in safe}

    def add(eqs, j, slot, fn, scale):
        for m, v in ring_entries(fn, M):
            entries = eqs.setdefault(slot * n + m, {})
            entries[j] = entries.get(j, 0) + scale * v

    out = []
    for b in safe:
        eqs = {}
        i, mono = b.order, b.coeffs[-1]
        for r, a in enumerate(images[i, mono].coeffs):
            for l in range(r + 1):
                if a.is_zero:
                    break
                add(eqs, idx[r, l], r - l, a, falling(r, l))
                a = a.diff()
        for l in range(i + 1):
            for t, c in ring_entries(mono, M):
                for slot, a in enumerate(images[i - l, basis.monomials[t]].coeffs):
                    add(eqs, idx[i, l], slot, a, -falling(i, l) * c)
            mono = mono.diff()
        out.append({coord: nonzero for coord, entries in eqs.items()
                    if (nonzero := {j: v for j, v in entries.items() if v})})
    return out


def brute_force_local_symmetries(k: int, lam, mu, space: str = LINE, M: int | None = None):
    """Exact nullspace of the equivariance conditions on the truncated basis.

    Independent of the recurrence route: [e, L_X] = 0 is imposed on every
    safe basis element for the general componentwise map e, whose defect is
    linear in the unknowns t[r,l] (elementary_defects).  Each coordinate of
    a defect is one equation; equations proportional to one already kept are
    dropped, which leaves the row space, hence the nullspace, unchanged.
    Returns the solution vectors, in component_unknowns order.
    """
    if M is None:
        M = k + 4
    check_window(k, M)
    lam, mu = rat(lam), rat(mu)
    basis = TruncatedBasis(k, M, space, lam, mu)
    unknowns = component_unknowns(k)
    rows = {}  # each equation scaled to a leading 1, kept once, in order
    for X in brute_force_fields(space):
        for defects in elementary_defects(basis, X):
            for eq in defects.values():
                lead = eq[min(eq)]
                row = [Fraction(0)] * len(unknowns)
                for j, v in eq.items():
                    row[j] = v / lead
                rows[tuple(row)] = None
    return nullspace(list(rows), len(unknowns))


# ----------------------------------------------------------------------
# invariant linear functionals on densities (truncated)
# ----------------------------------------------------------------------

def invariant_functionals_dimension(lam, N: int) -> int:
    """Dimension of the invariant functionals on trig densities of frequency <= N.

    Counts linear functionals annihilating every Lie derivative computable
    inside the window; the unique surviving functional at weight 1 is the
    integral of 1-forms.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    lam = rat(lam)
    monos = ring_basis(CIRCLE, N)
    rows = []
    for X in circle_fields(N):
        n = ring_content_size(X.value)
        for mono in monos:
            if ring_content_size(mono) + n > N:
                continue
            phi = Density(lam, mono)
            rows.append(ring_vector(lie_derivative_density(X, phi).value, N))
    return ring_dim(CIRCLE, N) - rank(rows)
