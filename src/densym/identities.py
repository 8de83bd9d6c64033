"""Named exact identity checks, shared by the CLI and the acceptance suite.

A check runs an exact computation on a truncated basis and reports the worst
absolute defect (0 required), the basis size, and the number of identity
instances checked.  Nothing here is approximate.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from operator import add
from typing import Callable

from .densities import DensityOperator, apply, pairing
from .linalg import max_abs, nullspace, rank
from .operators import (
    CATALOG,
    catalog_entry,
    component_unknowns,
    conjugate,
    second_analog_locus,
    v_formula,
    w_coefficients,
    w_formula,
    wilmod_weights,
)
from .recurrence import build_system, check_module
from .rings import CIRCLE, LINE, TrigFn
from .truncation import (
    SymmetryMap,
    TruncatedBasis,
    _functionals_dimension,
    bilinear_defect,
    brute_force_local_symmetries,
    check_window,
    circle_fields,
    conjugation_map,
    equivariance_defect,
    generator_family,
    line_fields,
    projection_terms,
    realize,
    ring_dim,
    shift_map,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    defect: Fraction
    basis_size: int
    entries: int
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = (f"{self.name}: {status}, defect {self.defect}, "
               f"{self.entries} entries checked, basis size {self.basis_size}")
        if self.detail:
            out += f" ({self.detail})"
        return out


@dataclass
class CheckConfig:
    k: int | None = None
    lam: Fraction | None = None
    mu: Fraction | None = None
    space: str | None = None
    M: int | None = None

    def space_or(self, default: str = CIRCLE) -> str:
        """The space asked for, else the check's own default."""
        return default if self.space is None else self.space


def _window(k, M=None) -> int:
    """The window M of a windowed check at order k: k+6 by default, never below k+4."""
    M = k + 6 if M is None else M
    check_window(k, M)
    return M


def _bilinear_window(cfg) -> int:
    """The window of a bilinear check: M = 8 by default, at least n+4."""
    return 8 if cfg.M is None else cfg.M


def reject_unread(cfg, name, why, *fields):
    """Reject the CheckConfig fields among `fields` that were set, naming
    their flags: the check `name` does not read them, for the reason `why`."""
    given = [flag for field, flag in (("k", "-k"), ("lam", "--lambda"), ("mu", "--mu"),
                                      ("space", "--space"), ("M", "-M"))
             if field in fields and getattr(cfg, field) is not None]
    if given:
        raise ValueError(f"{name} {why}; {' and '.join(given)} "
                         f"{'does' if len(given) == 1 else 'do'} not apply")


def _circle_only(cfg, name, why):
    """Reject --space line for a check that exists only on the circle."""
    if cfg.space_or() != CIRCLE:
        raise ValueError(f"{name} is circle-only: {why}, not on the {cfg.space_or()}")


# ----------------------------------------------------------------------
# relations among maps of one module, checked on a truncated basis
# ----------------------------------------------------------------------

HYPERBOLA_POINTS = [
    (Fraction(1, 3), Fraction(7, 6)),
    (Fraction(1), Fraction(5, 4)),
    (Fraction(2, 3), Fraction(11, 9)),
]

CONJUGATION_LINE_POINTS = [
    (Fraction(1, 5), Fraction(4, 5)),
    (Fraction(-3, 7), Fraction(10, 7)),
    (Fraction(2), Fraction(-1)),
]

GENERIC_POINTS = [
    (Fraction(1, 3), Fraction(1, 5)),
    (Fraction(2, 7), Fraction(9, 5)),
    (Fraction(-3, 5), Fraction(7, 11)),
    (Fraction(5, 2), Fraction(-3, 7)),
    (Fraction(7, 4), Fraction(1, 6)),
]

SHIFT_LINE_POINTS = [  # mu - lambda = 2, away from 0, -1/2, -1
    (Fraction(1, 5), Fraction(11, 5)),
    (Fraction(-4, 7), Fraction(10, 7)),
    (Fraction(3, 2), Fraction(7, 2)),
]

MULT_TABLE_01 = {
    # entry (row X, col Y) is X o Y, as a combination of the six generators
    "Id": {"Id": {"Id": 1}, "P0": {"P0": 1}, "C": {"C": 1},
           "P0star": {"P0star": 1}, "P1": {"P1": 1}, "L": {"L": 1}},
    "P0": {"Id": {"P0": 1}, "P0": {"P0": 1}, "C": {"P0star": 1},
           "P0star": {"P0star": 1}, "P1": {}, "L": {}},
    "C": {"Id": {"C": 1}, "P0": {"P0": 1}, "C": {"Id": 1},
          "P0star": {"P0star": 1},
          "P1": {"P0star": 1, "P1": -1, "P0": -1}, "L": {"L": -1}},
    "P0star": {"Id": {"P0star": 1}, "P0": {"P0": 1}, "C": {"P0": 1},
               "P0star": {"P0star": 1}, "P1": {"P0star": 1, "P0": -1}, "L": {}},
    "P1": {"Id": {"P1": 1}, "P0": {}, "C": {"P1": -1}, "P0star": {},
           "P1": {"P1": 1}, "L": {"L": 1}},
    "L": {"Id": {"L": 1}, "P0": {"L": 1}, "C": {"L": 1}, "P0star": {"L": 1},
          "P1": {}, "L": {}},
}


def _mult_table_pairs(basis, *maps):
    """X o Y and its MULT_TABLE_01 entry, for every row X and column Y; the
    catalog maps come in the order of the table's rows."""
    gen = dict(zip(MULT_TABLE_01, maps))
    return [(gen[row] @ gen[col],
             reduce(add, (c * gen[n] for n, c in combo.items())) if combo else None)
            for row, cols in MULT_TABLE_01.items() for col, combo in cols.items()]


@dataclass
class Relation:
    """Relations lhs = rhs among maps of D^k_{lam,mu}, each checked on every
    element of the truncated basis at each weight point.

    At each point, pairs receives the TruncatedBasis and the maps of `uses`
    realized on it, and returns [(lhs, rhs)]: SymmetryMaps on that basis, rhs
    None meaning 0; lhs - rhs is one closed form, read once, and a chain
    that leaves the module composes maps between sibling windows.  Apply
    delta^-1 after the projection onto Ker P0, never distributed across it:
    its guard below d^0 never cancels: X o Id - X o P0 raises when read."""

    k: int  # the order the relations are stated at
    points: list  # the weight points (lam, mu)
    pairs: Callable  # (basis, *maps) -> [(lhs, rhs)]
    uses: tuple = ()  # catalog names: their maps, built once per point, follow basis
    per_element: bool = False  # an entry is a basis element, not a (point, pair)
    any_order: bool = False  # the relations hold at every order; k is a default


def _s_chain(basis):
    """S of D^k_{0,0} by its chain -C o delta^-1 o (Id - P0) o C o delta o C."""
    C = conjugation_map(basis)                       # D^k_{1,1}
    delta = shift_map(C.target, 1)                   # D^{k+1}_{0,1}
    w = delta.target
    inverse = shift_map(w, -1)                       # Ker P0 -> D^k_{1,1}
    return (-1 * conjugation_map(inverse.target) @ inverse
            @ (realize("Id", w) - realize("P0", w)) @ realize("C", w) @ delta @ C)


RELATIONS = {
    # C leaves the module off lam + mu = 1: C o C passes through its sibling
    "conj_involution": Relation(
        3, [(Fraction(1, 4), Fraction(3, 4)), (Fraction(2, 7), Fraction(3, 5))],
        lambda basis, Id: [(conjugation_map((C := conjugation_map(basis)).target) @ C, Id)],
        uses=("Id",), per_element=True, any_order=True),
    "mult_table_01": Relation(
        4, [(Fraction(0), Fraction(1))], _mult_table_pairs, uses=tuple(MULT_TABLE_01),
        any_order=True),
    "s_relations": Relation(
        5, [(Fraction(0), Fraction(0))],
        lambda basis, S, P0, Id: [
            (S @ S, Id), (P0 @ S, P0), (S @ P0, P0), (P0 @ P0, P0), (S, _s_chain(basis)),
        ], uses=("S", "P0", "Id"), any_order=True),
    "calw_square": Relation(
        3, HYPERBOLA_POINTS,
        lambda basis, W: [(W @ W, w_coefficients(3, basis.lam)[2] / 4
                           * (basis.mu - basis.lam - 1) * W)], uses=("calW",)),
    "calv_square": Relation(
        2, GENERIC_POINTS,
        lambda basis, V: [(V @ V, (basis.mu - basis.lam - 1)
                           * (basis.mu - basis.lam - 2) * V)], uses=("calV",)),
    # the exact combination is L(2L+1)(Id - C); the square relation pins the
    # sign (see the regression test for the opposite variant)
    "calv_conjugation_line": Relation(
        2, CONJUGATION_LINE_POINTS,
        lambda basis, V, Id, C: [(V, basis.lam * (2 * basis.lam + 1) * (Id - C))],
        uses=("calV", "Id", "C")),
    "jv_square_zero": Relation(
        3, SHIFT_LINE_POINTS, lambda basis, J: [(J @ J, None)], uses=("JV",)),
    "gv_relations": Relation(
        4, [(Fraction(-2, 3), Fraction(5, 3))],
        lambda basis, G, C: [(G @ C, -1 * G), (C @ G, -1 * G), (G @ G, G)],
        uses=("GV", "C")),
    "jw_relations": Relation(
        4, [(Fraction(0), Fraction(5, 4))],
        lambda basis, J, P0: [(J @ J, J), (J @ P0, None), (P0 @ J, None), (P0 @ P0, P0)],
        uses=("JW", "P0")),
    "jsigma_relations": Relation(
        3, [(Fraction(0), Fraction(3))],
        lambda basis, J, P0: [(J @ J, None), (J @ P0, None), (P0 @ J, None)],
        uses=("Jsigma", "P0")),
    "jv_conj_relations": Relation(
        3, [(Fraction(-1, 2), Fraction(3, 2))],
        lambda basis, J, C: [(J @ C, J), (C @ J, -1 * J)], uses=("JV", "C")),
    "gsigma_decomposition": Relation(
        3, [(Fraction(-2, 3), Fraction(5, 3))],
        lambda basis, G, W, Id, C: [(G, Fraction(1, 2) * (Id - C) - Fraction(9, 4) * W)],
        per_element=True, uses=("Gsigma", "calW", "Id", "C")),
}


def _run_relation(name: str, cfg: CheckConfig) -> CheckResult:
    """Worst defect of one RELATIONS row over its points, pairs and basis."""
    row = RELATIONS[name]
    reject_unread(cfg, name, "is checked at its own weights", "lam", "mu")
    if not row.any_order and cfg.k not in (None, row.k):
        raise ValueError(f"{name} is stated at order k={row.k}, not k={cfg.k}")
    k = row.k if cfg.k is None else cfg.k
    worst = Fraction(0)
    size = entries = 0
    for lam, mu in row.points:
        basis = TruncatedBasis(k, _window(k, cfg.M), cfg.space_or(), lam, mu)
        size = basis.dim
        maps = [realize(n, basis) for n in row.uses]
        for lhs, rhs in row.pairs(basis, *maps):
            defect = lhs if rhs is None else lhs - rhs
            # the columns are integers over defect.den: divide the largest once
            top = max((abs(v) for j in range(size) for _, v in defect.image(j)), default=0)
            worst = max(worst, Fraction(top, defect.den))
            entries += size if row.per_element else 1
    return CheckResult(name, worst == 0, worst, size, entries)


def check_mult_table_01(cfg: CheckConfig) -> CheckResult:
    k = RELATIONS["mult_table_01"].k if cfg.k is None else cfg.k
    if k < 1:
        raise ValueError(f"mult_table_01 needs k >= 1 for P1 and L, got k={k}")
    _circle_only(cfg, "mult_table_01", "the trace L exists only on the circle")
    result = _run_relation("mult_table_01", cfg)
    result.detail = f"k={k}, M={_window(k, cfg.M)}"
    return result


# ----------------------------------------------------------------------
# individual checks
# ----------------------------------------------------------------------

def check_adjoint_pairing(cfg: CheckConfig) -> CheckResult:
    reject_unread(cfg, "adjoint_pairing", "draws its own operators", "k", "lam", "mu", "M")
    _circle_only(cfg, "adjoint_pairing", "the pairing is the mean over the circle")
    rng = random.Random(987123)
    worst = Fraction(0)
    n = 20
    for _ in range(n):
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        mu = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        k = rng.randint(0, 3)
        A = DensityOperator(lam, mu, [_random_trig(rng, 2) for _ in range(k + 1)])
        phi = DensityOperator(0, 1 - mu, [_random_trig(rng, 2)])
        psi = DensityOperator(0, lam, [_random_trig(rng, 2)])
        lhs = pairing(apply(conjugate(A), phi), psi)
        rhs = pairing(phi, apply(A, psi))
        worst = max(worst, abs(lhs - rhs))
    return CheckResult("adjoint_pairing", worst == 0, worst, 0, n)


def _random_trig(rng, max_freq):
    cos = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
           for n in range(1, max_freq + 1)}
    sin = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
           for n in range(1, max_freq + 1)}
    return TrigFn(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), cos, sin)


def check_w_sharpness(cfg: CheckConfig) -> CheckResult:
    reject_unread(cfg, "w_sharpness", "is checked at its own weights", "lam", "mu")
    k = 4 if cfg.k is None else cfg.k
    on_points = [
        (Fraction(0), Fraction(5, 4)),
        (Fraction(1, 3), Fraction(25, 18)),
        (Fraction(-1, 3), Fraction(5, 6)),
    ]
    off_points = [
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 3), Fraction(2)),
        (Fraction(-1, 3), Fraction(0)),
    ]
    fields = generator_family(cfg.space_or())
    worst_on = Fraction(0)
    ok_off = True
    size = 0
    window = None  # the first point's; every point's window shares its product table
    for points, expect_zero in ((on_points, True), (off_points, False)):
        for lam, mu in points:
            if (second_analog_locus(k, lam, mu) == 0) != expect_zero:
                where = "off" if expect_zero else "on"
                raise ValueError(f"w_sharpness needs k=4: ({lam},{mu}) is {where} "
                                 f"the order-{k} locus")
            if window is None:
                window = TruncatedBasis(k, _window(k, cfg.M), cfg.space_or(), lam, mu)
            basis = window.sibling(k, lam, mu)
            W = SymmetryMap(basis, projection_terms(basis, w_formula(k, lam, mu)), "W")
            size = W.basis.dim
            defect = Fraction(0)
            for X in fields:
                defect = max(defect, max_abs(v.values() for v in equivariance_defect(W, X)))
                if defect and not expect_zero:
                    break  # off the locus only defect != 0 is asked
            if expect_zero:
                worst_on = max(worst_on, defect)
            else:
                ok_off = ok_off and defect != 0
    passed = worst_on == 0 and ok_off
    return CheckResult("w_sharpness", passed, worst_on, size, 6,
                       detail="defect zero on the locus, nonzero off it"
                       if passed else "sharpness violated")


def check_v_wilmod_vanishing(cfg: CheckConfig) -> CheckResult:
    # V is zero exactly when its coefficient row is empty: no window is read
    reject_unread(cfg, "v_wilmod_vanishing", "reads V's coefficient row at k=1..5",
                  "k", "lam", "mu", "space", "M")
    worst = Fraction(0)
    ok_near = True
    entries = 0
    for k in range(1, 6):
        lam, mu = wilmod_weights(k)
        worst = max(worst, max_abs([c for _, c in v_formula(k, lam, mu).row]))
        entries += 1
        for dl, dm in [(Fraction(1, 7), 0), (0, Fraction(1, 5)),
                       (Fraction(-1, 3), Fraction(-1, 3))]:
            ok_near = ok_near and v_formula(k, lam + dl, mu + dm).row != ()
            entries += 1
    passed = worst == 0 and ok_near
    return CheckResult("v_wilmod_vanishing", passed, worst, 0, entries)


def check_grozman_equivariance(cfg: CheckConfig) -> CheckResult:
    reject_unread(cfg, "grozman_equivariance", "is checked at its own order and weights",
                  "k", "lam", "mu")
    entry = catalog_entry("grozman")
    _, nu, lam = entry.home
    J = entry.make(nu, lam)
    M = _bilinear_window(cfg)
    spaces = [CIRCLE, LINE] if cfg.space is None else [cfg.space]
    cols = [c for sp in spaces for c in bilinear_defect(
        J, sp, M, circle_fields(3) if sp == CIRCLE else line_fields(5))]
    worst = max_abs(cols)
    return CheckResult("grozman_equivariance", worst == 0, worst,
                       ring_dim(spaces[0], M), len(cols))


def check_oracle_agreement(cfg: CheckConfig) -> CheckResult:
    reject_unread(cfg, "oracle_agreement", "solves the formal equations, on no window",
                  "space", "M")
    k = cfg.k if cfg.k is not None else 3
    lam = cfg.lam if cfg.lam is not None else Fraction(1, 3)
    mu = cfg.mu if cfg.mu is not None else Fraction(1, 5)
    rec = nullspace(build_system(k, lam, mu), len(component_unknowns(k)))
    brute = brute_force_local_symmetries(k, lam, mu)
    # equal spaces give equal nullspace bases (as in classify);
    # defect dim(U+V) - dim(U n V)
    passed = brute == rec
    defect = Fraction(2 * rank(brute + rec) - len(brute) - len(rec))
    detail = (f"recurrence {len(rec)}, brute force {len(brute)} at k={k}, ({lam},{mu})"
              + ("" if passed else "; the solution spaces differ"))
    return CheckResult("oracle_agreement", passed, defect, 0, 1, detail=detail)


def check_lemma_functionals(cfg: CheckConfig) -> CheckResult:
    reject_unread(cfg, "lemma_functionals", "is checked at its own weights and windows",
                  "k", "lam", "mu", "M")
    _circle_only(cfg, "lemma_functionals",
                 "the invariant functionals are counted on trig densities")
    cases = {Fraction(1): 1, Fraction(0): 0, Fraction(1, 2): 0,
             Fraction(-2, 3): 0, Fraction(2): 0}
    bad = []
    for N in (3, 5):
        # one product table per N: every weight's window reads the same rows
        base, fields = TruncatedBasis(0, N, CIRCLE, 0, 0), circle_fields(N)
        for lam, want in cases.items():
            got = _functionals_dimension(base.densities(lam), fields)
            if got != want:
                bad.append((lam, N, got, want))
    return CheckResult(
        "lemma_functionals", not bad, Fraction(len(bad)), 0, 2 * len(cases),
        detail="" if not bad else f"mismatches: {bad}",
    )


# every catalog name, with the (k, lam, mu) its `verify --op` check defaults to
CATALOG_HOMES = {name: entry.home for name, entry in CATALOG.items()}


def check_catalog_op(name: str, cfg: CheckConfig) -> CheckResult:
    """Equivariance defect of a cataloged map at its home weights."""
    entry = catalog_entry(name)
    k0, lam0, mu0 = entry.home
    if entry.kind == "bilinear":
        reject_unread(cfg, f"op:{name}", "is a bilinear map at its own order", "k")
    k = cfg.k if cfg.k is not None else k0
    lam = cfg.lam if cfg.lam is not None else lam0
    mu = cfg.mu if cfg.mu is not None else mu0
    space = cfg.space_or()
    check_module(k, space)
    fields = generator_family(space)
    if entry.kind == "bilinear":
        J = entry.make(lam, mu)
        cols = bilinear_defect(J, space, _bilinear_window(cfg), fields)
        worst = max_abs(cols)
        return CheckResult(f"op:{name}", worst == 0, worst,
                           0, len(cols), detail=f"(nu,lam)=({lam},{mu})")
    T = realize(name, TruncatedBasis(k, _window(k, cfg.M), space, lam, mu))
    detail = "" if entry.kind == "projection" else f"k={k}, ({lam},{mu}), {space}"
    worst = Fraction(0)
    entries = 0
    for X in fields:
        cols = equivariance_defect(T, X)
        worst = max(worst, max_abs(col.values() for col in cols))
        entries += len(cols)
    return CheckResult(f"op:{name}", worst == 0, worst, T.basis.dim, entries,
                       detail=detail)


IDENTITIES = {
    **{name: partial(_run_relation, name) for name in RELATIONS},
    "mult_table_01": check_mult_table_01,  # the row's runner, with its guards
    "adjoint_pairing": check_adjoint_pairing,
    "w_sharpness": check_w_sharpness,
    "v_wilmod_vanishing": check_v_wilmod_vanishing,
    "grozman_equivariance": check_grozman_equivariance,
    "oracle_agreement": check_oracle_agreement,
    "lemma_functionals": check_lemma_functionals,
}


def run_identity(name: str, cfg: CheckConfig | None = None) -> CheckResult:
    cfg = cfg or CheckConfig()
    if cfg.k is not None:
        check_module(cfg.k, cfg.space_or())
    if name in IDENTITIES:
        return IDENTITIES[name](cfg)
    raise KeyError(f"unknown identity {name!r}")
