"""Span tracing of densym's layers, installed from outside the package.

`Tracer.install()` replaces each public function named in `LAYERS` with a
wrapper that records a span (name, start, end, parent).  A module-level
function is replaced under every name that binds it in any loaded densym
module, because several modules import it directly (`rref` in `algebras`,
`nullspace` in `recurrence` and `truncation`, ...).  Methods are replaced
on their class.  `uninstall()` puts every original back.

Spans are kept in flat arrays and written out once, at the end.  Self time
is a span's duration minus the time covered by its direct children; as the
benchmark runs on one thread, children are nested and never overlap.
"""
from __future__ import annotations

import dataclasses
import gzip
import json
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

# metric prefix -> (module, qualified name); methods are "Class.method"
LAYERS = {
    "rings.trig_mul": ("densym.rings", "TrigFn.__mul__"),
    "rings.poly_mul": ("densym.rings", "PolyFn.__mul__"),
    "rings.diff": ("densym.rings", "TrigFn.diff", "PolyFn.diff"),
    "densities.compose": ("densym.densities", "compose"),
    "densities.lie_derivative_operator": ("densym.densities", "lie_derivative_operator"),
    "truncation.brute_force_local_symmetries": ("densym.truncation", "brute_force_local_symmetries"),
    "truncation.vector_of": ("densym.truncation", "TruncatedBasis.vector_of"),
    "truncation.flat": ("densym.truncation", "SymmetryMap.flat"),
    "truncation.equivariance_defect": ("densym.truncation", "equivariance_defect"),
    "truncation.bilinear_defect": ("densym.truncation", "bilinear_defect"),
    "linalg.rref": ("densym.linalg", "rref"),
    "linalg.nullspace": ("densym.linalg", "nullspace"),
    "linalg.independent_subset": ("densym.linalg", "independent_subset"),
    "recurrence.build_system": ("densym.recurrence", "build_system"),
    "recurrence.local_dimension": ("densym.recurrence", "local_dimension"),
    "recurrence.classify": ("densym.recurrence", "classify"),
    "recurrence.sweep": ("densym.recurrence", "sweep"),
    "algebras.span_algebra": ("densym.algebras", "span_algebra"),
    "algebras.identify": ("densym.algebras", "identify"),
    "identities.run_identity": ("densym.identities", "run_identity"),
    "identities.check_catalog_op": ("densym.identities", "check_catalog_op"),
    "cli.main": ("densym.cli", "main"),
}

# constructors are only counted: they are the ring layer's allocation rate
COUNTED = {
    "rings.trig_init": ("densym.rings", "TrigFn.__init__"),
    "rings.poly_init": ("densym.rings", "PolyFn.__init__"),
}

# the callables that catalog endomorphisms return: candidate generators
# and `CATALOG[...].make` both come from here
GENERATOR_APPLY = "operators.generator_apply"


def _rref_shape(args, kwargs, result, extra):
    m = args[0] if args else kwargs["m"]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    extra["linalg.rref.cells"] += rows * cols
    if rows * cols > extra["linalg.rref.max_shape"]:
        extra["linalg.rref.max_shape"] = rows * cols
        extra["linalg.rref.max_rows"] = rows
        extra["linalg.rref.max_cols"] = cols


def _independent_subset(args, kwargs, result, extra):
    vectors = args[0] if args else kwargs["vectors"]
    extra["linalg.independent_subset.tried"] += len(vectors)
    extra["linalg.independent_subset.accepted"] += len(result)


def _span_products(args, kwargs, result, extra):
    maps = args[0] if args else kwargs["maps"]
    extra["algebras.span_algebra.products"] += len(maps) ** 2


def _identity_entries(args, kwargs, result, extra):
    extra["identities.entries"] += result.entries


# argument and result readers, run after the call outside its span
AFTER = {
    "linalg.rref": _rref_shape,
    "linalg.independent_subset": _independent_subset,
    "algebras.span_algebra": _span_products,
    "identities.run_identity": _identity_entries,
    "identities.check_catalog_op": _identity_entries,
}


def _resolve(module, qualname):
    obj = sys.modules[module]
    owner = None
    for part in qualname.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, qualname.rsplit(".", 1)[-1], obj


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.extra: Counter = Counter()
        self._undo: list = []

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        after = AFTER.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        extra = self.extra

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, extra)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ---------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new):
        """Rebind a function under every densym module name bound to it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "densym" or modname.startswith("densym.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, new)

    def _install_one(self, name, module, qualname, wrapper):
        owner, attr, fn = _resolve(module, qualname)
        new = wrapper(name, fn)
        if isinstance(owner, types.ModuleType):
            self._replace_everywhere(fn, new)
            return
        self._replace(owner, attr, new)
        # `__rmul__ = __mul__` binds the same function a second time
        for alias, value in list(vars(owner).items()):
            if alias != attr and value is fn:
                self._replace(owner, alias, new)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, (module, *qualnames) in LAYERS.items():
            for qualname in qualnames:
                self._install_one(name, module, qualname, self.wrap)
        for name, (module, qualname) in COUNTED.items():
            self._install_one(name, module, qualname, self.count)
        self._install_generator_apply()

    def _install_generator_apply(self):
        catalog = sys.modules["densym.operators"].CATALOG
        apply_wrap = self.wrap(GENERATOR_APPLY, lambda action, A: action(A))

        def make_wrapper(make):
            def make_traced(*args):
                action = make(*args)
                return lambda A: apply_wrap(action, A)
            return make_traced

        for key, entry in list(catalog.items()):
            if entry.kind == "endo":
                self._undo.append((catalog, key, entry))
                catalog[key] = dataclasses.replace(entry, make=make_wrapper(entry.make))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------

    def summary(self):
        """Per-name calls, total seconds and self seconds, from the spans."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            rec["calls"] += 1
            rec["s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
        return out

    def write(self, path):
        """All spans as [name, start, end, parent] rows, gzip-compressed JSON."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"names": self.names}, fh)
            fh.write("\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_name[i]} {self.span_start[i]!r} "
                         f"{self.span_end[i]!r} {self.span_parent[i]}\n")
