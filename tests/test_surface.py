"""The names the benchmark under perfbench/ reaches into densym by.

perfbench wraps densym from outside: its tracer replaces the functions and
methods named in `LAYERS` and `COUNTED`, and its setup and golden recorder
call the CLI parser and the identity tables.  A rename or deletion in src/
that breaks one of these names should fail here, not in the benchmark.
The package itself imports only the standard library.
"""
import ast
import importlib
import sys
from pathlib import Path

import pytest

import densym
from densym import cli, identities

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "densym"


def traced_names():
    """(module, qualname) for every LAYERS and COUNTED entry, read from the
    tracer's source without importing or executing it."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in tree.body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and getattr(node.targets[0], "id", None) in ("LAYERS", "COUNTED")}
    assert set(tables) == {"LAYERS", "COUNTED"}
    return [(module, qualname) for table in tables.values()
            for module, *qualnames in table.values() for qualname in qualnames]


@pytest.mark.parametrize("name", densym.__all__)
def test_exported_name_resolves(name):
    assert getattr(densym, name) is not None


@pytest.mark.parametrize("module, qualname", traced_names())
def test_traced_name_resolves(module, qualname):
    # the tracer replaces a name in its owner's own __dict__, so a method
    # that a class only inherits (from rings._SparseFn, say) would resolve
    # by getattr and still break the traced runs
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr))


def test_benchmark_setup_argv_parses():
    args = cli.build_parser().parse_args(["verify", "--list"])
    assert args.command == "verify" and args.list


def test_golden_recorder_tables_import():
    assert identities.CATALOG_HOMES and identities.IDENTITIES
    assert set(identities.RELATIONS) <= set(identities.IDENTITIES)


def test_package_imports_only_the_standard_library():
    """densym stays pure standard library: every absolute import in src/densym
    names a standard-library module; relative imports stay inside the package."""
    outside = {}
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        names += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 0]
        bad = [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
        if bad:
            outside[path.name] = bad
    assert outside == {}
