"""Importing the package, and the CLI's help, load only what they run; the
LAPACK routines it takes are scipy's own objects in either import order; and
every callable the package exports has a caller outside the tests."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import outerlength
from outerlength.oval import SupportOval

ROOT = Path(__file__).resolve().parent.parent

#: packages the import must not load: scipy.linalg's package `__init__`
#: brings in numpy.f2py and numpy.testing
HEAVY = ("scipy.linalg", "scipy.interpolate", "scipy.optimize", "numpy.f2py", "numpy.testing")

IMPORT_PROBE = f"""
import contextlib, io, sys
import outerlength
from outerlength import cli
heavy = {HEAVY!r}
print(",".join(m for m in heavy if m in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
print(",".join(m for m in heavy if m in sys.modules))
"""

#: makes `_solve` find no `_flapack` file: scipy seems to have no submodules
NO_FLAPACK_FILE = """
import importlib.machinery, importlib.util
_find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, package=None: (
    importlib.machinery.ModuleSpec(name, None, is_package=True) if name == "scipy"
    else _find_spec(name, package))
"""

#: records the name of every extension module the process loads
COUNT_LOADS = """
import importlib.machinery
_create = importlib.machinery.ExtensionFileLoader.create_module
loads = []
def _counted(self, spec):
    loads.append(spec.name)
    return _create(self, spec)
importlib.machinery.ExtensionFileLoader.create_module = _counted
"""

ORDERS = {
    "package-first": "import outerlength\nimport scipy.linalg.lapack as lapack\n",
    "scipy-first": "import scipy.linalg.lapack as lapack\nimport outerlength\n",
    "fallback": NO_FLAPACK_FILE + "import outerlength\nimport scipy.linalg.lapack as lapack\n",
}

#: prints whether every routine is scipy.linalg.lapack's, the module they came
#: from, how often `_flapack` was loaded, and a digest of a spline table's
#: coefficients
IDENTITY_PROBE = """
import hashlib, sys
import numpy as np
from outerlength import _solve, oval, periodic
flapack = sys.modules["scipy.linalg._flapack"]
print(all(getattr(periodic, r) is getattr(lapack, r) is getattr(flapack, r)
          for r in ("dgbtrf", "dgbtrs")))
print("flapack" if _solve._LAPACK is flapack is lapack._flapack
      else "lapack" if _solve._LAPACK is lapack else "other")
print(loads.count("scipy.linalg._flapack"))
table = oval.SupportOval.from_callable(lambda a: 1.0 + 0.05 * np.cos(3 * a), n=64)
print(hashlib.sha256(table._rep._coef.tobytes()).hexdigest())
"""


def _run(code):
    # a fresh interpreter: this one has long loaded scipy.linalg for the references
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


def test_import_and_help_load_no_scipy_linalg_nor_numpy_test_tools():
    after_import, after_help = _run(IMPORT_PROBE)
    assert after_import == ""
    assert after_help == ""


@pytest.mark.parametrize("order, source", [
    ("package-first", "flapack"), ("scipy-first", "flapack"), ("fallback", "lapack"),
])
def test_lapack_routines_are_scipys_own(order, source):
    identical, loaded_from, loads, digest = _run(COUNT_LOADS + ORDERS[order] + IDENTITY_PROBE)
    assert identical == "True"
    # "flapack": the package holds the `_flapack` module scipy.linalg.lapack uses
    assert loaded_from == source
    assert loads == "1"
    table = SupportOval.from_callable(lambda a: 1.0 + 0.05 * np.cos(3 * a), n=64)
    assert digest == hashlib.sha256(table._rep._coef.tobytes()).hexdigest()


#: the code that calls the package: its own modules, the demos and the tools
CALLERS = ("src", "demos", "perfbench", "tools")


def test_every_exported_callable_has_a_caller_outside_the_tests():
    """A name that only the tests reach belongs in the tests, as a helper."""
    used = set()
    for path in (p for d in CALLERS for p in (ROOT / d).rglob("*.py")):
        if path == ROOT / "src" / "outerlength" / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = {name for name, obj in vars(outerlength).items()
                if callable(obj) and not name.startswith("_")}
    assert sorted(exported - used) == []


#: the names of the stored grid's layout, which only `oval` reads
GRID_NAMES = {"_CELL", "GRID_SIZE", "_HALF", "_scan"}


def test_only_oval_knows_the_grid():
    """Every other module asks the oval for what it needs of the grid."""
    named = {}
    for path in sorted((ROOT / "src" / "outerlength").glob("*.py")):
        if path.name == "oval.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else node.attr
                    if isinstance(node, ast.Attribute) else node.name
                    if isinstance(node, ast.alias) else None)
            if name in GRID_NAMES:
                named.setdefault(path.name, set()).add(name)
    assert named == {}
