"""Importing the package, and the CLI's help, load only what they run; the
LAPACK routines it takes are scipy's own objects in either import order."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
print(all(getattr(m, r) is getattr(lapack, r) is getattr(flapack, r)
          for m, routines in ((oval, ("dgbtrf", "dgbtrs", "dgesv")), (periodic, ("dgbtrf", "dgbtrs")))
          for r in routines))
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
