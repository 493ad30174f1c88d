"""Importing the package, and the CLI's help, load only what they run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import contextlib, io, sys
import outerlength
from outerlength import cli
heavy = ("scipy.interpolate", "scipy.optimize")
print(",".join(m for m in heavy if m in sys.modules))
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
print(",".join(m for m in heavy if m in sys.modules))
"""


def test_import_loads_neither_interpolate_nor_optimize():
    # a fresh interpreter: this one has long loaded both for the references
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    after_import, after_help = proc.stdout.splitlines()
    assert after_import == ""
    assert after_help == ""
