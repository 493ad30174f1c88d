"""`tools/forks.py` can still remove every fork on the keep-list: each
removal edit's text occurs in its function's source, the edited function
compiles, and the original is bound somewhere in the package.  Its report
marks a median inside the A/A quartiles, and a failed op fails the run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import sys
sys.path.insert(0, {tools!r})
import forks
for name, (_, patches) in forks.FORKS.items():
    for owner, attr, edits in patches:
        assert forks.bindings(owner, attr, forks.edited(owner, attr, edits)), (name, attr)
print(sorted(forks.FORKS))
forks.report("noise", [0.99, 1.0, 1.02], [0, 0], (0.98, 1.01))
forks.report("pays", [1.03, 1.04, 1.05], [0, 0], (0.98, 1.01))
"""

#: the forks that one local edit removes, as ROADMAP aim 2 lists them
FORKS = [
    "band-layout-cache", "cartesian-one-point", "check-finite-float", "check-omega-float",
    "circle-predictor", "cos-sin-float", "gap-float", "iterate-shape-skip",
    "prev", "solver-float-branch", "spline-jet-float",
]


def test_every_removal_edit_applies():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(tools=str(ROOT / "tools"))],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    names, noise, pays = proc.stdout.splitlines()
    assert names == repr(FORKS)
    assert noise.startswith("noise: 1.000 ") and noise.endswith(", inside a/a")
    assert pays.startswith("pays: 1.040 ") and "a/a" not in pays


BROKEN = """
import sys
sys.path.insert(0, {tools!r})
import forks
# an edit that leaves every scan sample unsolved, so each survey fails its check
forks.FORKS["broken"] = (("scan-periodic",), [
    (forks.periodic, "_newton", [("reason[row] = _stop(r, tol, went)", "reason[row] = 'max_iter'")]),
])
sys.exit(forks.main(["broken", "--rounds", "1"]))
"""


def test_a_failed_op_fails_the_run():
    proc = subprocess.run(
        [sys.executable, "-c", BROKEN.format(tools=str(ROOT / "tools"))],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stderr[-2000:]
    assert "failed ops unedited 0, edited 12" in proc.stdout, proc.stdout
