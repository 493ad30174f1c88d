"""Does each kept fork still pay?  In-process A/B timing of one-edit removals.

    python3 tools/forks.py [--rounds 24] [--seed 1] [FORK ...]

Run from the root of a source checkout; the package is imported from its
`src/` and the ops from `perfbench/workloads.py`.  Each fork on ROADMAP aim
2's keep-list is named below with the workload whose ops reach it and the
one local edit that removes it: a text replacement in the source of one
function, compiled in that function's module and bound wherever the original
is, in every `outerlength` module and class.  Rounds of the workload's
seed ops alternate between the unedited code and the edited copy (the order
flips every round), and each round gives one ratio, edited time over
unedited time.  An `a/a` entry per workload times the unedited code against
itself.  It prints, per fork, the median ratio, its quartiles and how many
rounds the edited copy was slower, marked `inside a/a` when the median lies
within the workload's A/A quartiles.  A ratio above 1 means the fork pays,
unless it lies inside the A/A quartiles, where timing cannot tell it from
noise; ROADMAP aim 2 says when such a fork goes.

An edit whose text no longer occurs in the source is reported and skipped.
Only `run()` of an op is timed; the outputs of one round of each variant are
checked untimed, so an edit that breaks a result shows up as a failure.  The
script exits 1 when any checked op fails, unedited or edited, and 0
otherwise, whatever the ratios read.
"""

import argparse
import gc
import inspect
import os
import sys
import textwrap
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from outerlength import _solve, billiard, genfun, oval, periodic  # noqa: E402

#: name -> (workloads whose ops reach the fork, [(owner, attribute, edits)]),
#: edits a list of (old text, new text), or None to drop a function's cache
FORKS = {
    "circle-predictor": (("bulk-verify", "map-oracle"), [
        (billiard, "_step_from_jets",
         [("start=a2 + w if start is None else start", "start=start")]),
    ]),
    "check-omega-float": (("map-oracle",), [
        (genfun, "_check_omega", [
            ("""    if isinstance(omega, float):
        if not OMEGA_MIN <= omega <= math.pi - OMEGA_MIN:
            raise ChordDomainError(f"gap outside {CHORD_DOMAIN}: offending value {omega}")
        return
""", ""),
        ]),
    ]),
    "solver-float-branch": (("map-oracle",), [
        (_solve, "bracketed_root", [
            ("    if all(isinstance(v, float) or (isinstance(v, np.ndarray) and not v.shape) "
             "for v in entry):\n", "    if False:\n"),
        ]),
    ]),
    "prev": (("scan-periodic",), [
        (periodic, "_prev", [
            ("return np.concatenate([a[..., -1:], a[..., :-1]], axis=-1)",
             "return np.roll(a, 1, axis=-1)"),
        ]),
    ]),
    "band-layout-cache": (("scan-periodic",), [(periodic, "_band_layout", None)]),
    "iterate-shape-skip": (("map-oracle",), [
        (billiard, "iterate", [
            ("if not (isinstance(a1, float) and isinstance(a2, float)) and "
             "np.shape(a1) != np.shape(a2):", "if np.shape(a1) != np.shape(a2):"),
        ]),
    ]),
    "cartesian-one-point": (("map-oracle",), [
        (billiard, "cartesian_step", [
            ("""    if M.ndim == 1:
        lo, hi, flo, fhi = oval._cell_after(ox, oy, r, a2, q0)
    else:  # each point's cell as one point's, in floats
        rows = zip(*(v.tolist() for v in (ox, oy, r, a2, q0)))
""", """    if True:
        rows = zip(*(np.ravel(v).tolist() for v in (ox, oy, r, a2, q0)))
"""),
        ]),
    ]),
    "gap-float": (("map-oracle",), [
        (genfun, "_gap", [("if isinstance(a1, float) and isinstance(a2, float):", "if False:")]),
    ]),
    "check-finite-float": (("map-oracle",), [
        (oval, "_check_finite", [
            ("""    if isinstance(value, float):
        if math.isfinite(value):
            return
    elif np.isfinite(value).all():
""", "    if np.isfinite(value).all():\n"),
        ]),
    ]),
    "spline-jet-float": (("map-oracle",), [
        (oval._SplineRep, "jet", [
            ("if isinstance(alpha, float) or np.ndim(alpha) == 0:", "if False:"),
        ]),
    ]),
    "cos-sin-float": (("map-oracle",), [
        (oval, "_cos_sin", [("    if isinstance(a, float):\n        return math.cos(a), math.sin(a)\n",
                             "")]),
        (oval, "_ufunc", [("math if isinstance(a, float) else np", "np")]),
    ]),
}


def edited(owner, name, edits):
    """The function `owner.name` with `edits` applied to its source, or the
    undecorated function of a cache when `edits` is None."""
    fn = inspect.getattr_static(owner, name)
    if edits is None:
        return fn.__wrapped__
    src = textwrap.dedent(inspect.getsource(fn))
    for old, new in edits:
        if old not in src:
            raise LookupError(f"{name}: the edit's text {old.splitlines()[0]!r} is gone")
        src = src.replace(old, new)
    space = dict(fn.__globals__)
    exec(compile(src, inspect.getsourcefile(fn), "exec"), space)
    return space[name]


def bindings(owner, name, new):
    """(holder, attribute, original, replacement) for every place in the
    package's modules and classes that holds the original `owner.name`."""
    old = inspect.getattr_static(owner, name)
    found = []
    holders = [m for key, m in sys.modules.items() if key.startswith("outerlength")]
    holders += [v for m in list(holders) for v in vars(m).values() if isinstance(v, type)]
    for holder in holders:
        for attr, value in list(vars(holder).items()):
            if value is old:
                found.append((holder, attr, old, new))
    return found


def bind(pairs, which):
    for holder, attr, old, new in pairs:
        setattr(holder, attr, new if which else old)


def one_round(ops):
    gc.collect()
    t0 = time.perf_counter()
    for run, _ in ops:
        run()
    return time.perf_counter() - t0


def checked(ops):
    """Failures of one round, checked."""
    bad = 0
    for run, check in ops:
        try:
            verdict = check(run())
        except wl.OuterLengthError as exc:
            verdict = exc
        bad += verdict is not None
    return bad


def measure(ops, pairs, rounds):
    """Ratios edited / unedited over `rounds` rounds, the order flipping each round."""
    bad = [checked(ops)]
    bind(pairs, True)
    try:
        bad.append(checked(ops))
    finally:
        bind(pairs, False)
    ratios = []
    for i in range(rounds):
        times = {}
        for which in ((False, True) if i % 2 else (True, False)):
            bind(pairs, which)
            try:
                times[which] = one_round(ops)
            finally:
                bind(pairs, False)
        ratios.append(times[True] / times[False])
    return ratios, bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("forks", nargs="*", help=f"from {sorted(FORKS)}; default all")
    ap.add_argument("--rounds", type=int, default=24)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    names = args.forks or list(FORKS)
    sessions, spread, failed = {}, {}, 0
    for name in names:
        workloads, patches = FORKS[name]
        try:
            pairs = [p for owner, attr, edits in patches
                     for p in bindings(owner, attr, edited(owner, attr, edits))]
        except LookupError as exc:
            print(f"{name}: skipped, {exc}")
            continue
        for workload in workloads:
            if workload not in sessions:
                sessions[workload] = wl.WORKLOADS[workload][0](args.seed)
                ratios, bad = measure(sessions[workload].ops, [], args.rounds)
                failed += report(f"a/a {workload}", ratios, bad)
                spread[workload] = np.percentile(ratios, [25, 75])
            failed += report(f"{name} ({workload})",
                             *measure(sessions[workload].ops, pairs, args.rounds),
                             spread[workload])
    for session in sessions.values():
        session.close()
    return 1 if failed else 0


def report(label, ratios, bad, spread=None):
    """Print one line of figures, marked `inside a/a` when the median lies
    within `spread`, the A/A quartiles; returns the number of failed ops."""
    q1, med, q3 = np.percentile(ratios, [25, 50, 75])
    slower = sum(r > 1.0 for r in ratios)
    inside = spread is not None and spread[0] <= med <= spread[1]
    print(f"{label}: {med:.3f} ({q1:.3f}-{q3:.3f}), {slower} of {len(ratios)} rounds slower"
          f" edited; failed ops unedited {bad[0]}, edited {bad[1]}"
          f"{', inside a/a' if inside else ''}", flush=True)
    return sum(bad)


if __name__ == "__main__":
    sys.exit(main())
