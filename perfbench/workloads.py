"""The benchmark's four workloads, built from a seed through the public API.

Each workload's `setup(seed, mark)` builds and validates its tables,
generates its inputs and returns a `Session`.  It calls `mark()` between
stages of the set-up, so that the run can time the host's speed in between.
`Session.ops` is one round: a list of `(run, check)` pairs.  `run()` is
the timed call into `outerlength`; it returns the outputs, or raises a typed
`OuterLengthError` when the program refuses the input.  `check(outputs)` is
not timed.  It returns None when the outputs are right, a short reason when
they are wrong, and a typed `OuterLengthError` when the program refused
part of the op after producing outputs that were checked and found right.
The timed pass repeats whole rounds, so every count per op is the same in
every run of a seed, whatever the number of rounds.

`Session.slices`, when given, names the slice of the input mix each op of a
round belongs to; the run reports failures and costs per slice as well.

No op of a round fails on the program as it stands.  Inputs on which the
program is known to fail are `Session.probes`, ops of the same form that
the traced run makes once, untimed, and reports apart as known defects.

Tolerances are those of `tests/test_acceptance.py`.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from outerlength import billiard, cli, forge, genfun, oval, periodic
from outerlength.errors import OuterLengthError
from outerlength.genfun import ChordConfig

TWO_PI = 2.0 * np.pi

ORACLE_TOL = 1e-8
GRAD_TOL = 1e-6
HESS_TOL = 1e-4
DET_TOL = 1e-6
CLOSURE_TOL = 1e-8
PARALLELOGRAM_TOL = 1e-9
ORBIT_TOL = 1e-11

WORK_DIR = Path(__file__).resolve().parent / "work"


@dataclass
class Session:
    ops: list
    digest: str
    work_dir: Path | None = None
    slices: list | None = None
    probes: list | None = None

    def close(self):
        if self.work_dir is not None:
            shutil.rmtree(self.work_dir, ignore_errors=True)


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(np.asarray(part, dtype=float)).tobytes())
    return h.hexdigest()[:16]


def _no_mark():
    pass


def acceptance_tables(mark=_no_mark):
    """The five tables of the acceptance suite."""
    spec = forge.FourPeriodicSpec.from_harmonics({2: (0.0, 0.1)})
    four_periodic, _ = forge.from_f(spec)
    mark()
    return {
        "circle": oval.circle(),
        "ellipse": oval.ellipse(np.sin(0.8), np.cos(0.8)),
        "wobble3": oval.perturbed_circle(0.05, 3),
        "wobble2": oval.perturbed_circle(0.1, 2),
        "four-periodic": four_periodic,
    }


# -- map-oracle ------------------------------------------------------------------

#: per table and round: chord vertices, then points just outside the boundary.
#: The 3:1 mix is an assumption with no measured use behind it, so the run
#: reports the two slices separately as well.
CHORD_POINTS = 120
NEAR_POINTS = 40
#: log10 of the distance range of the near points.  Closer than about 1e-5,
#: both tangency roots can fall in one cell of the 2048-node scan and
#: `tangent_angles_from` raises ContainmentError, a known defect; points at
#: 1e-7..1e-6, where about half fail, are the probes.
NEAR_DECADES = (-4.0, -2.0)
PROBE_DECADES = (-7.0, -6.0)
PROBE_POINTS = 10


def _near_points(rng, table, count, decades):
    """Points at log-uniform distance along the outward normal, stratified so
    that every `count` of them cover the whole range of `decades`."""
    lo, hi = decades
    dist = 10.0 ** (lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count)
    ang = rng.uniform(0.0, TWO_PI, count)
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    return list(table.point_at(ang) + dist[:, None] * normals)


def _oracle_run(table, point):
    a1, a2 = table.tangent_angles_from(point)
    image = billiard.vertex_point(table, billiard.step(table, ChordConfig(a1, a2)))
    return image, billiard.cartesian_step(table, point)


def _oracle_check(outputs):
    image, oracle = outputs
    return None if np.linalg.norm(image - oracle) < ORACLE_TOL else "oracle-defect"


def map_oracle(seed, mark=_no_mark):
    rng = np.random.default_rng([seed, 1])
    tables = acceptance_tables(mark)
    ops, parts, slices, probes = [], [], [], []
    for table in tables.values():
        a1 = rng.uniform(0.0, TWO_PI, CHORD_POINTS)
        w = rng.uniform(0.25, np.pi - 0.35, CHORD_POINTS)
        points = [billiard.vertex_point(table, ChordConfig(x, x + g)) for x, g in zip(a1, w)]
        points += _near_points(rng, table, NEAR_POINTS, NEAR_DECADES)
        close = _near_points(rng, table, PROBE_POINTS, PROBE_DECADES)
        parts += [points, close]
        ops += [(functools.partial(_oracle_run, table, p), _oracle_check) for p in points]
        probes += [(functools.partial(_oracle_run, table, p), _oracle_check) for p in close]
        slices += ["chord-vertex"] * CHORD_POINTS + ["near-boundary"] * NEAR_POINTS
        mark()
    return Session(ops, _digest(*parts), slices=slices, probes=probes)


# -- bulk-verify -------------------------------------------------------------------

BATCH = 1000


def _bulk_run(table, chords, twist_seed):
    (a1, a2), (b1, b2), (c1, c2) = chords
    return (
        genfun.grad_arr(table, a1, a2),
        genfun.fd_grad_arr(table, a1, a2),
        genfun.hess_arr(table, a1, a2),
        genfun.fd_hess_arr(table, a1, a2),
        genfun.hess_arr(table, b1, b2),
        genfun.hess_arr(table, c1, c2),
        billiard.twist_report(table, samples=len(a1), seed=twist_seed),
    )


def _max_defect(xs, ys):
    return max(float(np.max(np.abs(np.asarray(x) - np.asarray(y)))) for x, y in zip(xs, ys))


def _bulk_check(outputs):
    grad, fd_grad, hess, fd_hess, (s11, s12, s22), (d11, d12, d22), twist = outputs
    if not _max_defect(grad, fd_grad) < GRAD_TOL:
        return "gradient-fd"
    if not _max_defect(hess, fd_hess) < HESS_TOL:
        return "hessian-fd"
    if not (np.all(s11 > 0) and np.all(s22 > 0) and np.all(s12 < 0)):
        return "sign-pattern"
    det = (d11 * d22 / d12**2) + (d12**2 - d11 * d22) / d12**2
    if not np.max(np.abs(det - 1.0)) < DET_TOL:
        return "symplectic"
    if twist.violations or twist.violations_squared:
        return "twist-violation"
    if not (twist.min_twist > 0 and twist.min_twist_squared > 0):
        return "twist-nan"
    return None


def bulk_verify(seed, mark=_no_mark):
    rng = np.random.default_rng([seed, 2])
    tables = acceptance_tables(mark)
    ops, parts = [], []
    for table in tables.values():
        chords = (
            genfun.sample_chords(rng, BATCH),
            genfun.sample_chords(rng, BATCH, 1e-3, np.pi - 1e-3),
            genfun.sample_chords(rng, BATCH, 0.05, np.pi - 0.05),
        )
        twist_seed = int(rng.integers(2**31))
        parts += [c for pair in chords for c in pair] + [twist_seed]
        ops.append((functools.partial(_bulk_run, table, chords, twist_seed), _bulk_check))
    return Session(ops, _digest(*parts))


# -- scan-periodic -------------------------------------------------------------------

SCAN_SAMPLES = 64
WINDOW_SAMPLES = 128
PROBE_RESOLUTION = 1e-3
PERIODS = ((3, 1), (4, 1), (5, 2), (7, 3), (12, 5), (101, 1))
#: the (n, m) of PERIODS for which `find_periodic` raises ConvergenceError at
#: its default tolerance on a table, stalling just above it: a known defect.
#: The surveys leave these searches out and the traced run probes them.
STALLS = {
    "from_f-0.05": {(5, 2), (7, 3), (12, 5)},
    "from_f-0.1": {(7, 3), (12, 5)},
    "from_f-0.2": {(3, 1)},
    "radon_like": {(101, 1)},
}
#: surveys of each kind per round, each with its own scan offset or window
SURVEYS = 2


def _survey_run(table, periods, n, lo, hi, samples):
    report = periodic.invariant_curve_scan(table, n, samples=samples, alpha_lo=lo, alpha_hi=hi)
    orbits, refusal = [], None
    for k, m in periods:
        try:
            orbits.append(periodic.find_periodic(table, k, m))
        except OuterLengthError as exc:
            refusal = refusal or exc
    return report, orbits, refusal


def _orbit_check(orbit):
    return None if orbit.residual < ORBIT_TOL else "orbit-residual"


def _survey_check(table, closes, parallelogram, outputs):
    """Judge the scan and the orbits found; a search the program refused
    makes the survey a typed failure only once the rest is right."""
    report, orbits, refusal = outputs
    if report.solver_failures:
        return "scan-nan"
    if closes and not np.max(np.abs(report.residual)) < CLOSURE_TOL:
        return "scan-closure"
    if parallelogram:
        ang = report.orbit_angles
        defect = max(
            np.max(np.abs(ang[:, 2] - ang[:, 0] - np.pi)),
            np.max(np.abs(ang[:, 3] - ang[:, 1] - np.pi)),
            np.max(np.abs(table.p(ang[:, 2]) - table.p(ang[:, 0]))),
            np.max(np.abs(table.p(ang[:, 3]) - table.p(ang[:, 1]))),
        )
        if not defect < PARALLELOGRAM_TOL:
            return "parallelogram"
    for orbit in orbits:
        if _orbit_check(orbit):
            return "orbit-residual"
    return refusal


def scan_periodic(seed, mark=_no_mark):
    rng = np.random.default_rng([seed, 3])
    tables = {}
    for eps in (0.05, 0.1, 0.2):
        spec = forge.FourPeriodicSpec.from_harmonics({2: (0.0, eps)})
        tables[f"from_f-{eps}"] = forge.from_f(spec)[0]
        mark()
    tables["radon_like"] = forge.radon_like(forge.balanced_radon_seed(0.03))
    mark()
    tables["wobble3"] = oval.perturbed_circle(0.05, 3)
    # (table, n, closes, parallelogram, window at the probe's resolution)
    kinds = [(name, 4, True, name.startswith("from_f"), False)
             for name in tables if name != "wobble3"]
    kinds += [("wobble3", 3, False, False, False), ("wobble3", 3, False, False, True)]
    ops, parts, slices = [], [], []
    for name, n, closes, para, window in kinds * SURVEYS:
        periods = [km for km in PERIODS if km not in STALLS.get(name, ())]
        if window:
            lo = rng.uniform(0.0, TWO_PI)
            hi, samples = lo + WINDOW_SAMPLES * PROBE_RESOLUTION, WINDOW_SAMPLES
        else:
            lo = rng.uniform(0.0, TWO_PI / SCAN_SAMPLES)
            hi, samples = lo + TWO_PI, SCAN_SAMPLES
        parts.append([lo, hi])
        table = tables[name]
        ops.append((
            functools.partial(_survey_run, table, periods, n, lo, hi, samples),
            functools.partial(_survey_check, table, closes, para),
        ))
        slices.append(f"{name}-window" if window else name)
    probes = [(functools.partial(periodic.find_periodic, tables[name], k, m), _orbit_check)
              for name, stalls in STALLS.items() for k, m in sorted(stalls)]
    return Session(ops, _digest(*parts), slices=slices, probes=probes)


# -- cli-session -----------------------------------------------------------------------

#: sessions per round, each with its own spec, table and arguments
SESSIONS = 5
#: `verify` runs at its default `--seed`.  For some seeds, this one among
#: them, its `polygon-perimeter-euclid` check fails on every table: the
#: battery draws a pentagon with a side of negative length, a known defect
#: that the traced run probes.
VERIFY_DEFECT_SEED = 100
ITERATE_STEPS = 10
SCAN_DEFAULT_SAMPLES = 256


#: how `cli.main` reports a command stopped by a typed `OuterLengthError`
TYPED_FAILURES = ("validation failure:", "numeric failure:", "error:")


class CliRefusal(OuterLengthError):
    """A CLI command stopped by a typed `OuterLengthError`."""

    def __init__(self, command, stderr):
        super().__init__(stderr)
        self.reason = f"{command}: {stderr.split(':', 1)[0]}"


def _cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_check(command, check, paths, outputs):
    """Judge one CLI call by its exit code, then its outputs, and remove the
    files it wrote.  Only a typed `OuterLengthError` is a refusal; any other
    non-zero exit (a failed verify battery, an untyped ValueError or OSError
    caught by `cli.main`, a rejected command line) is a wrong result."""
    code, stdout, stderr = outputs
    try:
        if code == 0:
            return check(stdout)
        if stderr.startswith(TYPED_FAILURES):
            return CliRefusal(command, stderr)
        if command == "verify" and code == cli.EXIT_NUMERIC:
            return check(stdout) or f"{command}-exit-{code}"  # the battery found a defect
        return f"{command}-exit-{code}"
    finally:
        for path in paths:
            if os.path.exists(path):
                os.remove(path)


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[1:]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_forge(table_path, stdout):
    report = json.loads(stdout)
    ok = report["passed"] and _read_json(table_path).get("type") == "samples"
    return None if ok else "forge-output"


def _check_verify(report_path, stdout):
    report = _read_json(report_path)
    if report["passed"] is True:
        return None
    return "verify-failed:" + ",".join(c["name"] for c in report["checks"] if not c["passed"])


def _check_scan(csv_path, closes, stdout):
    rows = _csv_rows(csv_path)
    if len(rows) != SCAN_DEFAULT_SAMPLES:
        return "scan-rows"
    if closes and not all(abs(float(r[1])) < CLOSURE_TOL and r[2] == "1" for r in rows):
        return "scan-closure"
    return None


def _check_orbit(json_path, n, stdout):
    orbit = _read_json(json_path)
    ok = len(orbit["angles"]) == n and orbit["residual"] < ORBIT_TOL
    return None if ok else "orbit-residual"


def _check_svg(svg_path, csv_path, stdout):
    with open(svg_path, encoding="utf-8") as fh:
        ok = fh.read(4) == "<svg"
    if csv_path is not None:
        ok = ok and len(_csv_rows(csv_path)) == ITERATE_STEPS + 1
    return None if ok else "svg-output"


def _session_commands(prefix, rng):
    """The nine CLI calls of one session, on files whose names start with
    `prefix`, as (argv, check, files the call writes), and the inputs drawn
    for them."""
    eps = rng.uniform(0.05, 0.15)
    wobble, phase = rng.uniform(0.02, 0.06), rng.uniform(0.0, TWO_PI)
    radius, angle = rng.uniform(1.5, 2.5), rng.uniform(0.0, TWO_PI)
    render_seed = str(rng.integers(0, 2**31))

    def path(name):
        return f"{prefix}{name}"

    spec, forged, fourier = path("spec.json"), path("forged.json"), path("fourier.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump(forge.FourPeriodicSpec.from_harmonics({2: (0.0, eps)}).to_json(), fh)
    oval.perturbed_circle(wobble, 3, phase).save(fourier)
    point = f"{float(radius * np.cos(angle))!r},{float(radius * np.sin(angle))!r}"
    # `forged` is an input of the calls after `forge`; the last of them removes it
    commands = [
        (["forge", "--spec", spec, "--out", forged],
         functools.partial(_check_forge, forged), []),
        (["verify", "--table", forged, "--out", path("vf.json")],
         functools.partial(_check_verify, path("vf.json")), [path("vf.json")]),
        (["verify", "--table", fourier, "--out", path("vw.json")],
         functools.partial(_check_verify, path("vw.json")), [path("vw.json")]),
        (["scan", "--table", forged, "--n", "4", "--out", path("sf.csv")],
         functools.partial(_check_scan, path("sf.csv"), True), [path("sf.csv")]),
        (["scan", "--table", fourier, "--n", "3", "--out", path("sw.csv")],
         functools.partial(_check_scan, path("sw.csv"), False), [path("sw.csv")]),
        (["find-periodic", "--table", forged, "--n", "4", "--out", path("of.json")],
         functools.partial(_check_orbit, path("of.json"), 4), [path("of.json")]),
        (["find-periodic", "--table", fourier, "--n", "3", "--out", path("ow.json")],
         functools.partial(_check_orbit, path("ow.json"), 3), [path("ow.json")]),
        (["iterate", "--table", forged, f"--point={point}", "--steps", str(ITERATE_STEPS),
          "--out", path("it.csv"), "--svg", path("it.svg"), "--circles"],
         functools.partial(_check_svg, path("it.svg"), path("it.csv")),
         [path("it.svg"), path("it.csv"), forged]),
        (["render", "--table", fourier, "--svg", path("r.svg"), "--circles",
          "--seed", render_seed],
         functools.partial(_check_svg, path("r.svg"), None), [path("r.svg")]),
    ]
    return commands, [eps, wobble, phase, radius, angle, int(render_seed)]


def cli_session(seed, mark=_no_mark):
    rng = np.random.default_rng([seed, 4])
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK_DIR))
    ops, parts, slices = [], [], []
    for k in range(SESSIONS):
        commands, inputs = _session_commands(work / f"s{k}-", rng)
        ops += [(functools.partial(_cli_run, argv),
                 functools.partial(_cli_check, argv[0], check, paths))
                for argv, check, paths in commands]
        slices += [argv[0] for argv, _, _ in commands]
        parts.append(inputs)
        mark()
    fourier, report = work / "s0-fourier.json", work / "probe.json"
    probe = (functools.partial(_cli_run, ["verify", "--table", str(fourier), "--seed",
                                          str(VERIFY_DEFECT_SEED), "--out", str(report)]),
             functools.partial(_cli_check, "verify", functools.partial(_check_verify, report),
                               [report]))
    return Session(ops, _digest(*parts), work_dir=work, slices=slices, probes=[probe])


#: name -> (setup, percentile reported as op_tail_ref).  Each percentile
#: falls inside a group of ops of like cost, not between two groups.
WORKLOADS = {
    "map-oracle": (map_oracle, 99.0),
    "bulk-verify": (bulk_verify, 80.0),
    "scan-periodic": (scan_periodic, 75.0),
    "cli-session": (cli_session, 80.0),
}
