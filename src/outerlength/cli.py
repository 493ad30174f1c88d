"""Command-line front end: forge, iterate, find-periodic, scan, verify, render.

Exit codes: 0 success, 2 validation/constructor failure, 3 numeric failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import billiard, forge, periodic, render, verify
from .errors import OuterLengthError, OvalValidationError, TableConstructionError, checked_count
from .genfun import ChordConfig
from .oval import TWO_PI, SupportOval

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _parse_pair(text, name):
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"--{name} wants two comma-separated numbers")
    return parts


def _emit(text, path):
    """Write text to the file at path, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands ---------------------------------------------------------------


def cmd_forge(args):
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    oval = forge.table_from_spec(spec)
    oval.save(args.out)
    report = oval.validate().to_dict()
    report["table"] = args.out
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_iterate(args):
    oval = SupportOval.load(args.table)
    if args.state:
        a1, a2 = _parse_pair(args.state, "state")
        state = ChordConfig(a1, a2)
    elif args.point:
        x, y = _parse_pair(args.point, "point")
        a1, a2 = oval.tangent_angles_from((x, y))
        state = ChordConfig(a1, a2)
    else:
        raise ValueError("iterate needs --state A1,A2 or --point X,Y")
    rec = billiard.orbit(oval, state, args.steps)
    _emit(rec.to_csv(), args.out)
    if args.svg:
        render.save_svg(args.svg, oval, [rec], show_circles=args.circles)
    return EXIT_OK


def cmd_find_periodic(args):
    oval = SupportOval.load(args.table)
    seed = None
    if args.seed_angles:
        seed = np.array([float(x) for x in args.seed_angles.split(",")])
    orbit = periodic.find_periodic(
        oval, args.n, m=args.m, seed_angles=seed, tol=args.tol
    )
    text = json.dumps(orbit.to_json(), indent=2)
    if args.out:
        _emit(text, args.out)
    print(text)
    return EXIT_OK


def cmd_scan(args):
    oval = SupportOval.load(args.table)
    report = periodic.invariant_curve_scan(
        oval, args.n, m=args.m, samples=args.samples, closure_tol=args.tol
    )
    _emit(report.to_csv(), args.out)
    summary = {
        "samples": int(len(report.alpha1)),
        "closures": int(report.closed_mask.sum()),
        "all_closed": report.all_closed,
        "max_closure_run": report.max_closure_run,
        "solver_failures": report.solver_failures,
    }
    print(json.dumps(summary))
    return EXIT_OK


def cmd_verify(args):
    try:
        oval = SupportOval.load(args.table)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"cannot read table: {exc}", file=sys.stderr)
        return EXIT_IO
    except OvalValidationError as exc:
        if exc.report is None:  # data that could not be surveyed
            raise
        validation = exc.report
        checks = [{"name": "oval-validate", "passed": False, "skipped_dependents": True}]
    else:
        validation = oval.validate()
        checks = [{"name": "oval-validate", "passed": True, "defect": 0.0, "tol": 0.0}]
        checks += verify.battery(oval, args.samples, args.seed)
    report = {"table": args.table, "validation": validation.to_dict(), "checks": checks,
              "passed": all(c["passed"] for c in checks)}
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        _emit(text, args.out)
    if not validation.passed:
        return EXIT_VALIDATION
    return EXIT_OK if report["passed"] else EXIT_NUMERIC


def cmd_render(args):
    count = checked_count(args.orbits, "orbits", 0)
    oval = SupportOval.load(args.table)
    orbits = []
    rng = np.random.default_rng(args.seed)
    for _ in range(count):
        a1 = rng.uniform(0, TWO_PI)
        w = rng.uniform(0.6, 2.4)
        orbits.append(billiard.orbit(oval, ChordConfig(a1, a1 + w), args.steps))
    render.save_svg(args.svg, oval, orbits, show_circles=args.circles)
    print(f"wrote {args.svg}")
    return EXIT_OK


# -- argument plumbing -----------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="outerlength",
        description="Outer length billiard laboratory: build tables, iterate "
        "the map, find periodic orbits, scan invariant curves, verify "
        "structure, render figures.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forge", help="construct a table from a spec file")
    p.add_argument("--spec", required=True, help="table spec JSON")
    p.add_argument("--out", required=True, help="output table JSON")
    p.set_defaults(fn=cmd_forge)

    p = sub.add_parser("iterate", help="iterate the billiard map")
    p.add_argument("--table", required=True)
    p.add_argument("--state", help="initial chord 'alpha1,alpha2'")
    p.add_argument("--point", help="initial exterior point 'x,y'")
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--out", help="orbit CSV path (stdout if omitted)")
    p.add_argument("--svg", help="optional SVG rendering path")
    p.add_argument("--circles", action="store_true", help="draw auxiliary circles")
    p.set_defaults(fn=cmd_iterate)

    p = sub.add_parser("find-periodic", help="variational periodic orbit search")
    p.add_argument("--table", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--seed-angles", help="comma-separated seed angles")
    p.add_argument("--tol", type=float, default=1e-11)
    p.add_argument("--out", help="orbit JSON path")
    p.set_defaults(fn=cmd_find_periodic)

    p = sub.add_parser("scan", help="closure-residual scan over the first angle")
    p.add_argument("--table", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", help="scan CSV path (stdout if omitted)")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("verify", help="run the structure verification battery")
    p.add_argument("--table", required=True)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("render", help="render a table with orbit overlays")
    p.add_argument("--table", required=True)
    p.add_argument("--svg", required=True)
    p.add_argument("--orbits", type=int, default=3)
    p.add_argument("--steps", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--circles", action="store_true")
    p.set_defaults(fn=cmd_render)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (TableConstructionError, OvalValidationError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, json.JSONDecodeError) as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # before OuterLengthError: a ConfigError is both
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OuterLengthError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
