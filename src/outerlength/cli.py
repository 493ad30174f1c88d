"""Command-line front end: forge, iterate, find-periodic, scan, verify, render.

Exit codes: 0 success, 2 validation/constructor failure, 3 numeric failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import billiard, forge, genfun, periodic, polygons, render
from .errors import (
    ChordDomainError,
    ContainmentError,
    ConvergenceError,
    OuterLengthError,
    OvalValidationError,
    StepFailureError,
    TableConstructionError,
)
from .genfun import ChordConfig
from .oval import SupportOval

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _load_table(path):
    oval = SupportOval.load(path, validate=False)
    report = oval.validate()
    if not report.passed:
        raise OvalValidationError("; ".join(report.messages))
    return oval


def _parse_pair(text, name):
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"--{name} wants two comma-separated numbers")
    return parts


# -- subcommands ---------------------------------------------------------------


def cmd_forge(args):
    with open(args.spec, encoding="utf-8") as fh:
        spec_obj = json.load(fh)
    if spec_obj.get("type") == "four-periodic":
        spec = forge.FourPeriodicSpec.from_json(spec_obj)
        oval, _ = forge.from_f(spec)
    elif spec_obj.get("type") == "radon-arc":
        oval = forge.radon_like(np.asarray(spec_obj["p"], dtype=float))
    else:
        raise ValueError(f"unknown table spec type {spec_obj.get('type')!r}")
    oval.save(args.out)
    report = oval.validate().to_dict()
    report["table"] = args.out
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_iterate(args):
    oval = _load_table(args.table)
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
    csv_text = rec.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.svg:
        render.save_svg(args.svg, oval, [rec], show_circles=args.circles)
    return EXIT_OK


def cmd_find_periodic(args):
    oval = _load_table(args.table)
    seed = None
    if args.seed_angles:
        seed = np.array([float(x) for x in args.seed_angles.split(",")])
    orbit = periodic.find_periodic(
        oval, args.n, m=args.m, seed_angles=seed, tol=args.tol
    )
    text = json.dumps(orbit.to_json(), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text)
    return EXIT_OK


def cmd_scan(args):
    oval = _load_table(args.table)
    report = periodic.invariant_curve_scan(
        oval, args.n, m=args.m, samples=args.samples, closure_tol=args.tol
    )
    csv_text = report.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    summary = {
        "samples": int(len(report.alpha1)),
        "closures": int(report.closed_mask.sum()),
        "all_closed": report.all_closed,
        "max_closure_run": report.max_closure_run,
        "solver_failures": report.solver_failures,
    }
    print(json.dumps(summary))
    return EXIT_OK


def _verify_checks(oval, samples, seed):
    rng = np.random.default_rng(seed)
    checks = []

    def add(name, defect, tol):
        checks.append(
            {"name": name, "passed": bool(defect < tol), "defect": float(defect),
             "tol": tol}
        )

    a1, a2 = genfun.sample_chords(rng, samples)
    g1, g2 = genfun.grad_arr(oval, a1, a2)
    f1, f2 = genfun.fd_grad_arr(oval, a1, a2)
    add("genfun-gradient-fd", max(np.max(np.abs(g1 - f1)), np.max(np.abs(g2 - f2))), 1e-6)
    h11, h12, h22 = genfun.hess_arr(oval, a1, a2)
    e11, e12, e22 = genfun.fd_hess_arr(oval, a1, a2)
    add(
        "genfun-hessian-fd",
        max(np.max(np.abs(h11 - e11)), np.max(np.abs(h12 - e12)), np.max(np.abs(h22 - e22))),
        1e-4,
    )
    add(
        "genfun-sign-pattern",
        float(np.sum(h11 <= 0) + np.sum(h22 <= 0) + np.sum(h12 >= 0)),
        0.5,
    )
    l1, l2 = genfun.lengths_arr(oval, a1, a2)
    arcs = np.array([oval.arc_length(x, y) for x, y in zip(a1, a2)])
    add(
        "genfun-defining-identity",
        np.max(np.abs(genfun.S_arr(oval, a1, a2) - (l1 + l2 - arcs))),
        1e-10,
    )
    s1, s2 = g1, g2
    r1, r2 = genfun.radii_arr(oval, a1, a2)
    add("genfun-dual-forms", max(np.max(np.abs(s1 + r1)), np.max(np.abs(s2 - r2))), 1e-10)

    n_map = max(8, samples // 20)
    worst = 0.0
    for x, w in zip(
        rng.uniform(0, 2 * np.pi, n_map), rng.uniform(0.3, np.pi - 0.4, n_map)
    ):
        state = ChordConfig(x, x + w)
        M = billiard.vertex_point(oval, state)
        img_geo = billiard.cartesian_step(oval, M)
        img_gen = billiard.vertex_point(oval, billiard.step(oval, state))
        worst = max(worst, float(np.linalg.norm(img_geo - img_gen)))
    add("map-oracle-equivalence", worst, 1e-8)

    sub = slice(0, min(samples, 2000))
    dets = []
    for x, y in zip(a1[sub], a2[sub]):
        dets.append(billiard.symplectic_defect(oval, ChordConfig(x, y)))
    add("map-symplectic", np.max(dets), 1e-6)
    tw = billiard.twist_report(oval, samples=min(samples, 2000), seed=seed)
    add("map-twist", float(tw.violations + tw.violations_squared), 0.5)

    add(
        "polygon-phi-regular",
        max(
            np.max(np.abs(polygons.phi_all(polygons.PolygonConfig.regular(n))))
            for n in range(3, 9)
        ),
        1e-12,
    )
    gaps = rng.uniform(0.4, 1.6, 5)
    gaps *= 2 * np.pi / np.sum(gaps)
    alph = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    poly1 = polygons.PolygonConfig(alph, np.ones(5))
    unit_identity = max(
        abs(
            polygons.phi(poly1, i)
            - (np.tan(poly1.gaps[i] / 2) - np.tan(poly1.gaps[i - 1] / 2))
        )
        for i in range(5)
    )
    add("polygon-unit-support-identity", unit_identity, 1e-11)
    poly2 = None
    while poly2 is None:  # redraw until the pentagon is convex
        with contextlib.suppress(ValueError):
            poly2 = polygons.PolygonConfig(alph, 1.0 + rng.uniform(-0.2, 0.2, 5))
    add(
        "polygon-perimeter-euclid",
        abs(polygons.perimeter(poly2) - polygons.perimeter_from_vertices(poly2)),
        1e-10,
    )
    add(
        "polygon-bracket-flow",
        np.max(
            np.abs(
                polygons.xi_bracket(poly2, 1, 2) - polygons.flow_commutator(poly2, 1, 2)
            )
        ),
        1e-5,
    )
    add(
        "polygon-perimeter-derivative",
        max(abs(polygons.perimeter_derivative_along_xi(poly2, i)) for i in range(5)),
        1e-10,
    )
    wu = polygons.triangle_WU(np.pi / 3, np.pi / 3, np.pi / 3)
    add("triangle-wu-equilateral", float(np.max(np.abs(np.r_[wu.W, wu.U] - 2.0))), 1e-12)
    worst_expr = -np.inf
    for _ in range(200):
        u, v = rng.uniform(0.05, np.pi / 2 - 0.05, 2)
        w = np.pi - u - v
        if not 0.05 < w < np.pi / 2 - 0.05:
            continue
        worst_expr = max(worst_expr, polygons.triangle_WU(u, v, w).expression)
    add("triangle-expression-negative", worst_expr, 0.0)
    return checks


def cmd_verify(args):
    try:
        oval = SupportOval.load(args.table, validate=False)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"cannot read table: {exc}", file=sys.stderr)
        return EXIT_IO
    validation = oval.validate()
    report = {"table": args.table, "validation": validation.to_dict()}
    if not validation.passed:
        report["checks"] = [
            {"name": "oval-validate", "passed": False, "skipped_dependents": True}
        ]
        report["passed"] = False
        text = json.dumps(report, indent=2)
        print(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return EXIT_VALIDATION
    checks = [{"name": "oval-validate", "passed": True, "defect": 0.0, "tol": 0.0}]
    checks += _verify_checks(oval, args.samples, args.seed)
    report["checks"] = checks
    report["passed"] = all(c["passed"] for c in checks)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK if report["passed"] else EXIT_NUMERIC


def cmd_render(args):
    oval = _load_table(args.table)
    orbits = []
    rng = np.random.default_rng(args.seed)
    for _ in range(args.orbits):
        a1 = rng.uniform(0, 2 * np.pi)
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
    except (ChordDomainError, ContainmentError, StepFailureError,
            ConvergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OuterLengthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, json.JSONDecodeError) as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
