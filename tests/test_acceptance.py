"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and measured defects.
"""

import time
import warnings

import numpy as np
import pytest

from outerlength import billiard as bl
from outerlength import forge
from outerlength import genfun as gf
from outerlength import periodic as pd
from outerlength import polygons as pg
from outerlength import verify
from outerlength.oval import circle, ellipse, perturbed_circle

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def tables():
    spec = forge.FourPeriodicSpec.from_harmonics({2: (0.0, 0.1)})
    four_periodic, _ = forge.from_f(spec)
    return {
        "circle": circle(),
        "ellipse": ellipse(np.sin(0.8), np.cos(0.8)),
        "wobble3": perturbed_circle(0.05, 3),
        "wobble2": perturbed_circle(0.1, 2),
        "four-periodic": four_periodic,
    }


def test_generating_function_suite(tables):
    """Closed-form gradient/Hessian vs finite differences and the sign
    pattern S11 > 0, S22 > 0, S12 < 0 on 10^4 random chords per table."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    grad, hess = [], []
    sign_violations = 0
    for name, oval in tables.items():
        a1, a2 = gf.sample_chords(rng, 10_000)
        grad.append(verify.gradient_fd_defect(oval, a1, a2))
        hess.append(verify.hessian_fd_defect(oval, a1, a2))
        # sign pattern sampled over nearly the whole gap range
        b1, b2 = gf.sample_chords(rng, 10_000, 1e-3, np.pi - 1e-3)
        sign_violations += int(verify.sign_violations(oval, b1, b2))
    # np.max, unlike Python's max from 0.0, keeps a NaN defect of any table
    worst_grad, worst_hess = np.max(grad), np.max(hess)
    elapsed = time.time() - t0
    assert worst_grad < 1e-6
    assert worst_hess < 1e-4
    assert sign_violations == 0
    assert elapsed < 60.0
    print(
        f"\n[PASS] generating-function suite: grad defect {worst_grad:.2e} < 1e-6, "
        f"hess defect {worst_hess:.2e} < 1e-4, sign violations 0/1e5 "
        f"({elapsed:.1f}s)"
    )


def test_nan_defect_on_a_later_table_fails_the_gate(tables, monkeypatch):
    """A NaN defect on the second table fails the suite; Python's max from
    0.0 used to drop it."""
    wobble3 = tables["wobble3"]
    grad = verify.gradient_fd_defect
    monkeypatch.setattr(
        verify, "gradient_fd_defect",
        lambda oval, a1, a2: np.nan if oval is wobble3 else grad(oval, a1, a2),
    )
    with pytest.raises(AssertionError):
        test_generating_function_suite({"circle": tables["circle"], "wobble3": wobble3})


def test_map_consistency(tables):
    """Envelope-coordinate step vs the Cartesian geometric oracle on 10^3
    random exterior points per table, agreement below 1e-8."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    defects = []
    for name, oval in tables.items():
        a1 = rng.uniform(0.0, TWO_PI, 1000)
        w = rng.uniform(0.25, np.pi - 0.35, 1000)
        defects.append(verify.oracle_defect(oval, a1, a1 + w))
    worst = np.max(defects)
    elapsed = time.time() - t0
    assert worst < 1e-8
    assert elapsed < 60.0
    print(
        f"\n[PASS] map consistency: worst Cartesian defect {worst:.2e} < 1e-8 "
        f"over 5x1000 exterior points ({elapsed:.1f}s)"
    )


def test_symplectic_and_twist(tables):
    """|det DT - 1| < 1e-6, with d alpha3 / d alpha1 from differences of the
    map, and positive twist for the map and its square at 10^4 sampled states
    per table, zero violations."""
    rng = np.random.default_rng(11)
    dets = []
    twist_violations = 0
    for name, oval in tables.items():
        a1, a2 = gf.sample_chords(rng, 10_000, 0.05, np.pi - 0.05)
        dets.append(verify.symplectic_defect(oval, a1, a2))
        rep = bl.twist_report(oval, samples=10_000, seed=13)
        twist_violations += int(verify.twist_violations(rep))
        assert rep.min_twist > 0 and rep.min_twist_squared > 0
    worst_det = np.max(dets)
    assert worst_det < 1e-6
    assert twist_violations == 0
    print(
        f"\n[PASS] symplectic & twist: max |det DT - 1| = {worst_det:.2e} < 1e-6, "
        f"twist violations 0/1e5 (map and its square)"
    )


def test_circle_exact_values():
    """Unit-circle chord at gap pi/2: l1 = l2 = 1, R1 = R2 = 1, S = 2 - pi/2
    within 1e-12; extremal perimeters 6 sqrt(3) (n=3) and 8 (n=4)."""
    table = circle()
    l1, l2 = gf.lengths_arr(table, 0.0, np.pi / 2)
    R1, R2 = gf.radii_arr(table, 0.0, np.pi / 2)
    S = gf.S_arr(table, 0.0, np.pi / 2)
    assert abs(l1 - 1.0) < 1e-12 and abs(l2 - 1.0) < 1e-12
    assert abs(R1 - 1.0) < 1e-12 and abs(R2 - 1.0) < 1e-12
    assert abs(S - (2.0 - np.pi / 2)) < 1e-12
    orb3 = pd.find_periodic(table, 3)
    assert abs(orb3.perimeter - 6 * np.sqrt(3)) < 1e-9
    orb4 = pd.find_periodic(table, 4)
    assert abs(orb4.perimeter - 8.0) < 1e-12
    print(
        "\n[PASS] circle exact values: l=1, R=1, S=2-pi/2 (1e-12); "
        f"perimeters {orb3.perimeter:.12f} (6*sqrt3), {orb4.perimeter:.12f} (8)"
    )


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_four_periodic_tables_end_to_end(eps):
    """f = eps sin 2x: the constructed table is valid, a 256-point scan at
    n=4 closes below 1e-8 everywhere, and every closed quadrilateral is a
    parallelogram (opposite-side support defect below 1e-9)."""
    spec = forge.FourPeriodicSpec.from_harmonics({2: (0.0, eps)})
    oval, family = forge.from_f(spec)
    assert oval.validate().passed
    report = pd.invariant_curve_scan(oval, 4, samples=256)
    max_res = float(np.nanmax(np.abs(report.residual)))
    assert report.solver_failures == 0
    assert max_res < 1e-8
    angles = report.orbit_angles
    angle_defect = np.max(np.abs([
        angles[:, 2] - angles[:, 0] - np.pi,
        angles[:, 3] - angles[:, 1] - np.pi,
    ]))
    support_defect = np.max(np.abs([
        oval.p(angles[:, 2]) - oval.p(angles[:, 0]),
        oval.p(angles[:, 3]) - oval.p(angles[:, 1]),
    ]))
    assert angle_defect < 1e-9
    assert support_defect < 1e-9
    print(
        f"\n[PASS] four-periodic table eps={eps}: scan residual {max_res:.2e} < 1e-8 "
        f"(256 angles), parallelogram defect {max(angle_defect, support_defect):.2e} < 1e-9"
    )


@pytest.mark.parametrize("t", [0.6, 0.8, 1.0])
def test_ellipse_cross_check(t):
    """The table built from f = cos(2t) sin(2x) is the axis-aligned ellipse
    with semi-axes (sin^2 t, cos^2 t): the confocal caustic of the
    (sin t, cos t) ellipse whose inscribed 4-periodic orbits have perimeter 4.
    (The caustic's axes are the squares of that ellipse's; at t = pi/4 this
    reduces to the f = 0 circle of radius 1/2.)"""
    spec = forge.FourPeriodicSpec.from_harmonics({2: (0.0, float(np.cos(2 * t)))})
    oval, _ = forge.from_f(spec)
    a, b = np.sin(t) ** 2, np.cos(t) ** 2
    alphas = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    target = np.sqrt((a * np.cos(alphas)) ** 2 + (b * np.sin(alphas)) ** 2)
    defect = float(np.max(np.abs(oval.p(alphas) - target)))
    assert defect < 1e-8
    print(
        f"\n[PASS] ellipse cross-check t={t}: support defect vs caustic "
        f"({a:.4f}, {b:.4f}) = {defect:.2e} < 1e-8"
    )


def test_radon_construction():
    """Quadrant-arc extension: a constant-arc seed reproduces the circle
    exactly; a perturbed seed yields a closed convex oval whose seams match
    below 1e-8 and whose n=4 scan closes everywhere."""
    round_table = forge.radon_like(np.full(65, 0.5))
    alphas = np.linspace(0.0, TWO_PI, 512, endpoint=False)
    circle_defect = float(np.max(np.abs(round_table.p(alphas) - 0.5)))
    assert circle_defect < 1e-12

    oval = forge.radon_like(forge.balanced_radon_seed(0.03))
    report_v = oval.validate()
    assert report_v.passed
    # seam continuity of p and p' at the quadrant boundaries
    h = 1e-6
    seam_defect = np.max([
        abs(oval.p(seam + h, deriv) - oval.p(seam - h, deriv))
        for seam in (np.pi / 2, np.pi, 3 * np.pi / 2, 0.0) for deriv in (0, 1)
    ])
    assert seam_defect < 1e-5  # finite-difference straddle of the seam
    scan = pd.invariant_curve_scan(oval, 4, samples=128)
    max_res = float(np.nanmax(np.abs(scan.residual)))
    assert scan.all_closed
    assert max_res < 1e-8
    print(
        f"\n[PASS] radon construction: circle defect {circle_defect:.1e}, "
        f"perturbed-seed scan residual {max_res:.2e} < 1e-8 (128 angles)"
    )


def test_polygon_distribution_suite():
    """Support-coordinate polygon machinery: flat fields on regular n-gons,
    the unit-support identity, vertex/side/perimeter formulas vs Euclidean
    geometry, closed-form brackets vs flow commutators, growth rank 2n-1 near
    regular polygons, and perimeter invariance along the fields."""
    rng = np.random.default_rng(55)
    phi_reg = np.max([verify.regular_phi_defect(pg.PolygonConfig.regular(n)) for n in range(3, 9)])
    assert phi_reg < 1e-12

    unit = []
    for n in (3, 4, 5, 6):
        gaps = rng.uniform(0.5, 1.4, n)
        gaps *= TWO_PI / np.sum(gaps)
        alphas = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
        unit.append(verify.unit_support_defect(pg.PolygonConfig(alphas, np.ones(n))))
    unit_identity = np.max(unit)
    assert unit_identity < 1e-11

    geom, brackets, dperims = [], [], []
    ranks_ok = True
    for n in range(3, 9):
        gaps = rng.uniform(0.5, 1.0, n) if n > 4 else rng.uniform(0.9, 1.7, n)
        gaps *= TWO_PI / np.sum(gaps)
        alphas = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
        poly = pg.PolygonConfig(alphas, 1.0 + rng.uniform(-0.15, 0.15, n))
        v = pg.vertices(poly)
        euclid_sides = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
        geom += [
            float(np.max(np.abs(pg.side_lengths(poly) - euclid_sides))),
            verify.perimeter_euclid_defect(poly),
        ]
        brackets += [verify.bracket_flow_defect(poly, i, (i + 1) % n) for i in range(n)]
        dperims.append(verify.perimeter_derivative_defect(poly))
        near = pg.PolygonConfig(
            pg.PolygonConfig.regular(n).alphas + rng.uniform(-0.02, 0.02, n),
            1.0 + rng.uniform(-0.02, 0.02, n),
        )
        ranks_ok &= pg.growth_report(near).rank == 2 * n - 1
    geom, bracket_defect, dperim = np.max(geom), np.max(brackets), np.max(dperims)
    assert geom < 1e-10
    assert bracket_defect < 1e-5
    assert dperim < 1e-10
    assert ranks_ok
    print(
        f"\n[PASS] polygon distribution suite: regular-field defect {phi_reg:.1e}, "
        f"unit-support identity {unit_identity:.1e}, geometry {geom:.1e}, "
        f"bracket-vs-flow {bracket_defect:.1e}, perimeter derivative {dperim:.1e}, "
        f"growth rank 2n-1 near regular (n=3..8)"
    )


def test_triangle_bracket_quantities():
    """Equilateral W = U = 2 within 1e-12; the six-term obstruction is
    strictly negative on 10^4 random valid half-angle triples."""
    eq_defect = verify.equilateral_wu_defect()
    assert eq_defect < 1e-12
    rng = np.random.default_rng(99)
    triples = []
    while len(triples) < 10_000:
        u, v = rng.uniform(1e-3, np.pi / 2 - 1e-3, 2)
        w = np.pi - u - v
        if not 1e-3 < w < np.pi / 2 - 1e-3:
            continue
        triples.append((u, v, w))
    assert np.all(pg.triangle_WU(*np.transpose(triples)).all_positive)
    worst = verify.worst_triangle_expression(triples)
    assert worst < 0.0
    print(
        f"\n[PASS] triangle bracket quantities: equilateral defect {eq_defect:.1e}, "
        f"obstruction < 0 on 10^4 triples (max {worst:.3e})"
    )


def test_isolated_closure_probe(tables, tmp_path):
    """Non-assertive probe: on the 3-lobed table, the n=3 closure-residual
    scan at 1e-3 angular resolution shows no closure interval longer than two
    grid cells.  A violation is recorded for investigation, not failed."""
    oval = tables["wobble3"]
    samples = int(np.ceil(TWO_PI / 1e-3))
    report = pd.invariant_curve_scan(oval, 3, samples=samples)
    artifact = tmp_path / "closure_probe_n3.csv"
    artifact.write_text(report.to_csv())
    closures = int(report.closed_mask.sum())
    run = report.max_closure_run
    summary = (
        f"probe: {samples} samples, {closures} closure cells, "
        f"max run {run}, {report.sign_changes} sign changes, "
        f"artifact {artifact}"
    )
    if run > 2:
        warnings.warn(
            "closure runs exceed two grid cells; investigate table "
            f"degeneracy ({summary})"
        )
    print(f"\n[{'PASS' if run <= 2 else 'FLAG'}] isolated-closure probe: {summary}")
