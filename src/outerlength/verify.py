"""The structure battery: each check compares two independent routes to one
quantity and returns the defect between them.

`battery` runs every check on one table for `outerlength verify`; the
acceptance tests call the same checks on their own draws and thresholds.  The
checks call the package through module attributes (`genfun.grad_arr`, ...),
so a caller that replaces one of those functions sees every call; the area
check's shifted solves, one batch started at the image, go through the
private `billiard._step_from_jets`, not `step_angles_arr`.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import billiard, genfun, polygons
from .errors import ConfigError, checked_count
from .genfun import ChordConfig
from .oval import TWO_PI


def gradient_fd_defect(oval, a1, a2):
    """Closed-form (S1, S2) against central differences of S."""
    diff = np.subtract(genfun.grad_arr(oval, a1, a2), genfun.fd_grad_arr(oval, a1, a2))
    return float(np.max(np.abs(diff)))


def hessian_fd_defect(oval, a1, a2):
    """Closed-form (S11, S12, S22) against central second differences of S,
    with step 1e-4 or a twentieth of the least curvature radius if smaller
    (on `ellipse(1, 0.02)`, radius 4e-4, step 1e-4 reads 2.1e-4)."""
    h = min(1e-4, oval.validate().min_curvature_radius / 20.0)
    diff = np.subtract(genfun.hess_arr(oval, a1, a2), genfun.fd_hess_arr(oval, a1, a2, h))
    return float(np.max(np.abs(diff)))


def sign_violations(oval, a1, a2):
    """Count of chords breaking S11 > 0, S12 < 0 or S22 > 0."""
    s11, s12, s22 = genfun.hess_arr(oval, a1, a2)
    return float(np.sum(s11 <= 0) + np.sum(s22 <= 0) + np.sum(s12 >= 0))


def defining_identity_defect(oval, a1, a2):
    """S against l1 + l2 minus the boundary arc between the tangency points."""
    l1, l2 = genfun.lengths_arr(oval, a1, a2)
    S = genfun.S_arr(oval, a1, a2)
    return float(np.max(np.abs(S - (l1 + l2 - oval.arc_length(a1, a2)))))


def dual_forms_defect(oval, a1, a2):
    """Support form of the gradient against the l tan(w/2) radii (R1 = -S1, R2 = S2)."""
    s1, s2 = genfun.grad_arr(oval, a1, a2)
    r1, r2 = genfun.radii_arr(oval, a1, a2)
    return float(np.max(np.abs([s1 + r1, s2 - r2])))


def oracle_defect(oval, a1, a2):
    """Largest distance between the images of the chord vertices under the
    Cartesian reflection rule and the generating-function map, each one
    batched call (the map raises StepFailureError where it has no root)."""
    a3 = billiard.iterate(oval, a1, a2, 1)[2]
    start = billiard.vertex_point(oval, ChordConfig(a1, a2)).T
    image = billiard.vertex_point(oval, ChordConfig(a2, a3)).T
    return float(np.max(np.linalg.norm(billiard.cartesian_step(oval, start) - image, axis=1)))


def symplectic_defect(oval, a1, a2):
    """Worst |det DT - 1| in (R, alpha), with d alpha3 / d alpha1 from central
    differences (h = 1e-5) of the batched map.  A chord the map cannot step
    raises StepFailureError naming it; a shifted start it cannot step gives NaN.
    The a1 +- h chords are one batch of 2N chords, started at the unshifted
    image a3, within about h |d alpha3 / d alpha1| of their roots.

    T = Phi F Phi^-1 with Phi(a, b) = (R1(a, b), a) and F(a1, a2) = (a2, a3),
    so det DT = -S12(a2, a3) (d alpha3 / d alpha1) / S12(a1, a2).
    """
    h = 1e-5
    a3 = billiard.iterate(oval, a1, a2, 1)[2]
    ends = np.stack([a2, a2])
    jets = genfun.chord_jets(oval, np.stack([a1 + h, a1 - h]), ends)
    plus, minus = billiard._step_from_jets(oval, ends, *jets, start=np.stack([a3, a3]))
    da3 = (plus - minus) / (2 * h)
    det = -genfun.hess_arr(oval, a2, a3)[1] * da3 / genfun.hess_arr(oval, a1, a2)[1]
    return float(np.max(np.abs(det - 1.0)))


def twist_violations(report):
    """Sampled chords where the map or its square fails to twist positively,
    from a `billiard.twist_report`; a chord the map cannot step (`nonfinite`)
    counts as one, since the square's survey leaves it out."""
    return float(report.violations + report.violations_squared + report.nonfinite)


def regular_phi_defect(poly):
    """Largest |Phi_i| on a polygon where every Phi_i vanishes (regular n-gons)."""
    return float(np.max(np.abs(polygons.phi(poly))))


def phi_tangency_defect(poly):
    """Phi_i in closed form against the determinant with the tangency points C_i."""
    return float(np.max(np.abs(polygons.phi(poly) - polygons.phi_via_tangency(poly))))


def unit_support_defect(poly):
    """Phi_i against tan(g_i / 2) - tan(g_{i-1} / 2), for unit support numbers."""
    g = poly.gaps
    return float(np.max(np.abs(polygons.phi(poly) - (np.tan(g / 2) - np.tan(np.roll(g, 1) / 2)))))


def perimeter_euclid_defect(poly):
    """Perimeter from the support data against the Euclidean vertex polygon."""
    return abs(polygons.perimeter(poly) - polygons.perimeter_from_vertices(poly))


def bracket_flow_defect(poly, i, j):
    """Closed-form Lie bracket [xi_i, xi_j] against the integrated flow commutator."""
    diff = polygons.xi_bracket(poly, i, j) - polygons.flow_commutator(poly, i, j)
    return float(np.max(np.abs(diff)))


def perimeter_derivative_defect(poly):
    """Largest |d perimeter| along the rotation fields xi_i, which keep it fixed."""
    return float(np.max(np.abs(polygons.perimeter_derivative_along_xi(poly))))


def equilateral_wu_defect():
    """W_i and U_i of the equilateral triangle against their exact value 2."""
    wu = polygons.triangle_WU(np.pi / 3, np.pi / 3, np.pi / 3)
    return float(np.max(np.abs(np.r_[wu.W, wu.U] - 2.0)))


def worst_triangle_expression(triples):
    """Largest six-term obstruction over half-angle triples (u, v, w), in one
    elementwise call, or -inf for none; the obstruction is strictly negative
    on every valid triple."""
    u, v, w = np.reshape(triples, (-1, 3)).T
    return float(np.max(polygons.triangle_WU(u, v, w).expression, initial=-np.inf))


def battery(oval, samples, seed):
    """Every check on one table, from draws of `numpy.random.default_rng(seed)`:
    `samples` chords for the generating function, their first 2000 for the
    area check, one in twenty (at least 8) for the oracle.  Returns one record
    `{"name", "passed", "defect", "tol"}` per check; passed is defect < tol.
    The map-twist record also gives `nonfinite`, the surveyed chords without
    an image, which the square's survey leaves out and its defect counts."""
    samples = checked_count(samples, "samples", 1)
    rng = np.random.default_rng(seed)
    a1, a2 = genfun.sample_chords(rng, samples)
    o1, o2 = genfun.sample_chords(rng, max(8, samples // 20), 0.3, np.pi - 0.4)
    gaps = rng.uniform(0.4, 1.6, 5)
    gaps *= TWO_PI / np.sum(gaps)
    alphas = np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    poly = None
    while poly is None:  # redraw until the pentagon is convex
        with contextlib.suppress(ConfigError):
            poly = polygons.PolygonConfig(alphas, 1.0 + rng.uniform(-0.2, 0.2, 5))
    u, v = rng.uniform(0.05, np.pi / 2 - 0.05, (200, 2)).T
    w = np.pi - u - v
    keep = (0.05 < w) & (w < np.pi / 2 - 0.05)
    triples = np.column_stack([u[keep], v[keep], w[keep]])
    sub = slice(0, min(samples, 2000))
    regular = np.max([regular_phi_defect(polygons.PolygonConfig.regular(n)) for n in range(3, 9)])
    twist = billiard.twist_report(oval, samples=min(samples, 2000), seed=seed)
    checks = [
        ("genfun-gradient-fd", gradient_fd_defect(oval, a1, a2), 1e-6),
        ("genfun-hessian-fd", hessian_fd_defect(oval, a1, a2), 1e-4),
        ("genfun-sign-pattern", sign_violations(oval, a1, a2), 0.5),
        ("genfun-defining-identity", defining_identity_defect(oval, a1, a2), 1e-10),
        ("genfun-dual-forms", dual_forms_defect(oval, a1, a2), 1e-10),
        ("map-oracle-equivalence", oracle_defect(oval, o1, o2), 1e-8),
        ("map-symplectic", symplectic_defect(oval, a1[sub], a2[sub]), 1e-6),
        ("map-twist", twist_violations(twist), 0.5),
        ("polygon-phi-regular", regular, 1e-12),
        ("polygon-phi-tangency", phi_tangency_defect(poly), 1e-12),
        ("polygon-unit-support-identity",
         unit_support_defect(polygons.PolygonConfig(alphas, np.ones(5))), 1e-11),
        ("polygon-perimeter-euclid", perimeter_euclid_defect(poly), 1e-10),
        ("polygon-bracket-flow", bracket_flow_defect(poly, 1, 2), 1e-5),
        ("polygon-perimeter-derivative", perimeter_derivative_defect(poly), 1e-10),
        ("triangle-wu-equilateral", equilateral_wu_defect(), 1e-12),
        ("triangle-expression-negative", worst_triangle_expression(triples), 0.0),
    ]
    extra = {"map-twist": {"nonfinite": twist.nonfinite}}
    return [{"name": name, "passed": bool(d < tol), "defect": float(d), "tol": tol,
             **extra.get(name, {})} for name, d, tol in checks]
