from dataclasses import astuple

import numpy as np
import pytest

from outerlength import billiard as bl
from outerlength import forge
from outerlength import periodic as pd
from outerlength import polygons as pg
from outerlength.errors import (
    ArcConstraintError,
    ConvexityError,
    FPrimeBoundError,
    ReparamError,
)
from outerlength.genfun import ChordConfig

TWO_PI = 2.0 * np.pi


def caustic_support(t, alphas):
    # the axis-aligned ellipse with semi-axes (sin^2 t, cos^2 t): the confocal
    # caustic of the (sin t, cos t) ellipse whose inscribed 4-periodic
    # quadrilaterals have perimeter 4
    a, b = np.sin(t) ** 2, np.cos(t) ** 2
    return np.sqrt((a * np.cos(alphas)) ** 2 + (b * np.sin(alphas)) ** 2)


class TestFourPeriodicSpec:
    def test_harmonic_constraint(self):
        with pytest.raises(ArcConstraintError):
            forge.FourPeriodicSpec.from_harmonics({4: (0.0, 0.1)})

    def test_fprime_bound(self):
        with pytest.raises(FPrimeBoundError, match="f-prime bound violated"):
            forge.FourPeriodicSpec.from_harmonics({2: (0.0, 1.1)})

    def test_antiperiodicity_enforced_for_callables(self):
        with pytest.raises(ArcConstraintError):
            forge.FourPeriodicSpec.from_callable(np.sin, np.cos)

    def test_zero_at_origin_enforced(self):
        with pytest.raises(ArcConstraintError):
            forge.FourPeriodicSpec.from_callable(
                lambda x: 0.1 * np.cos(2 * x), lambda x: -0.2 * np.sin(2 * x)
            )

    def test_json_round_trip(self, forge_spec):
        back = forge.FourPeriodicSpec.from_json(forge_spec.to_json())
        xs = np.linspace(0, TWO_PI, 64)
        assert np.max(np.abs(back.jet(xs)[0] - forge_spec.jet(xs)[0])) == 0.0

    def test_callable_spec_matches_harmonics(self, forge_spec):
        spec = forge.FourPeriodicSpec.from_callable(
            lambda x: 0.1 * np.sin(2 * x), lambda x: 0.2 * np.cos(2 * x)
        )
        xs = np.linspace(0, TWO_PI, 64)
        assert np.max(np.abs(spec.jet(xs)[0] - forge_spec.jet(xs)[0])) < 1e-15
        assert abs(spec.jet(0.7)[2] - forge_spec.jet(0.7)[2]) < 1e-6

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_harmonic_jet_is_the_closed_form(self, eps):
        # f = eps sin 2x, so (f, f', f'') = (eps sin 2x, 2 eps cos 2x, -4 eps sin 2x)
        xs = np.linspace(-1.0, 7.0, 257)
        got = forge.FourPeriodicSpec.from_harmonics({2: (0.0, eps)}).jet(xs)
        want = (eps * np.sin(2 * xs), 2 * eps * np.cos(2 * xs), -4 * eps * np.sin(2 * xs))
        for g, w, scale in zip(got, want, (eps, 2 * eps, 4 * eps)):
            assert np.max(np.abs(g - w)) <= 4 * np.spacing(scale)

    def test_callable_jet_without_fsecond_differences_fprime(self, forge_spec):
        spec = forge.FourPeriodicSpec.from_callable(
            lambda x: 0.1 * np.sin(2 * x), lambda x: 0.2 * np.cos(2 * x)
        )
        xs = np.linspace(0, TWO_PI, 257)
        _, fp, fpp = spec.jet(xs)
        _, hfp, hfpp = forge_spec.jet(xs)
        assert np.max(np.abs(fp - hfp)) < 1e-15
        assert np.max(np.abs(fpp - hfpp)) < 1e-6


class TestTableFromSpec:
    def test_four_periodic_spec_is_from_f(self, forge_spec, forge_table):
        oval = forge.table_from_spec(forge_spec.to_json())
        alphas = np.linspace(0, TWO_PI, 64)
        assert np.array_equal(oval.p(alphas), forge_table[0].p(alphas))

    def test_radon_arc_spec_is_radon_like(self):
        nodes = np.linspace(0, np.pi / 2, 129)
        arc = forge.balanced_radon_seed(0.03)(nodes)
        oval = forge.table_from_spec({"type": "radon-arc", "p": arc.tolist()})
        alphas = np.linspace(0, TWO_PI, 64)
        assert np.array_equal(oval.p(alphas), forge.radon_like(arc).p(alphas))

    @pytest.mark.parametrize("obj, reason", [
        ([3], "must be a JSON object, not list"),
        ("four-periodic", "must be a JSON object, not str"),
        ({}, "unknown table spec type None"),
        ({"type": "hexagon"}, "unknown table spec type 'hexagon'"),
        ({"type": "four-periodic"}, "lacks the key 'harmonics'"),
        ({"type": "four-periodic", "harmonics": 5}, "must be a list of objects"),
        ({"type": "four-periodic", "harmonics": [3]}, "must be a list of objects"),
        ({"type": "four-periodic", "harmonics": [{"sin": 0.1}]}, "lacks the key 'k'"),
        ({"type": "radon-arc"}, "lacks the key 'p'"),
    ], ids=["list", "string", "no-type", "unknown-type", "no-harmonics", "harmonics-int",
            "harmonic-int", "harmonic-no-k", "radon-arc-no-p"])
    def test_malformed_spec_raises_value_error(self, obj, reason):
        with pytest.raises(ValueError, match=reason):
            forge.table_from_spec(obj)


def boundary_from_family(spec, x):
    """Boundary point of the table at family parameter x by the envelope
    formula gamma = p (cos a, sin a) + (dp/dx / da/dx) (-sin a, cos a), with
    dp1/dx = -f' (f'' / sqrt(4 - f'^2) + 2) / 4 from the jet of f."""
    a1, _, p1, _, da_dx = forge._family_raw(spec, x)
    _, fp, fpp = spec.jet(x)
    t = -fp * (fpp / np.sqrt(4.0 - fp * fp) + 2.0) / 4.0 / da_dx
    return np.array([p1 * np.cos(a1) - t * np.sin(a1), p1 * np.sin(a1) + t * np.cos(a1)])


class TestFromF:
    def test_zero_function_gives_half_circle(self):
        spec = forge.FourPeriodicSpec.from_harmonics({2: (0.0, 0.0)})
        oval, family = forge.from_f(spec)
        alphas = np.linspace(0, TWO_PI, 200)
        assert np.max(np.abs(oval.p(alphas) - 0.5)) < 1e-13
        # alpha(x) = x - pi/4 for the round table
        s = family.state(1.3)
        assert s.alpha1 == pytest.approx(1.3 - np.pi / 4, abs=1e-14)
        assert s.omega == pytest.approx(np.pi / 2, abs=1e-14)

    @pytest.mark.parametrize("t", [0.6, 0.8, 1.0])
    def test_ellipse_family(self, t):
        spec = forge.FourPeriodicSpec.from_harmonics({2: (0.0, np.cos(2 * t))})
        oval, _ = forge.from_f(spec)
        alphas = np.linspace(0, TWO_PI, 512)
        assert np.max(np.abs(oval.p(alphas) - caustic_support(t, alphas))) < 1e-8

    def test_constructed_table_valid_and_symmetric(self, forge_table):
        oval, _ = forge_table
        assert oval.validate().passed
        assert oval.symmetry_flag

    def test_family_lines_touch_the_table(self, forge_table):
        oval, family = forge_table
        for x in np.linspace(0, TWO_PI, 17):
            s = family.state(x)
            assert oval.p(s.alpha1) == pytest.approx(s.p1, abs=1e-9)
            assert oval.p(s.alpha2) == pytest.approx(s.p2, abs=1e-9)

    def test_boundary_formula_matches_support_point(self, forge_table):
        oval, family = forge_table
        for x in (0.2, 1.0, 2.2, 4.4):
            pt = boundary_from_family(family.spec, x)
            s = family.state(x)
            assert np.allclose(pt, oval.point_at(s.alpha1), rtol=0.0, atol=1e-12)

    def test_round_trip_through_tangency_extraction(self, forge_table):
        oval, family = forge_table
        for x in (0.3, 1.7, 3.9):
            s = family.state(x)
            vertex = bl.vertex_point(oval, ChordConfig(s.alpha1, s.alpha2))
            a1, a2 = oval.tangent_angles_from(vertex)
            assert a1 % TWO_PI == pytest.approx(s.alpha1 % TWO_PI, abs=1e-9)
            assert (a2 - a1) == pytest.approx(s.omega, abs=1e-9)
            assert oval.p(a1) == pytest.approx(s.p1, abs=1e-9)

    # FOUND in CHANGES.md: a 1e-8 harmonic far below the alias bound costs
    # the k = 1022 table its invariant curve (max residual 2.3e-7); k = 510
    # closes at 1.1e-9.  A fix of the forge must delete the marker.
    @pytest.mark.parametrize("k", [510, pytest.param(1022, marks=pytest.mark.xfail(
        raises=AssertionError, strict=True,
        reason="the forge loses fidelity below the alias bound (FOUND in CHANGES.md)"))])
    def test_tiny_high_harmonic_keeps_the_invariant_curve(self, k):
        spec = forge.FourPeriodicSpec.from_harmonics({2: (0.0, 0.1), k: (0.0, 1e-8)})
        oval, _ = forge.from_f(spec)
        assert pd.invariant_curve_scan(oval, 4, m=1, samples=64).all_closed

    def test_reparam_error(self):
        # strong second harmonic keeps |f'| < 2 but reverses alpha(x)
        spec = forge.FourPeriodicSpec.from_harmonics({2: (0.0, 0.52), 6: (0.0, 0.12)})
        with pytest.raises((ReparamError, ConvexityError)):
            forge.from_f(spec)


class TestParallelogramFamily:
    def test_perimeter_four(self, forge_spec):
        for x in np.linspace(0, TWO_PI, 9):
            s = forge.parallelogram_orbit(forge_spec, x)
            assert s.perimeter == pytest.approx(4.0, abs=1e-9)

    def test_square_for_zero_function(self):
        spec = forge.FourPeriodicSpec.from_harmonics({2: (0.0, 0.0)})
        s = forge.parallelogram_orbit(spec, 0.9)
        assert s.omega == pytest.approx(np.pi / 2, abs=1e-14)
        assert s.p1 == pytest.approx(0.5, abs=1e-14)
        assert s.p2 == pytest.approx(0.5, abs=1e-14)

    def test_quarter_shift_cycles_sides(self, forge_spec):
        x = 0.37
        direct = forge.parallelogram_orbit(forge_spec, x + np.pi / 2)
        s = forge.parallelogram_orbit(forge_spec, x)
        # a quarter turn of the cyclic side labels: (a1, a2, p1, p2) -> (a2, a1 + pi, p2, p1)
        assert direct.alpha1 == pytest.approx(s.alpha2, abs=1e-12)
        assert direct.alpha2 == pytest.approx(s.alpha1 + np.pi, abs=1e-12)
        assert direct.p1 == pytest.approx(s.p2, abs=1e-12)
        assert direct.p2 == pytest.approx(s.p1, abs=1e-12)

    def test_four_step_orbit_closes(self, forge_table):
        oval, family = forge_table
        for x in (0.1, 0.8, 2.0):
            s = family.state(x)
            rec = bl.orbit(oval, ChordConfig(s.alpha1, s.alpha2), 4)
            assert rec.closure_residual < 1e-8


def contact_coordinates(state):
    """(x, y, z) of a perimeter-4 parallelogram: mean angle, 2 cos(gap), p2 - p1."""
    return (state.alpha1 + state.alpha2) / 2.0, 2.0 * np.cos(state.omega), state.p2 - state.p1


class TestContactCoordinates:
    def test_square_family_on_zero_section(self):
        spec = forge.FourPeriodicSpec.from_harmonics({2: (0.0, 0.0)})
        for xval in (0.0, 0.7, 2.2):
            x, y, z = contact_coordinates(forge.parallelogram_orbit(spec, xval))
            assert x == pytest.approx(xval - np.pi / 4 + np.pi / 4, abs=1e-12)
            assert abs(y) < 1e-14
            assert abs(z) < 1e-14

    def test_ellipse_legendrian_graph(self):
        t = 0.8
        c = np.cos(2 * t)
        spec = forge.FourPeriodicSpec.from_harmonics({2: (0.0, c)})
        for xval in (0.3, 1.1, 2.7):
            x, y, z = contact_coordinates(forge.parallelogram_orbit(spec, xval))
            assert x == pytest.approx(xval, abs=1e-12)
            assert z == pytest.approx(c * np.sin(2 * xval), abs=1e-12)
            assert y == pytest.approx(2 * c * np.cos(2 * xval), abs=1e-12)

    def test_legendrian_condition_by_differences(self, forge_spec):
        h = 1e-6
        for xval in (0.4, 1.9, 5.0):
            _, y, _ = contact_coordinates(
                forge.parallelogram_orbit(forge_spec, xval)
            )
            zp = contact_coordinates(
                forge.parallelogram_orbit(forge_spec, xval + h)
            )[2]
            zm = contact_coordinates(
                forge.parallelogram_orbit(forge_spec, xval - h)
            )[2]
            assert y == pytest.approx((zp - zm) / (2 * h), abs=1e-8)

    def test_inverse(self, forge_spec):
        # the state at x lies over the point (x, f'(x), f(x)) of the graph
        s = forge.parallelogram_orbit(forge_spec, 0.9)
        f, fp, _ = forge_spec.jet(0.9)
        assert contact_coordinates(s) == pytest.approx((0.9, fp, f), abs=1e-12)

    def test_contact_round_trip_returns_the_state(self, forge_spec):
        for x in np.linspace(0, TWO_PI, 9):
            s = forge.parallelogram_orbit(forge_spec, x)
            back = forge._lift(*contact_coordinates(s))
            assert np.max(np.abs(np.subtract(back, astuple(s)))) <= 1e-15


def parallelogram_fields(state):
    """Rows xi1, xi2, [xi1, xi2], the contact form and the perimeter
    differential on perimeter-4 parallelograms, in the coordinates
    (alpha1, alpha2, p1, p2): xi1 = d/d alpha1 - cos(w) d/d p1,
    xi2 = d/d alpha2 + cos(w) d/d p2, the bracket sin(w) (d/d p1 - d/d p2),
    and the forms cos(w)(d alpha1 + d alpha2) + d p1 - d p2 and
    cos(w)(d alpha1 - d alpha2) + d p1 + d p2."""
    cw, sw = np.cos(state.omega), np.sin(state.omega)
    return np.array([[1.0, 0.0, -cw, 0.0], [0.0, 1.0, 0.0, cw], [0.0, 0.0, sw, -sw],
                     [cw, cw, 1.0, -1.0], [cw, -cw, 1.0, 1.0]])


class TestParallelogramFields:
    def test_square_specialization(self):
        xi1, xi2, bracket, _, _ = parallelogram_fields(
            forge.ParallelogramState(0.0, np.pi / 2, 0.5, 0.5))
        assert np.allclose(xi1, [1, 0, 0, 0], atol=1e-15)
        assert np.allclose(xi2, [0, 1, 0, 0], atol=1e-15)
        assert np.allclose(bracket, [0, 0, 1, -1], atol=1e-15)

    def test_bracket_magnitude(self):
        w = np.pi / 3
        bracket = parallelogram_fields(forge.ParallelogramState(0.0, w, 0.4, np.sin(w) - 0.4))[2]
        assert np.linalg.norm(bracket) == pytest.approx(np.sqrt(2) * np.sin(w), abs=1e-14)

    def test_forms_annihilate_the_fields(self, forge_spec):
        for x in np.linspace(0, TWO_PI, 9):
            xi1, xi2, _, *forms = parallelogram_fields(forge.parallelogram_orbit(forge_spec, x))
            for form in forms:
                assert abs(np.dot(form, xi1)) < 1e-12
                assert abs(np.dot(form, xi2)) < 1e-12

    def test_reduction_from_general_formulas(self, forge_spec):
        # the general Phi on 4-gon parallelogram data reproduces the
        # specialized field coefficients -cos(w), +cos(w)
        for x in (0.2, 1.0, 2.8):
            s = forge.parallelogram_orbit(forge_spec, x)
            poly = pg.PolygonConfig([s.alpha1, s.alpha2, s.alpha1 + np.pi, s.alpha2 + np.pi],
                                    [s.p1, s.p2, s.p1, s.p2])
            cw = np.cos(s.omega)
            phis = pg.phi(poly)
            assert phis[0] == pytest.approx(-cw, abs=1e-11)
            assert phis[1] == pytest.approx(cw, abs=1e-11)
            assert phis[2] == pytest.approx(-cw, abs=1e-11)
            assert phis[3] == pytest.approx(cw, abs=1e-11)
            # unnormalized form -cot(w)(p1 + p2) agrees as well
            assert phis[0] == pytest.approx(
                -(s.p1 + s.p2) / np.tan(s.omega), abs=1e-11
            )


class TestRadonLike:
    def test_arc_jet_matches_closed_forms(self):
        """The series in cos 2a through 129 samples of the balanced seed gives
        its closed-form p, p', p'' on 2048 angles; this pins the signs of the
        chain rule (errors read 2.2e-16, 1.2e-14 and 2.0e-12)."""
        eps = 0.03
        nodes = np.linspace(0.0, np.pi / 2, 129)
        jet = forge._arc_jet(forge.balanced_radon_seed(eps)(nodes))
        a = np.linspace(0.0, np.pi / 2, 2048)
        exact = (
            0.5 + eps * np.cos(2 * a) - eps / 9 * np.cos(6 * a),
            -2 * eps * np.sin(2 * a) + 2 * eps / 3 * np.sin(6 * a),
            -4 * eps * np.cos(2 * a) + 4 * eps * np.cos(6 * a),
        )
        for got, want, tol in zip(jet(a), exact, (1e-15, 1e-13, 1e-11)):
            assert np.max(np.abs(got - want)) < tol
        # the fit interpolates any samples at its nodes, the last coefficient included
        samples = 0.5 + 0.01 * np.random.default_rng(49).standard_normal(129)
        assert np.max(np.abs(forge._arc_jet(samples)(nodes)[0] - samples)) < 1e-14

    def test_circle_seed(self):
        oval = forge.radon_like(np.full(65, 0.5))
        alphas = np.linspace(0, TWO_PI, 321)
        assert np.max(np.abs(oval.p(alphas) - 0.5)) < 1e-12

    def test_ellipse_arc_reproduces_full_ellipse(self):
        t = 0.8
        oval = forge.radon_like(lambda a: caustic_support(t, a))
        alphas = np.linspace(0, TWO_PI, 321)
        assert np.max(np.abs(oval.p(alphas) - caustic_support(t, alphas))) < 1e-8

    def test_perturbed_seed_scan_closes(self):
        oval = forge.radon_like(forge.balanced_radon_seed(0.02))
        assert oval.validate().passed
        assert oval.symmetry_flag
        report = pd.invariant_curve_scan(oval, 4, samples=32)
        assert report.all_closed
        assert np.nanmax(np.abs(report.residual)) < 1e-8

    def test_end_sum_constraint(self):
        with pytest.raises(ArcConstraintError):
            forge.radon_like(np.full(65, 0.6))

    def test_unbalanced_curvature_rejected(self):
        # end sum holds but the endpoint curvatures do not balance, so the
        # extension would carry curvature jumps at the seams
        from outerlength.errors import SeamError

        with pytest.raises(SeamError, match="curvature balance"):
            forge.radon_like(lambda a: 0.5 + 0.02 * np.cos(2 * a))

    def test_convexity_guard(self):
        with pytest.raises((ArcConstraintError, ConvexityError)):
            forge.radon_like(lambda a: 0.5 + 0.2 * np.cos(2 * a))

    def test_small_end_defect_projected(self):
        samples = np.full(65, 0.5) + 1e-9
        oval = forge.radon_like(samples)
        assert abs(oval.p(0.0) + oval.p(np.pi / 2) - 1.0) < 1e-12
