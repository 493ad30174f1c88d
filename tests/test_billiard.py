import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerlength import billiard as bl
from outerlength import genfun as gf
from outerlength import verify
from outerlength._solve import _SMALL, bracketed_root
from outerlength.errors import ContainmentError, StepFailureError
from outerlength.genfun import ChordConfig
from outerlength.oval import SupportOval, circle, ellipse

from conftest import (
    draw_twist_gaps_in, fourier_tables, rotated, single_harmonic_tables, spline_tables,
    symmetric_fourier_tables,
)

TWO_PI = 2.0 * np.pi


def step_residual(oval, state, new_state):
    """|R2(old chord) - R1(new chord)|, the defect of the map's defining equation."""
    _, R2 = gf.grad_arr(oval, state.alpha1, state.alpha2)
    S1, _ = gf.grad_arr(oval, new_state.alpha1, new_state.alpha2)
    return np.abs(R2 + S1)


class TestCircleSteps:
    def test_quarter_turn(self, round_table):
        new = bl.step(round_table, ChordConfig(0.0, np.pi / 2))
        assert new.alpha1 == pytest.approx(np.pi / 2, abs=1e-12)
        assert new.alpha2 == pytest.approx(np.pi, abs=1e-12)

    def test_two_thirds_turn(self, round_table):
        new = bl.step(round_table, ChordConfig(0.0, 2 * np.pi / 3))
        assert new.alpha2 == pytest.approx(4 * np.pi / 3, abs=1e-12)
        assert step_residual(round_table, ChordConfig(0.0, 2 * np.pi / 3), new) < 1e-12

    def test_residual_bound_on_dynamic_window(self, wobble3_table):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a1 = rng.uniform(0, TWO_PI)
            w = rng.uniform(0.1, np.pi - 0.3)
            state = ChordConfig(a1, a1 + w)
            new = bl.step(wobble3_table, state)
            assert step_residual(wobble3_table, state, new) < 1e-11

    def test_equivariance_under_rotation(self, round_table):
        state = ChordConfig(0.3, 1.5)
        shifted = ChordConfig(0.3 + 0.9, 1.5 + 0.9)
        out = bl.step(round_table, state)
        out_shifted = bl.step(round_table, shifted)
        assert out_shifted.alpha1 - out.alpha1 == pytest.approx(0.9, abs=1e-10)
        assert out_shifted.alpha2 - out.alpha2 == pytest.approx(0.9, abs=1e-10)

    def test_central_symmetry_commutes(self, wobble2_table):
        # antipodal map on chords: (a1, a2) -> (a1 + pi, a2 + pi)
        state = ChordConfig(0.4, 1.7)
        image = bl.step(wobble2_table, state)
        anti = ChordConfig(state.alpha1 + np.pi, state.alpha2 + np.pi)
        image_anti = bl.step(wobble2_table, anti)
        assert image_anti.alpha1 - image.alpha1 == pytest.approx(np.pi, abs=1e-9)
        assert image_anti.alpha2 - image.alpha2 == pytest.approx(np.pi, abs=1e-9)


class TestCartesianOracle:
    def test_circle_rotation_sqrt2(self, round_table):
        M2 = bl.cartesian_step(round_table, (np.sqrt(2.0), 0.0))
        assert np.allclose(M2, [0.0, np.sqrt(2.0)], atol=1e-10)

    def test_circle_rotation_distance_two(self, round_table):
        M2 = bl.cartesian_step(round_table, (2.0, 0.0))
        expected = 2.0 * np.array([np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)])
        assert np.allclose(M2, expected, atol=1e-10)

    def test_interior_point_rejected(self, round_table):
        with pytest.raises(ContainmentError):
            bl.cartesian_step(round_table, (0.5, 0.0))

    def test_oracle_matches_generating_route(
        self, round_table, ellipse_table, wobble3_table
    ):
        rng = np.random.default_rng(8)
        for oval in (round_table, ellipse_table, wobble3_table):
            # one (a1, w) pair per row
            a1, w = rng.uniform((0, 0.3), (TWO_PI, np.pi - 0.4), (60, 2)).T
            assert verify.oracle_defect(oval, a1, a1 + w) < 1e-8

    def test_one_point_gives_one_image(self, wobble3_table):
        M = np.array([1.3, 0.9])
        assert bl.cartesian_step(wobble3_table, M).shape == (2,)
        assert bl.cartesian_step(wobble3_table, M[None]).shape == (1, 2)
        assert bl.cartesian_step(wobble3_table, np.empty((0, 2))).shape == (0, 2)

    def test_batch_equals_point_by_point(self, round_table, ellipse_table, wobble3_table):
        """To the last bit on tables whose jets agree on floats and arrays."""
        rng = np.random.default_rng(12)
        for oval in (round_table, ellipse_table, wobble3_table):
            a1, w = rng.uniform((0, 0.3), (TWO_PI, np.pi - 0.4), (40, 2)).T
            M = bl.vertex_point(oval, ChordConfig(a1, a1 + w)).T
            images = bl.cartesian_step(oval, M)
            assert images.shape == (40, 2)
            assert np.array_equal(images, [bl.cartesian_step(oval, m) for m in M])

    def test_interior_point_in_a_batch_is_named(self, round_table):
        with pytest.raises(ContainmentError, match="point 1,"):
            bl.cartesian_step(round_table, [(2.0, 0.0), (0.5, 0.0), (0.0, 3.0)])

    def test_bracket_ends_come_from_the_scans(
        self, monkeypatch, round_table, ellipse_table, wobble3_table
    ):
        """The tangency and the far tangent read their brackets' end margins
        off the scans that found the brackets: on chord vertices, a one-point
        tangency evaluates the margin at most 6.5 times on average and a
        Cartesian step at most 9.5 times (10.4 and 15.9 when the solver
        evaluated the ends itself, 9.9 when the far tangent scanned 256
        nodes of its own, cells 4 times as wide as the grid's)."""
        calls = []
        margin_fdf = SupportOval._margin_fdf

        def counted(self, *args):
            calls.append(1)
            return margin_fdf(self, *args)

        monkeypatch.setattr(SupportOval, "_margin_fdf", counted)
        rng = np.random.default_rng(8)
        for oval in (round_table, ellipse_table, wobble3_table):
            a1, w = rng.uniform((0, 0.3), (TWO_PI, np.pi - 0.4), (60, 2)).T
            M = bl.vertex_point(oval, ChordConfig(a1, a1 + w)).T
            for solve, most in ((oval.tangent_angles_from, 6.5),
                                (functools.partial(bl.cartesian_step, oval), 9.5)):
                del calls[:]
                for m in M:
                    solve(m)
                assert len(calls) <= most * len(M), (oval, solve)

    def test_near_points_agree_with_the_map(
        self, round_table, ellipse_table, wobble3_table, forge_table
    ):
        """Points 1e-7..1e-6 outside, where the old 2048-node sign scan
        missed the tangents of about half: the map and the Cartesian rule
        move every one to the same point within 1e-8."""
        rng = np.random.default_rng(13)
        for oval in (round_table, ellipse_table, wobble3_table, forge_table[0]):
            ang = rng.uniform(0.0, TWO_PI, 50)
            normals = np.column_stack([np.cos(ang), np.sin(ang)])
            M = oval.point_at(ang) + 10.0 ** rng.uniform(-7.0, -6.0, (50, 1)) * normals
            a1, a2 = oval.tangent_angles_from(M)
            image = bl.vertex_point(oval, ChordConfig(a2, bl.step_angles_arr(oval, a1, a2))).T
            assert np.max(np.linalg.norm(bl.cartesian_step(oval, M) - image, axis=1)) < 1e-8

    def test_near_points_batch_equals_point_by_point(
        self, monkeypatch, round_table, wobble3_table, forge_table
    ):
        """Points 1e-7..1e-6 outside: each one-point image equals its batch
        row to the last bit, and on every table some of the one-point far
        tangents lie in the cell from alpha2 to the first grid node after
        it, which the scan starts at alpha2 itself."""
        lows = []
        solve = bl.bracketed_root

        def recorded(fdf, lo, *args, **kwargs):
            lows.append(lo)
            return solve(fdf, lo, *args, **kwargs)

        monkeypatch.setattr(bl, "bracketed_root", recorded)
        rng = np.random.default_rng(14)
        for oval in (round_table, ellipse(1.0, 0.5), wobble3_table, forge_table[0]):
            ang = rng.uniform(0.0, TWO_PI, 50)
            normals = np.column_stack([np.cos(ang), np.sin(ang)])
            M = oval.point_at(ang) + 10.0 ** rng.uniform(-7.0, -6.0, (50, 1)) * normals
            images = bl.cartesian_step(oval, M)
            del lows[:]
            assert np.array_equal(images, [bl.cartesian_step(oval, m) for m in M])
            a2 = [oval.tangent_angles_from(m)[1] for m in M]
            assert np.count_nonzero(np.equal(lows, a2)) > 0, oval

    def test_auxiliary_circle_tangencies(self, wobble3_table):
        state = ChordConfig(0.2, 1.4)
        center, r = bl.auxiliary_circle(wobble3_table, state)
        # tangent to the boundary at alpha2: the center-to-oval distance
        # max_a margin(a) equals r and is attained at alpha2
        assert wobble3_table.support_margin(center, state.alpha2) == pytest.approx(
            r, abs=1e-12
        )
        margins = wobble3_table.support_margin(center, np.linspace(0, TWO_PI, 720))
        assert np.max(margins) <= r + 1e-12
        # tangent to the incoming line at alpha1 (circle on the oval's side)
        m1 = wobble3_table.support_margin(center, state.alpha1)
        assert abs(m1 + r) < 1e-9


class TestJacobian:
    def test_circle_right_angle(self, round_table):
        J = bl.jacobian(round_table, ChordConfig(0.0, np.pi / 2))
        assert abs(np.linalg.det(J) - 1.0) < 1e-12
        assert J[1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_against_finite_differences(self, wobble3_table, ellipse_table):
        rng = np.random.default_rng(9)
        for oval in (wobble3_table, ellipse_table):
            for _ in range(20):
                a1 = rng.uniform(0, TWO_PI)
                w = rng.uniform(0.4, 2.2)
                state = ChordConfig(a1, a1 + w)
                J = bl.jacobian(oval, state)
                Jfd = bl.fd_jacobian(oval, state)
                assert np.max(np.abs(J - Jfd)) < 1e-5

    def test_symplectic_defect(self, wobble3_table):
        rng = np.random.default_rng(10)
        a1, a2 = gf.sample_chords(rng, 1000, 0.05, np.pi - 0.05)
        assert verify.symplectic_defect(wobble3_table, a1, a2) < 1e-6

    def test_loop_integral_preserved(self, round_table):
        # invariant circle {w = const} of the round table: oint R d alpha
        w = 1.1
        alphas = np.linspace(0, TWO_PI, 256, endpoint=False)
        R_before, _ = gf.radii_arr(round_table, alphas, alphas + w)
        before = np.trapezoid(np.append(R_before, R_before[0]), dx=TWO_PI / 256)
        image_alpha = np.empty_like(alphas)
        image_R = np.empty_like(alphas)
        for i, a in enumerate(alphas):
            new = bl.step(round_table, ChordConfig(a, a + w))
            image_alpha[i] = new.alpha1
            image_R[i] = gf.radii_arr(round_table, new.alpha1, new.alpha2)[0]
        order = np.argsort(image_alpha % TWO_PI)
        xs = (image_alpha % TWO_PI)[order]
        ys = image_R[order]
        after = np.trapezoid(
            np.append(ys, ys[0]), np.append(xs, xs[0] + TWO_PI)
        )
        assert abs(before - after) < 1e-8
        assert abs(before - TWO_PI * np.tan(w / 2) ** 2) < 1e-8


class TestTwist:
    def test_positive_twist_on_stock_tables(
        self, round_table, ellipse_table, wobble3_table
    ):
        for oval in (round_table, ellipse_table, wobble3_table):
            rep = bl.twist_report(oval, samples=2000, seed=4)
            assert rep.passed
            assert rep.min_twist > 0
            assert rep.min_twist_squared > 0

    def test_images_without_a_root_are_counted(self, monkeypatch):
        # on a flat ellipse, chords this short often have no partner of equal
        # radius (see test_solve::test_step_raises_without_reflection_root)
        table = ellipse(1.0, 0.2)
        window = (1.0001e-4, 1.0002e-4)
        a1, a2 = gf.sample_chords(np.random.default_rng(0), 400, *window)
        draw_twist_gaps_in(monkeypatch, window)
        rep = bl.twist_report(table, 400, 0)
        missing = int(np.sum(np.isnan(bl.step_angles_arr(table, a1, a2))))
        assert rep.samples == 400
        assert 0 < rep.nonfinite == missing < 400
        assert rep.violations == rep.violations_squared == 0

    def test_predicted_start_is_the_circle_image(self, monkeypatch):
        """On the circle the map turns a chord by its gap, so Newton starts
        at the root: the bracket ends and one step, 2 fdf calls per batch."""
        calls = []
        factory = bl._base_radius_fdf

        def counted(oval):
            fdf = factory(oval)

            def wrapper(*args):
                calls.append(1)
                return fdf(*args)

            return wrapper

        monkeypatch.setattr(bl, "_base_radius_fdf", counted)
        a1, a2 = gf.sample_chords(np.random.default_rng(8), 1000, 0.05, np.pi - 0.05)
        a3 = bl.step_angles_arr(circle(), a1, a2)
        assert len(calls) <= 2
        assert np.max(np.abs(a3 - (2 * a2 - a1))) < 1e-12

    @pytest.mark.parametrize("table, count", [("ellipse_table", 6), ("wobble3_table", 7)])
    def test_predicted_start_keeps_its_measured_counts(self, table, count, request, monkeypatch):
        """Near a circle the predictor is near the image: a 1000-chord batch
        takes the fdf calls ROADMAP aim 2 measured for the predictor fork."""
        oval = request.getfixturevalue(table)
        calls = []
        factory = bl._base_radius_fdf

        def counted(oval):
            fdf = factory(oval)
            return lambda *args: calls.append(1) or fdf(*args)

        monkeypatch.setattr(bl, "_base_radius_fdf", counted)
        a1, a2 = gf.sample_chords(np.random.default_rng(8), 1000, 0.05, np.pi - 0.05)
        assert np.isfinite(bl.step_angles_arr(oval, a1, a2)).all()
        assert len(calls) == count

    # (table, samples, seed, gap window); the last is the window of
    # test_images_without_a_root_are_counted, where some chords have no image
    SURVEYS = [
        ("round_table", 1000, 3, (0.05, np.pi - 0.05)),
        ("ellipse_table", 1000, 3, (0.05, np.pi - 0.05)),
        ("wobble3_table", 1000, 3, (0.05, np.pi - 0.05)),
        ("flat_ellipse", 400, 0, (1.0001e-4, 1.0002e-4)),
    ]

    @staticmethod
    def composed_survey(oval, samples, seed, window):
        """The twist survey as the composition of public calls: `hess_arr` at
        the chords, `step_angles_arr`, `hess_arr` at the found images."""
        a1, a2 = gf.sample_chords(np.random.default_rng(seed), samples, *window)
        _, s12, s22 = gf.hess_arr(oval, a1, a2)
        a3 = bl.step_angles_arr(oval, a1, a2)
        ok = np.isfinite(a3)
        n11, n12, _ = gf.hess_arr(oval, a2[ok], a3[ok])
        t, t2 = -1.0 / s12, (s22[ok] + n11) / (s12[ok] * n12)
        fields = (samples, np.min(t), np.min(t2) if t2.size else np.nan,
                  np.sum(t <= 0.0), np.sum(t2 <= 0.0), np.sum(~ok))
        return np.array(fields, dtype=float), a1, a2, ok

    @pytest.mark.parametrize("table, samples, seed, window", SURVEYS,
                             ids=[survey[0] for survey in SURVEYS])
    def test_survey_shares_its_jets_with_the_step(self, table, samples, seed, window, request,
                                                  monkeypatch):
        """`twist_report` evaluates the oval once at a1 and once at a2, for
        the Hessians and the map step, and its six fields are those of the
        composition it replaces, bit for bit."""
        oval = ellipse(1.0, 0.2) if table == "flat_ellipse" else request.getfixturevalue(table)
        ref, a1, a2, ok = self.composed_survey(oval, samples, seed, window)
        if table == "flat_ellipse":
            draw_twist_gaps_in(monkeypatch, window)
        seen = []
        inner = oval._rep.jet

        def recorded(alpha):
            seen.append(np.array(alpha, dtype=float))
            return inner(alpha)

        monkeypatch.setattr(oval._rep, "jet", recorded)
        rep = bl.twist_report(oval, samples, seed)
        fields = [getattr(rep, f.name) for f in dataclasses.fields(rep)]
        assert np.array_equal(np.array(fields, dtype=float), ref, equal_nan=True)
        assert [np.array_equal(a, a1) for a in seen].count(True) == 1
        assert [np.array_equal(a, a2) for a in seen].count(True) == 1
        if not ok.all():
            assert not any(np.array_equal(a, a2[ok]) for a in seen)
            assert 0 < rep.nonfinite < samples

    # on the thin ellipse the root is fixed only to about eps / |S12|, so it
    # is pinned by its defining residual, not by its angle
    @pytest.mark.parametrize("table", ["wobble3_table", "thin_ellipse"])
    def test_batched_step_residual(self, table, request):
        table = request.getfixturevalue(table)
        rng = np.random.default_rng(6)
        a1 = rng.uniform(0, TWO_PI, 50)
        a2 = a1 + rng.uniform(0.1, np.pi - 0.2, 50)
        a3 = bl.step_angles_arr(table, a1, a2)
        assert a3.shape == a1.shape
        for x, y, z in zip(a1, a2, a3):
            assert step_residual(table, ChordConfig(x, y), ChordConfig(y, z)) < 1e-11


class TestPhaseCoordinates:
    def test_round_trip(self, wobble3_table):
        state = ChordConfig(0.7, 2.0)
        back = bl.pair_from_phase(wobble3_table, *bl.phase_from_pair(wobble3_table, state))
        assert back.alpha2 == pytest.approx(state.alpha2, abs=1e-11)

    def test_map_phase_consistent_with_step(self, wobble3_table):
        # the map in (alpha, R) coordinates, as `fd_jacobian` differences it
        state = ChordConfig(0.7, 2.0)
        alpha, R = bl.phase_from_pair(wobble3_table, state)
        chord = bl.step(wobble3_table, bl.pair_from_phase(wobble3_table, alpha, R))
        image_alpha, image_R = bl.phase_from_pair(wobble3_table, chord)
        new = bl.step(wobble3_table, state)
        assert image_alpha == pytest.approx(new.alpha1, abs=1e-11)
        assert image_R == pytest.approx(
            float(gf.radii_arr(wobble3_table, new.alpha1, new.alpha2)[0]), abs=1e-9
        )

    def test_phase_point_requires_positive_radius(self):
        # every chord's auxiliary radius is positive, so no chord has these
        for table in (circle(), ellipse(1.0, 0.2)):
            for R in (-1.0, 0.0, 1e-300):
                with pytest.raises(StepFailureError, match="outside the admissible range"):
                    bl.pair_from_phase(table, 0.3, R)


class TestOrbits:
    def test_square_orbit_closes(self, round_table):
        rec = bl.orbit(round_table, ChordConfig(0.0, np.pi / 2), 4)
        assert rec.closure_residual < 1e-12

    def test_pentagon_star_orbit_closes(self, round_table):
        rec = bl.orbit(round_table, ChordConfig(0.0, 2 * np.pi / 5), 5)
        assert rec.closure_residual < 1e-12

    def test_four_periodic_family_orbit(self, forge_table):
        oval, family = forge_table
        s = family.state(0.55)
        rec = bl.orbit(oval, ChordConfig(s.alpha1, s.alpha2), 4)
        assert rec.closure_residual < 1e-8

    def test_csv_format(self, round_table):
        rec = bl.orbit(round_table, ChordConfig(0.0, np.pi / 2), 2)
        text = rec.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "step,alpha1,alpha2,R,M_x,M_y"
        assert len(lines) == 1 + 3 + 1
        assert lines[-1].startswith("# closure_residual=")
        first = lines[1].split(",")
        assert float(first[3]) == pytest.approx(1.0, abs=1e-12)  # R = tan^2(pi/4)
        assert float(first[4]) == pytest.approx(1.0, abs=1e-12)  # vertex (1, 1)
        assert float(first[5]) == pytest.approx(1.0, abs=1e-12)


# -- properties over random Fourier tables ----------------------------------------


@settings(max_examples=25, deadline=None)
@given(table=fourier_tables(), seed=st.integers(0, 2**32 - 1))
def test_map_is_area_preserving_on_random_tables(table, seed):
    """det DT = 1 in (R, alpha) with d alpha3 / d alpha1 from differences of
    the batched map, and the map solves its defining equation."""
    a1, a2 = gf.sample_chords(np.random.default_rng(seed), 200)
    a3 = bl.step_angles_arr(table, a1, a2)
    assert np.all(np.isfinite(a3))
    assert np.max(step_residual(table, ChordConfig(a1, a2), ChordConfig(a2, a3))) < 1e-11
    assert verify.symplectic_defect(table, a1, a2) < 1e-9


@settings(max_examples=20, deadline=None)
@given(table=fourier_tables(), seed=st.integers(0, 2**32 - 1))
def test_map_matches_oracle_on_random_tables(table, seed):
    """The generating-function map and the Cartesian reflection rule move
    the vertices of 20 chords to the same points."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, TWO_PI, 20)
    w = rng.uniform(0.3, np.pi - 0.4, 20)
    assert verify.oracle_defect(table, x, x + w) < 1e-8


@settings(max_examples=20, deadline=None)
@given(table=fourier_tables(), seed=st.integers(0, 2**32 - 1))
def test_phase_round_trip_on_random_tables(table, seed):
    a1, a2 = gf.sample_chords(np.random.default_rng(seed), 20)
    for chord in map(ChordConfig, a1.tolist(), a2.tolist()):
        back = bl.pair_from_phase(table, *bl.phase_from_pair(table, chord))
        assert back.alpha1 == chord.alpha1
        assert abs(back.alpha2 - chord.alpha2) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(table=fourier_tables(), phi=st.floats(0.0, TWO_PI), seed=st.integers(0, 2**32 - 1))
def test_batched_map_is_rotation_equivariant(table, phi, seed):
    """Turning the table by phi and the chords by phi turns their images by
    phi (within 1e-12; 300 random examples read at most 1.2e-14), and the
    same chords have no image (NaN) on both."""
    a1, a2 = gf.sample_chords(np.random.default_rng(seed), 200, 0.05, np.pi - 0.05)
    a3 = bl.step_angles_arr(table, a1, a2)
    turned = bl.step_angles_arr(rotated(table, phi), a1 + phi, a2 + phi)
    assert np.array_equal(np.isnan(turned), np.isnan(a3))
    assert np.all(np.abs(turned - (a3 + phi))[~np.isnan(a3)] <= 1e-12)


@settings(max_examples=20, deadline=None)
@given(table=symmetric_fourier_tables(), seed=st.integers(0, 2**32 - 1))
def test_map_commutes_with_central_symmetry(table, seed):
    """On a centrally symmetric table the point reflection M -> -M, which
    turns every angle by pi, commutes with the batched map (within 1e-12,
    the same chords without image) and with the batched Cartesian rule
    (within 1e-12 on the gaps the oracle checks, 0.3..pi - 0.4; its own
    error grows with the vertex distance, to about 3e-12 near gap pi)."""
    rng = np.random.default_rng(seed)
    a1, a2 = gf.sample_chords(rng, 200, 0.05, np.pi - 0.05)
    a3 = bl.step_angles_arr(table, a1, a2)
    turned = bl.step_angles_arr(table, a1 + np.pi, a2 + np.pi)
    assert np.array_equal(np.isnan(turned), np.isnan(a3))
    assert np.all(np.abs(turned - (a3 + np.pi))[~np.isnan(a3)] <= 1e-12)
    x = rng.uniform(0.0, TWO_PI, 20)
    M = bl.vertex_point(table, ChordConfig(x, x + rng.uniform(0.3, np.pi - 0.4, 20))).T
    assert np.max(np.abs(bl.cartesian_step(table, -M) + bl.cartesian_step(table, M))) <= 1e-12


def _scalar_and_batched(table, seed):
    """Rows (alpha3 of `step`, alpha2 of `pair_from_phase`, p, p', p'') for
    24 chords, once chord by chord through the float paths and once as
    batches above the float cutoff."""
    a1, a2 = gf.sample_chords(np.random.default_rng(seed), 3 * _SMALL)
    R = -gf.grad_arr(table, a1, a2)[0]
    p1, dp1, _ = table.jet(a1)
    pair = bracketed_root(bl._base_radius_fdf(table), *bl._gap_bracket(a1), a1, R, p1, dp1)
    batched = np.array([bl.step_angles_arr(table, a1, a2), pair, *table.jet(a1)])
    scalar = np.array([
        (bl.step(table, ChordConfig(x, y)).alpha2,
         bl.pair_from_phase(table, x, r).alpha2,
         *table.jet(x))
        for x, y, r in zip(a1.tolist(), a2.tolist(), R.tolist())
    ]).T
    return scalar, batched


@settings(max_examples=20, deadline=None)
@given(table=st.one_of(spline_tables(), single_harmonic_tables()), seed=st.integers(0, 2**32 - 1))
def test_scalar_path_matches_the_batch_bit_for_bit(table, seed):
    """Scalar `step`, `pair_from_phase` and jet run in plain floats; on spline
    tables and on Fourier tables with one harmonic they give the batched
    results to the last bit."""
    scalar, batched = _scalar_and_batched(table, seed)
    assert np.array_equal(scalar, batched)


def test_gap_bracket_of_a_float_is_its_array_value():
    """The scalar step's bracket pads by `math.ulp`, in floats, and gives
    `np.spacing`'s array bracket to the last bit: on angles in [-50, 50]
    and next to those where |a| + pi crosses a power of two."""
    edges = np.array([s * (2.0**k - np.pi) for k in range(2, 6) for s in (1.0, -1.0)])
    a = np.concatenate([np.random.default_rng(15).uniform(-50.0, 50.0, 400), [0.0, -0.0],
                        edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    floats = [bl._gap_bracket(x) for x in a.tolist()]
    assert all(type(lo) is float and type(hi) is float for lo, hi in floats)
    assert np.array_equal(np.transpose(floats), bl._gap_bracket(a))


@settings(max_examples=20, deadline=None)
@given(table=fourier_tables(), seed=st.integers(0, 2**32 - 1))
def test_scalar_path_within_rounding_of_the_batch(table, seed):
    """With several harmonics the float jet sums the series in order while
    the batch's matmul leaves the order to BLAS (dgemv here; the scalar
    matmul it replaced used ddot and differed from the batch as well).  The
    jets then agree within 2 rounding units of the sum of the absolute terms,
    and the solved angles within 2e-15 relative to max(1, |angle|)."""
    scalar, batched = _scalar_and_batched(table, seed)
    desc = table.to_json()
    k = np.arange(1, len(desc["cos"]) + 1)
    size = np.abs(desc["cos"]) + np.abs(desc["sin"])
    terms = [abs(desc["a0"]) + np.sum(size), np.sum(k * size), np.sum(k * k * size)]
    assert np.all(np.abs(scalar[2:] - batched[2:]) <= 2.0 * np.spacing(terms)[:, None])
    angles = np.abs(scalar[:2] - batched[:2])
    assert np.all(angles <= 2e-15 * np.maximum(1.0, np.abs(batched[:2])))
