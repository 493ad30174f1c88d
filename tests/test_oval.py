import json
import math

import mpmath
import numpy as np
import pytest
from scipy.interpolate import make_interp_spline

from outerlength import oval as oval_module
from outerlength._solve import _SMALL
from outerlength.errors import ContainmentError, OvalValidationError
from outerlength.oval import SupportOval, circle, ellipse, perturbed_circle

from test_reference import SPLINE_BOUNDS, ExactSpline, spline_errors

TWO_PI = 2.0 * np.pi


class TestPointAt:
    def test_circle_cardinal_points(self, round_table):
        assert np.allclose(round_table.point_at(0.0), [1.0, 0.0], atol=1e-14)
        assert np.allclose(round_table.point_at(np.pi / 2), [0.0, 1.0], atol=1e-14)

    def test_ellipse_vertex_on_implicit_curve(self):
        e = ellipse(2.0, 1.0)
        pt = e.point_at(0.0)
        assert np.allclose(pt, [2.0, 0.0], atol=1e-9)
        # substitution check: sampled boundary points satisfy x^2/4 + y^2 = 1
        pts = e.point_at(np.linspace(0, TWO_PI, 64, endpoint=False))
        vals = pts[:, 0] ** 2 / 4.0 + pts[:, 1] ** 2
        assert np.max(np.abs(vals - 1.0)) < 1e-9

    def test_tangent_vector_identity(self, wobble3_table):
        # d gamma / d alpha = (p'' + p) (-sin, cos)
        h = 1e-5
        alphas = np.linspace(0.1, TWO_PI, 40)
        fd = (wobble3_table.point_at(alphas + h) - wobble3_table.point_at(alphas - h)) / (2 * h)
        rho = wobble3_table.curvature_radius(alphas)
        exact = np.stack([-rho * np.sin(alphas), rho * np.cos(alphas)], axis=-1)
        assert np.max(np.abs(fd - exact)) < 1e-6

    def test_central_symmetry(self, wobble2_table):
        assert wobble2_table.symmetry_flag
        alphas = np.linspace(0, TWO_PI, 33)
        assert np.max(
            np.abs(wobble2_table.point_at(alphas + np.pi) + wobble2_table.point_at(alphas))
        ) < 1e-10


class TestCurvature:
    def test_circle_radius(self):
        c = circle(2.5)
        assert abs(c.curvature_radius(1.234) - 2.5) < 1e-14

    def test_cos2_perturbation_at_zero(self):
        eps = 0.05
        oval = perturbed_circle(eps, 2)
        # p'' + p = 1 - 3 eps cos(2 alpha)
        assert abs(oval.curvature_radius(0.0) - (1 - 3 * eps)) < 1e-14
        assert abs(oval.curvature_radius(np.pi / 4) - 1.0) < 1e-14


class TestArcLength:
    def test_circle_full_turn(self, round_table):
        assert abs(round_table.arc_length(0.0, TWO_PI) - TWO_PI) < 1e-12

    def test_circle_quarter(self, round_table):
        assert abs(round_table.arc_length(0.0, np.pi / 2) - np.pi / 2) < 1e-12

    def test_cos2_half_period(self):
        oval = perturbed_circle(0.05, 2)
        assert abs(oval.arc_length(0.0, np.pi) - np.pi) < 1e-12

    def test_additivity(self, wobble3_table, spline_wobble3):
        for oval in (wobble3_table, spline_wobble3):
            a, b, c = 0.3, 2.1, 5.9
            lhs = oval.arc_length(a, c)
            rhs = oval.arc_length(a, b) + oval.arc_length(b, c)
            assert abs(lhs - rhs) < 1e-10

    def test_reversed_interval_rejected(self, round_table):
        with pytest.raises(ValueError):
            round_table.arc_length(1.0, 0.5)

    def test_arrays_match_scalar_calls(self, wobble3_table, spline_wobble3):
        rng = np.random.default_rng(5)
        a1 = rng.uniform(-TWO_PI, TWO_PI, 50)
        a2 = a1 + rng.uniform(1e-3, TWO_PI, 50)
        for oval in (wobble3_table, spline_wobble3):
            arcs = oval.arc_length(a1, a2)
            assert arcs.shape == a1.shape
            scalar = [oval.arc_length(x, y) for x, y in zip(a1, a2)]
            assert np.allclose(arcs, scalar, rtol=0.0, atol=1e-14)

    def test_one_bad_pair_in_an_array_rejected(self, wobble3_table):
        a1 = np.linspace(0.0, 3.0, 20)
        a2 = a1 + 1.0
        a2[7] = a1[7] - 0.1
        with pytest.raises(ValueError):
            wobble3_table.arc_length(a1, a2)


class TestTangentAngles:
    def test_circle_sqrt2_point(self, round_table):
        a1, a2 = round_table.tangent_angles_from((np.sqrt(2.0), 0.0))
        assert abs(a1 % TWO_PI - 7 * np.pi / 4) < 1e-10
        assert abs(a2 % TWO_PI - np.pi / 4) < 1e-10
        assert 0 < a2 - a1 < np.pi

    def test_circle_distance_two(self, round_table):
        a1, a2 = round_table.tangent_angles_from((2.0, 0.0))
        assert abs((a2 - a1) - 2 * np.pi / 3) < 1e-10

    def test_interior_point_rejected(self, round_table):
        with pytest.raises(ContainmentError):
            round_table.tangent_angles_from((0.5, 0.0))

    def test_support_line_reproduction(self, wobble3_table):
        rng = np.random.default_rng(7)
        for _ in range(25):
            ang = rng.uniform(0, TWO_PI)
            rad = rng.uniform(1.3, 3.0)
            M = rad * np.array([np.cos(ang), np.sin(ang)])
            a1, a2 = wobble3_table.tangent_angles_from(M)
            for a in (a1, a2):
                margin = M[0] * np.cos(a) + M[1] * np.sin(a) - wobble3_table.p(a)
                assert abs(margin) < 1e-10

    def test_exterior_predicate(self, round_table):
        assert round_table.is_exterior((1.5, 0.0))
        assert not round_table.is_exterior((0.9, 0.0))

    @pytest.mark.parametrize(
        "name", ["round_table", "ellipse_table", "wobble3_table", "wobble2_table", "forge_table"]
    )
    def test_exterior_exactly_where_tangency_returns(self, name, request):
        """Both read the same grid margins: points 1e-4..1e-2 outside are
        exterior and have tangents, points 1e-3 inside have neither."""
        table = request.getfixturevalue(name)
        table = table[0] if name == "forge_table" else table
        rng = np.random.default_rng(31)
        ang = rng.uniform(0.0, TWO_PI, 40)
        normals = np.column_stack([np.cos(ang), np.sin(ang)])
        dist = 10.0 ** rng.uniform(-4.0, -2.0, 40)
        for sign, offset in ((1.0, dist), (-1.0, 1e-3)):
            for point in table.point_at(ang) + sign * np.reshape(offset, (-1, 1)) * normals:
                try:
                    table.tangent_angles_from(point)
                    tangent = True
                except ContainmentError:
                    tangent = False
                assert table.is_exterior(point) == tangent == (sign > 0)


#: the tables of the near-boundary regression: round, a moderate and a thin
#: ellipse (least curvature radius 0.0025), one harmonic, a forged table
NEAR_TABLES = ["round_table", "ellipse_06", "ellipse_005", "wobble3_table", "forge_table"]


@pytest.fixture(scope="module")
def ellipse_06():
    return ellipse(1.0, 0.6)


@pytest.fixture(scope="module")
def ellipse_005():
    return ellipse(1.0, 0.05)


def _table(name, request):
    table = request.getfixturevalue(name)
    return table[0] if name == "forge_table" else table


def _offset_points(table, seed, count, decades, sign=1.0):
    """Points at log-uniform distance `decades` along the outward normal
    (inward for sign -1) of random boundary points."""
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, TWO_PI, count)
    dist = 10.0 ** rng.uniform(*decades, count)
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    return table.point_at(ang) + sign * dist[:, None] * normals


def _resolved(table, points):
    """Whether some node of the tangency grid has a margin above 1e-12."""
    grid = np.linspace(0.0, TWO_PI, oval_module.GRID_SIZE, endpoint=False)
    return np.array([np.max(table.support_margin(p, grid)) > 1e-12 for p in points])


class TestNearBoundaryTangency:
    """Points 1e-11..1e-6 outside, where the visible arc can be narrower
    than a grid cell: the tangency solve refines the maximum margin there."""

    @pytest.mark.parametrize("name", NEAR_TABLES)
    def test_every_near_point_has_tangents(self, name, request):
        table = _table(name, request)
        points = _offset_points(table, 41, 80, (-11.0, -6.0))
        assert not _resolved(table, points).all()  # some points need the refinement
        a1, a2 = table.tangent_angles_from(points)
        assert np.all((0.0 < a2 - a1) & (a2 - a1 < np.pi))
        margins = [table.support_margin(p, [x, y]) for p, x, y in zip(points, a1, a2)]
        assert np.max(np.abs(margins)) <= 1e-15
        assert table.is_exterior(points).all()

    @pytest.mark.parametrize("name", NEAR_TABLES)
    def test_exterior_agrees_with_tangency(self, name, request):
        """Near points outside and points 1e-3 inside: `is_exterior` holds
        exactly where `tangent_angles_from` returns, point by point and in
        a batch."""
        table = _table(name, request)
        outside = _offset_points(table, 42, 30, (-11.0, -6.0))
        inside = _offset_points(table, 43, 30, (-3.0, -3.0), sign=-1.0)
        points = np.concatenate([outside, inside])
        exterior = table.is_exterior(points)
        assert exterior.tolist() == [True] * 30 + [False] * 30
        for point, ext in zip(points, exterior):
            try:
                table.tangent_angles_from(point)
                tangent = True
            except ContainmentError:
                tangent = False
            assert table.is_exterior(point) == tangent == ext

    @pytest.mark.parametrize("name", NEAR_TABLES)
    def test_batch_equals_point_by_point(self, name, request):
        """Bit for bit where the grid resolves the visible arc, within 4
        rounding units where the maximum is refined.  These tables' jets
        agree to the last bit on floats and arrays, which a Fourier table
        with several harmonics does not promise."""
        table = _table(name, request)
        points = np.concatenate([
            _offset_points(table, 44, 40, (-11.0, -6.0)),
            _offset_points(table, 45, 20, (-4.0, 0.0)),
        ])
        batch = np.column_stack(table.tangent_angles_from(points))
        single = np.array([table.tangent_angles_from(p) for p in points])
        resolved = _resolved(table, points)
        assert resolved.any() and not resolved.all()
        assert np.array_equal(batch[resolved], single[resolved])
        assert np.all(np.abs(batch - single) <= 4 * np.spacing(np.abs(single)))

    @pytest.mark.parametrize("name", NEAR_TABLES)
    def test_one_point_gives_the_batch_roots(self, name, request):
        """One point solves its two roots in plain floats, a batch on
        arrays; both start Newton from the brackets' midpoints, with the
        margins at the ends read off the grid or the refined maximum, and
        give the same roots to the last bit, where the grid resolves the arc
        and where the refined cell is split."""
        table = _table(name, request)
        points = np.concatenate([
            _offset_points(table, 46, 40, (-11.0, -6.0)),
            _offset_points(table, 47, 20, (-4.0, 0.0)),
        ])
        resolved = _resolved(table, points)
        assert resolved.any() and not resolved.all()
        batch = np.column_stack(table.tangent_angles_from(points))
        assert np.array_equal(batch, [table.tangent_angles_from(p) for p in points])

    def test_one_point_gives_floats(self, wobble3_table):
        point = np.array([1.2, 0.7])
        angles = wobble3_table.tangent_angles_from(point)
        assert isinstance(angles, tuple) and len(angles) == 2
        assert all(type(a) is float for a in angles)
        assert wobble3_table.is_exterior(point) is True
        a1, a2 = wobble3_table.tangent_angles_from(point[None])
        assert a1.shape == a2.shape == (1,)
        assert (a1[0], a2[0]) == angles

    def test_interior_point_in_a_batch_is_named(self, round_table):
        points = np.array([[2.0, 0.0], [0.0, 1.5], [1.0, 1.0], [0.3, 0.2], [-2.0, 0.5]])
        assert round_table.is_exterior(points).tolist() == [True, True, True, False, True]
        with pytest.raises(ContainmentError, match=r"point 3, \[0\.3, 0\.2\]"):
            round_table.tangent_angles_from(points)

    def test_empty_batch(self, wobble3_table):
        a1, a2 = wobble3_table.tangent_angles_from(np.empty((0, 2)))
        assert a1.shape == a2.shape == (0,)
        assert wobble3_table.is_exterior(np.empty((0, 2))).shape == (0,)

    def test_bad_shape_rejected(self, round_table):
        with pytest.raises(ValueError):
            round_table.tangent_angles_from(np.ones((2, 3)))


class TestValidation:
    def test_circle_passes(self, round_table):
        report = round_table.validate()
        assert report.passed
        assert abs(report.min_curvature_radius - 1.0) < 1e-12

    def test_strong_cos2_fails(self):
        with pytest.raises(OvalValidationError) as failed:
            SupportOval.from_fourier(1.0, [0.0, 0.4])
        report = failed.value.report
        assert not report.passed
        assert report.min_curvature_radius < 0

    def test_mild_cos2_passes(self):
        good = SupportOval.from_fourier(1.0, [0.0, 0.1])
        report = good.validate()
        assert report.passed
        assert abs(report.min_curvature_radius - 0.7) < 1e-10

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    def test_infinite_table_fails(self):
        # p = inf passes both minimum tests, and every map step on it is NaN
        with pytest.raises(OvalValidationError, match="not finite"):
            circle(np.inf)

    def test_constructor_raises_on_invalid(self):
        with pytest.raises(OvalValidationError):
            SupportOval.from_fourier(1.0, [0.0, 0.4])

    @pytest.mark.parametrize("n", [0, 15])
    def test_spline_refuses_too_few_samples(self, n):
        with pytest.raises(OvalValidationError, match="at least 16"):
            SupportOval.from_callable(np.ones_like, n)


class TestRepresentations:
    def test_fourier_spline_agree(self, wobble3_table, spline_wobble3):
        alphas = np.linspace(0, TWO_PI, 501)
        assert np.max(np.abs(wobble3_table.p(alphas) - spline_wobble3.p(alphas))) < 1e-12
        assert np.max(np.abs(wobble3_table.jet(alphas)[1] - spline_wobble3.jet(alphas)[1])) < 1e-10
        assert abs(
            wobble3_table.support_integral(0.2, 7.7)
            - spline_wobble3.support_integral(0.2, 7.7)
        ) < 1e-12

    def test_spline_periodicity(self, spline_wobble3):
        assert spline_wobble3.validate().periodicity_defect < 1e-12

    def test_integral_wraps(self, spline_wobble3):
        full = spline_wobble3.circumference
        assert abs(
            spline_wobble3.support_integral(0.5, 0.5 + 3 * TWO_PI) - 3 * full
        ) < 1e-10

    def test_fourier_integral_on_lifted_spans(self):
        """Spans with ends in [-20, 20] and b - a in [-15, 15], reversed and
        multi-turn ones among them, against the antiderivative at 40 digits."""
        table = perturbed_circle(0.05, 3, 0.7)
        desc = table.to_json()
        rng = np.random.default_rng(29)
        a = rng.uniform(-20.0, 20.0, 4000)
        b = a + rng.uniform(-15.0, 15.0, 4000)
        got = table.support_integral(a, b)
        with mpmath.workdps(40):
            a0 = mpmath.mpf(desc["a0"])
            terms = [(k, mpmath.mpf(c), mpmath.mpf(s))
                     for k, (c, s) in enumerate(zip(desc["cos"], desc["sin"]), 1)]

            def anti(x):
                return a0 * x + mpmath.fsum((c * mpmath.sin(k * x) - s * mpmath.cos(k * x)) / k
                                            for k, c, s in terms)

            err = max(abs(anti(mpmath.mpf(y)) - anti(mpmath.mpf(x)) - g)
                      for x, y, g in zip(a.tolist(), b.tolist(), got.tolist()))
        assert err < 4e-15

    def test_json_round_trip_fourier(self, wobble3_table, tmp_path):
        path = tmp_path / "t.json"
        wobble3_table.save(path)
        back = SupportOval.load(path)
        obj = json.loads(path.read_text())
        assert obj["type"] == "fourier"
        alphas = np.linspace(0, TWO_PI, 100)
        assert np.max(np.abs(back.p(alphas) - wobble3_table.p(alphas))) == 0.0

    def test_json_round_trip_samples(self, spline_wobble3, tmp_path):
        path = tmp_path / "t.json"
        spline_wobble3.save(path)
        back = SupportOval.load(path)
        obj = json.loads(path.read_text())
        assert obj["type"] == "samples"
        alphas = np.linspace(0, TWO_PI, 100)
        assert np.max(np.abs(back.p(alphas) - spline_wobble3.p(alphas))) == 0.0

    @pytest.mark.parametrize("name", ["wobble3_table", "spline_wobble3"])
    def test_saved_text_is_json_dumps(self, name, request, tmp_path):
        table = request.getfixturevalue(name)
        path = tmp_path / "t.json"
        table.save(path)
        assert path.read_text(encoding="utf-8") == json.dumps(table.to_json())
        assert SupportOval.load(path).to_json() == table.to_json()

    @pytest.mark.parametrize("name", ["round_table", "ellipse_table", "wobble3_table",
                                      "wobble2_table", "spline_wobble3", "thin_ellipse",
                                      "forge_table"])
    def test_saved_table_reads_back(self, name, request, tmp_path):
        table = request.getfixturevalue(name)
        table = table[0] if name == "forge_table" else table
        path = tmp_path / "t.json"
        table.save(path)
        back = SupportOval.load(path)
        assert back.to_json() == table.to_json()
        alphas = np.linspace(-1.0, 7.5, 4096)
        for u, v in zip(back.jet(alphas), table.jet(alphas)):
            assert np.array_equal(u, v)
        assert back.validate() == table.validate()

    def test_unknown_descriptor(self):
        with pytest.raises(ValueError):
            SupportOval.from_json({"type": "mystery"})


# -- the spline kernel against the exact spline and scipy's B-spline --------------


def _bspline(table):
    """Periodic quintic B-spline built here from the table's own samples."""
    samples = np.asarray(table.to_json()["p"])
    x = np.linspace(0.0, TWO_PI, len(samples) + 1)
    return make_interp_spline(x, np.append(samples, samples[0]), k=5, bc_type="periodic")


def _gauss_integral(spl, a, b):
    """Integral of the periodic B-spline over [a, b]: three-point Gauss-Legendre
    on every knot interval, exact for quintics, summed with math.fsum."""
    h = TWO_PI / (len(spl.t) - 2 * spl.k - 1)
    knots = np.arange(np.floor(a / h) + 1, np.ceil(b / h)) * h
    edges = np.concatenate([[a], knots, [b]])
    nodes, weights = np.polynomial.legendre.leggauss(3)
    mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    vals = spl(np.mod(mid[:, None] + half[:, None] * nodes, TWO_PI)) * weights * half[:, None]
    return math.fsum(vals.ravel())


class TestSparseHarmonics:
    """`perturbed_circle(eps, 3, phase)` stores zeros for harmonics 1 and 2;
    the series skips them, and the descriptor still writes them."""

    EPS, PHASE = 0.05, 0.7

    def test_jet_matches_the_closed_forms(self):
        """p = 1 + eps cos(3a - phase) and its two derivatives against a
        50-digit reference, on the array and on the float path: p and p'
        within one rounding unit of their series' scale (1 + eps, 3 eps),
        p'' within two of 9 eps (it rounds two products of size up to 0.34
        and their sum; 40 of 2560 angles at j / 64 read 2).  The angles are
        multiples of 1/16, so 3a is exact in floats."""
        table = perturbed_circle(self.EPS, 3, self.PHASE)
        alphas = np.arange(-40, 120) / 16.0
        eps, phase = mpmath.mpf(self.EPS), mpmath.mpf(self.PHASE)
        with mpmath.workdps(50):
            ref = np.array([
                [float(1 + eps * mpmath.cos(3 * a - phase)),
                 float(-3 * eps * mpmath.sin(3 * a - phase)),
                 float(-9 * eps * mpmath.cos(3 * a - phase))]
                for a in map(mpmath.mpf, alphas.tolist())
            ]).T
        tol = (np.spacing([1 + self.EPS, 3 * self.EPS, 9 * self.EPS]) * [1, 1, 2])[:, None]
        vector = np.array(table.jet(alphas))
        floats = np.array([table.jet(a) for a in alphas.tolist()]).T
        assert np.all(np.abs(vector - ref) <= tol)
        assert np.all(np.abs(floats - ref) <= tol)

    def test_json_keeps_the_zero_coefficients(self):
        table = perturbed_circle(self.EPS, 3, self.PHASE)
        desc = table.to_json()
        assert desc["cos"][:2] == [0.0, 0.0] and desc["sin"][:2] == [0.0, 0.0]
        back = SupportOval.from_json(json.loads(json.dumps(desc)))
        assert back.to_json() == desc
        alphas = np.linspace(-1.0, 7.0, 50)
        assert np.array_equal(back.jet(alphas), table.jet(alphas))

    def test_all_zero_harmonics_are_the_circle(self):
        zeros, round_ = SupportOval.from_fourier(1.0, [0, 0], [0, 0]), circle()
        assert zeros.to_json()["cos"] == [0.0, 0.0]
        alphas = np.linspace(-1.0, 7.0, 50)
        assert np.array_equal(zeros.jet(alphas), round_.jet(alphas))
        assert zeros.jet(0.3) == round_.jet(0.3) == (1.0, 0.0, 0.0)
        assert np.array_equal(zeros.support_integral(alphas, alphas + 2.0),
                              round_.support_integral(alphas, alphas + 2.0))
        assert zeros.circumference == round_.circumference == TWO_PI

    @pytest.mark.parametrize("shape", [(0,), (0, 4), (0, 3, 1), (2, 0, 3)])
    @pytest.mark.parametrize("table", [circle(), perturbed_circle(0.05, 3)])
    def test_empty_batches_keep_their_shape(self, table, shape):
        # the periodic Newton hands on (0, n + 1) angles when no seed lies in
        # the chord domain
        empty = np.zeros(shape)
        assert all(v.shape == shape for v in table.jet(empty))
        assert table.support_integral(empty, empty + 1.0).shape == shape
        assert table.support_integral(empty[..., None], np.ones(3)).shape == shape + (3,)


class TestSplineKernel:
    @staticmethod
    def angles(table):
        n = len(table.to_json()["p"])
        rng = np.random.default_rng(21)
        return np.concatenate(
            [
                rng.uniform(-20.0, 0.0, 300),
                rng.uniform(4 * np.pi, 30.0, 300),
                np.arange(n) * (TWO_PI / n),
                [-0.3, 4 * np.pi + 0.1, np.nextafter(TWO_PI, 0.0)],
            ]
        )

    def test_jet_matches_bspline(self, spline_table):
        """The jet against the exact spline through the table's samples,
        within `SPLINE_BOUNDS` of each order's scale."""
        alphas = self.angles(spline_table)
        exact = ExactSpline(spline_table)
        with mpmath.workdps(40):
            errors = spline_errors(spline_table.jet(alphas), exact.jet(alphas))
        assert np.all(np.array(errors) <= SPLINE_BOUNDS)

    def test_scalar_and_small_batches_match_the_vector_kernel(self, spline_table):
        alphas = self.angles(spline_table)
        alphas = np.concatenate([alphas[:40], alphas[-40:]])
        batch = np.array(spline_table.jet(alphas))
        one_by_one = np.array([spline_table.jet(float(a)) for a in alphas]).T
        small = np.concatenate([spline_table.jet(chunk) for chunk in np.split(alphas, 16)], axis=1)
        assert np.array_equal(one_by_one, batch)
        assert np.array_equal(small, batch)

    def test_gather_matches_column_indexing(self, spline_table, monkeypatch):
        """A batch of more than `_SMALL` angles gathers its intervals'
        coefficients with `np.take`; `jet`, `value` and `integral` equal, bit
        for bit, the kernel on `_coef[:, i]` and `_cum[i]`."""
        rep = spline_table._rep

        def primitive(x):
            i, t = rep._locate(x)
            return rep._cum[i] + oval_module._quintic_primitive(rep._coef[:, i], t)

        alphas = self.angles(spline_table)
        alphas = alphas[:alphas.size // 3 * 3]
        assert alphas.size > _SMALL
        for a in (alphas, alphas.reshape(3, -1)):
            i, t = rep._locate(np.mod(a, TWO_PI))
            coef = rep._coef[:, i]
            assert np.array_equal(spline_table.jet(a), oval_module._quintic_jet(coef, t))
            assert np.array_equal(spline_table.p(a), oval_module._quintic_value(coef, t))
            gathered = spline_table.support_integral(a, a + 2.5)
            with monkeypatch.context() as m:
                m.setattr(rep, "_primitive", primitive)
                assert np.array_equal(gathered, spline_table.support_integral(a, a + 2.5))

    def test_integral_matches_bspline(self, spline_table):
        spl = _bspline(spline_table)
        anti = spl.antiderivative()
        rng = np.random.default_rng(22)
        a = rng.uniform(0.0, TWO_PI, 40)
        b = rng.uniform(0.0, TWO_PI, 40)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        within = spline_table.support_integral(lo, hi)
        assert np.max(np.abs(within - (anti(hi) - anti(lo)))) < 5e-14
        # wrap-around and multi-turn spans; the B-spline antiderivative's own
        # full-turn constant is off by up to 2.3e-14 here, so these spans are
        # referenced to exact Gauss-Legendre sums of the same B-spline
        starts = np.array([-7.0, -0.2, 5.9, 6.2, 1.0, 13.0])
        ends = starts + np.array([0.7, 0.5, 1.1, 3 * TWO_PI + 0.4, 2 * TWO_PI, 4 * TWO_PI - 0.3])
        got = spline_table.support_integral(starts, ends)
        ref = [_gauss_integral(spl, x, y) for x, y in zip(starts, ends)]
        assert np.max(np.abs(got - ref)) < 5e-14

    def test_integral_next_to_whole_turns(self, spline_table):
        """Ends within an ulp of a whole turn: each end's turn count must
        agree with its remainder, else the integral is off by a whole
        circumference."""
        full = spline_table.circumference
        assert abs(spline_table.support_integral(0.0, np.nextafter(TWO_PI, 0.0)) - full) < 4e-15
        spl = _bspline(spline_table)
        ends = [np.nextafter(k * TWO_PI, toward) for k in (-2, -1, 1, 2) for toward in (-9, 9)]
        ends += [0.0, -1e-20, np.nextafter(0.0, -1.0), 1e-20]
        got = spline_table.support_integral(np.array(ends), 1.0)
        ref = [_gauss_integral(spl, x, 1.0) if x < 1.0 else -_gauss_integral(spl, 1.0, x)
               for x in ends]
        assert np.max(np.abs(got - ref)) < 5e-14

    def test_periodicity_defect(self, spline_table):
        assert spline_table.validate().periodicity_defect < 1e-12

    def test_pieces_join_at_every_knot(self, spline_table):
        """p, p', p'' of interval i - 1 at its end equal interval i's at its
        start, at every knot, within 1e-13 of each order's scale; the seam at
        2*pi is `periodicity_defect`'s."""
        rep = spline_table._rep
        start = np.array(oval_module._quintic_jet(rep._coef, 0.0))
        end = np.array(oval_module._quintic_jet(rep._coef[:, :-1], rep._h))
        scale = np.maximum(1.0, np.max(np.abs(start), axis=1))
        assert np.all(np.max(np.abs(end - start[:, 1:]), axis=1) <= 1e-13 * scale)

    def test_one_interpolation_per_table(self, monkeypatch):
        calls = []
        build = oval_module._periodic_quintic

        def counting(samples):
            calls.append(1)
            return build(samples)

        monkeypatch.setattr(oval_module, "_periodic_quintic", counting)
        ellipse(1.0, 0.5)
        assert len(calls) == 1


@pytest.mark.parametrize("table", [perturbed_circle(0.05, 3), ellipse(1.0, 0.5)], ids=["fourier", "spline"])
def test_non_finite_angles_give_nan(table):
    with np.errstate(invalid="ignore"):
        for bad in (np.nan, np.inf, -np.inf):
            assert np.all(np.isnan(table.jet(bad)))
        for size in (3, 40):
            alphas = np.linspace(0.0, 1.0, size)
            alphas[1:3] = np.nan, np.inf
            jet = np.array(table.jet(alphas))
            assert np.all(np.isnan(jet[:, 1:3]))
            assert np.all(np.isfinite(np.delete(jet, [1, 2], axis=1)))


@pytest.mark.parametrize("table", [
    SupportOval.from_fourier(1.0, [0.0, 0.03, 0.02], [0.01, 0.0, -0.02]), ellipse(1.0, 0.5),
], ids=["fourier", "spline"])
def test_p_is_the_jets_first_entry_to_the_bit(table):
    """`p` evaluates the value alone, by the jet's own sums: a float, a
    few angles (plain floats on a spline) and a batch all agree with it."""
    angles = np.linspace(-7.0, 13.0, 40)
    for alpha in (1.234, -20.5, angles[:5], angles.reshape(8, 5)):
        p = table.p(alpha)
        assert type(p) is type(table.jet(alpha)[0])
        assert np.array_equal(p, table.jet(alpha)[0])
