import contextlib

import mpmath
import numpy as np
import pytest

from outerlength import polygons as pg
from outerlength.errors import ConfigError

TWO_PI = 2.0 * np.pi


def random_polygon(rng, n, p_spread=0.2):
    gaps = rng.uniform(0.4, 0.9, n) if n > 4 else rng.uniform(0.8, 1.8, n)
    gaps *= TWO_PI / np.sum(gaps)
    while np.any(gaps >= np.pi - 0.05):
        gaps = rng.uniform(0.5, 1.0, n)
        gaps *= TWO_PI / np.sum(gaps)
    alphas = rng.uniform(0, TWO_PI / n) + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    return pg.PolygonConfig(alphas, 1.0 + rng.uniform(-p_spread, p_spread, n))


def excircle_tangency(poly, i):
    """Classical construction: the excircle across side i of a triangle.

    Barycentric center (-a : b : c) with respect to the vertex opposite side
    i, then the tangency point is the foot of the perpendicular onto side i.
    """
    v = pg.vertices(poly)
    q1 = v[i]
    q2 = v[(i + 1) % 3]
    q3 = v[(i + 2) % 3]  # opposite vertex
    a = np.linalg.norm(q2 - q1)
    b = np.linalg.norm(q3 - q2)
    c = np.linalg.norm(q1 - q3)
    center = (-a * q3 + b * q1 + c * q2) / (-a + b + c)
    d = (q2 - q1) / np.linalg.norm(q2 - q1)
    return q1 + np.dot(center - q1, d) * d


@pytest.mark.parametrize("k", [1, -1])
def test_roll_is_numpys_to_the_bit(k):
    """`_roll` is `np.roll(a, k, axis=0)` on the shapes and dtypes the fields
    pass: angles and supports (n,), vertices (n, 2), complex-step arguments."""
    rng = np.random.default_rng(40)
    for n in range(3, 9):
        for a in (rng.normal(size=n), rng.normal(size=(n, 2)),
                  rng.normal(size=n) + 1j * rng.normal(size=n),
                  rng.normal(size=(n, 2)) + 1e-200j):
            out = pg._roll(a, k)
            assert out.dtype == a.dtype and out.shape == a.shape
            assert np.array_equal(out, np.roll(a, k, axis=0))


class TestVerticesAndSides:
    def test_unit_square_vertices(self):
        sq = pg.PolygonConfig(np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]), np.ones(4))
        v = pg.vertices(sq)
        assert np.allclose(v[1], [1.0, 1.0], atol=1e-14)  # between sides 0 and 1
        assert np.allclose(sorted(map(tuple, np.round(v, 12))),
                           [(-1, -1), (-1, 1), (1, -1), (1, 1)])

    def test_equilateral_vertices_at_distance_two(self):
        tri = pg.PolygonConfig(np.array([0.0, TWO_PI / 3, 2 * TWO_PI / 3]), np.ones(3))
        assert np.allclose(np.linalg.norm(pg.vertices(tri), axis=1), 2.0, atol=1e-12)

    def test_vertices_agree_with_linear_solve(self):
        rng = np.random.default_rng(31)
        for n in (3, 5, 7):
            poly = random_polygon(rng, n)
            v = pg.vertices(poly)
            for i in range(n):
                j = (i - 1) % n
                A = np.array(
                    [
                        [np.cos(poly.alphas[j]), np.sin(poly.alphas[j])],
                        [np.cos(poly.alphas[i]), np.sin(poly.alphas[i])],
                    ]
                )
                x = np.linalg.solve(A, [poly.ps[j], poly.ps[i]])
                assert np.allclose(v[i], x, atol=1e-12)

    def test_square_perimeter(self):
        sq = pg.PolygonConfig(np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]), np.ones(4))
        assert pg.perimeter(sq) == pytest.approx(8.0, abs=1e-12)

    def test_equilateral_perimeter(self):
        tri = pg.PolygonConfig(np.array([0.0, TWO_PI / 3, 2 * TWO_PI / 3]), np.ones(3))
        assert pg.perimeter(tri) == pytest.approx(6 * np.sqrt(3), abs=1e-12)

    def test_formula_perimeter_matches_euclidean(self):
        rng = np.random.default_rng(32)
        for n in (3, 4, 5, 6, 8):
            poly = random_polygon(rng, n)
            assert pg.perimeter(poly) == pytest.approx(
                pg.perimeter_from_vertices(poly), abs=1e-10
            )
            v = pg.vertices(poly)
            euclid = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
            assert np.allclose(pg.side_lengths(poly), euclid, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            pg.PolygonConfig(np.array([0.0, 0.5, 1.0]), np.ones(3))  # wrap gap > pi

    @pytest.mark.parametrize("p_last", [-1.0, -1.5])
    def test_rejects_side_of_nonpositive_length(self, p_last):
        # on a square, side 0 has length p_3 + p_1: zero, then negative
        square = np.array([0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        with pytest.raises(ValueError, match="positive length"):
            pg.PolygonConfig(square, np.array([1.0, 1.0, 1.0, p_last]))


class TestPhi:
    def test_zero_on_regular_polygons(self):
        for n in range(3, 9):
            reg = pg.PolygonConfig.regular(n)
            assert np.max(np.abs(pg.phi(reg))) < 1e-12
            scaled = pg.PolygonConfig.regular(n, r=2.7)
            assert np.max(np.abs(pg.phi(scaled))) < 1e-12

    def test_unit_support_identity(self):
        # p = 1: Phi_i = tan(gap_i / 2) - tan(gap_{i-1} / 2)
        rng = np.random.default_rng(33)
        for n in (3, 4, 6):
            poly = random_polygon(rng, n, p_spread=0.0)
            gaps = poly.gaps
            phis = pg.phi(poly)
            for i in range(n):
                expected = np.tan(gaps[i] / 2) - np.tan(gaps[(i - 1) % n] / 2)
                assert phis[i] == pytest.approx(expected, abs=1e-11)

    def test_two_routes_agree(self):
        rng = np.random.default_rng(34)
        for n in range(3, 9):
            poly = random_polygon(rng, n)
            via = pg.phi_via_tangency(poly)
            for i, value in enumerate(pg.phi(poly)):
                assert value == pytest.approx(via[i], abs=1e-11)

    def test_partials_match_mpmath(self):
        """Complex-step partials of every Phi_i against 40-digit mpmath
        derivatives of the closed form in its six neighboring coordinates,
        within 1e-12 of max(1, |ref|); these polygons read at most 1.1e-15."""
        mp = mpmath.mp

        def closed(a_prev, a_self, a_next, p_prev, p_self, p_next):
            bm, bp = (a_self - a_prev) / 2, (a_next - a_self) / 2
            num = mp.cos(bm) ** 2 * (p_next + p_self) - mp.cos(bp) ** 2 * (p_prev + p_self)
            return num / (2 * mp.sin(bm + bp) * mp.cos(bm) * mp.cos(bp))

        rng = np.random.default_rng(36)
        with mp.workdps(40):
            for n in range(3, 10):
                poly = None
                while poly is None:  # redraw until the support values give a convex polygon
                    with contextlib.suppress(ValueError):
                        poly = random_polygon(rng, n)
                d_alpha, d_p = pg.phi_partials(poly)
                a = [mp.mpf(x) for x in poly.alphas]
                p = [mp.mpf(x) for x in poly.ps]
                for i in range(n):
                    a_prev = a[i - 1] - (2 * mp.pi if i == 0 else 0)
                    a_next = a[(i + 1) % n] + (2 * mp.pi if i == n - 1 else 0)
                    x = (a_prev, a[i], a_next, p[i - 1], p[i], p[(i + 1) % n])
                    for k in range(6):
                        ref = float(mp.diff(closed, x, tuple(int(m == k) for m in range(6))))
                        got = (d_alpha, d_p)[k // 3][k % 3, i]
                        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_tangency_point_is_excircle_touch_point(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            poly = random_polygon(rng, 3, p_spread=0.0)  # incenter at origin
            points = pg.tangency_points(poly)
            for i in range(3):
                assert np.allclose(points[i], excircle_tangency(poly, i), atol=1e-10)


class TestBrackets:
    def test_distant_fields_commute(self):
        rng = np.random.default_rng(37)
        for n in (4, 5, 7):
            poly = random_polygon(rng, n)
            for i in range(n):
                for j in range(n):
                    if (j - i) % n in (0, 1) or (i - j) % n == 1:
                        continue
                    assert np.all(pg.xi_bracket(poly, i, j) == 0.0)

    def test_regular_polygon_bracket_coefficient(self):
        for n in (3, 4, 5, 6, 8):
            reg = pg.PolygonConfig.regular(n)
            B = pg.xi_bracket(reg, 0, 1)
            expected = 1.0 / (2 * np.cos(np.pi / n) ** 2)
            assert B[n + 1] == pytest.approx(expected, abs=1e-12)
            assert B[n + 0] == pytest.approx(-expected, abs=1e-12)
            assert np.max(np.abs(B[:n])) == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(38)
        poly = random_polygon(rng, 5)
        assert np.allclose(
            pg.xi_bracket(poly, 2, 1), -pg.xi_bracket(poly, 1, 2), atol=1e-14
        )

    def test_closed_form_matches_flow_commutator(self):
        rng = np.random.default_rng(39)
        for n in (3, 4, 6):
            poly = random_polygon(rng, n)
            for i in range(n):
                j = (i + 1) % n
                closed = pg.xi_bracket(poly, i, j)
                flowed = pg.flow_commutator(poly, i, j)
                assert np.max(np.abs(closed - flowed)) < 1e-5

    @pytest.mark.parametrize("i, j", [(0, 99), (0, 1.5), (-1, 1), (4, 1), (1, -1)])
    def test_flow_commutator_side_out_of_range(self, i, j):
        with pytest.raises(ConfigError, match="side index"):
            pg.flow_commutator(pg.PolygonConfig.regular(4), i, j)


class TestGrowth:
    def test_rank_on_regular_polygons(self):
        for n in range(3, 9):
            rep = pg.growth_report(pg.PolygonConfig.regular(n))
            assert rep.rank == 2 * n - 1
            assert rep.theta_rank == n - 1

    def test_rank_near_regular(self):
        rng = np.random.default_rng(40)
        for n in range(3, 9):
            reg = pg.PolygonConfig.regular(n)
            poly = pg.PolygonConfig(
                reg.alphas + rng.uniform(-0.02, 0.02, n),
                reg.ps + rng.uniform(-0.02, 0.02, n),
            )
            assert pg.growth_report(poly).rank == 2 * n - 1

    def test_random_triangles_have_full_growth(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            poly = random_polygon(rng, 3)
            assert pg.growth_report(poly).rank == 5

    def test_field_rows_from_the_geometric_route(self):
        # rows xi_i = (e_i, Phi_i e_i) with Phi from the tangency points, then
        # the closed-form brackets: the same singular values as the report's
        rng = np.random.default_rng(43)
        for n in range(3, 10):
            for _ in range(4):
                poly = random_polygon(rng, n, p_spread=0.05)
                fields = np.hstack([np.eye(n), np.diag(pg.phi_via_tangency(poly))])
                sv = np.linalg.svd(np.vstack([fields, pg.brackets(poly)]), compute_uv=False)
                reported = pg.growth_report(poly).singular_values
                assert np.max(np.abs(reported - sv)) < 1e-12 * sv[0]

    def test_random_pentagon_reported_not_asserted(self):
        rng = np.random.default_rng(42)
        rep = pg.growth_report(random_polygon(rng, 5))
        assert rep.rank <= 2 * 5 - 1  # exploratory: record, no stronger claim


class TestPerimeterInvariance:
    def test_derivative_vanishes_on_regular(self):
        reg = pg.PolygonConfig.regular(6)
        for value in pg.perimeter_derivative_along_xi(reg):
            assert abs(value) < 1e-12

    def test_derivative_vanishes_on_random_polygons(self):
        rng = np.random.default_rng(43)
        for n in (3, 4, 5, 7):
            poly = random_polygon(rng, n)
            for value in pg.perimeter_derivative_along_xi(poly):
                assert abs(value) < 1e-10

    def test_first_order_drift_under_flow(self):
        # Richardson-extrapolated first-order drift of F along the xi_i flow
        rng = np.random.default_rng(44)
        poly = random_polygon(rng, 4)
        base = pg.perimeter(poly)

        def drift(h):
            a, p = pg._rk4_flow(poly.alphas, poly.ps, 1, h)
            return (pg.perimeter(pg.PolygonConfig(a, p)) - base) / h

        d1 = drift(1e-5)
        d2 = drift(5e-6)
        assert abs(2 * d2 - d1) < 1e-7


class TestTriangleWU:
    def test_equilateral_values(self):
        wu = pg.triangle_WU(np.pi / 3, np.pi / 3, np.pi / 3)
        assert np.allclose(wu.W, 2.0, atol=1e-12)
        assert np.allclose(wu.U, 2.0, atol=1e-12)
        assert wu.a == pytest.approx(-1.0, abs=1e-12)
        assert wu.b == pytest.approx(-1.0, abs=1e-12)

    def test_field_route_matches_with_swapped_labels(self):
        # the two displayed label conventions exchange W and U; the value
        # sets agree to machine precision
        rng = np.random.default_rng(45)
        for _ in range(10):
            u, v = rng.uniform(0.2, 1.2, 2)
            w = np.pi - u - v
            if not 0.05 < w < np.pi / 2 - 0.02:
                continue
            if max(u, v) >= np.pi / 2 - 0.02:
                continue
            wu = pg.triangle_WU(u, v, w)
            Wd, Ud = pg.wu_from_fields(u, v, w)
            assert np.allclose(Wd, wu.U, atol=1e-11)
            assert np.allclose(Ud, wu.W, atol=1e-11)

    def test_positivity_and_negativity(self):
        rng = np.random.default_rng(46)
        count = 0
        while count < 500:
            u, v = rng.uniform(0.02, np.pi / 2 - 0.02, 2)
            w = np.pi - u - v
            if not 0.02 < w < np.pi / 2 - 0.02:
                continue
            wu = pg.triangle_WU(u, v, w)
            assert wu.all_positive
            assert wu.expression < 0.0
            count += 1

    def test_combination_consistency(self):
        # the solved coefficients satisfy a W3 = b U3
        wu = pg.triangle_WU(0.6, 1.0, np.pi - 1.6)
        assert wu.a * wu.W[2] == pytest.approx(wu.b * wu.U[2], abs=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            pg.triangle_WU(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            pg.triangle_WU(1.7, 0.7, np.pi - 2.4)

    def test_scalar_call_gives_floats(self):
        wu = pg.triangle_WU(0.6, 1.0, np.pi - 1.6)
        assert wu.W.shape == wu.U.shape == (3,)
        assert all(type(x) is float for x in (wu.a, wu.b, wu.expression))
        assert wu.all_positive is True

    def test_arrays_match_a_loop(self):
        rng = np.random.default_rng(47)
        u, v = rng.uniform(0.05, np.pi / 2 - 0.05, (2, 400))
        keep = (0.05 < np.pi - u - v) & (np.pi - u - v < np.pi / 2 - 0.05)
        u, v = u[keep][:180].reshape(-1, 2), v[keep][:180].reshape(-1, 2)  # a 2-d batch
        w = np.pi - u - v
        wu = pg.triangle_WU(u, v, w)
        assert wu.W.shape == wu.U.shape == (3,) + u.shape
        assert wu.expression.shape == wu.all_positive.shape == u.shape
        for idx in np.ndindex(u.shape):
            one = pg.triangle_WU(u[idx], v[idx], w[idx])
            assert np.array_equal(wu.W[(slice(None),) + idx], one.W)
            assert np.array_equal(wu.U[(slice(None),) + idx], one.U)
            assert (wu.a[idx], wu.b[idx], wu.expression[idx]) == (one.a, one.b, one.expression)
            assert wu.all_positive[idx] == one.all_positive

    def test_all_positive_per_triple(self):
        U = np.ones((3, 3))
        U[1, 2] = -1.0
        W = np.ones((3, 3))
        W[0, 1] = 0.0
        wu = pg.TriangleWU(W=W, U=U, a=np.zeros(3), b=np.zeros(3), expression=np.zeros(3))
        assert wu.all_positive.tolist() == [True, False, False]

    def test_domain_validation_applies_to_every_entry(self):
        u = np.array([0.6, 0.7, 0.8])
        v = np.array([1.0, 0.9, 0.8])
        pg.triangle_WU(u, v, np.pi - u - v)
        off_sum = np.pi - u - v
        off_sum[2] += 1e-9
        with pytest.raises(ValueError, match="sum to pi"):
            pg.triangle_WU(u, v, off_sum)
        wide = u.copy()
        wide[1] = 1.7
        with pytest.raises(ValueError, match="lie in"):
            pg.triangle_WU(wide, v - (wide - u), np.pi - u - v)
