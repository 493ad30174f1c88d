import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outerlength import genfun
from outerlength import periodic as pd
from outerlength import polygons as pg
from outerlength.errors import ChordDomainError, ConvergenceError
from outerlength.genfun import ChordConfig
from outerlength.oval import SupportOval, ellipse, perturbed_circle

from conftest import fourier_tables, rotated

TWO_PI = 2.0 * np.pi


class TestTotalAction:
    def test_circle_square(self, round_table):
        angles = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2]
        assert pd.total_action(round_table, angles) == pytest.approx(
            8.0 - TWO_PI, abs=1e-12
        )

    def test_circle_equilateral(self, round_table):
        angles = [0.0, TWO_PI / 3, 2 * TWO_PI / 3]
        assert pd.total_action(round_table, angles) == pytest.approx(
            6 * np.sqrt(3) - TWO_PI, abs=1e-12
        )

    def test_matches_polygon_perimeter(self, wobble3_table):
        # circumscribed polygon from tangency angles: support values p(alpha_i)
        rng = np.random.default_rng(21)
        for _ in range(10):
            gaps = rng.uniform(0.5, 1.5, 5)
            gaps *= TWO_PI / np.sum(gaps)
            start = rng.uniform(0, TWO_PI)
            angles = start + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
            action = pd.total_action(wobble3_table, angles)
            poly = pg.PolygonConfig(angles, wobble3_table.p(angles))
            assert action + wobble3_table.circumference == pytest.approx(
                pg.perimeter(poly), abs=1e-10
            )

    def test_gap_violation_rejected(self, round_table):
        with pytest.raises(ChordDomainError):
            pd.total_action(round_table, [0.0, 0.5, 1.0])  # wrap gap > pi


def derivatives(oval, angles, m):
    """Action gradient and Hessian bands (diag, off) at `angles`, from one
    `genfun.path_jets` call through `_gradient` and `_bands`."""
    jets = genfun.path_jets(oval, pd._extended(angles, m))
    return (pd._gradient(jets), *pd._bands(jets))


def dense_hessian(diag, off):
    """The dense cyclic tridiagonal matrix of the Hessian bands of `_bands`."""
    H = np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1)
    H[0, -1] = H[-1, 0] = off[-1]
    return H


@pytest.mark.parametrize("n", [3, 7, 101])
def test_action_hessian_matches_gradient_differences(n):
    oval = ellipse(1.0, 0.6)
    rng = np.random.default_rng(n)
    angles = (np.arange(n) + rng.uniform(-0.2, 0.2, n)) * TWO_PI / n
    h = 1e-6

    def gradient(a):
        return derivatives(oval, a, 1)[0]

    fd = np.column_stack([
        (gradient(angles + h * e) - gradient(angles - h * e)) / (2 * h) for e in np.eye(n)
    ])
    assert np.max(np.abs(dense_hessian(*derivatives(oval, angles, 1)[1:]) - fd)) < 1e-5


#: a table with several harmonics, whose jets BLAS sums over four terms
FOURIER = SupportOval.from_fourier(1.0, [0.0, 0.03, 0.02, 0.0, 0.01], [0.01, 0.0, 0.015, 0.005])


@pytest.fixture(params=["fourier", "forged"])
def table(request, forge_table):
    return FOURIER if request.param == "fourier" else forge_table[0]


class TestDerivatives:
    """`_gradient` and `_bands` on one `path_jets` call, the evaluation of a
    Newton iterate, against the chord gradients and Hessians of
    `genfun.grad_arr` and `genfun.hess_arr`."""

    @pytest.mark.parametrize("n, m", [(3, 1), (4, 1), (5, 2), (12, 5)])
    @pytest.mark.parametrize("k", [1, 16], ids=["free", "pinned"])
    def test_rows_match_the_public_functions(self, table, n, m, k):
        # one row as `find_periodic` passes it, or a scan pass's rows: the
        # samples' first angles with jittered equal gaps
        rng = np.random.default_rng([n, k])
        rows = (np.linspace(0.0, TWO_PI, k, endpoint=False)[:, None]
                + TWO_PI * m * (np.arange(n) + rng.uniform(-0.1, 0.1, (k, n))) / n)
        g, diag, off = derivatives(table, rows, m)
        ext = np.concatenate([rows, rows[:, :1] + TWO_PI * m], axis=1)
        S1, S2 = genfun.grad_arr(table, ext[:, :-1], ext[:, 1:])
        S11, S12, S22 = genfun.hess_arr(table, ext[:, :-1], ext[:, 1:])
        assert np.array_equal(g, S1 + np.roll(S2, 1, axis=1))
        assert np.array_equal(diag, S11 + np.roll(S22, 1, axis=1))
        assert np.array_equal(off, S12)
        # a row on its own gives the batch's values
        for got, batch in zip(derivatives(table, rows[-1], m), (g, diag, off)):
            assert np.array_equal(got, batch[-1])

    @pytest.mark.parametrize("n, m", [(3, 1), (4, 1), (5, 2), (7, 3)])
    def test_closed_form_perimeter_is_action_plus_boundary(self, table, n, m):
        orbit = pd.find_periodic(table, n, m)
        action = pd.total_action(table, orbit.angles, m)
        assert abs(orbit.perimeter - (action + m * table.circumference)) <= 1e-12
        assert abs(orbit.action - action) <= 1e-12

    def test_one_path_jets_call_per_iterate(self, monkeypatch):
        # one call at the seed and one per admissible line-search candidate,
        # none for the orbit; on this table one step backtracks, so one
        # candidate is refused
        calls, candidates = [], []
        path_jets, candidate = genfun.path_jets, pd._candidate

        def counted_path_jets(oval, vertices, gaps=None):
            calls.append(vertices)
            return path_jets(oval, vertices, gaps)

        def counted_candidate(angles, m):
            ext, w, ok = candidate(angles, m)
            candidates.append(int(np.sum(ok)))
            return ext, w, ok

        monkeypatch.setattr(genfun, "path_jets", counted_path_jets)
        monkeypatch.setattr(pd, "_candidate", counted_candidate)
        orbit = pd.find_periodic(ellipse(1.0, 0.2), 3)
        assert orbit.iterations == 7 and sum(candidates) == 8
        assert len(calls) == 1 + sum(candidates)

    @pytest.mark.parametrize("name, n, m, turns", [
        ("forge_table", 4, 1, [0.0, 0.1, -0.05, 0.02]),
        ("wobble3_table", 5, 2, np.zeros(5)),
    ], ids=["forged-4-1", "wobble3-5-2"])
    def test_a_search_evaluates_only_what_its_steps_read(self, request, monkeypatch, name, n, m,
                                                         turns):
        # an admissible candidate is one jet evaluation and one gradient, the
        # Hessian bands are built once per Newton step, nothing is evaluated
        # after the loop, and the residual is the gradient max of the last
        # iterate taken, which is the least of all the maxima evaluated.  The
        # forged table's equal gaps are an orbit already, so its seed is
        # turned off the invariant curve.
        oval = request.getfixturevalue(name)
        oval = oval[0] if name == "forge_table" else oval
        seed = TWO_PI * m * np.arange(n) / n + np.asarray(turns)
        events, maxima, candidates = [], [], []
        jet, hess, path_jets = oval.jet, genfun.hess_from_jets, genfun.path_jets
        gradient, candidate = pd._gradient, pd._candidate

        def logged(label, fn):
            def call(*args):
                events.append(label)
                return fn(*args)
            return call

        def counted_gradient(jets):
            events.append("gradient")
            g = gradient(jets)
            maxima.append(np.abs(g).max())
            return g

        def counted_candidate(angles, m):
            ext, w, ok = candidate(angles, m)
            candidates.append(int(ok))
            return ext, w, ok

        monkeypatch.setattr(oval, "jet", logged("jet", jet))
        monkeypatch.setattr(genfun, "hess_from_jets", logged("hess", hess))
        monkeypatch.setattr(genfun, "path_jets", logged("path_jets", path_jets))
        monkeypatch.setattr(pd, "_gradient", counted_gradient)
        monkeypatch.setattr(pd, "_candidate", counted_candidate)
        orbit = pd.find_periodic(oval, n, m, seed_angles=seed)
        assert orbit.iterations >= 2 and sum(candidates) >= orbit.iterations
        assert events.count("jet") == 1 + sum(candidates)
        assert events.count("hess") == orbit.iterations
        evaluation = ["path_jets", "jet", "gradient"]
        assert [e for e in events if e != "hess"] == evaluation * (1 + sum(candidates))
        assert orbit.residual == min(maxima) < 1e-11


def cyclic_solve(diag, off, rhs):
    return pd._cyclic_solve(diag, off, rhs, pd._band_layout(len(diag)))


class TestCyclicSolve:
    """The banded solve of free Newton steps against `lstsq(rcond=1e-10)`."""

    @pytest.mark.parametrize("n", [3, 4, 5, 12, 101])
    def test_random_indefinite_bands_match_lstsq(self, n):
        for seed in range(10):
            diag, off, rhs = np.random.default_rng([n, seed]).normal(size=(3, n))
            x, soft = cyclic_solve(diag, off, rhs)
            ref = np.linalg.lstsq(dense_hessian(diag, off), rhs, rcond=1e-10)[0]
            assert not soft
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [3, 4, 101, 1001])
    def test_singular_laplacian_gives_the_minimum_norm_solution(self, n):
        # the cyclic Laplacian's null vector is (1, ..., 1), the circle's
        # rotation mode; the minimum-norm solution is the x orthogonal to it
        # with H x = rhs - mean(rhs)
        diag, off = np.full(n, 2.0), np.full(n, -1.0)
        rhs = np.random.default_rng(n).normal(size=n)
        x, soft = cyclic_solve(diag, off, rhs)
        assert soft and np.all(np.isfinite(x))
        residual = dense_hessian(diag, off) @ x - (rhs - np.mean(rhs))
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)
        assert abs(np.sum(x)) / np.sqrt(n) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("n", [5, 12, 101])
    @pytest.mark.parametrize("ratio, dropped", [(1e-12, True), (1e-8, False)])
    def test_planted_soft_mode(self, n, ratio, dropped):
        # shift the diagonal so that the mode closest to zero has about
        # `ratio` times the largest curvature
        diag, off, rhs = np.random.default_rng(n).normal(size=(3, n))
        lam = np.linalg.eigvalsh(dense_hessian(diag, off))
        diag += ratio * np.max(np.abs(lam)) - lam[np.argmin(np.abs(lam))]
        lam, vecs = np.linalg.eigh(dense_hessian(diag, off))
        mode = vecs[:, np.argmin(np.abs(lam))]
        x, soft = cyclic_solve(diag, off, rhs)
        ref = np.linalg.lstsq(dense_hessian(diag, off), rhs, rcond=1e-10)[0]
        assert soft == dropped
        if dropped:
            assert abs(mode @ x) <= 1e-12 * np.linalg.norm(x)
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        else:
            # kept: the step is dominated by the soft mode, as lstsq's is
            assert abs(mode @ x) >= 0.99 * np.linalg.norm(x)
            assert np.linalg.norm(x - ref) <= 1e-6 * np.linalg.norm(ref)


class TestFindPeriodic:
    def test_circle_triangle(self, round_table):
        orb = pd.find_periodic(round_table, 3)
        assert orb.perimeter == pytest.approx(6 * np.sqrt(3), abs=1e-9)
        assert orb.residual < 1e-11
        gaps = np.diff(np.append(orb.angles, orb.angles[0] + TWO_PI))
        assert np.allclose(gaps, TWO_PI / 3, atol=1e-10)

    def test_circle_square(self, round_table):
        orb = pd.find_periodic(round_table, 4)
        assert orb.perimeter == pytest.approx(8.0, abs=1e-12)

    def test_circle_pentagram(self, round_table):
        orb = pd.find_periodic(round_table, 5, m=2)
        gaps = np.diff(np.append(orb.angles, orb.angles[0] + 2 * TWO_PI))
        assert np.allclose(gaps, 2 * TWO_PI / 5, atol=1e-10)
        assert orb.perimeter == pytest.approx(10 * np.tan(2 * np.pi / 5), abs=1e-9)

    def test_orbit_closes_under_map(self, round_table, wobble3_table):
        for oval, n in ((round_table, 3), (wobble3_table, 3), (wobble3_table, 4)):
            orb = pd.find_periodic(oval, n)
            assert pd.closure_by_iteration(oval, orb.angles, orb.m) < 1e-8

    def test_ellipse_four_orbit_is_parallelogram(self, ellipse_table):
        orb = pd.find_periodic(ellipse_table, 4)
        a = orb.angles
        assert a[2] - a[0] == pytest.approx(np.pi, abs=1e-9)
        assert a[3] - a[1] == pytest.approx(np.pi, abs=1e-9)
        p = ellipse_table.p(a)
        assert p[0] == pytest.approx(p[2], abs=1e-9)
        assert p[1] == pytest.approx(p[3], abs=1e-9)
        # circumscribed 4-periodic orbits about (a, b) have perimeter 4(a + b)
        assert orb.perimeter == pytest.approx(
            4 * (np.sin(0.8) + np.cos(0.8)), abs=1e-8
        )

    def test_forge_table_four_orbit_on_family(self, forge_table):
        oval, family = forge_table
        orb = pd.find_periodic(oval, 4)
        assert orb.perimeter == pytest.approx(4.0, abs=1e-9)
        # orbit angles must sit on the invariant family: same chord data
        s = family.state((orb.angles[0] + orb.angles[1]) / 2.0)
        assert s.alpha1 == pytest.approx(orb.angles[0], abs=1e-8)
        assert s.alpha2 == pytest.approx(orb.angles[1], abs=1e-8)

    @pytest.mark.parametrize("n, m", [(5, 2), (7, 3), (12, 5)])
    def test_forge_table_other_periods(self, forge_table, n, m):
        # these orbits' Hessians have a mode of curvature ~1e-12 of the
        # stiffest; a Newton step along it stalls the search near 1e-9
        oval, _ = forge_table
        orbit = pd.find_periodic(oval, n, m)
        assert orbit.residual < 1e-11
        assert pd.closure_by_iteration(oval, orbit.angles, m) < 1e-8

    def test_seed_validation(self, round_table):
        with pytest.raises(ValueError):
            pd.find_periodic(round_table, 2)
        with pytest.raises(ValueError):
            pd.find_periodic(round_table, 6, m=2)
        with pytest.raises(ValueError):
            pd.find_periodic(round_table, 3, m=2)  # mean gap >= pi

    def test_line_search_without_descent_raises(self, monkeypatch):
        # a negated Hessian reverses every Newton step, so no step size lowers
        # the gradient; the search must say so instead of drifting for 80 steps
        solves = []
        bands, solve = pd._bands, pd._cyclic_solve

        def reversed_bands(jets):
            diag, off = bands(jets)
            return -diag, -off

        def counted_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(pd, "_bands", reversed_bands)
        monkeypatch.setattr(pd, "_cyclic_solve", counted_solve)
        with pytest.raises(ConvergenceError, match="line search.*residual"):
            pd.find_periodic(ellipse(1.0, 0.6), 3)
        assert len(solves) <= 2

    @pytest.mark.parametrize("gap", [5e-4, 2e-3])
    @pytest.mark.parametrize(
        "table, perimeter", [("round_table", 8.0), ("wobble3_table", 7.959913326)]
    )
    def test_seed_gap_below_the_search_window(self, request, table, perimeter, gap):
        # a seed need only lie in the chord domain; the GAP_MIN window binds
        # the line-search candidates, so a first gap of 5e-4 is a valid start
        oval = request.getfixturevalue(table)
        rest = (TWO_PI - gap) / 3
        seed = np.array([0.0, gap, gap + rest, gap + 2 * rest])
        orbit = pd.find_periodic(oval, 4, seed_angles=seed)
        assert orbit.perimeter == pytest.approx(perimeter, abs=1e-9)
        assert orbit.residual < 1e-11

    @pytest.mark.parametrize("table", ["round_table", "wobble3_table"])
    def test_seed_outside_the_chord_domain_raises(self, request, table):
        # the seed's own `path_jets` call refuses it, naming the gap
        oval = request.getfixturevalue(table)
        with pytest.raises(ChordDomainError, match="offending value 5e-05"):
            pd.find_periodic(oval, 4, seed_angles=[0.0, 5e-5, 2.1, 4.2])

    @settings(max_examples=40, deadline=None)
    @given(edge=st.sampled_from([genfun.OMEGA_MIN, np.pi - genfun.OMEGA_MIN]),
           ulps=st.integers(-4, 4))
    def test_every_chord_check_takes_one_domain(self, wobble3_table, edge, ulps):
        """A gap a few ulps either side of an edge of the closed chord domain
        is accepted or refused alike by `ChordConfig`, `S_arr` on a float
        and on an array chord, `path_jets`, `find_periodic`'s seed and a scan
        row of `_newton`."""
        w = edge + ulps * np.spacing(edge)
        inside = genfun.OMEGA_MIN <= w <= np.pi - genfun.OMEGA_MIN
        rest = (TWO_PI - w) / 3
        seed = np.array([0.0, w, w + rest, w + 2 * rest])

        def accepts(call):
            try:
                call()
            except ChordDomainError as err:
                assert genfun.CHORD_DOMAIN in str(err)
                return False
            except ConvergenceError:
                pass
            return True

        checks = [
            lambda: ChordConfig(0.0, w),
            lambda: genfun.S_arr(wobble3_table, 0.0, w),
            lambda: genfun.S_arr(wobble3_table, np.zeros(3), np.full(3, w)),
            lambda: genfun.path_jets(wobble3_table, seed),
            lambda: pd.find_periodic(wobble3_table, 4, seed_angles=seed),
        ]
        assert [accepts(check) for check in checks] == [inside] * len(checks)
        reason = pd._newton(wobble3_table, seed[None], 1, 1e-12, 40)[2]
        assert (reason[0] != "domain") == inside

    def test_newton_without_a_row_in_the_domain(self, wobble3_table):
        # a scan pass whose re-seeded rows all leave the domain leaves them
        # unsolved instead of failing
        seeds = np.array([[0.0, 5e-5, 2.1, 4.2], [1.0, 1.0 + 3e-5, 3.0, 5.0]])
        angles, grads, reason = pd._newton(wobble3_table, seeds, 1, 1e-12, 40)
        assert np.array_equal(angles, seeds)
        assert np.all(np.isnan(grads))
        assert list(reason) == ["domain", "domain"]

    @pytest.mark.parametrize("n, m", [(4, 1), (5, 2), (7, 3)])
    @pytest.mark.parametrize("name", ["wobble3_table", "forge_table"])
    def test_one_row_matches_its_row_in_a_batch(self, request, name, n, m):
        # the rows of a scan pass share the step scale and the evaluations,
        # yet a row alone ends with the bits it reaches in the batch
        oval = request.getfixturevalue(name)
        oval = oval[0] if name == "forge_table" else oval
        seeds = TWO_PI * m * np.arange(n) / n + np.array([[0.0], [0.4], [1.1]])
        batch = pd._newton(oval, seeds, m, 1e-12, 40)
        for i in range(3):
            angles, grads, reason = pd._newton(oval, seeds[i:i + 1], m, 1e-12, 40)
            assert angles[0].tobytes() == batch[0][i].tobytes()
            assert grads[0].tobytes() == batch[1][i].tobytes()
            assert reason[0] == batch[2][i]

    @pytest.mark.parametrize("offset", [0.0, 0.4, 1.1])
    def test_turned_seeds_run_out_of_steps(self, wobble3_table, offset):
        # from equal gaps the (5, 2) search converges; turned by 0.4 or 1.1
        # it still descends after 80 steps
        seed = TWO_PI * 2 * np.arange(5) / 5 + offset
        if offset == 0.0:
            assert pd.find_periodic(wobble3_table, 5, 2, seed_angles=seed).residual < 1e-11
        else:
            with pytest.raises(ConvergenceError, match="no critical orbit after max_iter steps"):
                pd.find_periodic(wobble3_table, 5, 2, seed_angles=seed)

    @pytest.mark.parametrize("rows", [1, 2])
    def test_no_descent_gives_up_below_step_scale_1e_3(self, monkeypatch, rows):
        # a negated Hessian reverses every step, so no candidate descends; a
        # search gives up at its first admissible candidate below scale
        # 1e-3, 2**-10: 11 gradients after the seeds'.  One row is a free
        # orbit of `find_periodic`, two are pinned rows of `_newton`.
        calls = []
        gradient, bands = pd._gradient, pd._bands

        def counted_gradient(jets):
            calls.append(jets)
            return gradient(jets)

        def reversed_bands(jets):
            diag, off = bands(jets)
            return -diag, -off

        monkeypatch.setattr(pd, "_gradient", counted_gradient)
        monkeypatch.setattr(pd, "_bands", reversed_bands)
        if rows == 1:
            with pytest.raises(ConvergenceError, match="line search found no descent"):
                pd.find_periodic(ellipse(1.0, 0.6), 3)
        else:
            seeds = TWO_PI * np.arange(3) / 3 + np.array([[0.0], [0.4]])
            _, _, reason = pd._newton(ellipse(1.0, 0.6), seeds, 1, 1e-11, 80)
            assert reason.tolist() == ["no descent"] * 2
        assert len(calls) == 1 + 11

    def test_normalization_deterministic(self, round_table):
        seed = np.array([1.2, 1.2 + TWO_PI / 3, 1.2 + 2 * TWO_PI / 3])
        orb = pd.find_periodic(round_table, 3, seed_angles=seed)
        assert 0.0 <= orb.angles[0] < TWO_PI / 3 + 1e-9

    @pytest.mark.parametrize("table, perimeter", [
        ("forge_table", 3.1494617422872437),
        ("wobble3_table", 6.283205365562429),
        ("ellipse_table", 4.44266071926916),
    ])
    def test_thousand_and_one_gon(self, request, table, perimeter):
        # perimeters pinned from the dense least-squares Newton that the
        # banded solve replaced
        oval = request.getfixturevalue(table)
        oval = oval[0] if table == "forge_table" else oval
        orbit = pd.find_periodic(oval, 1001)
        assert orbit.residual < 1e-11
        assert orbit.perimeter == pytest.approx(perimeter, abs=1e-13)

    def test_orbit_reports_steps_and_dropped_modes(self, monkeypatch, round_table,
                                                   forge_table):
        # the circle's equal-gap seed is already an orbit; on the forged
        # table the (5, 2) Hessian has a mode of ~1e-12 of the stiffest.
        # Each Newton step makes one Hessian and one solve.
        exact = pd.find_periodic(round_table, 4)
        assert (exact.iterations, exact.dropped_modes) == (0, 0)
        solves = []
        solve = pd._cyclic_solve

        def spy(*args):
            step, soft = solve(*args)
            solves.append(soft)
            return step, soft

        monkeypatch.setattr(pd, "_cyclic_solve", spy)
        orbit = pd.find_periodic(forge_table[0], 5, 2)
        assert orbit.iterations == len(solves) >= 1
        assert orbit.dropped_modes == sum(solves) >= 1
        record = orbit.to_json()
        assert (record["iterations"], record["dropped_modes"]) == (
            orbit.iterations, orbit.dropped_modes)
        oracle = pd.brute_oracle(round_table, 3, grid_density=1)
        assert oracle.iterations is None and oracle.dropped_modes is None
        assert oracle.to_json()["iterations"] is None


@settings(max_examples=20, deadline=None)
@given(table=fourier_tables())
def test_find_periodic_closes_or_raises_on_random_tables(table):
    """Every returned orbit is below its tolerance and closes under the map;
    a search that cannot get there raises ConvergenceError."""
    for n, m in ((3, 1), (4, 1), (5, 2)):
        try:
            orbit = pd.find_periodic(table, n, m)
        except ConvergenceError:
            continue
        assert orbit.residual < 1e-11
        assert pd.closure_by_iteration(table, orbit.angles, m) < 1e-8


@settings(max_examples=20, deadline=None)
@given(table=fourier_tables(), phi=st.floats(0.0, TWO_PI))
def test_find_periodic_is_rotation_equivariant(table, phi):
    """A table turned by phi, searched from the equal-gap seed turned by phi,
    gives the same orbit perimeter, or both searches raise.  Angles are not
    compared: along a dropped soft mode the table does not fix them."""
    turned = rotated(table, phi)
    for n, m in ((3, 1), (4, 1), (5, 2)):
        seed = phi + TWO_PI * m * np.arange(n) / n
        try:
            orbit = pd.find_periodic(table, n, m)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                pd.find_periodic(turned, n, m, seed_angles=seed)
            continue
        assert pd.find_periodic(turned, n, m, seed_angles=seed).perimeter == pytest.approx(
            orbit.perimeter, abs=1e-12)


# both tables turn perturbed_circle(0.05, 3) (phase 0.7 and atan2(0.03, 0.04)),
# whose (5, 2) orbit the default seed finds
@pytest.mark.xfail(raises=ConvergenceError, strict=True,
                   reason="the default seed's search keeps the softest Hessian mode (ROADMAP 14)")
@pytest.mark.parametrize("table", [perturbed_circle(0.05, 3, 0.7),
                                   SupportOval.from_fourier(1.0, [0, 0, 0.04], [0, 0, 0.03])],
                         ids=["phase-0.7", "two-coefficient"])
def test_find_periodic_five_two_on_turned_wobble3(table):
    assert pd.find_periodic(table, 5, 2).perimeter == pytest.approx(30.77175988210396, abs=1e-12)


class TestBruteOracle:
    def test_circle_triangle_agrees(self, round_table):
        newton = pd.find_periodic(round_table, 3)
        oracle = pd.brute_oracle(round_table, 3, grid_density=4, seed=0)
        assert oracle.perimeter == pytest.approx(newton.perimeter, abs=1e-8)
        # compare configurations modulo rotation: gap sequences match
        g1 = np.diff(np.append(newton.angles, newton.angles[0] + TWO_PI))
        g2 = np.diff(np.append(oracle.angles, oracle.angles[0] + TWO_PI))
        assert np.allclose(np.sort(g1), np.sort(g2), atol=1e-6)

    def test_pentagram_oracle_closes_under_map(self, round_table):
        oracle = pd.brute_oracle(round_table, 5, m=2, grid_density=3, seed=1)
        assert pd.closure_by_iteration(round_table, oracle.angles, 2) < 1e-5
        assert oracle.perimeter == pytest.approx(10 * np.tan(2 * np.pi / 5), abs=1e-6)

    def test_perturbed_circle_oracle_vs_newton_polish(self):
        oval = perturbed_circle(0.02, 3)
        oracle = pd.brute_oracle(oval, 3, grid_density=6, seed=2)
        polished = pd.find_periodic(oval, 3, seed_angles=oracle.angles)
        assert np.max(np.abs(oracle.angles - polished.angles)) < 1e-6
        assert polished.residual < 1e-11


class TestInvariantCurveScan:
    def test_circle_every_angle_closes(self, round_table):
        report = pd.invariant_curve_scan(round_table, 4, samples=64)
        assert report.all_closed
        assert report.max_closure_run == 64

    def test_forge_table_every_angle_closes(self, forge_table):
        oval, _ = forge_table
        report = pd.invariant_curve_scan(oval, 4, samples=64)
        assert report.all_closed
        assert np.nanmax(np.abs(report.residual)) < 1e-8

    def test_generic_table_isolated_closures(self, wobble3_table):
        report = pd.invariant_curve_scan(wobble3_table, 3, samples=256)
        assert report.solver_failures == 0
        assert not report.all_closed
        assert report.max_closure_run <= 2
        # 3-fold symmetric table: two critical families per third of a turn
        assert report.sign_changes == 6

    def test_full_turn_counts_the_last_and_first_as_neighbours(self, wobble3_table):
        # off the symmetry line the residual changes sign between the last
        # sample and the first too; a periodic residual has an even count
        for offset in np.linspace(0.0, TWO_PI / 256, 9)[1:]:
            report = pd.invariant_curve_scan(wobble3_table, 3, samples=64, alpha_lo=offset,
                                             alpha_hi=offset + TWO_PI)
            assert report.cyclic
            assert report.sign_changes == 6

    def test_window_ends_are_not_neighbours(self):
        residual = np.array([0.0, 1.0, 1.0, 0.0])
        window = pd.ScanReport(3, 1, np.linspace(0.0, 1.0, 4, endpoint=False), residual, 1e-8)
        turn = pd.ScanReport(3, 1, np.linspace(0.0, TWO_PI, 4, endpoint=False), residual, 1e-8)
        assert not window.cyclic and turn.cyclic
        assert window.max_closure_run == 1
        assert turn.max_closure_run == 2
        residual = np.array([1.0, -1.0, -1.0, -1.0])
        assert pd.ScanReport(3, 1, window.alpha1, residual, 1e-8).sign_changes == 1
        assert pd.ScanReport(3, 1, turn.alpha1, residual, 1e-8).sign_changes == 2

    def test_star_polygons_on_integrable_table(self, round_table):
        report = pd.invariant_curve_scan(round_table, 5, m=2, samples=16)
        assert report.all_closed

    @pytest.mark.parametrize("n, m", [(2, 1), (4, 2), (3, 2)])
    def test_rejects_impossible_period(self, round_table, n, m):
        with pytest.raises(ValueError):
            pd.invariant_curve_scan(round_table, n, m=m)

    def test_rejects_no_samples(self, round_table):
        with pytest.raises(ValueError):
            pd.invariant_curve_scan(round_table, 4, samples=0)

    @pytest.mark.parametrize("n", [4, 7])
    def test_flat_ellipse_solves_every_sample(self, n):
        # equal-gap seeds alone leave about a quarter of these samples
        # unsolved; marching outward from the solved ones recovers them
        report = pd.invariant_curve_scan(ellipse(1.0, 0.1), n, samples=128)
        assert report.solver_failures == 0

    @pytest.mark.parametrize("b, n", [(0.02, 4), (0.02, 7), (0.05, 4)])
    def test_thin_ellipse_scans_close(self, b, n):
        # on these parallelogram families the vertices after the first move
        # about one sample step per sample, so a rigid shift of a solved
        # neighbour starts outside Newton's basin; the secant predictor does
        # not, and a sample whose two neighbours are solved in the same pass
        # needs the mean of both sides' predictions ((0.02, 7), sample 63)
        report = pd.invariant_curve_scan(ellipse(1.0, b), n, samples=128)
        assert report.all_closed

    @pytest.fixture
    def newton_rows(self, monkeypatch):
        """The number of rows of each `_newton` call made while the test runs."""
        rows, newton = [], pd._newton

        def spy(oval, seeds, *args):
            rows.append(len(seeds))
            return newton(oval, seeds, *args)

        monkeypatch.setattr(pd, "_newton", spy)
        return rows

    @pytest.mark.parametrize("b, n", [(0.02, 4), (0.02, 7), (0.05, 4), (0.1, 4)])
    def test_march_takes_at_most_two_rows_per_sample(self, newton_rows, b, n):
        # each pass after the first seeds only samples next to one just
        # solved; these scans take 1.6 to 1.9 rows per sample
        report = pd.invariant_curve_scan(ellipse(1.0, b), n, samples=128)
        assert report.all_closed
        assert sum(newton_rows) <= 2 * 128

    def test_scan_solved_by_the_first_pass_calls_newton_once(self, newton_rows, forge_table):
        assert pd.invariant_curve_scan(forge_table[0], 4, samples=64).all_closed
        assert newton_rows == [64]

    def test_stop_reasons(self, wobble3_table):
        # the second seed's first gap, 5e-5, is below OMEGA_MIN
        seeds = np.array([[0.0, 1.5, 3.1, 4.7], [0.0, 5e-5, 2.1, 4.2]])
        angles, g, reason = pd._newton(wobble3_table, seeds, 1, 1e-12, 40)
        assert reason.tolist() == ["converged", "domain"]
        assert np.max(np.abs(g[0, 1:])) < 1e-12 and angles[0, 0] == 0.0
        assert np.all(np.isnan(g[1]))
        _, _, reason = pd._newton(wobble3_table, seeds[:1], 1, 1e-12, 1)
        assert reason.tolist() == ["max_iter"]

    def test_stop_at_the_round_off_floor(self, wobble3_table):
        # below the gradient's round-off no step lowers the residual: a row
        # within 100 tol stops at the floor, one above it with no descent
        seeds = np.array([[0.0, 1.5, 3.1, 4.7], [0.3, 1.8, 3.4, 5.0]])
        _, _, reason = pd._newton(wobble3_table, seeds, 1, 1e-17, 40)
        assert reason.tolist() == ["no descent", "floor"]

    def test_solved_samples_are_interior_critical(self, wobble3_table, forge_table):
        for oval, n in ((wobble3_table, 3), (forge_table[0], 4)):
            report = pd.invariant_curve_scan(oval, n, samples=64)
            solved = np.isfinite(report.residual)
            assert solved.all()
            angles = report.orbit_angles[solved]
            assert np.array_equal(angles[:, 0], report.alpha1[solved])
            assert np.max(np.abs(derivatives(oval, angles, 1)[0][:, 1:])) < 1e-10

    def test_csv_layout(self, round_table):
        report = pd.invariant_curve_scan(round_table, 3, samples=8)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "alpha1,residual,closed"
        assert len(lines) == 1 + 8 + 2

    def test_csv_text_with_a_nan_residual(self):
        """Rows print Python floats at 16 significant digits; a row without a
        solution prints nan and counts as open."""
        alpha1 = np.linspace(0.0, 1.0, 4, endpoint=False) + 0.1
        report = pd.ScanReport(3, 1, alpha1, np.array([3e-9, np.nan, -1 / 3, 2e-8]), 1e-8)
        assert report.to_csv() == (
            "alpha1,residual,closed\n0.1,3e-09,1\n0.35,nan,0\n0.6,-0.3333333333333333,0\n"
            "0.85,2e-08,0\n# closure_tol=1e-08\n# max_closure_run=1\n"
        )


class TestRotationNumber:
    def test_circle_rotation_number(self, round_table):
        w = 2 * np.pi / 5
        rho = pd.rotation_number(round_table, ChordConfig(0.0, w), iters=50)
        assert rho == pytest.approx(w / TWO_PI, abs=1e-12)

    def test_forge_family_quarter(self, forge_table):
        # 64 states along the invariant curve, iterated in lockstep
        oval, family = forge_table
        states = [family.state(x) for x in np.linspace(0.0, TWO_PI, 64, endpoint=False)]
        chords = ChordConfig(*np.array([(s.alpha1, s.alpha2) for s in states]).T)
        rho = pd.rotation_number(oval, chords, iters=40)
        assert rho.shape == (64,)
        assert np.max(np.abs(rho - 0.25)) < 1e-10
