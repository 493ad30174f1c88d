"""40-digit references for `find_periodic`, the tangency and the spline fit.

The reference perimeter is that of the polygon cut out by the support lines
at given angles: each vertex is the 2 x 2 solve of two neighbouring lines,
each side the distance between two vertices, and p is evaluated in mpmath
from the table's stored Fourier coefficients.  No closed form or solver of
the package enters it, so an orbit of `find_periodic` is checked as a
critical point of a perimeter computed independently of it.

The reference tangency angles of a point (x, y) are the roots of
x cos a + y sin a - p(a), p the same mpmath series, found by
`mpmath.findroot` from the float angles.

The reference spline is the exact periodic quintic spline through a spline
table's stored samples (`ExactSpline`): its B-spline coefficients refined
in exact integer arithmetic, its pieces and jets in mpmath.  The table's
own coefficients are checked against it with per-order bounds.
"""

import math

import mpmath
import numpy as np
import pytest

from outerlength import billiard, forge
from outerlength import oval as oval_module
from outerlength import periodic as pd
from outerlength.genfun import ChordConfig
from outerlength.oval import SupportOval, circle, perturbed_circle

TWO_PI = 2.0 * np.pi

TABLES = {
    "wobble3-phase-0.7": lambda: perturbed_circle(0.05, 3, 0.7),
    "two-coefficient-wobble3": lambda: SupportOval.from_fourier(1.0, [0, 0, 0.04], [0, 0, 0.03]),
}


def reference_support(table):
    """p(a) at an mpf angle from the stored series a0 + sum a_k cos ka + b_k sin ka."""
    desc = table.to_json()
    terms = [(k, mpmath.mpf(a), mpmath.mpf(b))
             for k, (a, b) in enumerate(zip(desc["cos"], desc["sin"]), start=1)]
    a0 = mpmath.mpf(desc["a0"])

    def p(angle):
        return a0 + mpmath.fsum(a * mpmath.cos(k * angle) + b * mpmath.sin(k * angle)
                                for k, a, b in terms)

    return p


def reference_perimeter(p, angles, m):
    """Perimeter of the polygon whose sides lie on the support lines at the
    increasing `angles`, which wind m times around."""
    ends = list(angles) + [angles[0] + 2 * m * mpmath.pi]
    vertices = []
    for a, b in zip(ends, ends[1:]):
        lines = mpmath.matrix([[mpmath.cos(a), mpmath.sin(a)], [mpmath.cos(b), mpmath.sin(b)]])
        vertices.append(mpmath.lu_solve(lines, mpmath.matrix([p(a), p(b)])))
    return mpmath.fsum(mpmath.norm(v - u) for u, v in zip(vertices[-1:] + vertices[:-1], vertices))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", TABLES)
def test_find_periodic_is_critical_for_the_reference_perimeter(name, n):
    table = TABLES[name]()
    orbit = pd.find_periodic(table, n)
    p = reference_support(table)
    with mpmath.workdps(40):
        angles = [mpmath.mpf(a) for a in orbit.angles.tolist()]

        def along(i):
            return lambda t: reference_perimeter(p, angles[:i] + [t] + angles[i + 1:], 1)

        # twice find_periodic's default tol, which bounds its gradient
        gradient = max(abs(mpmath.diff(along(i), angles[i])) for i in range(n))
        gap = abs(reference_perimeter(p, angles, 1) - orbit.perimeter)
    assert gradient <= 2e-11
    assert gap <= 1e-13


# -- the two tangent lines from a point ----------------------------------------

TANGENCY_TABLES = {
    "circle": circle,
    "wobble3": lambda: perturbed_circle(0.05, 3),
    # the three-harmonic table of the CI's console-script step
    "three-harmonic": lambda: SupportOval.from_fourier(1.0, [0, 0.02, 0.04, 0.01],
                                                       [0, 0.01, 0.03, 0]),
}

#: largest error allowed of `tangent_angles_from`'s angles against the
#: reference, per kind of point: about twice the worst measured over the
#: three tables, 1.4e-15 at chord vertices, 2.6e-13 at points 1e-7..1e-2
#: outside and 3.3e-12 at points 1e-9..1e-6 outside, where the two roots
#: close up and a rounding of the margin moves them further
TANGENCY_BOUNDS = {"vertex": 3e-15, "outside": 5e-13, "refined": 7e-12}


def _offset(table, rng, count, decades):
    """Points at log-uniform distance `decades` outside random boundary points."""
    ang = rng.uniform(0.0, TWO_PI, count)
    dist = 10.0 ** rng.uniform(*decades, count)
    return table.point_at(ang) + dist[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])


@pytest.mark.parametrize("name", list(TANGENCY_TABLES))
def test_tangency_matches_the_reference(name):
    """50 chord vertices, 50 points 1e-7..1e-2 outside and 10 points
    1e-9..1e-6 outside, some of which no node of the 2048-node grid sees
    from outside, so that only the refined maximum finds their tangents."""
    table = TANGENCY_TABLES[name]()
    rng = np.random.default_rng(29)
    a1, w = rng.uniform((0.0, 0.3), (TWO_PI, np.pi - 0.4), (50, 2)).T
    points = {
        "vertex": billiard.vertex_point(table, ChordConfig(a1, a1 + w)).T,
        "outside": _offset(table, rng, 50, (-7.0, -2.0)),
        "refined": _offset(table, rng, 10, (-9.0, -6.0)),
    }
    grid = np.linspace(0.0, TWO_PI, oval_module.GRID_SIZE, endpoint=False)
    seen = [np.max(x * np.cos(grid) + y * np.sin(grid) - table.p(grid)) > 1e-12
            for x, y in points["refined"]]
    assert not all(seen)
    p = reference_support(table)
    for kind, xy in points.items():
        worst = 0.0
        for x, y in xy.tolist():
            with mpmath.workdps(40):
                X, Y = mpmath.mpf(x), mpmath.mpf(y)
                for a in table.tangent_angles_from((x, y)):
                    root = mpmath.findroot(
                        lambda t: X * mpmath.cos(t) + Y * mpmath.sin(t) - p(t), mpmath.mpf(a))
                    worst = max(worst, float(abs(root - a)))
        assert worst <= TANGENCY_BOUNDS[kind], kind


# -- the exact periodic quintic spline through a table's samples ---------------

#: the integer arithmetic of `ExactSpline` counts in units of 2**-UNIT
UNIT = 200
#: d! times the degree-d cardinal B-spline at the knots where it is read,
#: d = 0 ... 5: at its left end for d = 0, inside its support otherwise
KNOT_VALUES = ((1,), (1,), (1, 1), (1, 4, 1), (1, 11, 11, 1), (1, 26, 66, 26, 1))

#: largest error allowed of the spline tables' p, p', p'' against the exact
#: spline, relative to max(1, max |order|): about twice the worst, 7.2e-16,
#: 6.0e-13 and 1.7e-9, of the fit that repeated scipy's
#: `make_interp_spline(k=5, bc_type="periodic")` operation for operation, over
#: the angles of `test_jet_matches_bspline` and the pieces compared below
SPLINE_BOUNDS = (1.4e-15, 1.2e-12, 3.3e-9)


def _circulant_solve(r):
    """Floats x with (x[i-2] + 26 x[i-1] + 66 x[i] + 26 x[i+1] + x[i+2]) / 120
    = r[i], indices mod n, by one real FFT."""
    n = len(r)
    t = np.arange(n // 2 + 1) * (TWO_PI / n)
    return np.fft.irfft(np.fft.rfft(r) * (120.0 / (66.0 + 52.0 * np.cos(t) + 2.0 * np.cos(2.0 * t))), n)


def _units(values):
    """Floats as integers in units of 2**-UNIT: exact for the samples, and
    within 2**-UNIT for the corrections."""
    return np.array([round(math.ldexp(v, UNIT)) for v in values.tolist()], dtype=object)


def _windows(c, intervals):
    """The B-spline coefficients of the pieces on the given intervals, (6, k):
    row q holds c[i + q - 2], indices mod n."""
    return np.concatenate((c[-2:], c, c[:3]))[np.add.outer(np.arange(6), intervals)]


def _knot_sum(window, d):
    """The degree-d knot values times the leading rows of `window`, summed."""
    return sum(w * window[a] for a, w in enumerate(KNOT_VALUES[d]))


class ExactSpline:
    """The periodic quintic spline through a spline table's stored samples,
    with knots at i h, h = L / n, L the float 2*pi by which the table
    reduces its angles.

    It is sum_j c_j B(alpha / h - j + 3), B the cardinal quintic B-spline on
    [0, 6], so the samples are (c[i-2] + 26 c[i-1] + 66 c[i] + 26 c[i+1] +
    c[i+2]) / 120.  c is the float FFT solve of that system plus two
    corrections, each the float solve of the residual computed exactly in
    integers; the system's condition number is 7.5, so c is then exact to
    about 1e-45.  The m-th derivative at node i is h^-m times the m-th
    backward differences of c weighted by the degree 5 - m knot values: exact
    integers, scaled and evaluated in mpmath at 40 digits.
    """

    def __init__(self, table):
        samples = np.asarray(table.to_json()["p"])
        self.n = n = len(samples)
        p, c = _units(samples), _units(_circulant_solve(samples))
        for _ in range(2):
            # 120 times the residual, exact, in units of 2**-UNIT
            residual = 120 * p - _knot_sum(_windows(c, np.arange(n)), 5)
            c = c + _units(_circulant_solve(np.ldexp(residual.astype(float), -UNIT) / 120.0))
        self.c = c

    def rows(self, intervals):
        """Taylor coefficients, highest power first, of the pieces on the
        given intervals at their starts: a (6, k) array of mpf."""
        window = _windows(self.c, intervals)
        h = mpmath.mpf(TWO_PI) / self.n
        out = np.empty((6, len(intervals)), dtype=object)
        for m in range(6):
            d = 5 - m
            scale = 1 / (2**UNIT * math.factorial(d) * math.factorial(m) * h**m)
            out[d] = [scale * k for k in _knot_sum(window, d).tolist()]
            window = window[1:] - window[:-1]
        return out

    def jet(self, alpha):
        """(p, p', p'') at the float angles alpha reduced by `np.mod(alpha,
        2*pi)`, as the table reduces them: a (3, k) array of mpf."""
        reduced = [mpmath.mpf(a) for a in np.mod(np.ravel(alpha), TWO_PI).tolist()]
        h = mpmath.mpf(TWO_PI) / self.n
        # a knot met from below is the end of the interval before it, where
        # the spline's jet is the same
        at = [min(int(a / h), self.n - 1) for a in reduced]
        cut, where = np.unique(at, return_inverse=True)
        t = np.array([a - i * h for a, i in zip(reduced, at)], dtype=object)
        return np.array(piece_jet(self.rows(cut)[:, where], t))


def piece_jet(rows, t):
    """(p, p', p'') at t of the quintics with Taylor coefficients `rows`,
    highest power first, by Horner's scheme carrying p, p' and p'' / 2."""
    p, dp, half_ddp = rows[0], 0, 0
    for c in rows[1:]:
        half_ddp = half_ddp * t + dp
        dp = dp * t + p
        p = p * t + c
    return [p, dp, 2 * half_ddp]


def spline_errors(got, ref):
    """Largest |got - ref| of each order relative to max(1, max |ref| of the
    order): got (3, k) floats, ref (3, k) mpf, the differences taken in mpmath."""
    return [max(float(abs(r - g)) for g, r in zip(gots.tolist(), refs))
            / max(1.0, float(max(map(abs, refs))))
            for gots, refs in zip(got, ref)]


OTHER_GRIDS = {
    "radon_like": lambda: forge.radon_like(forge.balanced_radon_seed(0.03)),
    "16-samples": lambda: SupportOval.from_callable(lambda a: 1.0 + 0.05 * np.cos(3 * a), n=16),
    "17-samples": lambda: SupportOval.from_callable(lambda a: 1.0 + 0.05 * np.cos(3 * a), n=17),
    "1001-samples": lambda: SupportOval.from_callable(lambda a: 1.0 + 0.05 * np.cos(3 * a), n=1001),
}


def _compare_pieces(table):
    """Per-order errors of the table's stored pieces against the exact spline's
    at the start, middle and end of every (n // 256)-th interval (each one
    below 512 nodes) and of the two on each side of the seam."""
    rep = table._rep
    n = rep._n
    intervals = np.unique(np.r_[np.arange(0, n, max(1, n // 256)), 1, n - 2, n - 1])
    exact = ExactSpline(table)
    errors = np.zeros(3)
    with mpmath.workdps(40):
        ref_rows = exact.rows(intervals)
        for t in (0.0, 0.5 * rep._h, rep._h):
            got = oval_module._quintic_jet(rep._coef[:, intervals], t)
            errors = np.maximum(errors, spline_errors(got, piece_jet(ref_rows, mpmath.mpf(t))))
    return errors


@pytest.mark.parametrize("name", list(OTHER_GRIDS))
def test_coefficients_match_the_exact_spline_on_other_grids(name):
    assert np.all(_compare_pieces(OTHER_GRIDS[name]()) <= SPLINE_BOUNDS)


def test_coefficients_match_the_exact_spline(spline_table):
    assert np.all(_compare_pieces(spline_table) <= SPLINE_BOUNDS)


@pytest.mark.parametrize("n", [16, 17])
def test_the_reference_is_the_interpolating_spline(n):
    """The reference's pieces interpolate the samples and join with equal
    p ... p'''' at every knot, within 1e-35; the periodic quintic spline
    through the samples is the only such function."""
    table = OTHER_GRIDS[f"{n}-samples"]()
    samples = table.to_json()["p"]
    exact = ExactSpline(table)
    with mpmath.workdps(40):
        rows = exact.rows(np.arange(n))
        h = mpmath.mpf(TWO_PI) / n
        for i in range(n):
            end = [mpmath.polyval(list(np.polyder(rows[:, i - 1], k)), h) for k in range(5)]
            start = [rows[5 - k, i] * math.factorial(k) for k in range(5)]
            assert abs(start[0] - samples[i]) < mpmath.mpf(10) ** -35
            assert max(abs(u - v) for u, v in zip(end, start)) < mpmath.mpf(10) ** -35
