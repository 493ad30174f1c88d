"""Strictly convex ovals represented by their support function.

An oval is stored as its 2*pi-periodic support function p(alpha): the signed
distance from the origin to the tangent line with outward normal
(cos alpha, sin alpha).  Two interchangeable representations are supported:

* a finite trigonometric series  p = a0 + sum(a_k cos k a + b_k sin k a), and
* a dense uniform sample of p over [0, 2*pi) interpolated by a periodic
  quintic spline, fitted by one FFT and held in power form: six
  coefficients per grid interval.

Both have one evaluation method, `jet(alpha) -> (p, p', p'')`, which reads
cos(k alpha), sin(k alpha) or the interval's coefficients once for all three
orders, and integrate p exactly as the difference of an antiderivative
taken at each end on that end's own shape, which is all the downstream
dynamics needs.  Where only p is read (`SupportOval.p`, `support_margin`)
`value(alpha)` computes the jet's p alone, to the last bit: two of the
Fourier jet's six matvecs, one of the spline's three Horner accumulators.
Both evaluate a scalar angle in plain floats (the spline also arrays of up
to `_solve._SMALL` angles), which the float branch of the bracketed solver
calls once per step of a per-point solve.  The boundary point with normal
angle alpha is

    gamma(alpha) = p(alpha) (cos a, sin a) + p'(alpha) (-sin a, cos a),

and p'' + p is the curvature radius, so validity means p > 0 and p'' + p > 0
everywhere.  Each `SupportOval` keeps cos, sin and p on a closed grid of
`GRID_SIZE` + 1 nodes over [0, 2*pi], computed once.  `tangent_angles_from`
and `is_exterior` share one routine for a point or a (k, 2) array of them:
they read the support margins off that grid, and where no node lies on the
visible arc (points within about 1e-5 of the boundary) they refine the
angle of maximum margin, so the test and the tangents cannot miss a point
the grid cannot resolve.  The margins found there are also the tangency
solve's values at its bracket ends, which it does not evaluate again.  The
Cartesian oracle's far-tangent scan reads the grid too (`_margins_after`).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._solve import _SMALL, bracketed_root
from .errors import ConfigError, ContainmentError, OvalValidationError, checked_count

TWO_PI = 2.0 * np.pi

#: number of nodes in the validation / scan grid
GRID_SIZE = 2048
#: width of one cell of that grid
_CELL = TWO_PI / GRID_SIZE
#: cells in half a turn of that grid
_HALF = GRID_SIZE // 2
#: a point is exterior when some support margin exceeds this
_EXTERIOR_MARGIN = 1e-12


def _cos_sin(a):
    """(cos a, sin a): by `math` for a float, which gives numpy's values
    without its per-call cost, else by numpy."""
    if isinstance(a, float):
        return math.cos(a), math.sin(a)
    return np.cos(a), np.sin(a)


def _ufunc(name, a):
    """numpy's `name` (sin, cos, sqrt) at a, by `math`'s for a float, as `_cos_sin`."""
    return getattr(math if isinstance(a, float) else np, name)(a)


def _ordered_pair(r1, r2, point):
    """Tangency roots as (alpha1, alpha2): reduced to [0, 2*pi) and ordered
    so that 0 < alpha2 - alpha1 < pi, alpha2 lifted past 2*pi if need be."""
    if r1 != r1 or r2 != r2:
        raise ContainmentError(f"lost a tangency root of point {point.tolist()} to rounding")
    r1, r2 = sorted((r1 % TWO_PI, r2 % TWO_PI))
    return (r1, r2) if r2 - r1 < math.pi else (r2, r1 + TWO_PI)


def _check_finite(value, name):
    """ConfigError naming the first non-finite entry of a float or an array."""
    if isinstance(value, float):
        if math.isfinite(value):
            return
    elif np.isfinite(value).all():
        return
    raise ConfigError(f"{name} = {np.ravel(value)[np.argmin(np.isfinite(value))]} is not finite")


def _as_points(point):
    """Points as a (k, 2) float array, and whether a single (2,) point was
    given; ConfigError for another shape or a non-finite coordinate."""
    xy = np.asarray(point, dtype=float)
    one = xy.shape == (2,)
    if not (one or xy.ndim == 2 and xy.shape[1] == 2):
        raise ConfigError(f"expected a point (2,) or points (k, 2), got shape {xy.shape}")
    xy = xy.reshape(-1, 2)
    if not np.isfinite(xy).all():
        bad = np.argmin(np.isfinite(xy).all(axis=1))
        raise ConfigError(f"points must be finite, got {xy[bad].tolist()}")
    return xy, one


def _json_fields(obj, what, *keys):
    """The values of the required `keys` of the JSON object `obj`, a `what`;
    a ValueError names a non-object or the first missing key."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} lacks the key {key!r}")
    return [obj[key] for key in keys]


def _json_floats(value, name, many):
    """A JSON number as a float or, with `many`, a JSON list of numbers as a
    float array; a ValueError names `name` for any other value.  The item
    types are tested as a set: `np.asarray(value, dtype=float)` would take
    None as NaN and "1.5" as 1.5, and a bool is not a number here."""
    listed = type(value) is list
    odd = set(map(type, value if listed else [value])) - {int, float}
    if listed != many or odd:
        got = type(value).__name__
        if listed and many:
            got = "a list holding " + ", ".join(sorted(t.__name__ for t in odd))
        raise ValueError(f"{name} must be {'a list of numbers' if many else 'a number'}, not {got}")
    try:
        return np.array(value, dtype=float) if many else float(value)
    except OverflowError:
        raise ValueError(f"{name} holds an integer beyond float range") from None


def _series(terms, coef):
    """terms @ coef over the last axis, with the leading axes flattened to
    one first: numpy then sums each row by one BLAS gemv, as for a 1-D batch,
    where a stacked product would sum in another order.  Both sizes are
    given, so empty batches keep working."""
    rows = terms.shape[:-1]
    return (terms.reshape(math.prod(rows), terms.shape[-1]) @ coef).reshape(rows)


class _FourierRep:
    """p as a finite trigonometric series; derivatives and integrals exact.

    `a`, `b` hold every coefficient up to the highest harmonic, as given and
    as written by `descriptor`; evaluation reads only the harmonics `k` with
    a nonzero cos or sin coefficient (`perturbed_circle(eps, k)` stores k - 1
    zero pairs), whose terms would add exact zeros.
    """

    kind = "fourier"

    def __init__(self, a0, cos_coef=(), sin_coef=()):
        self.a0 = float(a0)
        cos_coef, sin_coef = np.asarray(cos_coef, dtype=float), np.asarray(sin_coef, dtype=float)
        if cos_coef.ndim != 1 or sin_coef.ndim != 1:
            raise OvalValidationError(f"need 1-d coefficient lists, got shapes "
                                      f"{cos_coef.shape} and {sin_coef.shape}")
        n = max(len(cos_coef), len(sin_coef))
        a, b = np.zeros(n), np.zeros(n)
        a[: len(cos_coef)] = cos_coef
        b[: len(sin_coef)] = sin_coef
        self.a, self.b = a, b
        used = np.flatnonzero((a != 0.0) | (b != 0.0))
        self.k = used + 1
        self._a, self._b = a[used], b[used]
        # coefficients of the first and second derivative series
        self._ak, self._bk = self._a * self.k, self._b * self.k
        self._ak2, self._bk2 = self._a * self.k**2, self._b * self.k**2
        # and of the antiderivative series
        self._ak_1, self._bk_1 = self._a / self.k, self._b / self.k
        coef = (self.k, self._a, self._b, self._ak, self._bk, self._ak2, self._bk2)
        self._terms = list(zip(*(v.tolist() for v in coef)))
        self._value_terms = [term[:3] for term in self._terms]

    def _jet_float(self, a):
        """`jet` at one angle by a loop over the harmonics, NaN if it is not
        finite.  The terms are grouped as in the array path's matmuls; with
        one nonzero harmonic that gives the same values to the last bit, with
        several the sums can differ by rounding from BLAS's summation order."""
        if not math.isfinite(a):
            return math.nan, math.nan, math.nan
        pc = ps = dc = ds = ddc = dds = 0.0
        for k, ak, bk, ak1, bk1, ak2, bk2 in self._terms:
            c, s = math.cos(k * a), math.sin(k * a)
            pc += c * ak
            ps += s * bk
            dc += -s * ak1
            ds += c * bk1
            ddc += -c * ak2
            dds += -s * bk2
        return pc + ps + self.a0, dc + ds, ddc + dds

    def _value_float(self, a):
        """`value` at one angle: `_jet_float`'s p and nothing else."""
        if not math.isfinite(a):
            return math.nan
        pc = ps = 0.0
        for k, ak, bk in self._value_terms:
            pc += math.cos(k * a) * ak
            ps += math.sin(k * a) * bk
        return pc + ps + self.a0

    def _angles(self, alpha):
        """Angles as an array, and the (cos, sin) of k alpha, one row per angle,
        so each series is summed as in `_series`."""
        alpha = np.asarray(alpha, dtype=float)
        ka = np.multiply.outer(alpha.ravel(), self.k)
        return alpha, np.cos(ka), np.sin(ka)

    def jet(self, alpha):
        """(p, p', p'') at alpha; cos(k alpha) and sin(k alpha) are computed once."""
        if isinstance(alpha, float) or np.ndim(alpha) == 0:
            return self._jet_float(float(alpha))
        alpha, c, s = self._angles(alpha)
        # each derivative rotates (cos, sin) by a quarter period
        neg_s = -s
        p = c @ self._a + s @ self._b + self.a0
        dp = neg_s @ self._ak + c @ self._bk
        ddp = (-c) @ self._ak2 + neg_s @ self._bk2
        return p.reshape(alpha.shape), dp.reshape(alpha.shape), ddp.reshape(alpha.shape)

    def value(self, alpha):
        """p at alpha, the first of `jet` to the last bit: its two series only."""
        if isinstance(alpha, float) or np.ndim(alpha) == 0:
            return self._value_float(float(alpha))
        alpha, c, s = self._angles(alpha)
        return (c @ self._a + s @ self._b + self.a0).reshape(alpha.shape)

    def _wave(self, x):
        """sum of (a_k sin kx - b_k cos kx) / k: p's antiderivative less a0 x."""
        kx = np.multiply.outer(x, self.k)
        return _series(np.sin(kx), self._ak_1) - _series(np.cos(kx), self._bk_1)

    def integral(self, a, b):
        """a0 (b - a) + (W(b) - W(a)), W the `_wave` on each end's own shape."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        out = self.a0 * (b - a)
        if len(self.k):
            out = out + (self._wave(b) - self._wave(a))
        return out if np.ndim(out) else float(out)

    def periodicity_defect(self):
        return 0.0

    def descriptor(self):
        return {
            "type": "fourier",
            "a0": self.a0,
            "cos": self.a.tolist(),
            "sin": self.b.tolist(),
        }


def _quintic_jet(c, t):
    """(p, p', p'') of c[0] t^5 + c[1] t^4 + ... + c[5] by one Horner pass
    with three accumulators; floats and arrays alike."""
    c0, c1, c2, c3, c4, c5 = c
    p = c0 * t + c1
    dp = c0 * t + p
    half_ddp = c0
    p = p * t + c2
    for ck in (c3, c4, c5):
        half_ddp = half_ddp * t + dp
        dp = dp * t + p
        p = p * t + ck
    return p, dp, 2.0 * half_ddp


def _quintic_value(c, t):
    """p alone of `_quintic_jet`, by its one-accumulator Horner pass and so
    to the last bit; floats and arrays alike."""
    c0, c1, c2, c3, c4, c5 = c
    return ((((c0 * t + c1) * t + c2) * t + c3) * t + c4) * t + c5


def _quintic_primitive(c, t):
    """Integral over [0, t] of c[0] t^5 + ... + c[5], by Horner."""
    g = 0.0
    for j, ck in enumerate(c):
        g = g * t + ck / (6.0 - j)
    return g * t


def _compensated_cumsum(values):
    """[0, v0, v0 + v1, ...] with Neumaier's compensation: the exact rounding
    error of each running-sum step (Knuth's two-sum) is summed on the side."""
    total = np.concatenate([[0.0], np.cumsum(values)])
    prev, new = total[:-1], total[1:]
    moved = new - prev
    err = (prev - (new - moved)) + (values - moved)
    total[1:] += np.cumsum(err)
    return total


#: d! times the degree-d cardinal B-spline at the knots where it is read,
#: d = 0 ... 5: inside its support, at its left end for d = 0
_KNOT_VALUES = ((1,), (1,), (1, 1), (1, 4, 1), (1, 11, 11, 1), (1, 26, 66, 26, 1))


def _periodic_quintic(samples):
    """Taylor coefficients, highest power first, of the periodic quintic
    spline through n samples at the nodes i h, h = 2*pi / n, taken at each
    interval's start: a (6, n) array.

    The spline is sum_j c_j B(alpha / h - j + 3), B the cardinal quintic
    B-spline on [0, 6], so sample i is (c[i-2] + 26 c[i-1] + 66 c[i] +
    26 c[i+1] + c[i+2]) / 120: a circulant system with eigenvalues in
    [2/15, 1], solved by one real FFT and one residual correction (Unser,
    Aldroubi & Eden, IEEE Trans. Signal Process. 41, 1993).  The m-th
    derivative at node i is h^-m times the degree 5 - m knot values times
    the m-th backward differences of c ending at c[i+2], c[i+1], ... (c[i+3]
    for m = 5): differences first, so the pieces join at round-off.
    """
    n, h = len(samples), TWO_PI / len(samples)
    t = np.arange(n // 2 + 1) * h
    inverse = 120.0 / (66.0 + 52.0 * np.cos(t) + 2.0 * np.cos(2.0 * t))
    wrap = np.arange(-2, n + 3)  # c at the indices -2 ... n + 2, mod n

    def solve(r):
        return np.fft.irfft(np.fft.rfft(r) * inverse, n)

    def knot_sum(diff, d):
        return sum(w * diff[a:a + n] for a, w in enumerate(_KNOT_VALUES[d]))

    c = solve(samples)
    c += solve(samples - knot_sum(c.take(wrap, mode="wrap"), 5) / 120.0)
    # entry q of diff: the m-th backward difference ending at c[q + m - 2]
    diff, coef = c.take(wrap, mode="wrap"), np.empty((6, n))
    for m in range(6):
        coef[5 - m] = knot_sum(diff, 5 - m) / (math.factorial(5 - m) * math.factorial(m) * h**m)
        diff = diff[1:] - diff[:-1]
    return coef


class _SplineRep:
    """p sampled on a uniform grid, interpolated by a periodic quintic spline.

    Column i of `_coef` holds p on [i h, (i + 1) h] as a quintic in
    t = alpha - i h, highest power first; the integral constants in `_cum`
    are compensated prefix sums of the exact interval integrals, read at each
    integral end's remainder mod 2*pi, its whole turns counted apart.
    """

    kind = "samples"

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or len(samples) < 16 or not np.isfinite(samples).all():
            raise OvalValidationError("need a 1-d array of at least 16 finite samples")
        self.samples = samples.copy()
        self.samples.setflags(write=False)
        n = len(samples)
        self._coef = _periodic_quintic(self.samples)
        self._n = n
        self._h = TWO_PI / n
        self._cum = _compensated_cumsum(_quintic_primitive(self._coef, self._h))
        self._full = float(self._cum[-1])

    def _locate(self, a):
        """Interval index and local variable of angles reduced to [0, 2*pi];
        NaN lands in the last interval and stays NaN."""
        i = np.fmin(a / self._h, self._n - 1).astype(np.intp)
        return i, a - i * self._h

    def _float_at(self, a, poly):
        """poly(c, t) at one float angle a, c the coefficients of a's interval
        and t the offset in it; a NaN or infinite angle gives NaN, from the
        last interval as in `_locate`."""
        a %= TWO_PI
        i = min(int(a / self._h), self._n - 1) if a == a else self._n - 1
        return poly(self._coef[:, i].tolist(), a - i * self._h)

    def _at(self, alpha, poly):
        """poly(c, t) at alpha: in plain floats for a scalar and for each of
        up to `_SMALL` angles, stacked on a leading axis for a tuple poly."""
        a = np.asarray(alpha, dtype=float)
        if a.ndim == 0:
            return self._float_at(float(a), poly)
        if 0 < a.size <= _SMALL:
            out = np.array([self._float_at(v, poly) for v in a.ravel().tolist()]).T
            return out.reshape(out.shape[:-1] + a.shape)
        i, t = self._locate(np.mod(a, TWO_PI))
        return poly(np.take(self._coef, i, axis=1), t)

    def jet(self, alpha):
        """(p, p', p'') at alpha."""
        if isinstance(alpha, float):
            return self._float_at(float(alpha), _quintic_jet)
        return tuple(self._at(alpha, _quintic_jet))

    def value(self, alpha):
        """p at alpha, the first of `jet` to the last bit."""
        if isinstance(alpha, float):
            return self._float_at(float(alpha), _quintic_value)
        return self._at(alpha, _quintic_value)

    def _primitive(self, r):
        """Integral of p over [0, r] for r in [0, 2*pi]."""
        i, t = self._locate(r)
        return np.take(self._cum, i) + _quintic_primitive(np.take(self._coef, i, axis=1), t)

    def integral(self, a, b):
        """(P(rb) - P(ra)) + (tb - ta) full, (t, r) = divmod(x, 2*pi) on each
        end's own shape and P the `_primitive`; no whole turn enters P."""
        ta, ra = np.divmod(np.asarray(a, dtype=float), TWO_PI)
        tb, rb = np.divmod(np.asarray(b, dtype=float), TWO_PI)
        out = (self._primitive(rb) - self._primitive(ra)) + (tb - ta) * self._full
        return out if np.ndim(out) else float(out)

    def periodicity_defect(self):
        """Largest jump of p, p', p'' between the last interval's end and 0."""
        start = _quintic_jet(self._coef[:, 0].tolist(), 0.0)
        end = _quintic_jet(self._coef[:, -1].tolist(), TWO_PI - (self._n - 1) * self._h)
        return max(abs(u - v) for u, v in zip(start, end))

    def descriptor(self):
        return {"type": "samples", "p": self.samples.tolist()}


@dataclass(frozen=True)
class ValidationReport:
    """Grid survey of the oval invariants (refined near the minima)."""

    min_support: float
    min_curvature_radius: float
    periodicity_defect: float
    symmetry_defect: float
    passed: bool
    messages: tuple[str, ...] = ()

    def to_dict(self):
        return asdict(self)


def _refined_min(fn, grid_alphas, grid_vals):
    """Global grid minimum sharpened by three rounds of resampling on 32
    nodes around the best point so far, each round 8 times narrower."""
    i = int(np.argmin(grid_vals))
    best = float(grid_vals[i])
    center = grid_alphas[i]
    h = grid_alphas[1] - grid_alphas[0]
    for _ in range(3):
        local_a = np.linspace(center - h, center + h, 32)
        local_v = fn(local_a)
        j = int(np.argmin(local_v))
        if local_v[j] < best:
            best = float(local_v[j])
            center = local_a[j]
        h /= 8.0
    return best


class SupportOval:
    """Immutable strictly convex oval given by its support function; the
    constructor surveys it once and raises `OvalValidationError` if it fails."""

    def __init__(self, rep):
        self._rep = rep
        closed = np.linspace(0.0, TWO_PI, GRID_SIZE + 1)
        p, _, ddp = rep.jet(closed)
        # (nodes, cos, sin, p) of the closed grid, for `_grid_margin`; the
        # node at 2*pi repeats the values at 0, so a margin's signs close up
        cos, sin, p = (np.append(v[:-1], v[0]) for v in (np.cos(closed), np.sin(closed), p))
        self._scan = (closed, cos, sin, p)
        self._report = self._survey(closed[:-1], p[:-1], p[:-1] + ddp[:-1])
        self.symmetry_flag = self._report.symmetry_defect < 1e-8
        if not self._report.passed:
            raise OvalValidationError("; ".join(self._report.messages), self._report)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fourier(cls, a0, cos_coef=(), sin_coef=()):
        return cls(_FourierRep(a0, cos_coef, sin_coef))

    @classmethod
    def from_samples(cls, samples):
        return cls(_SplineRep(samples))

    @classmethod
    def from_callable(cls, fn, n=4096):
        """Resample an arbitrary support callable into the spline representation
        at n equally spaced angles; ConfigError unless n is an integer >= 0, and
        the spline refuses n < 16."""
        alphas = np.linspace(0.0, TWO_PI, checked_count(n, "n", 0), endpoint=False)
        return cls.from_samples(fn(alphas))

    # -- pointwise geometry ------------------------------------------------

    @property
    def kind(self):
        return self._rep.kind

    def jet(self, alpha):
        """(p, p', p'') at alpha, in one evaluation; scalars give floats."""
        return self._rep.jet(alpha)

    def p(self, alpha):
        """Support function value at alpha (`jet` gives its derivatives);
        ConfigError names a non-finite angle."""
        _check_finite(alpha, "alpha")
        return self._rep.value(alpha)

    def support_integral(self, a, b):
        """Exact integral of p over [a, b]; accepts scalars or arrays, and
        raises ConfigError if an end is not finite."""
        _check_finite(a, "a")
        _check_finite(b, "b")
        return self._rep.integral(a, b)

    def point_at(self, alpha):
        """Boundary point gamma(alpha); vectorized, returns (..., 2), and
        ConfigError names a non-finite angle."""
        _check_finite(alpha, "alpha")
        a = np.asarray(alpha, dtype=float)
        (p, dp, _), (c, s) = self._rep.jet(a), _cos_sin(a)
        return np.stack([p * c - dp * s, p * s + dp * c], axis=-1)

    def curvature_radius(self, alpha):
        """p''(alpha) + p(alpha), strictly positive for a valid oval;
        ConfigError names a non-finite angle."""
        _check_finite(alpha, "alpha")
        p, _, ddp = self._rep.jet(alpha)
        return ddp + p

    def arc_length(self, alpha1, alpha2):
        """Boundary arc length from gamma(alpha1) to gamma(alpha2), alpha1 < alpha2;
        elementwise on arrays, a float for scalars."""
        a1 = np.asarray(alpha1, dtype=float)
        a2 = np.asarray(alpha2, dtype=float)
        if not np.all((a1 < a2) & (a2 <= a1 + TWO_PI + 1e-12)):
            raise ConfigError("need alpha1 < alpha2 <= alpha1 + 2*pi")
        out = self._rep.jet(a2)[1] - self._rep.jet(a1)[1] + self._rep.integral(a1, a2)
        return out if np.ndim(out) else float(out)

    @functools.cached_property
    def circumference(self):
        """Boundary length, the integral of p over one period; computed once."""
        return self._rep.integral(0.0, TWO_PI)

    # -- exterior points and tangency -------------------------------------

    def support_margin(self, point, alpha):
        """Signed margin <point, n(alpha)> - p(alpha); positive outside the
        support line.  ConfigError names a non-finite angle."""
        _check_finite(alpha, "alpha")
        a = np.asarray(alpha, dtype=float)
        x, y = point
        return x * np.cos(a) + y * np.sin(a) - self._rep.value(a)

    def _margin_jet(self, a, x, y):
        """(h, h', h'') of the support margin h(a) = x cos a + y sin a - p(a)
        of the point (x, y); plain floats for a float angle."""
        p, dp, ddp = self._rep.jet(a)
        c, s = _cos_sin(a)
        along = x * c + y * s
        return along - p, -x * s + y * c - dp, -along - ddp

    def _margin_fdf(self, a, x, y):
        return self._margin_jet(a, x, y)[:2]

    def _slope_fdf(self, a, x, y):
        return self._margin_jet(a, x, y)[1:]

    def _grid_margin(self, xy):
        """`support_margin` of points (k, 2) at every node of the closed grid,
        shape (k, GRID_SIZE + 1)."""
        _, cos, sin, p = self._scan
        h = np.multiply.outer(xy[:, 0], cos)
        h += np.multiply.outer(xy[:, 1], sin)
        h -= p
        return h

    def _margins_after(self, x, y, a):
        """(j, margins): `support_margin` of the point (x, y) at the `_HALF` + 1
        grid nodes after the angle a, node i at (j + i) * `_CELL`; floats, read
        off the closed grid cyclically in one pass over it."""
        _, cos, sin, p = self._scan
        j = math.floor(a / _CELL) + 1
        s, h = j % GRID_SIZE, x * cos + y * sin - p
        return j, h[s:s + _HALF + 1] if s <= _HALF else np.append(h[s:], h[1:s - _HALF + 1])

    def _visible(self, xy):
        """Shared core of `is_exterior` and `tangent_angles_from` for points
        (k, 2): their grid margins h, the largest node margin of each, and
        whether each is exterior (see `_EXTERIOR_MARGIN`); where the grid alone
        cannot tell, also the argmax node's index, and the angle of maximum
        margin and the margin there (index -1 and NaN on the other rows, and
        None for all three when the grid tells for every row).

        A row whose largest node margin exceeds the threshold is exterior.
        For the others the maximum is refined: h is strictly concave near it
        (h'' = -(h + p'' + p)), so h' has one root on the two cells around
        the argmax, and the point is exterior if h there exceeds it.
        """
        h = self._grid_margin(xy)
        top = h.max(axis=1)
        exterior = top > _EXTERIOR_MARGIN
        node = star = peak = None
        if not exterior.all():
            fine = np.flatnonzero(~exterior)
            node = np.full(len(h), -1)
            star, peak = np.full((2, len(h)), np.nan)
            node[fine] = np.argmax(h[fine], axis=1)
            at, x, y = self._scan[0][node[fine]], xy[fine, 0], xy[fine, 1]
            star[fine] = bracketed_root(self._slope_fdf, at - _CELL, at + _CELL, x, y)
            peak[fine] = self._margin_jet(star[fine], x, y)[0]
            exterior[fine] = peak[fine] > _EXTERIOR_MARGIN
        return h, top, exterior, node, star, peak

    def is_exterior(self, point):
        """True when some support margin of the point exceeds
        `_EXTERIOR_MARGIN` = 1e-12; k points (k, 2) give k booleans."""
        xy, one = _as_points(point)
        exterior = self._visible(xy)[2]
        return bool(exterior[0]) if one else exterior

    def tangent_angles_from(self, point):
        """Normal angles (alpha1, alpha2) of the two tangent lines through a point.

        The pair is ordered so that 0 < alpha2 - alpha1 < pi, which puts the
        oval ahead of the point in counterclockwise order along the line at
        alpha1.  alpha1 is reduced to [0, 2*pi); alpha2 may exceed 2*pi.  A
        point of shape (2,) gives two floats, k points (k, 2) two arrays.

        The support margin h is positive exactly on the visible arc, one
        interval.  Where a grid node has h > 0, the two grid cells where the
        sign of h turns bracket the roots.  Where none does, the point is
        within about (grid step)^2 of the boundary, and both roots lie in the
        grid cell of the refined maximum, split there into two brackets (see
        `_visible`).  Each bracket is solved from its midpoint, with the margins
        at its ends read off the grid and the refined maximum, not evaluated
        again: one point's two brackets in plain floats, one solver call each,
        k points' 2k brackets in one call.  ContainmentError names the first
        point `is_exterior` refuses.
        """
        xy, one = _as_points(point)
        h, top, exterior, node, star, peak = self._visible(xy)
        if not exterior.all():
            i = int(np.argmin(exterior))
            raise ContainmentError(
                f"{'point' if one else f'point {i},'} {xy[i].tolist()} is not strictly exterior"
            )
        nodes = self._scan[0]
        # a row with a positive node has one positive run, so its signs turn
        # in exactly two cells (each row has an even number of turns)
        seen = top > 0.0
        pos = h > 0.0
        # the turns' flat indices into the (k, GRID_SIZE) cells: row * GRID_SIZE + cell
        turns = np.flatnonzero(pos[:, :-1] != pos[:, 1:])
        if turns.size != 2 * np.count_nonzero(seen):
            i = int(np.argmax(np.bincount(turns // GRID_SIZE, minlength=len(xy)) > 2))
            raise ContainmentError(f"point {xy[i].tolist()} has no single visible arc on the grid")
        if one and seen[0]:
            # one row, whose turns are its two cells: each solved in plain floats
            x, y = xy[0].tolist()
            r1, r2 = (bracketed_root(self._margin_fdf, nodes[c], nodes[c + 1], x, y,
                                     ends=(h[0, c], h[0, c + 1]))
                      for c in turns.tolist())
            return _ordered_pair(r1, r2, xy[0])
        rows, cell = np.divmod(turns, GRID_SIZE)
        # the brackets (lo, hi) and the margins at their ends, (k, 2) each
        lo, hi, flo, fhi = np.empty((4, len(xy), 2))
        grid = (nodes[cell], nodes[cell + 1], h[rows, cell], h[rows, cell + 1])
        lo[seen], hi[seen], flo[seen], fhi[seen] = (v.reshape(-1, 2) for v in grid)
        if not seen.all():
            rows = np.flatnonzero(~seen)
            j, star, peak = node[rows], star[rows], peak[rows]
            left = star < nodes[j]
            edge = np.where(left, nodes[j] - _CELL, nodes[j])
            # the index of the grid node at `edge`, one period on for the node before 0
            e = (j - left) % GRID_SIZE
            lo[rows] = np.column_stack([edge, star])
            hi[rows] = np.column_stack([star, edge + _CELL])
            flo[rows] = np.column_stack([h[rows, e], peak])
            fhi[rows] = np.column_stack([peak, h[rows, e + 1]])
        roots = bracketed_root(self._margin_fdf, lo, hi, xy[:, :1], xy[:, 1:], ends=(flo, fhi))
        pairs = [_ordered_pair(r1, r2, xy[i]) for i, (r1, r2) in enumerate(roots.tolist())]
        return pairs[0] if one else tuple(np.array(pairs).reshape(-1, 2).T)

    # -- validation --------------------------------------------------------

    def _survey(self, grid, p, rho):
        """The invariants at the nodes `grid` of the open grid, where p and
        rho = p'' + p take the given values, with the minima refined."""
        min_p = _refined_min(self.p, grid, p)
        min_rho = _refined_min(self.curvature_radius, grid, rho)
        defect = self._rep.periodicity_defect()
        sym = p - self._rep.value(np.mod(grid + np.pi, TWO_PI))
        messages = []
        if not min_p > 1e-12:
            messages.append(f"support function not positive (min p = {min_p:.3e})")
        if not min_rho > 1e-12:
            messages.append(f"not strictly convex (min p''+p = {min_rho:.3e})")
        if not defect <= 1e-9:
            messages.append(f"periodicity defect {defect:.3e}")
        if not np.isfinite(p).all():
            messages.append("support function not finite")
        return ValidationReport(
            min_support=min_p,
            min_curvature_radius=min_rho,
            periodicity_defect=defect,
            symmetry_defect=float(np.max(np.abs(sym))),
            passed=not messages,
            messages=tuple(messages),
        )

    def validate(self):
        """The constructor's grid survey of the invariants, refined near minima."""
        return self._report

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return self._rep.descriptor()

    @classmethod
    def from_json(cls, obj):
        _json_fields(obj, "oval descriptor")
        kind = obj.get("type")
        what = f"{kind} oval descriptor"
        if kind == "fourier":
            (a0,) = _json_fields(obj, what, "a0")
            cos, sin = (_json_floats(obj.get(k, []), f"{what} {k!r}", many=True)
                        for k in ("cos", "sin"))
            return cls.from_fourier(_json_floats(a0, f"{what} 'a0'", many=False), cos, sin)
        if kind == "samples":
            (p,) = _json_fields(obj, what, "p")
            return cls.from_samples(_json_floats(p, f"{what} 'p'", many=True))
        raise ValueError(f"unknown oval descriptor type {kind!r}")

    def save(self, path):
        """Write `to_json()` to path; `json.dumps` encodes in C, where
        `json.dump` writes chunk by chunk from Python."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_json()))

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def __repr__(self):
        return f"SupportOval(kind={self.kind!r}, symmetric={self.symmetry_flag})"


# -- stock tables ----------------------------------------------------------


def circle(radius=1.0):
    """Round table of the given radius, exact Fourier representation."""
    return SupportOval.from_fourier(radius)


def ellipse(a, b):
    """Origin-centered axis-aligned ellipse with semi-axes a, b (4096 samples);
    OvalValidationError names a semi-axis that is not finite and positive."""
    for name, axis in (("a", a), ("b", b)):
        if not (math.isfinite(axis) and axis > 0.0):
            raise OvalValidationError(f"semi-axis {name} = {axis!r} is not finite and positive")

    def h(alpha):
        return np.sqrt((a * np.cos(alpha)) ** 2 + (b * np.sin(alpha)) ** 2)

    return SupportOval.from_callable(h)


def perturbed_circle(eps, harmonic, phase=0.0):
    """Table p = 1 + eps * cos(harmonic * alpha - phase); ConfigError
    unless harmonic is an integer >= 1."""
    harmonic = checked_count(harmonic, "harmonic", 1)
    cos_coef = np.zeros(harmonic)
    sin_coef = np.zeros(harmonic)
    cos_coef[harmonic - 1] = eps * np.cos(phase)
    sin_coef[harmonic - 1] = eps * np.sin(phase)
    return SupportOval.from_fourier(1.0, cos_coef, sin_coef)
