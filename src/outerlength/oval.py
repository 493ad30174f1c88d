"""Strictly convex ovals represented by their support function.

An oval is stored as its 2*pi-periodic support function p(alpha): the signed
distance from the origin to the tangent line with outward normal
(cos alpha, sin alpha).  Two interchangeable representations are supported:

* a finite trigonometric series  p = a0 + sum(a_k cos k a + b_k sin k a), and
* a dense uniform sample of p over [0, 2*pi) interpolated by a periodic
  quintic spline, fitted by one FFT and held in power form: six
  coefficients per grid interval.

Each has one pointwise evaluation, `jet(alpha) -> (p, p', p'')`, which
reads cos(k alpha), sin(k alpha) or the interval's coefficients once for all
three orders (every Fourier sum is one `np.dot`, BLAS's gemv), and one
integral, `p_and_integral(a, b)`: p at both ends and the integral of p
between them, the difference of an antiderivative term taken at each end on
that end's own shape.  One evaluation per end, `_end`, reads those terms
once for p (the jet's p, to the last bit) and the antiderivative term alike;
`genfun.S_arr` reads all three, the circumference and arc lengths the
integral.  `SupportOval.p` is the jet's first entry.  A float or 0-d angle
is evaluated in plain floats, which the float branch of the bracketed solver
calls once per step of a per-point solve, and any array of angles by numpy.
The boundary point with normal angle alpha is

    gamma(alpha) = p(alpha) (cos a, sin a) + p'(alpha) (-sin a, cos a),

and p'' + p is the curvature radius, so validity means p > 0 and p'' + p > 0
everywhere.  Each `SupportOval` keeps cos, sin and p at the grid nodes j *
2*pi / `GRID_SIZE` over a turn and a half, computed once over the first turn
and copied past it, and it alone reads that grid's layout.
`tangent_angles_from` treats k points (a (k, 2) array) as k single points.
Each point's support margins are one pass over the closed grid's
`GRID_SIZE` + 1 nodes, and where no node lies on the visible arc (points
within about 1e-5 of the boundary) the angle of maximum margin is refined,
so the exterior test and the tangents cannot miss a point the grid cannot
resolve.  The margins found there are also the values at the ends of the
point's two brackets, each solved in plain floats.  The Cartesian oracle's
far-tangent cell (`_cell_after`) is read off the half turn it needs as one
slice, and the survey p(alpha + pi) as another.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from types import MappingProxyType

import numpy as np

from ._solve import bracketed_root
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


def _root_brackets(x, y, h, j, star, peak):
    """The two brackets (lo, hi, h(lo), h(hi)) of the tangency roots of the
    point (x, y), from its `SupportOval._exterior_scan`: the two cells where
    the sign of h turns if a node has h > 0, else the refined maximum's cell
    split at star.  ContainmentError names a point with more turns."""
    if h[j] > 0.0:
        pos = h > 0.0
        turns = np.flatnonzero(pos[:-1] != pos[1:]).tolist()
        if len(turns) != 2:
            raise ContainmentError(f"point {[x, y]} has no single visible arc on the grid")
        return [(c * _CELL, (c + 1) * _CELL, h[c], h[c + 1]) for c in turns]
    left = star < j * _CELL
    edge = j * _CELL - _CELL if left else j * _CELL
    # the index of the grid node at `edge`, one period on for the node before 0
    e = (j - left) % GRID_SIZE
    return [(edge, star, h[e], peak), (star, edge + _CELL, peak, h[e + 1])]


def _ordered_pair(r1, r2, point):
    """Tangency roots as (alpha1, alpha2): reduced to [0, 2*pi) and ordered
    so that 0 < alpha2 - alpha1 < pi, alpha2 lifted past 2*pi if need be.
    ContainmentError names the point when a root is NaN, or when neither
    order gives a gap below pi (a point about 1e16 or more out)."""
    if r1 != r1 or r2 != r2:
        raise ContainmentError(f"lost a tangency root of point {point} to rounding")
    r1, r2 = sorted((r1 % TWO_PI, r2 % TWO_PI))
    if r2 - r1 < math.pi:
        return r1, r2
    if r1 + TWO_PI - r2 < math.pi:
        return r2, r1 + TWO_PI
    raise ContainmentError(f"point {point} is too far out: its tangents are parallel to rounding")


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


def _json_object(obj, what):
    """`obj` if it is a JSON object; a ValueError names a `what` of another type."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(obj).__name__}")
    return obj


def _json_fields(obj, what, *keys, optional=MappingProxyType({})):
    """The values of the required `keys` of the JSON object `obj`, a `what`, then of
    `optional`'s keys (the others it may hold) or their defaults; a ValueError
    names a non-object, the first missing key or the first key of neither kind."""
    obj = _json_object(obj, what)
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} lacks the key {key!r}")
    unknown = [k for k in obj if k not in keys and k not in optional]
    if unknown:
        raise ValueError(f"{what} has the unknown key {unknown[0]!r}")
    return [obj[key] for key in keys] + [obj.get(key, v) for key, v in optional.items()]


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
        # coefficients of the derivative series, signs included: p' sums
        # -a k sin + b k cos, p'' sums -a k^2 cos - b k^2 sin
        self._dsin, self._dcos = -self._a * self.k, self._b * self.k
        self._ddcos, self._ddsin = -self._a * self.k**2, -self._b * self.k**2
        # and of the antiderivative series
        self._ak_1, self._bk_1 = self._a / self.k, self._b / self.k
        coef = (self.k, self._a, self._b, self._dsin, self._dcos, self._ddcos, self._ddsin)
        self._terms = list(zip(*(v.tolist() for v in coef)))

    def _jet_float(self, a):
        """`jet` at one angle by a loop over the harmonics, NaN if it is not
        finite.  The terms are grouped as in the array path's sums; with
        one nonzero harmonic that gives the same values to the last bit, with
        several the sums can differ by rounding from BLAS's summation order."""
        if not math.isfinite(a):
            return math.nan, math.nan, math.nan
        pc = ps = ds = dc = ddc = dds = 0.0
        for k, ak, bk, dsin, dcos, ddcos, ddsin in self._terms:
            c, s = math.cos(k * a), math.sin(k * a)
            pc += c * ak
            ps += s * bk
            ds += s * dsin
            dc += c * dcos
            ddc += c * ddcos
            dds += s * ddsin
        return pc + ps + self.a0, ds + dc, ddc + dds

    def _angles(self, alpha):
        """Angles as an array, and the (cos, sin) of k alpha as (angles, K)
        matrices, one row per angle.  Every series is then summed by
        `np.dot`, which calls BLAS's gemv for any K: `@` gives the same bits
        but, in numpy 2.4, sums a one-column matrix (one nonzero harmonic)
        in its own loop: 7.8 us against 1.4 us on 1000 rows, one Xeon core."""
        alpha = np.asarray(alpha, dtype=float)
        ka = np.multiply.outer(alpha.ravel(), self.k)
        return alpha, np.cos(ka), np.sin(ka)

    def _p(self, c, s):
        """p's two series and a0 on the rows of `_angles`."""
        return np.dot(c, self._a) + np.dot(s, self._b) + self.a0

    def jet(self, alpha):
        """(p, p', p'') at alpha; cos(k alpha) and sin(k alpha) are computed
        once, and each derivative rotates them by a quarter period."""
        if isinstance(alpha, float) or np.ndim(alpha) == 0:
            return self._jet_float(float(alpha))
        alpha, c, s = self._angles(alpha)
        dp = np.dot(s, self._dsin) + np.dot(c, self._dcos)
        ddp = np.dot(c, self._ddcos) + np.dot(s, self._ddsin)
        shape = alpha.shape
        return self._p(c, s).reshape(shape), dp.reshape(shape), ddp.reshape(shape)

    def _end(self, alpha):
        """(p, W) at the angles alpha, from one `_angles` call: p as `jet`
        gives it, and W = sum (a_k sin k alpha - b_k cos k alpha) / k, p's
        antiderivative less a0 alpha."""
        alpha, c, s = self._angles(alpha)
        w = (np.dot(s, self._ak_1) - np.dot(c, self._bk_1)).reshape(alpha.shape)
        if not alpha.ndim:
            return self._jet_float(float(alpha))[0], w
        return self._p(c, s).reshape(alpha.shape), w

    def p_and_integral(self, a, b):
        """(p(a), p(b), integral of p over [a, b]) from one `_end` per end:
        the integral is a0 (b - a) + (W(b) - W(a)), on each end's own shape."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        (pa, wa), (pb, wb) = self._end(a), self._end(b)
        out = self.a0 * (b - a) + (wb - wa)
        return pa, pb, (out if np.ndim(out) else float(out))

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

    def jet(self, alpha):
        """(p, p', p'') at alpha: in plain floats for a float or a 0-d array,
        else on the gathered columns of every angle's interval.  A NaN or
        infinite angle gives NaN, from the last interval as in `_locate`."""
        if isinstance(alpha, float) or np.ndim(alpha) == 0:
            a = float(alpha) % TWO_PI
            i = min(int(a / self._h), self._n - 1) if a == a else self._n - 1
            return _quintic_jet(self._coef[:, i].tolist(), a - i * self._h)
        i, t = self._locate(np.mod(np.asarray(alpha, dtype=float), TWO_PI))
        return _quintic_jet(np.take(self._coef, i, axis=1), t)

    def _end(self, alpha):
        """(p, P, turns) at the angles alpha, from one divmod, `_locate` and
        coefficient gather: (turns, r) = divmod(alpha, 2*pi), p as `jet`
        gives it, and P the integral of p over [0, r]."""
        turns, r = np.divmod(np.asarray(alpha, dtype=float), TWO_PI)
        i, t = self._locate(r)
        c = np.take(self._coef, i, axis=1)
        return _quintic_value(c, t), np.take(self._cum, i) + _quintic_primitive(c, t), turns

    def p_and_integral(self, a, b):
        """(p(a), p(b), integral of p over [a, b]) from one `_end` per end:
        the integral is (P(b) - P(a)) + (turns(b) - turns(a)) full, on each
        end's own shape, so no whole turn enters P."""
        (pa, Pa, ta), (pb, Pb, tb) = self._end(a), self._end(b)
        out = (Pb - Pa) + (tb - ta) * self._full
        return pa, pb, (out if np.ndim(out) else float(out))

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
        # (cos, sin, p) at the nodes of a turn and a half, node j at the angle
        # j * _CELL (the closed grid's node to the last bit) and node
        # GRID_SIZE + i a copy of node i; so a margin's signs close up at
        # 2*pi (`_exterior_scan`) and every half-turn window is one slice
        # (`_cell_after`)
        self._scan = tuple(np.concatenate((v[:-1], v[:_HALF + 1]))
                           for v in (np.cos(closed), np.sin(closed), p))
        self._report = self._survey(closed[:-1], self._scan[2], p[:-1] + ddp[:-1])
        self.symmetry_flag = self._report.symmetry_defect < 1e-8
        if not self._report.passed:
            raise OvalValidationError("; ".join(self._report.messages), self._report)
        #: boundary length, the integral of p over one period
        self.circumference = rep.p_and_integral(0.0, TWO_PI)[2]

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fourier(cls, a0, cos_coef=(), sin_coef=()):
        """The series a0 + sum cos_coef[k-1] cos(k a) + sin_coef[k-1] sin(k a);
        OvalValidationError names a coefficient that is not finite, before
        any survey."""
        rep = _FourierRep(a0, cos_coef, sin_coef)
        for name, coef in (("a0", [rep.a0]), ("cos", rep.a), ("sin", rep.b)):
            bad = np.flatnonzero(~np.isfinite(coef))
            if bad.size:
                where = "" if name == "a0" else f"[{bad[0]}]"
                raise OvalValidationError(f"Fourier coefficient {name}{where} = "
                                          f"{coef[bad[0]]} is not finite")
        return cls(rep)

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
        return self._rep.jet(alpha)[0]

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
        return self._rep.jet(a2)[1] - self._rep.jet(a1)[1] + self._rep.p_and_integral(a1, a2)[2]

    # -- exterior points and tangency -------------------------------------

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

    def _cell_after(self, x, y, r, a, qa):
        """(lo, hi, q(lo), q(hi)) of the first cell of the half turn after the
        angle a where q = (support margin of the point (x, y)) + r turns
        non-positive (or NaN): the cell ending at the first grid node after a
        with q <= 0, or starting at a, where q is `qa`, if that node is the
        first.  Floats, q read off one slice of the stored turn and a half, at
        the `_HALF` + 1 nodes after a alone; q(hi) > 0 when no node has q <= 0."""
        cos, sin, p = self._scan
        j = math.floor(a / _CELL) + 1
        window = slice(j % GRID_SIZE, j % GRID_SIZE + _HALF + 1)
        q = x * cos[window] + y * sin[window] - p[window] + r
        k = int(np.argmax(~(q > 0.0)))
        lo, qlo = (a, qa) if k == 0 else ((j + k - 1) * _CELL, float(q[k - 1]))
        return lo, (j + k) * _CELL, qlo, float(q[k])

    def _exterior_scan(self, x, y, label):
        """(h, j, star, peak): the point's margins h at the closed grid's nodes,
        in one pass, their argmax node j, and the angle star and margin peak of
        their maximum: star None where h[j] > `_EXTERIOR_MARGIN`, else the root
        of h' on the two cells around j, one float solve.  ContainmentError,
        `label` naming the point, unless peak > `_EXTERIOR_MARGIN`."""
        cos, sin, p = self._scan
        h = x * cos[:GRID_SIZE + 1]
        h += y * sin[:GRID_SIZE + 1]
        h -= p[:GRID_SIZE + 1]
        j = int(h.argmax())
        if h[j] > _EXTERIOR_MARGIN:
            return h, j, None, float(h[j])
        star = bracketed_root(self._slope_fdf, j * _CELL - _CELL, j * _CELL + _CELL, x, y)
        peak = self._margin_jet(star, x, y)[0]
        if not peak > _EXTERIOR_MARGIN:
            raise ContainmentError(f"{label} {[x, y]} is not strictly exterior")
        return h, j, star, peak

    def tangent_angles_from(self, point):
        """Normal angles (alpha1, alpha2) of the two tangent lines through a point.

        The pair is ordered so that 0 < alpha2 - alpha1 < pi, which puts the
        oval ahead of the point in counterclockwise order along the line at
        alpha1.  alpha1 is reduced to [0, 2*pi); alpha2 may exceed 2*pi.  A
        point of shape (2,) gives two floats, k points (k, 2) two arrays, each
        entry the pair of that point alone.

        The support margin h = <point, n(alpha)> - p(alpha) is positive
        exactly on the visible arc, one interval; it is read at every node of
        the closed grid.  A point is exterior when some margin exceeds
        `_EXTERIOR_MARGIN`.  Where no node's does, the maximum is refined: h is
        strictly concave near it (h'' = -(h + p'' + p)), so h' has one root on
        the two cells around the argmax node, and ContainmentError names the
        first point whose margin there does not exceed it either.  Every
        point passes that test before any is checked further.

        Where a grid node has h > 0, the two grid cells where the sign of h
        turns bracket the roots.  Where none does, the point is within about
        (grid step)^2 of the boundary, and both roots lie in the grid cell of
        the refined maximum, split there into two brackets.  Each bracket is
        solved in plain floats from its midpoint, with the margins at its ends
        read off the grid and the refined maximum, not evaluated again.
        ContainmentError names a point about 1e16 or more from the origin,
        whose two tangent lines are parallel to rounding.
        """
        xy, one = _as_points(point)
        points = xy.tolist()
        scans = [self._exterior_scan(x, y, "point" if one else f"point {i},")
                 for i, (x, y) in enumerate(points)]
        brackets = [_root_brackets(*pt, *scan) for pt, scan in zip(points, scans)]
        pairs = [_ordered_pair(*(bracketed_root(self._margin_fdf, lo, hi, x, y, ends=ends)
                                 for lo, hi, *ends in cells), [x, y])
                 for (x, y), cells in zip(points, brackets)]
        return pairs[0] if one else tuple(np.array(pairs).reshape(-1, 2).T)

    # -- validation --------------------------------------------------------

    def _survey(self, grid, p, rho):
        """The invariants at the nodes `grid` of the open grid, the minima
        refined: rho = p'' + p is given there, and p is `_scan`'s, over a
        turn and a half, so p(alpha + pi) is a slice of it too."""
        sym = p[:GRID_SIZE] - p[_HALF:_HALF + GRID_SIZE]
        p = p[:GRID_SIZE]
        min_p = _refined_min(self.p, grid, p)
        min_rho = _refined_min(self.curvature_radius, grid, rho)
        defect = self._rep.periodicity_defect()
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
        kind = _json_object(obj, "oval descriptor").get("type")
        what = f"{kind} oval descriptor"
        if kind == "fourier":
            _, a0, cos, sin = _json_fields(obj, what, "type", "a0", optional={"cos": [], "sin": []})
            cos, sin = (_json_floats(v, f"{what} {k!r}", many=True)
                        for k, v in (("cos", cos), ("sin", sin)))
            return cls.from_fourier(_json_floats(a0, f"{what} 'a0'", many=False), cos, sin)
        if kind == "samples":
            _, p = _json_fields(obj, what, "type", "p")
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
