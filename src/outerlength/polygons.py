"""Convex polygons in support coordinates and the rotation distribution on them.

A convex n-gon is a cyclic list of cooriented side lines L_i with support
coordinates (alpha_i, p_i).  For each side there is a distinguished circle
tangent to L_{i-1}, L_i, L_{i+1} (outside the polygon across L_i, inside
across its neighbors); rotating L_i about the tangency point C_i of that
circle is the infinitesimal motion that keeps the perimeter stationary.  The
fields

    xi_i = d/d(alpha_i) + Phi_i d/d(p_i),
    Phi_i = determinant[(cos alpha_i, sin alpha_i), C_i],

span an n-dimensional distribution tangent to the perimeter level sets; its
first Lie brackets generically fill out the whole tangent space of the fixed
perimeter slice (rank 2n - 1), which is why surfaces of periodic orbits
cannot exist.  Every field function takes a polygon and returns all n
indices at once: `phi` is the closed rational-trigonometric form of Phi,
`phi_via_tangency` the determinant with the points C_i, `phi_partials` its
machine-precision complex-step partials, and `brackets` the n rows
[xi_i, xi_{i+1}] built from them, which an independent flow-commutator
verifier checks by integrating the fields with RK4.

The module also carries the triangle quantities W_i, U_i whose signs forbid
two-parameter families of 3-periodic orbits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, checked_count
from .oval import TWO_PI

_CSTEP = 1e-200


def _roll(a, k):
    """`np.roll(a, k, axis=0)` for k = +-1, without its overhead."""
    return np.concatenate((a[-k:], a[:-k]))


@dataclass(frozen=True)
class PolygonConfig:
    """Convex polygon as support coordinates of its sides, counterclockwise."""

    alphas: np.ndarray
    ps: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float)
        ps = np.asarray(self.ps, dtype=float)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "ps", ps)
        if len(alphas) < 3 or len(alphas) != len(ps):
            raise ConfigError("need n >= 3 sides with matching support values")
        if not (np.all(np.isfinite(alphas)) and np.all(np.isfinite(ps))):
            raise ConfigError("side angles and support values must be finite")
        # every comparison below is written so that a NaN fails it
        gaps = self.gaps
        if not np.all((gaps > 0.0) & (gaps < np.pi)):
            raise ConfigError(f"gap sequence {gaps.tolist()} must lie in (0, pi)")
        if not abs(np.sum(gaps) - TWO_PI) <= 1e-9:
            raise ConfigError("side normals must advance by exactly one turn")
        sides = side_lengths(self)
        if not np.all(sides > 0.0):
            raise ConfigError(
                f"support values give sides {sides.tolist()}; every side must have "
                "positive length"
            )

    @property
    def n(self):
        return len(self.alphas)

    @property
    def gaps(self):
        ext = np.append(self.alphas, self.alphas[0] + TWO_PI)
        return np.diff(ext)

    @classmethod
    def regular(cls, n, r=1.0):
        n = checked_count(n, "n", 3)
        return cls(TWO_PI * np.arange(n) / n, np.full(n, float(r)))


# -- raw geometry ------------------------------------------------------------


def vertices(poly):
    """Vertex i = intersection of sides i-1 and i, counterclockwise order."""
    a, p = poly.alphas, poly.ps
    a_prev, p_prev = _roll(a, 1), _roll(p, 1)
    a_prev[0] -= TWO_PI
    s = np.sin(a - a_prev)
    x = (p_prev * np.sin(a) - p * np.sin(a_prev)) / s
    y = (p * np.cos(a_prev) - p_prev * np.cos(a)) / s
    return np.stack([x, y], axis=-1)


def side_lengths(poly):
    """Side lengths from the support data (no vertex coordinates involved)."""
    a, p = poly.alphas, poly.ps
    g = poly.gaps
    g_prev = _roll(g, 1)
    p_prev, p_next = _roll(p, 1), _roll(p, -1)
    return (
        p_prev / np.sin(g_prev)
        + p_next / np.sin(g)
        - p * np.sin(g_prev + g) / (np.sin(g_prev) * np.sin(g))
    )


def perimeter(poly):
    """Perimeter as sum of (p_i + p_{i+1}) tan(gap_i / 2)."""
    p = poly.ps
    return float(np.sum((p + _roll(p, -1)) * np.tan(poly.gaps / 2.0)))


def perimeter_from_vertices(poly):
    """Euclidean perimeter from the vertex polygon (cross-check route)."""
    v = vertices(poly)
    return float(np.sum(np.linalg.norm(_roll(v, -1) - v, axis=1)))


def tangency_points(poly):
    """(n, 2) points C_i on side i: cotangent-weighted combinations of its endpoints."""
    v = vertices(poly)  # v[i] lies between sides i-1 and i, v[i+1] between i and i+1
    cm = 1.0 / np.tan(_roll(poly.gaps, 1) / 2.0)[:, None]
    cp = 1.0 / np.tan(poly.gaps / 2.0)[:, None]
    return (cm * _roll(v, -1) + cp * v) / (cm + cp)


# -- the fields Phi_i, xi_i ---------------------------------------------------


def _phi_raw(beta_minus, beta_plus, p_prev, p_self, p_next):
    """Closed form of Phi in half-gap variables; complex-step safe."""
    cm, cp = np.cos(beta_minus), np.cos(beta_plus)
    num = cm**2 * (p_next + p_self) - cp**2 * (p_prev + p_self)
    return num / (2.0 * np.sin(beta_minus + beta_plus) * cm * cp)


def _phi_args(poly):
    """The arguments of `_phi_raw` for every index: half-gaps and neighbor supports."""
    g = poly.gaps
    p = poly.ps
    return [_roll(g, 1) / 2.0, g / 2.0, _roll(p, 1), p, _roll(p, -1)]


def phi(poly):
    """Phi_i of every side from the closed rational-trigonometric form."""
    return _phi_raw(*_phi_args(poly))


def phi_via_tangency(poly):
    """Phi_i as the determinant [(cos a_i, sin a_i), C_i]; the geometric route."""
    c = tangency_points(poly)
    a = poly.alphas
    return np.cos(a) * c[:, 1] - np.sin(a) * c[:, 0]


def phi_partials(poly):
    """Partials of every Phi_i wrt its six neighboring coordinates (complex step).

    Returns (d_alpha, d_p), each of shape (3, n): row k holds the partials
    wrt alpha_{i+k-1} and p_{i+k-1}, so rows 0, 1, 2 are the offsets -1, 0,
    +1; exact to machine precision.
    """
    args = _phi_args(poly)

    def d(k):
        shifted = list(args)
        shifted[k] = shifted[k] + 1j * _CSTEP
        return np.imag(_phi_raw(*shifted)) / _CSTEP

    d_bm, d_bp = d(0), d(1)
    d_alpha = np.array([-0.5 * d_bm, 0.5 * d_bm - 0.5 * d_bp, 0.5 * d_bp])
    return d_alpha, np.array([d(2), d(3), d(4)])


def _bracket_coefficients(poly):
    """(W, U): the dp_i coefficient of [xi_{i-1}, xi_i] is W_i, that of
    [xi_i, xi_{i+1}] is -U_i."""
    (da_m, _, da_p), (dp_m, _, dp_p) = phi_partials(poly)
    f = phi(poly)
    return da_m + _roll(f, 1) * dp_m, da_p + _roll(f, -1) * dp_p


def brackets(poly):
    """(n, 2n) closed-form Lie brackets: row i is [xi_i, xi_{i+1}] in
    (alpha_0.., p_0..) coordinates; it is vertical and touches p_i, p_{i+1}."""
    n = poly.n
    W, U = _bracket_coefficients(poly)
    i = np.arange(n)
    out = np.zeros((n, 2 * n))
    out[i, n + (i + 1) % n] = _roll(W, -1)
    out[i, n + i] = -U
    return out


def xi_bracket(poly, i, j):
    """[xi_i, xi_j] from `brackets`; zero unless i, j are cyclic neighbors.
    Raises ConfigError unless i and j are side indices in range(poly.n)."""
    n = poly.n
    i, j = checked_count(i, "side index i", 0, n), checked_count(j, "side index j", 0, n)
    if (j - i) % n == 1:
        return brackets(poly)[i]
    if (i - j) % n == 1:
        return -brackets(poly)[j]
    return np.zeros(2 * n)


# -- flow-commutator verifier ---------------------------------------------------


def _rk4_flow(alphas, ps, i, t):
    """Integrate the xi_i flow for time t with four RK4 steps (raw arrays, no validation).
    Only alpha_i, at unit speed, and p_i move along xi_i, so RK4 steps the
    pair alone, with p_i' = Phi_i and the neighbouring sides fixed."""
    near = [i - 1, i, (i + 1) % len(alphas)]
    (a_prev, a, a_next), (p_prev, p, p_next) = alphas[near], ps[near]

    def vel(a, p):
        return _phi_raw((a - a_prev) % TWO_PI / 2.0, (a_next - a) % TWO_PI / 2.0,
                        p_prev, p, p_next)

    h = t / 4
    for _ in range(4):
        k1 = vel(a, p)
        k2 = vel(a + h / 2, p + h / 2 * k1)
        k3 = vel(a + h / 2, p + h / 2 * k2)
        k4 = vel(a + h, p + h * k3)
        a, p = a + h, p + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    alphas, ps = alphas.copy(), ps.copy()
    alphas[i], ps[i] = a, p
    return alphas, ps


def flow_commutator(poly, i, j):
    """[xi_i, xi_j] estimated from the group commutator of the RK4 flows.

    Symmetric in +-h, which cancels the cubic BCH term; agreement with the
    closed form is expected at the 1e-5 level for the time step h = 1e-3.
    Raises ConfigError unless i and j are side indices in range(poly.n).
    """
    i, j = checked_count(i, "side index i", 0, poly.n), checked_count(j, "side index j", 0, poly.n)

    def group_comm(t):
        a, p = poly.alphas.copy(), poly.ps.copy()
        for idx, s in ((i, t), (j, t), (i, -t), (j, -t)):
            a, p = _rk4_flow(a, p, idx, s)
        return np.concatenate([a - poly.alphas, p - poly.ps]) / t**2

    return 0.5 * (group_comm(1e-3) + group_comm(-1e-3))


# -- growth of the distribution ---------------------------------------------------


@dataclass
class GrowthReport:
    """Numeric rank of the distribution plus its first brackets."""

    n: int
    rank: int
    expected: int
    theta_rank: int
    singular_values: np.ndarray


def growth_report(poly):
    """Rank of span{xi_i} + span{[xi_i, xi_{i+1}]} (all tangent to {F = const})."""
    rel_tol = 1e-8  # singular values below this fraction of the largest count as zero
    n = poly.n
    B = brackets(poly)
    mat = np.vstack([np.hstack([np.eye(n), np.diag(phi(poly))]), B])  # xi_i, then B_i
    sv = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(sv > rel_tol * sv[0]))
    # conormal pairing theta_j(B_i) = coefficient of dp_j (brackets are vertical)
    theta = B[:, n:]
    tsv = np.linalg.svd(theta, compute_uv=False)
    theta_rank = int(np.sum(tsv > rel_tol * max(tsv[0], 1e-300)))
    return GrowthReport(
        n=n, rank=rank, expected=2 * n - 1, theta_rank=theta_rank, singular_values=sv
    )


# -- perimeter invariance ----------------------------------------------------------


def perimeter_derivative_along_xi(poly):
    """Directional derivatives dF/d alpha_i + Phi_i dF/d p_i of the perimeter
    formula F along every xi_i (vanish identically)."""
    p = poly.ps
    g = poly.gaps
    g_prev = _roll(g, 1)
    p_prev, p_next = _roll(p, 1), _roll(p, -1)
    dF_da = 0.5 * (
        (p_prev + p) / np.cos(g_prev / 2.0) ** 2 - (p + p_next) / np.cos(g / 2.0) ** 2
    )
    dF_dp = np.tan(g / 2.0) + np.tan(g_prev / 2.0)
    return dF_da + phi(poly) * dF_dp


# -- triangle quantities of the bracket obstruction -------------------------------------


@dataclass
class TriangleWU:
    """Bracket coefficients of the triangle distribution in half-angle form.

    For one triple W and U have shape (3,) and a, b, expression are floats;
    for arrays of triples of shape S, W and U have shape (3,) + S and the
    others shape S.
    """

    W: np.ndarray
    U: np.ndarray
    a: float | np.ndarray
    b: float | np.ndarray
    expression: float | np.ndarray

    @property
    def all_positive(self):
        """Whether every W_i and U_i is positive, per triple."""
        out = np.all(self.W > 0.0, axis=0) & np.all(self.U > 0.0, axis=0)
        return bool(out) if out.ndim == 0 else out


def triangle_WU(u, v, w):
    """W_i, U_i, the combination coefficients, and the six-term obstruction.

    (2u, 2v, 2w) are the exterior angles of a convex triangle, so u, v, w lie
    in (0, pi/2) and sum to pi.  All W_i, U_i are positive and the final
    expression is strictly negative, which is the obstruction to a horizontal
    disc of 3-periodic orbits.  Elementwise over arrays of triples; raises
    ConfigError if any triple is outside that domain.
    """
    trip = np.array(np.broadcast_arrays(u, v, w), dtype=float)
    # written so that a NaN entry fails the check
    if not np.all(np.abs(np.sum(trip, axis=0) - np.pi) <= 1e-12):
        raise ConfigError("exterior half-angles must sum to pi")
    if not np.all((trip > 0.0) & (trip < np.pi / 2.0)):
        raise ConfigError("exterior half-angles must lie in (0, pi/2)")
    u, v, w = trip
    tu, tv, tw = np.tan(trip)
    W = np.array([tu / np.sin(2 * v), tv / np.sin(2 * w), tw / np.sin(2 * u)])
    U = np.array([tw / np.sin(2 * v), tu / np.sin(2 * w), tv / np.sin(2 * u)])
    a = -W[1] / U[1]
    b = -U[0] / W[0]
    expression = (
        -1.0 / (np.cos(w) ** 2 * tu)
        - tw / np.sin(u) ** 2
        - tv / (np.cos(w) ** 2 * tu**2)
        - tv / np.sin(u) ** 2
        - 1.0 / (np.cos(v) ** 2 * tu)
        - tw / (np.cos(v) ** 2 * tu**2)
    )
    if trip.ndim == 1:
        a, b, expression = float(a), float(b), float(expression)
    return TriangleWU(W=W, U=U, a=a, b=b, expression=expression)
