"""The outer length billiard map, its Jacobian, and its twist.

The map acts on chords: from the pair of tangency angles (alpha1, alpha2) it
produces (alpha2, alpha3), where alpha3 is the unique root of

    R2(alpha1, alpha2) = R1(alpha2, alpha3)

in (alpha2, alpha2 + pi).  Uniqueness follows from S12 < 0, which makes
R1(alpha2, .) strictly increasing.  In the conjugate coordinates (R, alpha),
with R the auxiliary radius attached to the chord's base angle, the map
preserves dR ^ dalpha and is a positive twist map, as is its square; both
facts are checked numerically (`twist_report` here, `outerlength.verify`)
rather than assumed.

The radii are the first partials of the generating function (R1 = -S1,
R2 = S2 from `genfun.grad_arr`), and every 1-D solve in this module goes
through the package's one bracketed solver, `_solve.bracketed_root`.  The
map's Newton starts from the predictor alpha3 = alpha2 + (alpha2 - alpha1):
on a circle the map is the rotation by the gap, so the predictor is the
image there, and on a table near a circle it is near the image.

`iterate` is the one loop over map steps; `step`, `orbit` and the iteration
checks of `outerlength.periodic` call it.  It advances arrays of chords in
lockstep, one `step_angles_arr` call per step, and a float chord in plain
floats, with the same arithmetic.  An orbit is its sequence of tangency
angles (`OrbitRecord.alphas`), its radii and vertices computed on the arrays.

A second, purely geometric implementation (`cartesian_step`) moves exterior
points by the raw reflection rule: find the two tangent lines, build the
circle tangent to the boundary at the far tangency point and to the near
tangent line, then cut the far common tangent.  It takes one point or an
array of them, elementwise on the x and y components: one point in plain
floats, an array solved together.  It shares only the pointwise oval
primitives and the oval's stored grid with the generating-function route and
serves as its oracle.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import genfun
from ._solve import bracketed_root
from .errors import ConfigError, StepFailureError, checked_count
from .genfun import OMEGA_MIN, ChordConfig
from .oval import _CELL, TWO_PI, _cos_sin, _ufunc


def vertex_point(oval, state):
    """Chord vertex: intersection of the tangent lines at alpha1, alpha2;
    elementwise on a chord of arrays, with (x, y) on the first axis."""
    a1, a2 = state.alpha1, state.alpha2
    (c1, s1), (c2, s2) = _cos_sin(a1), _cos_sin(a2)
    p1, p2, sw = oval.p(a1), oval.p(a2), _ufunc("sin", a2 - a1)
    return np.array([(p1 * s2 - p2 * s1) / sw, (p2 * c1 - p1 * c2) / sw])


def auxiliary_circle(oval, state):
    """Center and radius of the reflection circle of the chord (tangent at
    alpha2), elementwise on a chord of arrays: centers (..., 2)."""
    a2 = state.alpha2
    # a float chord's radius is a float: r[()] returns it as a numpy scalar
    r = np.asarray(genfun.grad_arr(oval, state.alpha1, a2)[1])
    return oval.point_at(a2) + r[..., None] * np.stack(_cos_sin(a2), axis=-1), r[()]


# -- the map -----------------------------------------------------------------


def _gap_bracket(a):
    """Bracket [a + OMEGA_MIN, a + pi - OMEGA_MIN] for the angle after a,
    pulled in by a few rounding units, a search margin, so that the gaps
    recomputed from its endpoints stay inside the chord domain; a float's
    bracket in plain floats, equal to numpy's."""
    pad = 4.0 * (math.ulp(abs(a) + math.pi) if isinstance(a, float)
                 else np.spacing(np.abs(a) + np.pi))
    return a + (OMEGA_MIN + pad), a + (np.pi - OMEGA_MIN - pad)


def _base_radius_fdf(oval):
    """(R1(a, b) - target, dR1/db) with R1 = -S1 and dR1/db = -S12; the fixed
    end's p(a), p'(a) are parameters, so a step evaluates the oval at b only."""

    def fdf(b, a, target, pa, dpa):
        w = b - a
        cs = _cos_sin(w)
        S1, S2 = genfun.grad_from_jets(w, (pa, dpa), oval.jet(b), cs)
        return -S1 - target, (S2 - S1) / cs[1]

    return fdf


def step_angles_arr(oval, a1, a2):
    """alpha3 solving R2(a1, a2) = R1(a2, alpha3) in (a2, a2 + pi), elementwise.

    R1(a2, .) is strictly increasing (S12 < 0), so the root is unique; chords
    whose root leaves the guarded bracket come back as NaN.  Newton starts
    from the predictor a2 + (a2 - a1), the image on a circle.
    """
    w, jet1, jet2 = genfun.chord_jets(oval, a1, a2)
    a2 = a2 if isinstance(a2, float) else np.asarray(a2, dtype=float)
    return _step_from_jets(oval, a2, w, jet1, jet2)


def _step_from_jets(oval, a2, w, jet1, jet2, start=None):
    """`step_angles_arr` from the array a2, the gap and both end jets; Newton
    starts from `start`, by default the predictor a2 + w."""
    target = genfun.grad_from_jets(w, jet1, jet2)[1]
    return bracketed_root(
        _base_radius_fdf(oval), *_gap_bracket(a2), a2, target, jet2[0], jet2[1],
        start=a2 + w if start is None else start,
    )


def iterate(oval, a1, a2, steps):
    """Tangency angles alpha_0 ... alpha_{steps+1} of `steps` map steps from
    the chord (a1, a2), shape (steps + 2,) + shape(a1): chord i is rows i, i + 1.

    Arrays of starts advance in lockstep, one `step_angles_arr` call per
    step; a float start stays in plain floats.  Ends of different shapes
    raise ConfigError; a chord without a reflection root raises
    StepFailureError naming the step and the first such chord.
    """
    # two floats share their shape, and np.shape on a float costs about two fdf calls
    if not (isinstance(a1, float) and isinstance(a2, float)) and np.shape(a1) != np.shape(a2):
        raise ConfigError(f"chord ends of shapes {np.shape(a1)} and {np.shape(a2)} differ")
    alphas = [a1, a2]
    for i in range(checked_count(steps, "steps", 0)):
        a3 = step_angles_arr(oval, alphas[-2], alphas[-1])
        if (a3 != a3) if isinstance(a3, float) else np.isnan(a3).any():
            c1, c2 = (np.ravel(a)[np.argmax(np.isnan(a3))] for a in alphas[-2:])
            raise StepFailureError(f"step {i + 1} failed: no reflection root for chord "
                                   f"({c1:.6f}, {c2:.6f}); degenerate geometry")
        alphas.append(a3)
    return np.array(alphas)


def step(oval, state):
    """One billiard step: (alpha1, alpha2) -> (alpha2, alpha3), by `iterate`."""
    return ChordConfig(*iterate(oval, state.alpha1, state.alpha2, 1)[1:])


# -- phase-cylinder coordinates ----------------------------------------------


def phase_from_pair(oval, state):
    """(alpha, R) coordinates of a chord: base angle plus its auxiliary radius."""
    S1, _ = genfun.grad_arr(oval, state.alpha1, state.alpha2)
    return state.alpha1, float(-S1)


def pair_from_phase(oval, alpha, R):
    """Invert R = R1(alpha, alpha2) for alpha2, monotone since S12 < 0; StepFailureError if none."""
    for name, value in (("alpha", alpha), ("R", R)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} = {value} is not finite")
    p1, dp1, _ = oval.jet(alpha)
    a2 = bracketed_root(_base_radius_fdf(oval), *_gap_bracket(alpha), alpha, R, p1, dp1)
    if np.isnan(a2):
        raise StepFailureError(f"radius {R} outside the admissible range")
    return ChordConfig(alpha, float(a2))


# -- Cartesian oracle ----------------------------------------------------------


def _first_failure(bad, M, what):
    i = int(np.argmax(bad))
    return StepFailureError(f"{what} for point {i}, {M.reshape(-1, 2)[i].tolist()}")


def cartesian_step(oval, point):
    """Geometric reflection rule applied to exterior points; returns the images.

    A point (2,) gives its image (2,), k points (k, 2) their images (k, 2);
    every step works elementwise on the x and y components, in plain floats
    for one point.  Works in raw Cartesian data: the tangency points, a
    distance solve for the circle radius, a sign scan of q at a2 and at the
    oval's grid nodes of the half turn after it (in floats, point by point)
    and a root solve from the scan's values on its first cell where q turns
    non-positive for the far common tangent, and a 2x2 determinant for the
    meeting point of the support lines at a2 and beta.
    Calls neither `step`, `vertex_point` nor `genfun`: independent of the
    generating function apart from the shared tangency primitives.  Raises
    ContainmentError or StepFailureError naming the first point that fails.
    """
    M = np.asarray(point, dtype=float)
    a1, a2 = oval.tangent_angles_from(M)
    x, y = M.T if M.ndim == 2 else M.tolist()
    (p1, dp1, _), (p2, dp2, _) = oval.jet(a1), oval.jet(a2)
    (c1, s1), (c2, s2) = _cos_sin(a1), _cos_sin(a2)
    # the tangency point P2, and the offsets D1, D2 of P1, P2 from M
    px, py = p2 * c2 - dp2 * s2, p2 * s2 + dp2 * c2
    d1x, d1y, d2x, d2y = p1 * c1 - dp1 * s1 - x, p1 * s1 + dp1 * c1 - y, px - x, py - y
    # unit normals m1, nu2 of the lines M P1, M P2, pointing away from the
    # other tangency point (so from the oval): the turn D1 -> D2 orients both
    turn = 1.0 - 2.0 * (d1x * d2y - d1y * d2x > 0.0)
    n1 = turn / _ufunc("sqrt", d1x * d1x + d1y * d1y)
    n2 = turn / _ufunc("sqrt", d2x * d2x + d2y * d2y)
    m1x, m1y, nu2x, nu2y = -d1y * n1, d1x * n1, d2y * n2, -d2x * n2

    # circle tangent to the boundary at P2 (center O along nu2) and to line 1
    r = -(d2x * m1x + d2y * m1y) / (1.0 + nu2x * m1x + nu2y * m1y)
    if not np.all(r > 0.0):
        raise _first_failure(~(r > 0.0), M, "auxiliary circle collapsed")
    ox, oy = px + r * nu2x, py + r * nu2y

    # far common tangent of circle and oval: the support line at beta with
    # the circle on its inner side, where q = (margin of O) + r turns from
    # > 0 to <= 0 after a2.  A strictly convex oval gives q two roots, a1 and
    # this one, so the half turn after a2 brackets it alone; a scan of q at
    # a2 (2r exactly) and at the grid nodes of that half turn checks that
    def qdq(beta, ox, oy, r):
        h, dh = oval._margin_fdf(beta, ox, oy)
        return h + r, dh

    def cell(ox, oy, r, a2, q0):
        # (lo, hi, q(lo), q(hi)) of the cell ending at the scan's first node
        # with q <= 0 (or NaN), from a2 if that is the first node after a2
        j, q = oval._margins_after(ox, oy, a2)
        q += r
        k = int(np.argmax(~(q > 0.0)))
        lo, flo = (a2, q0) if k == 0 else ((j + k - 1) * _CELL, float(q[k - 1]))
        return lo, (j + k) * _CELL, flo, float(q[k])

    q0 = ox * c2 + oy * s2 - p2 + r
    if M.ndim == 1:
        lo, hi, flo, fhi = cell(ox, oy, r, a2, q0)
    else:  # each point's cell as one point's, in floats
        rows = zip(*(v.tolist() for v in (ox, oy, r, a2, q0)))
        lo, hi, flo, fhi = np.array([cell(*v) for v in rows]).reshape(-1, 4).T
    missing = np.logical_not((q0 > 0.0) & (fhi <= 0.0))
    if missing.any():
        raise _first_failure(missing, M, "no common tangent found by the Cartesian rule")
    beta = bracketed_root(qdq, lo, hi, ox, oy, r, ends=(flo, fhi))
    if np.isnan(beta).any():
        raise _first_failure(np.isnan(beta), M, "common tangent lost")

    # the image is where the support lines at a2 and beta meet
    pb, (cb, sb) = oval.p(beta), _cos_sin(beta)
    det = c2 * sb - s2 * cb
    return np.array([(p2 * sb - pb * s2) / det, (pb * c2 - p2 * cb) / det]).T


# -- Jacobian and twist --------------------------------------------------------


def jacobian(oval, state):
    """Differential of the map at the chord, acting on (dR, dalpha).

    Rows are (R', alpha'), columns (R, alpha); entries are rational in the
    second partials of S evaluated at the chord, and the determinant is one
    identically.
    """
    s11, s12, s22 = genfun.hess_arr(oval, state.alpha1, state.alpha2)
    return np.array(
        [
            [-s22 / s12, (s12 * s12 - s11 * s22) / s12],
            [-1.0 / s12, -s11 / s12],
        ]
    )


def fd_jacobian(oval, state):
    """Finite-difference differential in (R, alpha), the check on `jacobian`."""
    h = 1e-6  # central-difference step

    def image(alpha, R):  # the map in (alpha, R) coordinates
        return phase_from_pair(oval, step(oval, pair_from_phase(oval, alpha, R)))

    alpha, R = phase_from_pair(oval, state)
    out = np.empty((2, 2))
    for j, (dR, da) in enumerate(((h, 0.0), (0.0, h))):
        (a_plus, R_plus), (a_minus, R_minus) = image(alpha + da, R + dR), image(alpha - da, R - dR)
        out[:, j] = (R_plus - R_minus) / (2 * h), (a_plus - a_minus) / (2 * h)
    return out


@dataclass
class TwistReport:
    """Sampled positivity survey of d(alpha')/dR for the map and its square.

    The square is surveyed on the `samples - nonfinite` chords whose image
    the map found; `nonfinite` counts the others (no reflection root).
    """

    samples: int
    min_twist: float
    min_twist_squared: float
    violations: int
    violations_squared: int
    nonfinite: int

    @property
    def passed(self):
        return self.violations == 0 and self.violations_squared == 0


def twist_report(oval, samples=1000, seed=0):
    """Sample the phase cylinder, gaps in [0.05, pi - 0.05], and survey the
    twist of the map and its square.
    The chords' end jets serve their Hessian, the map step and, at a2, the
    images' Hessian: one oval evaluation at a1, a2 and the images each."""
    samples = checked_count(samples, "samples", 1)
    rng = np.random.default_rng(seed)
    a1, a2 = genfun.sample_chords(rng, samples, 0.05, np.pi - 0.05)
    w, jet1, jet2 = genfun.chord_jets(oval, a1, a2)
    _, s12, s22 = genfun.hess_from_jets(w, jet1, jet2)
    t = -1.0 / s12
    a3 = _step_from_jets(oval, a2, w, jet1, jet2)
    ok = np.isfinite(a3)
    # a found image lies inside the guarded gap bracket, so its gap is valid
    b2, b3 = a2[ok], a3[ok]
    n11, n12, _ = genfun.hess_from_jets(b3 - b2, [j[ok] for j in jet2], oval.jet(b3))
    # lower-left of DT(second chord) @ DT(first chord)
    t2 = (s22[ok] + n11) / (s12[ok] * n12)
    return TwistReport(
        samples=samples,
        min_twist=float(np.min(t)),
        min_twist_squared=float(np.min(t2)) if t2.size else float("nan"),
        violations=int(np.sum(t <= 0.0)),
        violations_squared=int(np.sum(t2 <= 0.0)),
        nonfinite=int(np.sum(~ok)),
    )


# -- orbits --------------------------------------------------------------------


@dataclass
class OrbitRecord:
    """An orbit of n steps as its tangency angles alphas (n + 2,), chord i
    being alphas[i], alphas[i + 1], with the chords' radii and vertices."""

    alphas: np.ndarray
    radii: np.ndarray
    vertices: np.ndarray

    @property
    def closure_residual(self):
        """Phase distance between the final and initial chords, angles mod 2*pi."""
        d = (self.alphas[-2:] - self.alphas[:2] + np.pi) % TWO_PI - np.pi
        return float(np.hypot(*d))

    def to_csv(self):
        buf = io.StringIO()
        buf.write("step,alpha1,alpha2,R,M_x,M_y\n")
        rows = zip(self.alphas[:-1].tolist(), self.alphas[1:].tolist(), self.radii.tolist(),
                   self.vertices.tolist())
        for i, (a1, a2, r, m) in enumerate(rows):
            buf.write(f"{i},{a1:.16g},{a2:.16g},{r:.16g},{m[0]:.16g},{m[1]:.16g}\n")
        buf.write(f"# closure_residual={self.closure_residual:.16g}\n")
        return buf.getvalue()


def orbit(oval, state, n):
    """Iterate the map n times from the chord `state` (one `iterate` call)
    and record the radii and vertices of the n + 1 chords, one call each."""
    alphas = iterate(oval, state.alpha1, state.alpha2, n)
    chords = ChordConfig(alphas[:-1], alphas[1:])
    return OrbitRecord(alphas, -genfun.grad_arr(oval, chords.alpha1, chords.alpha2)[0],
                       vertex_point(oval, chords).T)
