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
scalar `step` is a batch of one, which that solver and the oval's jet run in
plain floats, with the same arithmetic as `step_angles_arr` on arrays.  The
map's Newton starts from the predictor alpha3 = alpha2 + (alpha2 - alpha1):
on a circle the map is the rotation by the gap, so the predictor is the
image there, and on a table near a circle it is near the image.

A second, purely geometric implementation (`cartesian_step`) moves an
exterior point by the raw reflection rule: find the two tangent lines, build
the circle tangent to the boundary at the far tangency point and to the near
tangent line, then cut the far common tangent.  It shares only the pointwise
oval primitives with the generating-function route and serves as its oracle.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import genfun
from ._solve import bracketed_root, sign_cells
from .errors import StepFailureError
from .genfun import OMEGA_MIN, ChordConfig

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PhasePoint:
    """Cylinder coordinates (alpha, R): base tangency angle and auxiliary radius."""

    alpha: float
    R: float

    def __post_init__(self):
        if not self.R > 0.0:
            raise ValueError("phase radius must be positive")


def vertex_point(oval, state):
    """Chord vertex: intersection of the tangent lines at alpha1, alpha2."""
    a1, a2 = state.alpha1, state.alpha2
    p1, p2 = oval.p(np.array([a1, a2]))
    sw = np.sin(a2 - a1)
    return np.array(
        [
            (p1 * np.sin(a2) - p2 * np.sin(a1)) / sw,
            (p2 * np.cos(a1) - p1 * np.cos(a2)) / sw,
        ]
    )


def auxiliary_circle(oval, state):
    """Center and radius of the reflection circle of the chord (tangent at alpha2)."""
    r = genfun.grad_arr(oval, state.alpha1, state.alpha2)[1]
    a2 = state.alpha2
    center = oval.point_at(a2) + r * np.array([np.cos(a2), np.sin(a2)])
    return center, float(r)


# -- the map -----------------------------------------------------------------


def _gap_bracket(a):
    """Bracket [a + OMEGA_MIN, a + pi - OMEGA_MIN] for the angle after a,
    pulled in by a few rounding units so that the gaps recomputed from its
    endpoints stay inside the chord domain."""
    pad = 4.0 * np.spacing(np.abs(a) + np.pi)
    return a + (OMEGA_MIN + pad), a + (np.pi - OMEGA_MIN - pad)


def _base_radius_fdf(oval):
    """(R1(a, b) - target, dR1/db) with R1 = -S1 and dR1/db = -S12; the fixed
    end's p(a), p'(a) are parameters, so a step evaluates the oval at b only."""

    def fdf(b, a, target, pa, dpa):
        S1, S2 = genfun.grad_from_jets(b - a, (pa, dpa), oval.jet(b))
        return -S1 - target, (S2 - S1) / np.sin(b - a)

    return fdf


def step_angles_arr(oval, a1, a2):
    """alpha3 solving R2(a1, a2) = R1(a2, alpha3) in (a2, a2 + pi), elementwise.

    R1(a2, .) is strictly increasing (S12 < 0), so the root is unique; chords
    whose root leaves the guarded bracket come back as NaN.  Newton starts
    from the predictor a2 + (a2 - a1), the image on a circle.
    """
    w, jet1, jet2 = genfun.chord_jets(oval, a1, a2)
    target = genfun.grad_from_jets(w, jet1, jet2)[1]
    a2 = np.asarray(a2, dtype=float)
    return bracketed_root(
        _base_radius_fdf(oval), *_gap_bracket(a2), a2, target, jet2[0], jet2[1],
        start=a2 + w,
    )


def step(oval, state):
    """One billiard step: (alpha1, alpha2) -> (alpha2, alpha3)."""
    a3 = step_angles_arr(oval, state.alpha1, state.alpha2)
    if np.isnan(a3):
        raise StepFailureError(
            f"no reflection root for chord ({state.alpha1:.6f}, {state.alpha2:.6f}); "
            "degenerate geometry"
        )
    return ChordConfig(state.alpha2, float(a3))


def step_residual(oval, state, new_state):
    """|R2(old chord) - R1(new chord)|, the defining equation's defect."""
    _, R2 = genfun.grad_arr(oval, state.alpha1, state.alpha2)
    S1, _ = genfun.grad_arr(oval, new_state.alpha1, new_state.alpha2)
    return np.abs(R2 + S1)


# -- phase-cylinder coordinates ----------------------------------------------


def phase_from_pair(oval, state):
    """(alpha, R) coordinates of a chord: base angle plus its auxiliary radius."""
    S1, _ = genfun.grad_arr(oval, state.alpha1, state.alpha2)
    return PhasePoint(state.alpha1, float(-S1))


def pair_from_phase(oval, point):
    """Invert R = R1(alpha, alpha2) for alpha2; monotone since S12 < 0."""
    a1 = point.alpha
    p1, dp1, _ = oval.jet(a1)
    a2 = bracketed_root(_base_radius_fdf(oval), *_gap_bracket(a1), a1, point.R, p1, dp1)
    if np.isnan(a2):
        raise StepFailureError(f"radius {point.R} outside the admissible range")
    return ChordConfig(a1, float(a2))


def map_phase(oval, point):
    """The billiard map in (alpha, R) coordinates."""
    return phase_from_pair(oval, step(oval, pair_from_phase(oval, point)))


# -- Cartesian oracle ----------------------------------------------------------


def cartesian_step(oval, point):
    """Geometric reflection rule applied to an exterior point; returns its image.

    Works in raw Cartesian data: tangency points, a distance solve for the
    circle radius, a sign-scan for the far common tangent line, and a generic
    2x2 linear solve for the image vertex.  Independent of the generating
    function apart from the shared tangency primitives.
    """
    M = np.asarray(point, dtype=float)
    a1, a2 = oval.tangent_angles_from(M)
    P1 = oval.point_at(a1)
    P2 = oval.point_at(a2)

    def unit_normal_away_from(probe, on_line, direction):
        n = np.array([-direction[1], direction[0]])
        if np.dot(n, probe - on_line) > 0.0:
            n = -n
        return n

    d1 = P1 - M
    d1 /= np.linalg.norm(d1)
    m1 = unit_normal_away_from(P2, M, d1)  # oval strictly on the negative side
    d2 = P2 - M
    d2 /= np.linalg.norm(d2)
    nu2 = unit_normal_away_from(P1, M, d2)

    # circle tangent to the boundary at P2 (center along nu2) and to line 1
    denom = 1.0 + float(np.dot(nu2, m1))
    r = -float(np.dot(P2 - M, m1)) / denom
    if r <= 0.0:
        raise StepFailureError("auxiliary circle collapsed")
    O = P2 + r * nu2

    # far common tangent of circle and oval: support line at beta with the
    # circle on its inner side; q and its derivative dq from one jet
    def qdq(beta):
        p, dp, _ = oval.jet(beta)
        cb, sb = np.cos(beta), np.sin(beta)
        return O[0] * cb + O[1] * sb + r - p, -O[0] * sb + O[1] * cb - dp

    grid = np.linspace(a2 + 1e-6, a2 + np.pi - 1e-6, 256)
    lo, hi = sign_cells(grid, qdq(grid)[0])
    if not lo.size:
        raise StepFailureError("no common tangent found by the Cartesian rule")
    beta = bracketed_root(qdq, lo[0], hi[0])

    A = np.array([[np.cos(a2), np.sin(a2)], [np.cos(beta), np.sin(beta)]])
    return np.linalg.solve(A, oval.p(np.array([a2, beta])))


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


def fd_jacobian(oval, state, h=1e-6):
    """Finite-difference differential in (R, alpha), the check on `jacobian`."""
    base = phase_from_pair(oval, state)
    out = np.empty((2, 2))
    for j, (dR, da) in enumerate(((h, 0.0), (0.0, h))):
        plus = map_phase(oval, PhasePoint(base.alpha + da, base.R + dR))
        minus = map_phase(oval, PhasePoint(base.alpha - da, base.R - dR))
        out[0, j] = (plus.R - minus.R) / (2 * h)
        out[1, j] = (plus.alpha - minus.alpha) / (2 * h)
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


def twist_report(oval, samples=1000, seed=0, omega_lo=0.05, omega_hi=np.pi - 0.05):
    """Sample the phase cylinder and survey the twist of the map and its square."""
    rng = np.random.default_rng(seed)
    a1, a2 = genfun.sample_chords(rng, samples, omega_lo, omega_hi)
    _, s12, s22 = genfun.hess_arr(oval, a1, a2)
    t = -1.0 / s12
    a3 = step_angles_arr(oval, a1, a2)
    ok = np.isfinite(a3)
    n11, n12, _ = genfun.hess_arr(oval, a2[ok], a3[ok])
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
    """Iterated chords with their radii and Cartesian vertices."""

    states: list[ChordConfig] = field(default_factory=list)
    radii: list[float] = field(default_factory=list)
    vertices: list[np.ndarray] = field(default_factory=list)

    @property
    def closure_residual(self):
        """Phase distance between the final and initial chords, angles mod 2*pi."""
        first, last = self.states[0], self.states[-1]
        da1 = (last.alpha1 - first.alpha1 + np.pi) % TWO_PI - np.pi
        da2 = (last.alpha2 - first.alpha2 + np.pi) % TWO_PI - np.pi
        return float(np.hypot(da1, da2))

    def to_csv(self):
        buf = io.StringIO()
        buf.write("step,alpha1,alpha2,R,M_x,M_y\n")
        for i, (s, r, m) in enumerate(zip(self.states, self.radii, self.vertices)):
            buf.write(
                f"{i},{s.alpha1:.16g},{s.alpha2:.16g},{r:.16g},{m[0]:.16g},{m[1]:.16g}\n"
            )
        buf.write(f"# closure_residual={self.closure_residual:.16g}\n")
        return buf.getvalue()


def orbit(oval, state, n):
    """Iterate the map n times, recording chords, radii, and vertices.

    A step failure is re-raised with the failing iterate prepended.
    """
    rec = OrbitRecord()
    current = state
    rec.states.append(current)
    rec.radii.append(phase_from_pair(oval, current).R)
    rec.vertices.append(vertex_point(oval, current))
    for i in range(n):
        try:
            current = step(oval, current)
        except StepFailureError as exc:
            raise StepFailureError(f"step {i + 1} failed: {exc}") from exc
        rec.states.append(current)
        rec.radii.append(phase_from_pair(oval, current).R)
        rec.vertices.append(vertex_point(oval, current))
    return rec
