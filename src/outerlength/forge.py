"""Constructors for billiard tables carrying invariant curves of 4-periodic points.

A centrally symmetric table whose map has an invariant curve of 4-periodic
points is swept out by a one-parameter family of circumscribed parallelograms
of perimeter 4.  Writing a parallelogram as support data (alpha1, alpha2, p1,
p2) (opposite sides repeat with angle shift pi), the family is the Legendrian
graph z = f(x), y = f'(x) of the contact form y dx - dz in the variables

    x = (alpha1 + alpha2) / 2,  y = 2 cos(alpha2 - alpha1),  z = p2 - p1,

with f any 2*pi-periodic function obeying f(x + pi/2) = -f(x) and |f'| < 2.
Undoing the change of variables gives the closed-form family

    alpha1 = x - arccos(f'(x) / 2) / 2,
    p1 = (sqrt(4 - f'(x)^2) - 2 f(x)) / 4,   p2 = p1 + f(x),

and the table is the envelope of the side lines, i.e. the support function
p(alpha1(x)) = p1(x) resampled onto a uniform angle grid (`_lift` undoes the
change of variables).  `parallelogram_fields` reduces the rotation fields of
`polygons` to these parallelograms, with the contact and perimeter forms.
The same family satisfies p'(alpha1) = -cos(w), p'(alpha2) = cos(w),
p(alpha1) + p(alpha2) = sin(w) with w = alpha2 - alpha1, which drives the
quadrant-arc extension constructor `radon_like`: prescribe a convex support
arc on [0, pi/2] with flat ends and p(0) + p(pi/2) = 1, extend it to the
second quadrant by

    beta = alpha + arccos(-p'(alpha)),   p(beta) = -p(alpha) + sin(beta - alpha),

and close up by central symmetry.  The arc is fitted in the basis cos(2 j a),
which is the Chebyshev basis T_j(x) in x = cos 2a; uniform nodes on
[0, pi/2] are Chebyshev-Lobatto points, so the fit is one DCT-I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Chebyshev

from ._solve import bracketed_root
from .errors import (
    ArcConstraintError,
    ConfigError,
    ConvexityError,
    FPrimeBoundError,
    OvalValidationError,
    ReparamError,
    SeamError,
)
from .oval import SupportOval, _json_fields, _json_floats, _refined_min

TWO_PI = 2.0 * np.pi

#: the uniform grid on [0, 2*pi) that surveys f and inverts alpha(x)
_GRID = np.linspace(0.0, TWO_PI, 4096, endpoint=False)


# -- the one-variable data -----------------------------------------------------


class FourPeriodicSpec:
    """A function f with f(x + pi/2) = -f(x), |f'| < 2, f(0) = 0, read
    through one evaluation `jet(x) -> (f, f', f'')`.

    Built either from trigonometric coefficients on the allowed harmonics
    (2, 6, 10, ...; the ones anti-periodic under a quarter turn) or from
    callables (f, f', optionally f'').
    """

    def __init__(self, jet, harmonics=None):
        self.jet = jet
        self.harmonics = harmonics
        self._validate()

    @classmethod
    def from_harmonics(cls, coefficients):
        """coefficients: mapping harmonic -> (cos_coef, sin_coef), harmonic = 2 mod 4."""
        ks = np.array(sorted(coefficients), dtype=float)
        if np.any(np.mod(ks, 4) != 2):
            raise ArcConstraintError(
                f"harmonics {sorted(coefficients)} must all be congruent to 2 mod 4"
            )
        cs = np.array([coefficients[int(k)][0] for k in ks], dtype=float)
        ss = np.array([coefficients[int(k)][1] for k in ks], dtype=float)

        def jet(x):
            kx = np.multiply.outer(np.asarray(x, dtype=float), ks)
            c, s = np.cos(kx), np.sin(kx)
            return (c @ cs + s @ ss, -s @ (ks * cs) + c @ (ks * ss),
                    -c @ (ks * ks * cs) - s @ (ks * ks * ss))

        return cls(jet, harmonics=dict(coefficients))

    @classmethod
    def from_callable(cls, f, fprime, fsecond=None):
        """f'' defaults to the central difference of f' with step 1e-6."""
        if fsecond is None:
            def fsecond(x):
                return (fprime(x + 1e-6) - fprime(x - 1e-6)) / 2e-6

        return cls(lambda x: (f(x), fprime(x), fsecond(x)))

    def _validate(self):
        # the grid starts at 0 and a quarter turn is a quarter of its nodes;
        # each test is written so that a NaN fails it
        fv, fp, _ = self.jet(_GRID)
        anti = np.max(np.abs(np.roll(fv, -(len(_GRID) // 4)) + fv))
        if not anti <= 1e-12:
            raise ArcConstraintError(
                f"f(x + pi/2) = -f(x) violated (defect {anti:.3e})"
            )
        if not abs(float(fv[0])) <= 1e-12:
            raise ArcConstraintError("normalization f(0) = 0 violated")

        def neg_abs_fp(x):
            return -np.abs(self.jet(x)[1])

        # the refined maximum of |f'| is minus the refined minimum of -|f'|
        self.max_fprime = -_refined_min(neg_abs_fp, _GRID, -np.abs(fp))
        if not self.max_fprime < 2.0 - 1e-12:
            raise FPrimeBoundError(
                f"f-prime bound violated: max |f'| = {self.max_fprime:.6f} >= 2"
            )

    def to_json(self):
        if self.harmonics is None:
            raise ValueError("only harmonic-coefficient specs serialize to JSON")
        return {
            "type": "four-periodic",
            "harmonics": [
                {"k": int(k), "cos": float(c), "sin": float(s)}
                for k, (c, s) in sorted(self.harmonics.items())
            ],
        }

    @classmethod
    def from_json(cls, obj):
        (harmonics,) = _json_fields(obj, "four-periodic spec", "harmonics")
        if not (isinstance(harmonics, list) and all(isinstance(h, dict) for h in harmonics)):
            raise ValueError("four-periodic spec 'harmonics' must be a list of objects")
        what = "four-periodic spec harmonic"
        coeffs = {}
        for h in harmonics:
            (k,) = _json_fields(h, what, "k")
            cos, sin = (_json_floats(h.get(c, 0.0), f"{what} {c!r}", many=False)
                        for c in ("cos", "sin"))
            coeffs[_json_floats(k, f"{what} 'k'", many=False)] = (cos, sin)
        return cls.from_harmonics(coeffs)


def table_from_spec(obj):
    """The table a spec object describes: `{"type": "four-periodic",
    "harmonics": [{"k", "cos", "sin"}, ...]}` through `from_f`, or
    `{"type": "radon-arc", "p": [...]}` through `radon_like`."""
    _json_fields(obj, "table spec")
    kind = obj.get("type")
    if kind == "four-periodic":
        return from_f(FourPeriodicSpec.from_json(obj))[0]
    if kind == "radon-arc":
        (p,) = _json_fields(obj, "radon-arc spec", "p")
        return radon_like(_json_floats(p, "radon-arc spec 'p'", many=True))
    raise ValueError(f"unknown table spec type {kind!r}")


@dataclass(frozen=True)
class ParallelogramState:
    """Origin-centered circumscribed parallelogram in support coordinates.

    Sides sit at angles (alpha1, alpha2, alpha1 + pi, alpha2 + pi) with
    support values (p1, p2, p1, p2).
    """

    alpha1: float
    alpha2: float
    p1: float
    p2: float

    @property
    def omega(self):
        return self.alpha2 - self.alpha1

    @property
    def perimeter(self):
        return 4.0 * (self.p1 + self.p2) / np.sin(self.omega)


def _lift(x, y, z):
    """(alpha1, alpha2, p1, p2) of the perimeter-4 parallelogram at contact point (x, y, z)."""
    w = np.arccos(y / 2.0)
    root = np.sqrt(4.0 - y * y)
    return x - w / 2.0, x + w / 2.0, (root - 2.0 * z) / 4.0, (root + 2.0 * z) / 4.0


def _family_raw(spec, x):
    """The lift of (x, f'(x), f(x)) and alpha1'(x), from one jet of f."""
    x = np.asarray(x, dtype=float)
    fv, fp, fpp = spec.jet(x)
    return *_lift(x, fp, fv), 1.0 + fpp / (2.0 * np.sqrt(4.0 - fp * fp))


def parallelogram_orbit(spec, x):
    """The circumscribed parallelogram of the family at parameter x;
    ConfigError unless x is finite."""
    x = float(x)
    if not np.isfinite(x):
        raise ConfigError(f"family parameter x = {x} is not finite")
    a1, a2, p1, p2, _ = _family_raw(spec, x)
    return ParallelogramState(float(a1), float(a2), float(p1), float(p2))


@dataclass(frozen=True)
class ParallelogramFamily:
    """The full invariant curve: parallelogram states indexed by x in [0, 2*pi)."""

    spec: FourPeriodicSpec

    def state(self, x):
        return parallelogram_orbit(self.spec, x)


def from_f(spec):
    """Build the table of the family encoded by f, plus the family itself.

    Fails loudly on each distinct breakdown: |f'| reaching 2 (caught at spec
    construction), non-monotone angle reparameterization, and non-convex
    envelope.
    """
    ap = _family_raw(spec, _GRID)[4]
    if np.min(ap) <= 1e-10:
        raise ReparamError(
            f"alpha(x) not strictly increasing (min alpha' = {np.min(ap):.3e})"
        )

    def fdf(t, alpha):
        a1, _, _, _, da1 = _family_raw(spec, t)
        return a1 - alpha, da1

    # alpha(x) lies in [x - pi/2, x], so x(alpha) lies in [alpha, alpha + pi/2]
    x = bracketed_root(fdf, _GRID, _GRID + np.pi / 2.0, _GRID)
    samples = _family_raw(spec, x)[2]
    try:
        oval = SupportOval.from_samples(samples)
    except OvalValidationError as exc:
        raise ConvexityError(f"constructed envelope is not convex: {exc}") from exc
    return oval, ParallelogramFamily(spec)


def boundary_from_family(spec, x):
    """Boundary point of the table at parameter x via the parametric envelope
    formula gamma = p (cos a, sin a) + (dp/dx / da/dx) (-sin a, cos a), with
    dp1/dx = -f' (f'' / sqrt(4 - f'^2) + 2) / 4 from the jet of f; ConfigError
    unless every x is finite."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ConfigError(f"family parameter x = {x.tolist()} is not finite")
    a1, _, p1, _, da_dx = _family_raw(spec, x)
    _, fp, fpp = spec.jet(x)
    t = -fp * (fpp / np.sqrt(4.0 - fp * fp) + 2.0) / 4.0 / da_dx
    return np.array(
        [p1 * np.cos(a1) - t * np.sin(a1), p1 * np.sin(a1) + t * np.cos(a1)]
    )


# -- contact coordinates and the rotation fields --------------------------------


def contact_coordinates(state):
    """(x, y, z) of a perimeter-4 parallelogram: mean angle, 2 cos(gap), p2 - p1."""
    return (state.alpha1 + state.alpha2) / 2.0, 2.0 * np.cos(state.omega), state.p2 - state.p1


@dataclass
class ParallelogramFields:
    """Rotation fields, their bracket, and the two 1-forms on parallelogram space,
    in the coordinate order (alpha1, alpha2, p1, p2)."""

    xi1: np.ndarray
    xi2: np.ndarray
    bracket: np.ndarray
    contact_form: np.ndarray
    perimeter_form: np.ndarray


def parallelogram_fields(state):
    """The distribution of `polygons` on origin-centered perimeter-4 parallelograms.

    xi1 = d/d alpha1 - cos(w) d/d p1, xi2 = d/d alpha2 + cos(w) d/d p2, and
    [xi1, xi2] = sin(w) (d/d p1 - d/d p2); the contact form
    cos(w)(d alpha1 + d alpha2) + d p1 - d p2 and the perimeter differential
    cos(w)(d alpha1 - d alpha2) + d p1 + d p2 both annihilate xi1, xi2.
    """
    w = state.omega
    if not 0.0 < w < np.pi:
        raise ConfigError("parallelogram gap must lie in (0, pi)")
    cw, sw = np.cos(w), np.sin(w)
    return ParallelogramFields(
        xi1=np.array([1.0, 0.0, -cw, 0.0]),
        xi2=np.array([0.0, 1.0, 0.0, cw]),
        bracket=np.array([0.0, 0.0, sw, -sw]),
        contact_form=np.array([cw, cw, 1.0, -1.0]),
        perimeter_form=np.array([cw, -cw, 1.0, 1.0]),
    )


# -- quadrant-arc extension ------------------------------------------------------


def balanced_radon_seed(eps):
    """A perturbed quadrant arc meeting all extension constraints exactly.

    Returns the callable 1/2 + eps cos(2a) - (eps/9) cos(6a).  Odd multiples
    of the double angle keep p(0) + p(pi/2) = 1, and the -eps/9 weight
    balances the endpoint curvatures (p''(0) = p''(pi/2) = 0) so the extended
    table is C^2 across the seams.
    """

    def arc(a):
        return 0.5 + eps * np.cos(2.0 * a) - (eps / 9.0) * np.cos(6.0 * a)

    return arc


def _arc_jet(samples):
    """(p, p', p'') of the support arc through samples at a_k = (pi/2) k/n,
    k = 0..n, in the basis cos(2 j a) = T_j(x), x = cos 2a: a Chebyshev series
    P in x, whose coefficients are the DCT-I of the samples (the FFT of their
    even extension), because the nodes map to the Chebyshev-Lobatto points
    x_k = cos(pi k/n).  The chain rule gives p' = -2 sin(2a) P'(x), which
    vanishes at both ends, and p'' = 4 sin(2a)^2 P''(x) - 4 x P'(x)."""
    n = len(samples) - 1
    c = np.fft.rfft(np.concatenate([samples, samples[-2:0:-1]])).real / n
    c[[0, -1]] /= 2.0
    series = Chebyshev(c)
    d1 = series.deriv()
    d2 = d1.deriv()

    def jet(a):
        x, s = np.cos(2.0 * a), np.sin(2.0 * a)
        dp = d1(x)
        return series(x), -2.0 * s * dp, 4.0 * (s * s * d2(x) - x * dp)

    return jet


def radon_like(arc):
    """Extend a first-quadrant support arc to a full table by the reflection rule.

    `arc` is either an array of support samples on a uniform grid over
    [0, pi/2] including both endpoints, or a callable, sampled at 129 such
    nodes.  The table holds 8192 samples.  The arc must satisfy
    p'(0) = p'(pi/2) = 0 (enforced structurally by the fit in the basis
    cos(2 j a), written as a Chebyshev series in cos 2a) and
    p(0) + p(pi/2) = 1 (checked, then projected exactly).  The extension to
    [pi/2, pi] pairs each angle alpha with beta = alpha + arccos(-p'(alpha))
    and sets p(beta) = -p(alpha) + sin(beta - alpha); the lower half plane
    follows by central symmetry.
    """
    if callable(arc):
        nodes = np.linspace(0.0, np.pi / 2.0, 129)
        arc = arc(nodes)
    arc = np.asarray(arc, dtype=float)
    if not np.all(np.isfinite(arc)):
        raise ArcConstraintError("arc samples must be finite")
    if arc.ndim != 1 or len(arc) < 5:
        raise ArcConstraintError("need a 1-d array of at least 5 arc samples")
    # the fit interpolates at both ends, so p(0) + p(pi/2) is the end samples' sum
    end_sum = float(arc[0] + arc[-1])
    defect = abs(end_sum - 1.0)
    if defect > 1e-6:
        raise ArcConstraintError(
            f"p(0) + p(pi/2) = {end_sum:.8f}, must be 1 (defect {defect:.2e})"
        )
    jet = _arc_jet(arc + (1.0 - end_sum) / 2.0)

    probe = np.linspace(0.0, np.pi / 2.0, 2048)
    pv, dpv, ddpv = jet(probe)
    if np.min(ddpv + pv) <= 1e-10:
        raise ArcConstraintError(
            f"seed arc is not strictly convex (min p''+p = {np.min(ddpv + pv):.3e})"
        )
    if np.max(np.abs(dpv)) >= 1.0 - 1e-12:
        raise ArcConstraintError("|p'| reaches 1 on the arc; extension angle degenerates")

    # curvature compatibility at the quadrant ends: the extension's second
    # derivative entering the seam at pi/2 is -p''(0)/(1 + p''(0)), so a seed
    # whose own p''(pi/2) differs leaves a curvature jump that the sampled
    # representation cannot track to closure accuracy
    (p0, p1), (dp0, dp1), (k0, k1) = jet(np.array([0.0, np.pi / 2.0]))
    curvature_jump = abs(k1 + k0 / (1.0 + k0))
    if curvature_jump > 1e-4:
        raise SeamError(
            "seed arc violates the seam curvature balance "
            f"p''(pi/2) = -p''(0)/(1 + p''(0)) (defect {curvature_jump:.3e}); "
            "the extension would only be C^1 across the seams"
        )
    beta_prime = 1.0 + ddpv / np.sqrt(1.0 - dpv * dpv)
    if np.min(beta_prime) <= 1e-10:
        raise ReparamError(
            f"extension map beta(alpha) not monotone (min beta' = {np.min(beta_prime):.3e})"
        )

    grid = np.linspace(0.0, TWO_PI, 8192, endpoint=False)
    full = np.empty(len(grid))
    q = len(grid) // 4

    full[: q + 1] = jet(grid[: q + 1])[0]

    def fdf(a, target):
        _, dp, ddp = jet(a)
        return a + np.arccos(-dp) - target, 1.0 + ddp / np.sqrt(1.0 - dp * dp)

    # invert beta on (pi/2, pi]; the series in cos 2a mirrors the arc about
    # pi/2, so beta stays monotone on [0, pi] and runs from pi/2 to 3*pi/2 there
    second = grid[(grid > np.pi / 2.0) & (grid <= np.pi + 1e-12)]
    alpha = bracketed_root(fdf, 0.0, np.pi, second)
    ext = -jet(alpha)[0] + np.sin(second - alpha)
    full[q + 1 : q + 1 + len(second)] = ext

    full[2 * q :] = full[: 2 * q]

    # seam audit: values and slopes of the two branches at pi/2 and pi
    seam_val = max(abs((1.0 - p0) - p1), abs((1.0 - p1) - p0))
    # extension slope is cos(beta - alpha) with beta - alpha = arccos(-p'):
    # it vanishes at both seams like the arc's, so each term reads 2|p'|
    seam_slope = max(abs(np.cos(np.arccos(-dp0)) - dp0), abs(np.cos(np.arccos(-dp1)) - dp1))
    seam = max(seam_val, seam_slope)
    if seam > 1e-8:
        raise SeamError(f"extension does not close C^1 (seam defect {seam:.3e})")

    try:
        return SupportOval.from_samples(full)
    except OvalValidationError as exc:
        raise ConvexityError(f"extended table is not convex: {exc}") from exc
