"""Generating function of the outer length billiard and its derivatives.

One billiard step is encoded by the pair of tangency angles (alpha1, alpha2)
with gap w = alpha2 - alpha1 in (0, pi).  The generating value is

    S = l1 + l2 - (boundary arc from gamma(alpha1) to gamma(alpha2)),

where l1, l2 are the tangent segment lengths from the chord vertex.  All
first and second partials of S have closed forms in the support data; the
first partials are (minus/plus) the radii R1, R2 of the auxiliary circles of
the reflection rule.  Everything here is implemented twice on purpose: a raw
support-function form and an l*tan(w/2) form, so the tests can pin the two
routes against each other and against finite differences.

The partials and the Hessian read the support data through `chord_jets`:
one call of `SupportOval.jet` per chord end gives (p, p', p'') there, which
is all they need.  S reads p alone, one representation value per chord end
(the jet's p to the last bit), besides its integral term.  The functions
take arrays of angles of any shape; a scalar chord is a batch of one.
`path_jets` serves chords that share their ends (the sides of a periodic
orbit) from one call on the vertices, for `grad_from_jets` and
`hess_from_jets`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChordDomainError, ConfigError, checked_count
from .oval import TWO_PI, _cos_sin, _ufunc

#: guard band for the tangency-angle gap; cot/tan blow up at the endpoints
OMEGA_MIN = 1e-4
#: the chord domain, the closed interval of gaps every chord check accepts
CHORD_DOMAIN = f"[{OMEGA_MIN}, pi - {OMEGA_MIN}]"


def in_chord_domain(omega):
    """True where a gap lies in `CHORD_DOMAIN`, elementwise; a NaN gap fails."""
    return (omega >= OMEGA_MIN) & (omega <= np.pi - OMEGA_MIN)


def _check_omega(omega):
    """Raise ChordDomainError unless every gap lies in `CHORD_DOMAIN`."""
    if isinstance(omega, float):
        if not OMEGA_MIN <= omega <= math.pi - OMEGA_MIN:
            raise ChordDomainError(f"gap outside {CHORD_DOMAIN}: offending value {omega}")
        return
    bad = np.atleast_1d(~in_chord_domain(omega))
    if bad.any():
        raise ChordDomainError(f"gap outside {CHORD_DOMAIN}: "
                               f"offending value {np.atleast_1d(omega)[np.argmax(bad)]}")


@dataclass(frozen=True)
class ChordConfig:
    """Tangency angle pair of one billiard chord, its gap in `CHORD_DOMAIN`."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        _check_omega(self.omega)

    @property
    def omega(self):
        return self.alpha2 - self.alpha1


# -- closed forms on arrays of alpha1, alpha2 ---------------------------------


def _gap(a1, a2):
    """The gap a2 - a1 of the chords with ends a1, a2, checked by
    `_check_omega`.  Two float ends subtract as Python floats, arrays with
    NumPy's invalid-value warning off, so that two infinite ends of one sign
    give a NaN gap, refused as any other, without a RuntimeWarning first."""
    if isinstance(a1, float) and isinstance(a2, float):
        w = float(a2) - float(a1)
    else:
        with np.errstate(invalid="ignore"):
            w = np.subtract(a2, a1, dtype=float)
    _check_omega(w)
    return w


def chord_jets(oval, a1, a2):
    """Gap w = a2 - a1 (checked) and the jets (p, p', p'') at both chord ends;
    float ends reach `SupportOval.jet` as floats."""
    w = _gap(a1, a2)
    return w, oval.jet(a1), oval.jet(a2)


def path_jets(oval, vertices):
    """Gaps and end jets of the chords (v[i], v[i+1]) joining consecutive
    vertices on the last axis, from one `SupportOval.jet` call on all of them."""
    v = np.asarray(vertices, dtype=float)
    w = _gap(v[..., :-1], v[..., 1:])
    jet = oval.jet(v)
    return w, [j[..., :-1] for j in jet], [j[..., 1:] for j in jet]


def _lengths(w, jet1, jet2, sw):
    (p1, dp1, _), (p2, dp2, _) = jet1, jet2
    cotw = np.cos(w) / sw
    l1 = -dp1 + p2 / sw - p1 * cotw
    l2 = dp2 + p1 / sw - p2 * cotw
    return l1, l2


def _radii(w, jet1, jet2, sw, t):
    l1, l2 = _lengths(w, jet1, jet2, sw)
    return l1 * t, l2 * t


def lengths_arr(oval, a1, a2):
    """Tangent segment lengths (l1, l2); raw support-function form."""
    w, jet1, jet2 = chord_jets(oval, a1, a2)
    return _lengths(w, jet1, jet2, np.sin(w))


def S_arr(oval, a1, a2):
    """Generating value S = (p1 + p2) tan(w/2) - integral of p, from the gap
    (checked) and p alone at each end, the jet's p to the last bit; a valid
    gap has finite ends, so both come from `oval._rep` unchecked."""
    w = _gap(a1, a2)
    out = np.asarray((oval._rep.value(a2) + oval._rep.value(a1)) * np.tan(w / 2.0))
    out = out - oval._rep.integral(a1, a2)
    return out if out.ndim else float(out)


def grad_from_jets(w, jet1, jet2, cs=None):
    """(S1, S2) in the raw 1/(2 cos^2(w/2)) support form, from a valid gap w
    and the leading (p, p') of each end's jet; cs is _cos_sin(w), if given."""
    cw, sw = _cos_sin(w) if cs is None else cs
    # ch * ch, not ch ** 2: on a float ** calls pow(), which can round the
    # other way from the array's np.square
    ch = _ufunc("cos", w / 2.0)
    den = 2.0 * (ch * ch)
    (p1, dp1), (p2, dp2) = jet1[:2], jet2[:2]
    S1 = (p1 * cw - p2 + dp1 * sw) / den
    S2 = (-p2 * cw + p1 + dp2 * sw) / den
    return S1, S2


def grad_arr(oval, a1, a2):
    """(S1, S2) in the raw 1/(2 cos^2(w/2)) support form."""
    return grad_from_jets(*chord_jets(oval, a1, a2))


def radii_arr(oval, a1, a2):
    """Auxiliary circle radii (R1, R2) = (l1, l2) * tan(w/2)."""
    w, jet1, jet2 = chord_jets(oval, a1, a2)
    return _radii(w, jet1, jet2, np.sin(w), np.tan(w / 2.0))


def hess_from_jets(w, jet1, jet2):
    """(S11, S12, S22) from a valid gap w and the jets (p, p', p'') of both ends."""
    sw, t = np.sin(w), np.tan(w / 2.0)
    R1, R2 = _radii(w, jet1, jet2, sw, t)
    # p'' + p is the curvature radius at each end
    S11 = t * (R1 + (jet1[2] + jet1[0]))
    S22 = t * (R2 + (jet2[2] + jet2[0]))
    S12 = -(R1 + R2) / sw
    return S11, S12, S22


def hess_arr(oval, a1, a2):
    """(S11, S12, S22); sign pattern (+, -, +) for every valid chord."""
    return hess_from_jets(*chord_jets(oval, a1, a2))


# -- finite-difference verifiers ---------------------------------------------


def _stencil_S(oval, a1, a2, d1, d2):
    """S at the chords (a1 + d1, a2 + d2), the offsets d1, d2 broadcast on
    new trailing axes: one `S_arr` call, so one p evaluation and one
    antiderivative evaluation per distinct end of the stencil."""
    tail = (...,) + (None,) * max(np.ndim(d1), np.ndim(d2))
    a1 = np.asarray(a1, dtype=float)[tail]
    a2 = np.asarray(a2, dtype=float)[tail]
    return S_arr(oval, a1 + d1, a2 + d2)


def fd_grad_arr(oval, a1, a2):
    """Central-difference gradient of S, from S itself (p and its integral),
    independent of the closed forms.  The four shifted chords (a1 +- h, a2),
    (a1, a2 +- h), h = 1e-5, are one stencil of `S_arr`, 4N angles at each end
    for N chords; the values are those of one `S_arr` call per shifted chord."""
    h = 1e-5
    s = _stencil_S(oval, a1, a2, np.array([h, -h, 0.0, 0.0]), np.array([0.0, 0.0, h, -h]))
    return (s[..., 0] - s[..., 1]) / (2 * h), (s[..., 2] - s[..., 3]) / (2 * h)


def fd_hess_arr(oval, a1, a2, h=1e-4):
    """Central second differences of S, from S itself, independent of the
    closed forms.  The nine chords (a1 + i h, a2 + j h), i, j in {-1, 0, 1},
    are one 3 x 3 stencil of `S_arr` (three shifted angle arrays per end, each
    read once); the values are those of one `S_arr` call per shifted chord.
    ConfigError unless h is finite and positive."""
    if not 0.0 < h < math.inf:
        raise ConfigError(f"h = {h!r} is not finite and positive")
    off = np.array([-h, 0.0, h])
    s = _stencil_S(oval, a1, a2, off[:, None], off)
    s0 = s[..., 1, 1]
    S11 = (s[..., 2, 1] - 2 * s0 + s[..., 0, 1]) / h**2
    S22 = (s[..., 1, 2] - 2 * s0 + s[..., 1, 0]) / h**2
    S12 = (s[..., 2, 2] - s[..., 2, 0] - s[..., 0, 2] + s[..., 0, 0]) / (4 * h**2)
    return S11, S12, S22


def sample_chords(rng, n, omega_lo=0.2, omega_hi=np.pi - 0.4):
    """Random (alpha1, alpha2) arrays with gaps in [omega_lo, omega_hi].

    The default window keeps the finite-difference comparison stencils well
    inside the chord domain, where the 1e-6 / 1e-4 agreement tolerances hold
    with margin; the closed forms themselves are good on all of (0, pi).
    ConfigError unless n is an integer >= 0 and the window's ends are
    finite with omega_lo <= omega_hi.
    """
    n = checked_count(n, "n", 0)
    if not omega_lo <= omega_hi:
        raise ConfigError(f"omega_lo must not exceed omega_hi, got {omega_lo} > {omega_hi}")
    for name, value in (("omega_lo", omega_lo), ("omega_hi", omega_hi)):
        if not math.isfinite(value):
            raise ConfigError(f"{name} = {value} is not finite")
    a1 = rng.uniform(0.0, TWO_PI, n)
    w = rng.uniform(omega_lo, omega_hi, n)
    return a1, a1 + w
