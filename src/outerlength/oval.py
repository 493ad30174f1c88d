"""Strictly convex ovals represented by their support function.

An oval is stored as its 2*pi-periodic support function p(alpha): the signed
distance from the origin to the tangent line with outward normal
(cos alpha, sin alpha).  Two interchangeable representations are supported:

* a finite trigonometric series  p = a0 + sum(a_k cos k a + b_k sin k a), and
* a dense uniform sample of p over [0, 2*pi) interpolated by a periodic
  quintic spline.

Both expose p, p', p'' at arbitrary angles and the exact antiderivative of p,
which is all the downstream dynamics needs.  The boundary point with normal
angle alpha is

    gamma(alpha) = p(alpha) (cos a, sin a) + p'(alpha) (-sin a, cos a),

and p'' + p is the curvature radius, so validity means p > 0 and p'' + p > 0
everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import make_interp_spline

from ._solve import bracketed_root, sign_cells
from .errors import ContainmentError, OvalValidationError

TWO_PI = 2.0 * np.pi

#: number of nodes in the validation / scan grid
GRID_SIZE = 2048


class _FourierRep:
    """p as a finite trigonometric series; derivatives and integrals exact."""

    kind = "fourier"

    def __init__(self, a0, cos_coef=(), sin_coef=()):
        self.a0 = float(a0)
        n = max(len(cos_coef), len(sin_coef))
        self.a = np.zeros(n)
        self.b = np.zeros(n)
        self.a[: len(cos_coef)] = cos_coef
        self.b[: len(sin_coef)] = sin_coef
        self.k = np.arange(1, n + 1)

    def value(self, alpha, deriv=0):
        alpha = np.asarray(alpha, dtype=float)
        ka = np.multiply.outer(alpha, self.k)
        kp = self.k ** deriv if deriv else 1.0
        # each derivative rotates (cos, sin) by a quarter period
        phase = deriv % 4
        if phase == 0:
            c, s = np.cos(ka), np.sin(ka)
        elif phase == 1:
            c, s = -np.sin(ka), np.cos(ka)
        elif phase == 2:
            c, s = -np.cos(ka), -np.sin(ka)
        else:
            c, s = np.sin(ka), -np.cos(ka)
        out = c @ (self.a * kp) + s @ (self.b * kp)
        if deriv == 0:
            out = out + self.a0
        return out if out.ndim else float(out)

    def integral(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        out = self.a0 * (b - a)
        if len(self.k):
            ka = np.multiply.outer(a, self.k)
            kb = np.multiply.outer(b, self.k)
            out = out + (np.sin(kb) - np.sin(ka)) @ (self.a / self.k)
            out = out - (np.cos(kb) - np.cos(ka)) @ (self.b / self.k)
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


class _SplineRep:
    """p sampled on a uniform grid, interpolated by a periodic quintic spline."""

    kind = "samples"

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or len(samples) < 16:
            raise OvalValidationError("need a 1-d array of at least 16 samples")
        self.samples = samples.copy()
        self.samples.setflags(write=False)
        n = len(samples)
        x = np.linspace(0.0, TWO_PI, n + 1)
        y = np.concatenate([samples, samples[:1]])
        self._spl = make_interp_spline(x, y, k=5, bc_type="periodic")
        self._d1 = self._spl.derivative(1)
        self._d2 = self._spl.derivative(2)
        self._anti = self._spl.antiderivative()
        self._full = float(self._anti(TWO_PI) - self._anti(0.0))

    def value(self, alpha, deriv=0):
        a = np.mod(alpha, TWO_PI)
        spl = (self._spl, self._d1, self._d2)[deriv]
        out = spl(a)
        return out if np.ndim(alpha) else float(out)

    def integral(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        wraps = np.floor((b - a) / TWO_PI)
        a_red = np.mod(a, TWO_PI)
        rem = (b - a) - wraps * TWO_PI
        b_red = np.mod(a_red + rem, TWO_PI)
        seg = self._anti(b_red) - self._anti(a_red)
        seg = seg + np.where(b_red < a_red - 1e-15, self._full, 0.0)
        out = seg + wraps * self._full
        return out if np.ndim(out) else float(out)

    def periodicity_defect(self):
        d = 0.0
        for spl in (self._spl, self._d1, self._d2):
            d = max(d, abs(float(spl(0.0)) - float(spl(TWO_PI))))
        return d

    def descriptor(self):
        return {"type": "samples", "p": self.samples.tolist()}


@dataclass
class ValidationReport:
    """Grid survey of the oval invariants (refined near the minima)."""

    min_support: float
    min_curvature_radius: float
    periodicity_defect: float
    symmetry_defect: float
    passed: bool
    messages: tuple[str, ...] = ()

    def to_dict(self):
        return {
            "min_support": self.min_support,
            "min_curvature_radius": self.min_curvature_radius,
            "periodicity_defect": self.periodicity_defect,
            "symmetry_defect": self.symmetry_defect,
            "passed": self.passed,
            "messages": list(self.messages),
        }


def _refined_min(fn, grid_alphas, grid_vals, levels=3, local=32):
    """Global grid minimum sharpened by `levels` rounds of local resampling."""
    i = int(np.argmin(grid_vals))
    best = float(grid_vals[i])
    center = grid_alphas[i]
    h = grid_alphas[1] - grid_alphas[0]
    for _ in range(levels):
        local_a = np.linspace(center - h, center + h, local)
        local_v = fn(local_a)
        j = int(np.argmin(local_v))
        if local_v[j] < best:
            best = float(local_v[j])
            center = local_a[j]
        h /= 8.0
    return best


class SupportOval:
    """Immutable strictly convex oval given by its support function."""

    def __init__(self, rep, validate=True):
        self._rep = rep
        self._grid = np.linspace(0.0, TWO_PI, GRID_SIZE, endpoint=False)
        self._p_grid = np.asarray(rep.value(self._grid))
        self._rho_grid = self._p_grid + np.asarray(rep.value(self._grid, 2))
        sym = self._p_grid - np.asarray(
            rep.value(np.mod(self._grid + np.pi, TWO_PI))
        )
        self.symmetry_defect = float(np.max(np.abs(sym)))
        self.symmetry_flag = self.symmetry_defect < 1e-8
        if validate:
            report = self.validate()
            if not report.passed:
                raise OvalValidationError("; ".join(report.messages))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_fourier(cls, a0, cos_coef=(), sin_coef=(), validate=True):
        return cls(_FourierRep(a0, cos_coef, sin_coef), validate=validate)

    @classmethod
    def from_samples(cls, samples, validate=True):
        return cls(_SplineRep(samples), validate=validate)

    @classmethod
    def from_callable(cls, fn, n=4096, validate=True):
        """Resample an arbitrary support callable into the spline representation."""
        alphas = np.linspace(0.0, TWO_PI, n, endpoint=False)
        return cls.from_samples(fn(alphas), validate=validate)

    # -- pointwise geometry ------------------------------------------------

    @property
    def kind(self):
        return self._rep.kind

    def p(self, alpha, deriv=0):
        """Support function value (or derivative of order `deriv`) at alpha."""
        return self._rep.value(alpha, deriv)

    def support_integral(self, a, b):
        """Exact integral of p over [a, b]; accepts scalars or arrays."""
        return self._rep.integral(a, b)

    def point_at(self, alpha):
        """Boundary point gamma(alpha); vectorized, returns (..., 2)."""
        a = np.asarray(alpha, dtype=float)
        p = self._rep.value(a)
        dp = self._rep.value(a, 1)
        pt = np.stack(
            [p * np.cos(a) - dp * np.sin(a), p * np.sin(a) + dp * np.cos(a)],
            axis=-1,
        )
        return pt

    def curvature_radius(self, alpha):
        """p''(alpha) + p(alpha), strictly positive for a valid oval."""
        return self._rep.value(alpha, 2) + self._rep.value(alpha)

    def arc_length(self, alpha1, alpha2):
        """Boundary arc length from gamma(alpha1) to gamma(alpha2), alpha1 < alpha2."""
        if not alpha1 < alpha2 <= alpha1 + TWO_PI + 1e-12:
            raise ValueError("need alpha1 < alpha2 <= alpha1 + 2*pi")
        return (
            self._rep.value(alpha2, 1)
            - self._rep.value(alpha1, 1)
            + self._rep.integral(alpha1, alpha2)
        )

    @property
    def circumference(self):
        return self._rep.integral(0.0, TWO_PI)

    # -- exterior points and tangency -------------------------------------

    def support_margin(self, point, alpha):
        """Signed margin <point, n(alpha)> - p(alpha); positive outside the support line."""
        a = np.asarray(alpha, dtype=float)
        x, y = point
        return x * np.cos(a) + y * np.sin(a) - self._rep.value(a)

    def is_exterior(self, point, margin=1e-12):
        """True when the point lies strictly outside the oval."""
        vals = self.support_margin(point, self._grid)
        return bool(np.max(vals) > margin)

    def tangent_angles_from(self, point):
        """Normal angles (alpha1, alpha2) of the two tangent lines through a point.

        The pair is ordered so that 0 < alpha2 - alpha1 < pi, which puts the
        oval ahead of the point in counterclockwise order along the line at
        alpha1.  alpha1 is reduced to [0, 2*pi); alpha2 may exceed 2*pi.
        Raises ContainmentError for interior or boundary points.
        """
        point = np.asarray(point, dtype=float)

        def h(a):
            return self.support_margin(point, a)

        def hdh(a):
            x, y = point
            return h(a), -x * np.sin(a) + y * np.cos(a) - self._rep.value(a, 1)

        cells = sign_cells(h, np.concatenate([self._grid, [TWO_PI]]))
        roots = np.unique(bracketed_root(hdh, *cells) % TWO_PI)
        # collapse near-duplicates from the seam at 0 / 2*pi
        uniq = []
        for r in roots:
            if not uniq or min(abs(r - uniq[-1]), TWO_PI - abs(r - uniq[-1])) > 1e-9:
                uniq.append(r)
        if len(uniq) > 2 and TWO_PI - (uniq[-1] - uniq[0]) < 1e-9:
            uniq = uniq[:-1]
        if len(uniq) != 2:
            raise ContainmentError(
                f"point {point.tolist()} is not strictly exterior "
                f"({len(uniq)} tangency roots found)"
            )
        r1, r2 = uniq
        if r2 - r1 < np.pi:
            return r1, r2
        return r2, r1 + TWO_PI

    # -- validation --------------------------------------------------------

    def validate(self):
        """Survey the invariants on the grid, refining near minima."""
        min_p = _refined_min(
            lambda a: np.asarray(self._rep.value(a)), self._grid, self._p_grid
        )
        min_rho = _refined_min(
            lambda a: np.asarray(self._rep.value(a, 2)) + np.asarray(self._rep.value(a)),
            self._grid,
            self._rho_grid,
        )
        defect = self._rep.periodicity_defect()
        messages = []
        if min_p <= 1e-12:
            messages.append(f"support function not positive (min p = {min_p:.3e})")
        if min_rho <= 1e-12:
            messages.append(f"not strictly convex (min p''+p = {min_rho:.3e})")
        if defect > 1e-9:
            messages.append(f"periodicity defect {defect:.3e}")
        return ValidationReport(
            min_support=min_p,
            min_curvature_radius=min_rho,
            periodicity_defect=defect,
            symmetry_defect=self.symmetry_defect,
            passed=not messages,
            messages=tuple(messages),
        )

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return self._rep.descriptor()

    @classmethod
    def from_json(cls, obj, validate=True):
        if obj.get("type") == "fourier":
            return cls.from_fourier(
                obj["a0"], obj.get("cos", ()), obj.get("sin", ()), validate=validate
            )
        if obj.get("type") == "samples":
            return cls.from_samples(obj["p"], validate=validate)
        raise ValueError(f"unknown oval descriptor type {obj.get('type')!r}")

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)

    @classmethod
    def load(cls, path, validate=True):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh), validate=validate)

    def __repr__(self):
        return f"SupportOval(kind={self.kind!r}, symmetric={self.symmetry_flag})"


# -- stock tables ----------------------------------------------------------


def circle(radius=1.0):
    """Round table of the given radius, exact Fourier representation."""
    return SupportOval.from_fourier(radius)


def ellipse(a, b, n=4096):
    """Origin-centered axis-aligned ellipse with semi-axes a, b (sampled)."""

    def h(alpha):
        return np.sqrt((a * np.cos(alpha)) ** 2 + (b * np.sin(alpha)) ** 2)

    return SupportOval.from_callable(h, n=n)


def perturbed_circle(eps, harmonic, phase=0.0, radius=1.0):
    """Table p = radius + eps * cos(harmonic * alpha - phase)."""
    cos_coef = np.zeros(harmonic)
    sin_coef = np.zeros(harmonic)
    cos_coef[harmonic - 1] = eps * np.cos(phase)
    sin_coef[harmonic - 1] = eps * np.sin(phase)
    return SupportOval.from_fourier(radius, cos_coef, sin_coef)
