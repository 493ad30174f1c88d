"""Periodic orbits as critical points of the circumscribed-perimeter action.

An n-periodic orbit with winding m is a cyclic tuple of tangency angles
alpha_0 < ... < alpha_{n-1} < alpha_0 + 2*pi*m whose consecutive gaps stay in
(0, pi).  Its action is the cyclic sum of generating values S over the n
chords, which equals the circumscribed polygon perimeter minus m times the
boundary length.  Critical points of the action are exactly the orbits of the
billiard map: component i of the gradient is R2(previous chord) - R1(next
chord), so a vanishing gradient is the step equation at every vertex.

Two independent solvers are provided: a damped Newton method on the gradient
with the cyclic tridiagonal-plus-corners Hessian (`find_periodic`), and a
derivative-free multi-start search (`brute_oracle`) used to validate it.
`invariant_curve_scan` fixes the first angle, solves the interior critical
equations, and reports the leftover closure residual as a function of the
first angle; tables carrying an invariant curve of n-periodic points produce
an identically vanishing residual curve.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import billiard, genfun
from .errors import ChordDomainError, ConvergenceError
from .genfun import ChordConfig

TWO_PI = 2.0 * np.pi

#: gaps must stay inside (GAP_MIN, pi - GAP_MIN) during all searches
GAP_MIN = 1e-3


def _chords(angles, m):
    """Chord endpoint arrays (a, b) for the cyclic angle tuple."""
    angles = np.asarray(angles, dtype=float)
    ext = np.append(angles, angles[0] + TWO_PI * m)
    return ext[:-1], ext[1:]


def _check_gaps(angles, m, gap_min=genfun.OMEGA_MIN):
    a, b = _chords(angles, m)
    gaps = b - a
    if np.any(gaps <= gap_min) or np.any(gaps >= np.pi - gap_min):
        raise ChordDomainError(
            f"gap sequence {np.round(gaps, 6).tolist()} leaves (0, pi)"
        )
    return gaps


def total_action(oval, angles, m=1):
    """Cyclic sum of S over the orbit chords (perimeter minus m * boundary length)."""
    _check_gaps(angles, m)
    a, b = _chords(angles, m)
    return float(np.sum(genfun.S_arr(oval, a, b)))


def orbit_perimeter(oval, angles, m=1):
    """Perimeter of the circumscribed polygon with the given tangency angles."""
    return total_action(oval, angles, m) + m * oval.circumference


def action_gradient(oval, angles, m=1):
    """Gradient component i: R2 of the chord into vertex i minus R1 out of it."""
    a, b = _chords(angles, m)
    S1, S2 = genfun.grad_arr(oval, a, b)
    return np.roll(S2, 1) + S1


def action_hessian(oval, angles, m=1):
    """Cyclic tridiagonal-plus-corners Hessian assembled from chord Hessians."""
    n = len(angles)
    a, b = _chords(angles, m)
    S11, S12, S22 = genfun.hess_arr(oval, a, b)
    H = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        H[i, i] += S11[i]
        H[j, j] += S22[i]
        H[i, j] += S12[i]
        H[j, i] += S12[i]
    return H


@dataclass
class PeriodicOrbit:
    """A converged critical orbit: angles, winding count, and diagnostics."""

    n: int
    m: int
    angles: np.ndarray
    residual: float
    perimeter: float
    action: float

    def to_json(self):
        return {
            "n": self.n,
            "m": self.m,
            "angles": self.angles.tolist(),
            "perimeter": self.perimeter,
            "residual": self.residual,
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


def normalize_angles(angles, m=1):
    """Deterministic representative: cyclic relabeling with minimal first angle >= 0."""
    angles = np.asarray(angles, dtype=float)
    n = len(angles)
    best = None
    for k in range(n):
        rot = np.concatenate([angles[k:], angles[:k] + TWO_PI * m])
        rot = rot - TWO_PI * np.floor(rot[0] / TWO_PI)
        if best is None or rot[0] < best[0]:
            best = rot
    return best


def _project_gaps(angles, m):
    """Pull gaps back into (GAP_MIN, pi - GAP_MIN), preserving the total advance."""
    a, b = _chords(angles, m)
    gaps = np.clip(b - a, GAP_MIN * 1.5, np.pi - GAP_MIN * 1.5)
    gaps *= TWO_PI * m / np.sum(gaps)
    gaps = np.clip(gaps, GAP_MIN * 1.2, np.pi - GAP_MIN * 1.2)
    gaps *= TWO_PI * m / np.sum(gaps)
    out = angles[0] + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    return out


def _gaps_ok(angles, m):
    a, b = _chords(angles, m)
    gaps = b - a
    return bool(np.all(gaps > GAP_MIN) and np.all(gaps < np.pi - GAP_MIN))


def find_periodic(oval, n, m=1, seed_angles=None, tol=1e-11, max_iter=80):
    """Newton search for an (n, m) orbit from a seed (default: equal gaps).

    Uses least-squares Newton steps (stable on rotationally symmetric tables,
    where the Hessian carries an exact zero mode), backtracking line search on
    the gradient norm, and gap projection with a three-strike failure rule.
    The result is verified by n applications of the billiard step.
    """
    if n < 3:
        raise ValueError("period must be at least 3")
    if m < 1 or np.gcd(n, m) != 1:
        raise ValueError("winding m must satisfy gcd(n, m) = 1")
    if 2.0 * m / n >= 1.0 - 1e-9:
        raise ValueError(f"mean gap 2*pi*{m}/{n} is not below pi")
    if seed_angles is None:
        angles = TWO_PI * m * np.arange(n) / n
    else:
        angles = np.asarray(seed_angles, dtype=float).copy()
        _check_gaps(angles, m)

    projections = 0
    g = action_gradient(oval, angles, m)
    for _ in range(max_iter):
        gn = np.max(np.abs(g))
        if gn < tol:
            break
        H = action_hessian(oval, angles, m)
        # modes with curvature below 1e-10 of the stiffest are the drift of the
        # orbit along a (near-)family; a Newton step along one leaves the
        # quadratic model and stalls the search, so the solve drops them
        delta = np.linalg.lstsq(H, -g, rcond=1e-10)[0]
        step_scale = 1.0
        for _ in range(30):
            cand = angles + step_scale * delta
            if _gaps_ok(cand, m):
                gc = action_gradient(oval, cand, m)
                if np.max(np.abs(gc)) < gn or step_scale < 1e-3:
                    angles, g = cand, gc
                    break
            step_scale *= 0.5
        else:
            projections += 1
            if projections > 3:
                raise ConvergenceError("gap projection triggered more than 3 times")
            angles = _project_gaps(angles + delta, m)
            g = action_gradient(oval, angles, m)
    else:
        raise ConvergenceError(
            f"no critical orbit after {max_iter} iterations "
            f"(residual {np.max(np.abs(g)):.3e})"
        )

    angles = normalize_angles(angles, m)
    g = action_gradient(oval, angles, m)
    return PeriodicOrbit(
        n=n,
        m=m,
        angles=angles,
        residual=float(np.max(np.abs(g))),
        perimeter=orbit_perimeter(oval, angles, m),
        action=total_action(oval, angles, m),
    )


def closure_by_iteration(oval, angles, m=1):
    """Residual of the orbit under n raw billiard steps (the independent check)."""
    angles = np.asarray(angles, dtype=float)
    n = len(angles)
    state = ChordConfig(angles[0], angles[1] if n > 1 else angles[0] + np.pi / 2)
    rec = billiard.orbit(oval, state, n)
    last = rec.states[-1]
    target = (angles[0] + TWO_PI * m, angles[1] + TWO_PI * m)
    return float(np.hypot(last.alpha1 - target[0], last.alpha2 - target[1]))


def brute_oracle(oval, n, m=1, grid_density=8, seed=0):
    """Derivative-free multi-start minimization of the action (test oracle).

    Deliberately avoids the Newton machinery: penalized Nelder-Mead from a
    coarse grid of jittered seeds, best critical point wins.
    """
    rng = np.random.default_rng(seed)
    big = 1e6

    def objective(angles):
        a, b = _chords(angles, m)
        gaps = b - a
        viol = np.sum(np.maximum(GAP_MIN - gaps, 0.0)) + np.sum(
            np.maximum(gaps - (np.pi - GAP_MIN), 0.0)
        )
        if viol > 0.0:
            return big * (1.0 + viol)
        return total_action(oval, angles, m)

    best = None
    for start in range(grid_density):
        base = TWO_PI * m * np.arange(n) / n
        base += TWO_PI * start / (grid_density * n)
        jitter = rng.uniform(-0.2, 0.2, n) * (TWO_PI * m / n) * (start > 0)
        x0 = base + jitter
        if not _gaps_ok(x0, m):
            continue
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "xatol": 1e-10,
                "fatol": 1e-14,
                "maxiter": 6000,
                "maxfev": 12000,
            },
        )
        # polish: restart the simplex at the optimum
        res = minimize(
            objective,
            res.x,
            method="Nelder-Mead",
            options={"xatol": 1e-11, "fatol": 1e-15, "maxiter": 6000, "maxfev": 12000},
        )
        if res.fun >= big:
            continue
        if best is None or res.fun < best.fun:
            best = res
    if best is None:
        raise ConvergenceError("oracle search found no admissible configuration")
    angles = normalize_angles(best.x, m)
    return PeriodicOrbit(
        n=n,
        m=m,
        angles=angles,
        residual=float(np.max(np.abs(action_gradient(oval, angles, m)))),
        perimeter=orbit_perimeter(oval, angles, m),
        action=total_action(oval, angles, m),
    )


# -- invariant-curve scans ----------------------------------------------------


@dataclass
class ScanReport:
    """Closure residual of the interior-critical broken orbit vs first angle."""

    n: int
    m: int
    alpha1: np.ndarray
    residual: np.ndarray
    closure_tol: float
    orbit_angles: np.ndarray | None = None

    @property
    def closed_mask(self):
        return np.abs(self.residual) < self.closure_tol

    @property
    def solver_failures(self):
        return int(np.sum(~np.isfinite(self.residual)))

    @property
    def all_closed(self):
        return bool(np.all(np.isfinite(self.residual)) and np.all(self.closed_mask))

    @property
    def max_closure_run(self):
        """Longest cyclic run of consecutive closure samples."""
        mask = self.closed_mask
        if mask.all():
            return int(len(mask))
        if not mask.any():
            return 0
        # cut the cycle at a non-closure sample, then take the longest run
        k = int(np.argmin(mask))
        rolled = np.roll(mask, -k)
        best = run = 0
        for v in rolled:
            run = run + 1 if v else 0
            best = max(best, run)
        return int(best)

    @property
    def sign_changes(self):
        finite = self.residual[np.isfinite(self.residual)]
        return int(np.sum(np.sign(finite[:-1]) * np.sign(finite[1:]) < 0))

    def to_csv(self):
        buf = io.StringIO()
        buf.write("alpha1,residual,closed\n")
        for a, r, c in zip(self.alpha1, self.residual, self.closed_mask):
            buf.write(f"{a:.16g},{r:.16g},{int(c)}\n")
        buf.write(f"# closure_tol={self.closure_tol:.3g}\n")
        buf.write(f"# max_closure_run={self.max_closure_run}\n")
        return buf.getvalue()


def _solve_interior(oval, alpha0, n, m, seed_interior, tol=1e-12, max_iter=40):
    """Newton on the interior critical equations with the first angle fixed.

    Unknowns are alpha_1 .. alpha_{n-1}; returns the full angle tuple or None.
    """
    angles = np.empty(n)
    angles[0] = alpha0
    angles[1:] = seed_interior
    for _ in range(max_iter):
        if not _gaps_ok(angles, m):
            return None
        g = action_gradient(oval, angles, m)[1:]
        if np.max(np.abs(g)) < tol:
            return angles
        H = action_hessian(oval, angles, m)[1:, 1:]
        try:
            delta = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            return None
        scale = 1.0
        for _ in range(25):
            cand = angles.copy()
            cand[1:] += scale * delta
            if _gaps_ok(cand, m):
                gc = action_gradient(oval, cand, m)[1:]
                if np.max(np.abs(gc)) < np.max(np.abs(g)) or scale < 1e-3:
                    angles = cand
                    break
            scale *= 0.5
        else:
            return None
    g = action_gradient(oval, angles, m)[1:]
    return angles if np.max(np.abs(g)) < tol * 100 else None


def invariant_curve_scan(oval, n, m=1, samples=256, closure_tol=1e-8,
                         alpha_lo=0.0, alpha_hi=TWO_PI):
    """Sweep the first angle, close the remaining vertices variationally,
    and record the leftover closure residual at the first vertex.

    A table with an invariant curve of (n, m)-periodic points yields residuals
    below `closure_tol` for every first angle; generically the residual curve
    has isolated zeros.  Failed interior solves are reported as NaN.
    """
    alphas = np.linspace(alpha_lo, alpha_hi, samples, endpoint=False)
    residuals = np.full(samples, np.nan)
    orbit_angles = np.full((samples, n), np.nan)
    seed = TWO_PI * m * np.arange(1, n) / n
    prev = None
    for idx, a0 in enumerate(alphas):
        if prev is not None:
            interior = (prev - prev[0] + a0)[1:]
        else:
            interior = a0 + seed
        full = _solve_interior(oval, a0, n, m, interior)
        if full is None and prev is not None:
            full = _solve_interior(oval, a0, n, m, a0 + seed)
        if full is None:
            prev = None
            continue
        g = action_gradient(oval, full, m)
        residuals[idx] = g[0]
        orbit_angles[idx] = full
        prev = full
    return ScanReport(
        n=n, m=m, alpha1=alphas, residual=residuals, closure_tol=closure_tol,
        orbit_angles=orbit_angles,
    )


def rotation_number(oval, state, iters=256):
    """Average angular advance per step divided by 2*pi, along one orbit."""
    total = 0.0
    current = state
    for _ in range(iters):
        new = billiard.step(oval, current)
        total += new.alpha1 - current.alpha1
        current = new
    return total / (iters * TWO_PI)
