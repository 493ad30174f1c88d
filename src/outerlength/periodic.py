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
an identically vanishing residual curve.  The scan solves every sample in one
lockstep Newton on a (samples, n) angle array: with the first angle fixed the
interior Hessian is plain tridiagonal, so each iteration is one batched
gradient, one batched Hessian and a vectorised tridiagonal sweep.  Samples
are seeded from equal gaps first; a sample that fails is re-seeded from its
nearest solved neighbour, shifted to its own first angle.
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
    """Chord endpoint arrays (a, b) for the cyclic angle tuple(s) on the last axis."""
    angles = np.asarray(angles, dtype=float)
    ext = np.concatenate([angles, angles[..., :1] + TWO_PI * m], axis=-1)
    return ext[..., :-1], ext[..., 1:]


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
    """Gradient component i: R2 of the chord into vertex i minus R1 out of it.

    `angles` may hold one orbit per row; the gradient is taken along the last axis.
    """
    a, b = _chords(angles, m)
    S1, S2 = genfun.grad_arr(oval, a, b)
    return np.roll(S2, 1, axis=-1) + S1


def _hessian_bands(oval, angles, m):
    """Diagonal and cyclic off-diagonal of the action Hessian, on the last axis.

    diag[i] = S11(chord i) + S22(chord i-1); off[i] = S12(chord i) couples
    vertex i to vertex i+1 (vertex n-1 to vertex 0 for the last entry).
    """
    S11, S12, S22 = genfun.hess_arr(oval, *_chords(angles, m))
    return S11 + np.roll(S22, 1, axis=-1), S12


def action_hessian(oval, angles, m=1):
    """Cyclic tridiagonal-plus-corners Hessian assembled from chord Hessians."""
    diag, off = _hessian_bands(oval, angles, m)
    i = np.arange(len(diag))
    j = (i + 1) % len(diag)
    H = np.diag(diag)
    np.add.at(H, (i, j), off)
    np.add.at(H, (j, i), off)
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
    """True where every gap lies in (GAP_MIN, pi - GAP_MIN); one flag per row."""
    a, b = _chords(angles, m)
    gaps = b - a
    return np.all((gaps > GAP_MIN) & (gaps < np.pi - GAP_MIN), axis=-1)


def _check_period(n, m):
    """Reject an (n, m) that no orbit of the billiard can have."""
    if n < 3:
        raise ValueError("period must be at least 3")
    if m < 1 or np.gcd(n, m) != 1:
        raise ValueError("winding m must satisfy gcd(n, m) = 1")
    if 2.0 * m / n >= 1.0 - 1e-9:
        raise ValueError(f"mean gap 2*pi*{m}/{n} is not below pi")


def find_periodic(oval, n, m=1, seed_angles=None, tol=1e-11, max_iter=80):
    """Newton search for an (n, m) orbit from a seed (default: equal gaps).

    Uses least-squares Newton steps (stable on rotationally symmetric tables,
    where the Hessian carries an exact zero mode), backtracking line search on
    the gradient norm, and gap projection with a three-strike failure rule.
    A line search that reaches step scale 1e-3 without lowering the gradient
    raises ConvergenceError.  The result is verified by n applications of the
    billiard step.
    """
    _check_period(n, m)
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
                if np.max(np.abs(gc)) < gn:
                    angles, g = cand, gc
                    break
                if step_scale < 1e-3:
                    raise ConvergenceError(
                        f"line search found no descent down to step scale "
                        f"{step_scale:.1e} (residual {gn:.3e})"
                    )
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


def _tridiagonal_solve(diag, off, rhs):
    """Thomas sweep for symmetric tridiagonal systems, one per row.

    diag and rhs are (k, N), off is (k, N - 1).  A zero pivot gives a
    non-finite row, which the caller treats as a failed step.
    """
    N = diag.shape[1]
    c = np.empty_like(off)
    x = np.empty_like(rhs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        piv = diag[:, 0]
        x[:, 0] = rhs[:, 0] / piv
        for i in range(1, N):
            c[:, i - 1] = off[:, i - 1] / piv
            piv = diag[:, i] - off[:, i - 1] * c[:, i - 1]
            x[:, i] = (rhs[:, i] - off[:, i - 1] * x[:, i - 1]) / piv
        for i in range(N - 2, -1, -1):
            x[:, i] -= c[:, i] * x[:, i + 1]
    return x


def _solve_rows(oval, seeds, m, tol=1e-12, max_iter=40):
    """Lockstep Newton on the interior critical equations of every row.

    Each row of `seeds` (k, n) is one broken orbit whose first angle stays
    fixed.  A row leaves the working set when max|g[1:]| < tol, when its gaps
    leave (GAP_MIN, pi - GAP_MIN), when its Newton step is not finite, or when
    its line search finds no descent down to step scale 1e-3.  A row still
    running after `max_iter` steps, or stopped by its line search, passes if
    max|g[1:]| < 100 * tol.  Returns the solved angles and the closure
    residual g[0]; failed rows are NaN.
    """
    angles = np.full(seeds.shape, np.nan)
    residual = np.full(len(seeds), np.nan)
    live = np.flatnonzero(_gaps_ok(seeds, m))
    x = seeds[live]
    g = action_gradient(oval, x, m)
    for it in range(max_iter + 1):
        gn = np.max(np.abs(g[:, 1:]), axis=1)
        done = gn < (tol if it < max_iter else 100.0 * tol)
        angles[live[done]] = x[done]
        residual[live[done]] = g[done, 0]
        live, x, g, gn = live[~done], x[~done], g[~done], gn[~done]
        if it == max_iter or not live.size:
            break
        diag, off = _hessian_bands(oval, x, m)
        delta = _tridiagonal_solve(diag[:, 1:], off[:, 1:-1], -g[:, 1:])
        # backtracking on each row; all rows still searching share one scale
        moved = np.zeros(len(live), dtype=bool)
        pending = np.flatnonzero(np.all(np.isfinite(delta), axis=1))
        scale = 1.0
        for _ in range(25):
            if not pending.size:
                break
            cand = x[pending]
            cand[:, 1:] += scale * delta[pending]
            valid = np.flatnonzero(_gaps_ok(cand, m))
            drop = np.zeros(len(pending), dtype=bool)
            if valid.size:
                rows = pending[valid]
                gc = action_gradient(oval, cand[valid], m)
                down = np.max(np.abs(gc[:, 1:]), axis=1) < gn[rows]
                x[rows[down]] = cand[valid[down]]
                g[rows[down]] = gc[down]
                moved[rows[down]] = True
                drop[valid[down] if scale >= 1e-3 else valid] = True
            pending = pending[~drop]
            scale *= 0.5
        # a row without descent stops where it is: it passes on the end-of-run
        # tolerance (it sits at the round-off floor of its gradient) or fails
        stuck = ~moved & (gn < 100.0 * tol)
        angles[live[stuck]] = x[stuck]
        residual[live[stuck]] = g[stuck, 0]
        live, x, g = live[moved], x[moved], g[moved]
    return angles, residual


def invariant_curve_scan(oval, n, m=1, samples=256, closure_tol=1e-8,
                         alpha_lo=0.0, alpha_hi=TWO_PI):
    """Sweep the first angle, close the remaining vertices variationally,
    and record the leftover closure residual at the first vertex.

    A table with an invariant curve of (n, m)-periodic points yields residuals
    below `closure_tol` for every first angle; generically the residual curve
    has isolated zeros.  All samples are solved together by `_solve_rows`.
    The first pass seeds every sample from equal gaps.  Each later pass
    re-seeds the failed samples from their nearest solved neighbour (the
    earlier one on a tie), shifted to their own first angle, and runs while
    some failed sample has a nearer solved neighbour than on its last try.
    Samples that no pass solves are reported as NaN.
    """
    _check_period(n, m)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    alphas = np.linspace(alpha_lo, alpha_hi, samples, endpoint=False)
    orbit_angles = np.full((samples, n), np.nan)
    residuals = np.full(samples, np.nan)
    seeds = alphas[:, None] + TWO_PI * m * np.arange(n) / n
    tried = np.full(samples, -1)
    todo = np.arange(samples)
    while todo.size:
        orbit_angles[todo], residuals[todo] = _solve_rows(oval, seeds[todo], m)
        solved = np.flatnonzero(np.isfinite(residuals))
        failed = np.flatnonzero(~np.isfinite(residuals))
        if not solved.size:
            break
        pos = np.searchsorted(solved, failed)
        before = solved[np.maximum(pos - 1, 0)]
        after = solved[np.minimum(pos, len(solved) - 1)]
        near = np.where(np.abs(failed - before) <= np.abs(after - failed), before, after)
        retry = near != tried[failed]
        todo, near = failed[retry], near[retry]
        tried[todo] = near
        seeds[todo] = orbit_angles[near] - orbit_angles[near, :1] + alphas[todo, None]
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
