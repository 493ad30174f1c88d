"""Periodic orbits as critical points of the circumscribed-perimeter action.

An n-periodic orbit with winding m is a cyclic tuple of tangency angles
alpha_0 < ... < alpha_{n-1} < alpha_0 + 2*pi*m whose consecutive gaps stay in
(0, pi).  Its action is the cyclic sum of generating values S over the n
chords, which equals the circumscribed polygon perimeter minus m times the
boundary length.  Critical points of the action are exactly the orbits of the
billiard map: component i of the gradient is R2(previous chord) - R1(next
chord), so a vanishing gradient is the step equation at every vertex.

Two damped Newton searches solve the critical equations, each iterate one
`genfun.path_jets` call, which `_derivatives` turns into gradient and
Hessian; `_STOPS` lists why a search stops.  `find_periodic` runs a plain
damped Newton on one free orbit, whose every vertex moves.  The Hessian of a
free orbit is cyclic tridiagonal; `_cyclic_solve` reorders its vertices into
a band of width 2 and solves it in O(n) by LAPACK's pivoted banded LU,
dropping a soft mode as a least-squares solve with rcond = 1e-10 would.
`_newton` solves `invariant_curve_scan`'s orbits in lockstep, one per
sample with the first vertex pinned at the sample's angle: the interior
equations, tridiagonal, are solved by a Thomas sweep, and the leftover
closure residual g[0] is reported as a function of the first angle.
Tables carrying an invariant curve of n-periodic points produce an
identically vanishing residual curve.  Two checks stand apart from the
Newton machinery: `brute_oracle`, a derivative-free multi-start search, and
`closure_by_iteration`, which closes orbits by iterating the map itself
(`billiard.iterate`, every row of a scan in one call); `rotation_number`
averages the advance along orbits iterated in lockstep the same way.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from . import billiard, genfun
from ._solve import dgbtrf, dgbtrs
from .errors import ConfigError, ConvergenceError, checked_count
from .oval import TWO_PI

#: a search margin inside the chord domain, not a domain rule: the Newton
#: candidates and `brute_oracle`'s penalty keep gaps in (GAP_MIN, pi - GAP_MIN)
GAP_MIN = 1e-3


def _extended(angles, m):
    """The cyclic angle tuple(s) on the last axis, closed by the first angle
    plus 2*pi*m: the n + 1 ends of the n orbit chords."""
    angles = np.asarray(angles, dtype=float)
    return np.concatenate([angles, angles[..., :1] + TWO_PI * m], axis=-1)


def _prev(a):
    """`np.roll(a, 1, axis=-1)`, entry i holds a[i - 1], without its overhead."""
    return np.concatenate([a[..., -1:], a[..., :-1]], axis=-1)


def total_action(oval, angles, m=1):
    """Cyclic sum of S over the orbit chords (perimeter minus m * boundary length)."""
    ext = _extended(angles, m)
    return float(np.sum(genfun.S_arr(oval, ext[..., :-1], ext[..., 1:])))


def _derivatives(oval, angles, m):
    """Action gradient g and Hessian bands (diag, off) on the last axis, from one
    `genfun.path_jets` call: g[i] = S2(chord i-1) + S1(chord i);
    diag[i] = S11(chord i) + S22(chord i-1); off[i] = S12(chord i) couples
    vertex i to vertex i+1 (n-1 to 0 for the last)."""
    jets = genfun.path_jets(oval, _extended(angles, m))
    S1, S2 = genfun.grad_from_jets(*jets)
    S11, S12, S22 = genfun.hess_from_jets(*jets)
    return _prev(S2) + S1, S11 + _prev(S22), S12


@dataclass
class PeriodicOrbit:
    """A converged critical orbit: angles, winding count, and diagnostics."""

    n: int
    m: int
    angles: np.ndarray
    residual: float
    perimeter: float
    action: float
    #: Newton steps taken and soft modes dropped by `find_periodic`;
    #: None for an orbit found without Newton (`brute_oracle`)
    iterations: int | None = None
    dropped_modes: int | None = None

    def to_json(self):
        return {
            "n": self.n,
            "m": self.m,
            "angles": self.angles.tolist(),
            "perimeter": self.perimeter,
            "residual": self.residual,
            "iterations": self.iterations,
            "dropped_modes": self.dropped_modes,
        }


def normalize_angles(angles, m=1):
    """Deterministic representative: cyclic relabeling with minimal first angle >= 0."""
    angles = np.asarray(angles, dtype=float)
    k = int(np.argmin(angles - TWO_PI * np.floor(angles / TWO_PI)))
    rot = np.concatenate([angles[k:], angles[:k] + TWO_PI * m])
    return rot - TWO_PI * np.floor(rot[0] / TWO_PI)


def _orbit(oval, m, angles, iterations=None, dropped_modes=None):
    """The PeriodicOrbit through `angles`, normalized, from one `path_jets` call; its
    perimeter is sum (p_i + p_{i+1}) tan(w_i / 2), its action that minus m * circumference."""
    angles = normalize_angles(angles, m)
    w, jet1, jet2 = genfun.path_jets(oval, _extended(angles, m))
    S1, S2 = genfun.grad_from_jets(w, jet1, jet2)
    perimeter = float(np.sum((jet2[0] + jet1[0]) * np.tan(w / 2.0)))
    return PeriodicOrbit(n=len(angles), m=m, angles=angles,
                         residual=float(np.max(np.abs(_prev(S2) + S1))), perimeter=perimeter,
                         action=perimeter - m * oval.circumference,
                         iterations=iterations, dropped_modes=dropped_modes)


def _gaps_ok(angles, m):
    """True where every gap lies in (GAP_MIN, pi - GAP_MIN); one flag per row."""
    ext = _extended(angles, m)
    gaps = ext[..., 1:] - ext[..., :-1]
    return ((gaps > GAP_MIN) & (gaps < np.pi - GAP_MIN)).all(axis=-1)


def _check_period(n, m):
    """(n, m) as integers; ConfigError for one that no orbit can have."""
    n, m = checked_count(n, "n", 3), checked_count(m, "m", 1)
    if math.gcd(n, m) != 1:
        raise ConfigError("winding m must satisfy gcd(n, m) = 1")
    if 2.0 * m / n >= 1.0 - 1e-9:
        raise ConfigError(f"mean gap 2*pi*{m}/{n} is not below pi")
    return n, m


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


#: a free step drops its softest mode when that mode's curvature is below
#: this fraction of the stiffest, as `lstsq(rcond=1e-10)` drops singular values
_SOFT = 1e-10


@functools.lru_cache(maxsize=64)
def _band_layout(n):
    """How `_cyclic_solve` stores a cyclic tridiagonal n x n matrix.

    The vertices are taken in the order 0, n-1, 1, n-2, ..., in which every
    cyclic neighbour lies at most 2 positions away, so the matrix becomes a
    band with kl = ku = 2.  Returns that order, its inverse, the flat indices
    in the transposed (n, 7) LAPACK band array of the entries diag[i],
    off[i] at (i, i+1) and off[i] at (i+1, i), and a fixed unit start vector
    for inverse iteration, 1 + sin(k) normalized, which is not orthogonal to
    the rotation mode (1, ..., 1).  Cached per n, so the arrays are read-only.
    """
    order = np.empty(n, dtype=int)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = n - 1 - np.arange(n // 2)
    pos = np.argsort(order)
    a, b = pos, np.roll(pos, -1)
    # entry (i, j) of the band lies at row 4 + i - j of column j
    flat = np.concatenate([7 * pos + 4, 7 * b + 4 + a - b, 7 * a + 4 + b - a])
    start = 1.0 + np.sin(np.arange(n))
    layout = order, pos, flat, start / math.sqrt(start @ start)
    for array in layout:
        array.setflags(write=False)
    return layout


def _cyclic_solve(diag, off, rhs, layout):
    """Solve H x = rhs for one cyclic tridiagonal H (see `_derivatives`)
    in O(n); returns x and whether a soft mode was dropped.

    H is factored once by LAPACK's banded LU with partial pivoting
    (dgbtrf), which is safe on the indefinite Hessians of saddle orbits; an
    exactly zero pivot, as on the circle's rotation mode, is replaced by
    eps times a Gershgorin bound on the largest singular value, as LAPACK's
    dstein does.  Two inverse-iteration steps on the same factors give the
    softest mode v.  When its Rayleigh quotient is below _SOFT times the
    bound, v is removed from the right-hand side and from x, which is what
    `lstsq(H, rhs, rcond=_SOFT)` does to a mode that soft.
    """
    order, pos, flat, start = layout
    band = np.zeros((len(diag), 7))
    band.flat[flat] = np.concatenate([diag, off, off])
    bound = np.abs(band).sum(axis=1).max()
    lu, piv, _ = dgbtrf(band.T, 2, 2, overwrite_ab=1)
    pivots = lu[4]
    pivots[pivots == 0.0] = np.finfo(float).eps * bound
    w = dgbtrs(lu, 2, 2, start, piv)[0]
    w /= math.sqrt(w @ w)
    w2 = dgbtrs(lu, 2, 2, w, piv)[0]
    # H w2 = w with |w| = 1, so the Rayleigh quotient of w2 is w.w2 / w2.w2
    soft = abs(w @ w2) < _SOFT * bound * (w2 @ w2)
    b = rhs[order]
    if soft:
        v = w2 / math.sqrt(w2 @ w2)
        b -= (v @ b) * v
    x = dgbtrs(lu, 2, 2, b, piv, overwrite_b=1)[0]
    if soft:
        x -= (v @ x) * v
    return x[pos], soft


#: why a Newton search stopped: a scan row of `_newton`, or the orbit of
#: `find_periodic`, which raises on all but "converged"; the scan accepts
#: "converged" and "floor", and only its rows stop at "domain"
_STOPS = {
    "converged": "residual below tol",
    "floor": "stopped at the round-off floor of the gradient, below 100 tol",
    "no descent": "line search found no descent down to step scale 1e-3 or no admissible step",
    "max_iter": "no critical orbit after max_iter steps",
    "domain": f"seed gaps leave the chord domain {genfun.CHORD_DOMAIN}",
}


def _stop(residual, tol, moved):
    """The key in _STOPS of a search that stops at `residual`; `moved` says
    whether its last line search took a step."""
    return ("converged" if residual < tol else "floor" if residual < 100.0 * tol
            else "max_iter" if moved else "no descent")


def _newton(oval, seeds, m, tol, max_iter):
    """Damped Newton on the interior critical equations of every row of
    `seeds` (k, n), all rows in lockstep, each with its first angle pinned.

    A row's residual is max|g[1:]| over its action gradient g; g[0], the
    closure defect, is left out.  Each step solves the tridiagonal interior
    Hessian of every row by one Thomas sweep.  The line search halves one
    step scale, shared by all rows still searching, from 1 down to 2**-24;
    it skips candidates whose gaps leave (GAP_MIN, pi - GAP_MIN), and a row
    takes the first that lowers its residual, or gives up at its first
    admissible candidate below scale 1e-3.  Each candidate is one
    `_derivatives` call, whose gradient and Hessian bands serve the next
    step of the row that takes it.  Rows with a seed gap outside the chord
    domain (`genfun.in_chord_domain`) are not searched.  Returns the final
    angles and gradients and, per row, the key in _STOPS of why it stopped
    (a "domain" row has a NaN gradient).
    """
    angles = np.array(seeds, dtype=float)
    grads = np.full(angles.shape, np.nan)
    reason = np.full(len(angles), "domain", dtype=object)
    live = np.flatnonzero(genfun.in_chord_domain(np.diff(_extended(angles, m))).all(axis=-1))
    x = angles[live]
    g, diag, off = _derivatives(oval, x, m)
    gn = np.abs(g[:, 1:]).max(axis=1)
    moved = np.ones(len(live), dtype=bool)
    for it in range(max_iter + 1):
        stop = (gn < tol) | ~moved | (it == max_iter)
        if stop.any():
            rows = live[stop]
            angles[rows], grads[rows] = x[stop], g[stop]
            for row, r, went in zip(rows.tolist(), gn[stop].tolist(), moved[stop].tolist()):
                reason[row] = _stop(r, tol, went)
            keep = ~stop
            live, x, g, gn, diag, off = live[keep], x[keep], g[keep], gn[keep], diag[keep], off[keep]
        if not live.size:
            break
        delta = np.zeros_like(x)
        delta[:, 1:] = _tridiagonal_solve(diag[:, 1:], off[:, 1:-1], -g[:, 1:])
        moved = np.zeros(len(live), dtype=bool)
        pending = np.flatnonzero(np.isfinite(delta).all(axis=1))
        scale = 1.0
        for _ in range(25):
            if not pending.size:
                break
            cand = x[pending] + scale * delta[pending]
            valid = np.flatnonzero(_gaps_ok(cand, m))
            drop = np.zeros(len(pending), dtype=bool)
            if valid.size:
                gc, dc, oc = _derivatives(oval, cand[valid], m)
                gnc = np.abs(gc[:, 1:]).max(axis=1)
                down = gnc < gn[pending[valid]]
                took, rows = valid[down], pending[valid[down]]
                x[rows], g[rows], diag[rows], off[rows] = cand[took], gc[down], dc[down], oc[down]
                gn[rows], moved[rows] = gnc[down], True
                drop[took if scale >= 1e-3 else valid] = True
            pending = pending[~drop]
            scale *= 0.5
    return angles, grads, reason


def find_periodic(oval, n, m=1, seed_angles=None, tol=1e-11):
    """Damped Newton search for an (n, m) orbit from a seed (default: equal gaps).

    Every vertex moves.  Each step solves the cyclic tridiagonal Hessian by
    `_cyclic_solve`, which drops a soft mode, such as the exact zero mode of
    a rotationally symmetric table, as `lstsq(rcond=1e-10)` would; the line
    search is `_newton`'s on one row.  The orbit records the Newton steps
    taken, at most 80, and the soft modes dropped.  A seed that is not n
    finite angles, or a `tol` that is not finite and positive, raises
    ConfigError, a seed gap outside the chord domain the domain's own
    ChordDomainError.  A search that stops above `tol` raises
    ConvergenceError, which names the stop reason and the residual reached.
    """
    n, m = _check_period(n, m)
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"tol = {tol!r} is not finite and positive")
    x = TWO_PI * m * np.arange(n) / n if seed_angles is None else np.asarray(seed_angles, float)
    if x.shape != (n,) or not np.isfinite(x).all():
        raise ConfigError(f"seed_angles must be {n} finite angles, got {x.tolist()}")
    g, diag, off = _derivatives(oval, x, m)
    r = np.abs(g).max()
    layout = _band_layout(n)
    steps = dropped = 0
    moved = True
    while r >= tol and moved and steps < 80:
        step, soft = _cyclic_solve(diag, off, -g, layout)
        steps, dropped = steps + 1, dropped + int(soft)
        moved, scale = False, 1.0
        for _ in range(25 if np.isfinite(step).all() else 0):
            cand = x + scale * step
            if _gaps_ok(cand, m):
                gc, dc, oc = _derivatives(oval, cand, m)
                rc = np.abs(gc).max()
                if rc < r:
                    x, g, diag, off, r, moved = cand, gc, dc, oc, rc, True
                    break
                if scale < 1e-3:
                    break
            scale *= 0.5
    reason = _stop(r, tol, moved)
    if reason != "converged":
        raise ConvergenceError(f"{_STOPS[reason]} (residual {r:.3e})")
    return _orbit(oval, m, x, steps, dropped)


def closure_by_iteration(oval, angles, m=1):
    """Distance of the first chord's image under n raw billiard steps from that
    chord shifted by 2*pi*m, for an orbit (n,) or each row of orbits (k, n)."""
    a = np.moveaxis(np.asarray(angles, dtype=float), -1, 0)
    _check_period(len(a), m)
    end = billiard.iterate(oval, a[0], a[1], len(a))[-2:]
    return np.hypot(*(end - (a[:2] + TWO_PI * m)))[()]


def brute_oracle(oval, n, m=1, grid_density=8, seed=0):
    """Derivative-free multi-start minimization of the action (test oracle).

    Deliberately avoids the Newton machinery: penalized Nelder-Mead from a
    coarse grid of jittered seeds, best critical point wins.  scipy.optimize
    is imported here, its only user, so that importing the package does not
    load it.  ConfigError unless grid_density is an integer >= 1.
    """
    n, m = _check_period(n, m)
    grid_density = checked_count(grid_density, "grid_density", 1)
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    big = 1e6

    def objective(angles):
        gaps = np.diff(_extended(angles, m))
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
        x = base + jitter
        if not _gaps_ok(x, m):
            continue
        # the second pass polishes: it restarts the simplex at the optimum
        for xatol, fatol in ((1e-10, 1e-14), (1e-11, 1e-15)):
            res = minimize(objective, x, method="Nelder-Mead", options={
                "xatol": xatol, "fatol": fatol, "maxiter": 6000, "maxfev": 12000})
            x = res.x
        if res.fun >= big:
            continue
        if best is None or res.fun < best.fun:
            best = res
    if best is None:
        raise ConvergenceError("oracle search found no admissible configuration")
    return _orbit(oval, m, best.x)


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
    def cyclic(self):
        """Whether the samples span one full turn, so the last neighbours the first."""
        a = self.alpha1
        return len(a) > 1 and math.isclose(len(a) * (a[1] - a[0]), TWO_PI, rel_tol=1e-9)

    @property
    def max_closure_run(self):
        """Longest run of consecutive closure samples, wrapping when `cyclic`."""
        mask = self.closed_mask
        if self.cyclic and not mask.all():  # cut the cycle at a non-closure sample
            mask = np.roll(mask, -int(np.argmin(mask)))
        edges = np.flatnonzero(np.diff(np.r_[False, mask, False]))  # run starts, ends
        return int(np.max(edges[1::2] - edges[::2], initial=0))

    @property
    def sign_changes(self):
        """Sign changes between consecutive finite residuals, wrapping when `cyclic`."""
        signs = np.sign(self.residual[np.isfinite(self.residual)])
        pairs = signs * np.roll(signs, -1) if self.cyclic else signs[:-1] * signs[1:]
        return int(np.sum(pairs < 0))

    def to_csv(self):
        buf = io.StringIO()
        buf.write("alpha1,residual,closed\n")
        rows = zip(self.alpha1.tolist(), self.residual.tolist(), self.closed_mask.tolist())
        for a, r, c in rows:
            buf.write(f"{a:.16g},{r:.16g},{int(c)}\n")
        buf.write(f"# closure_tol={self.closure_tol:.3g}\n")
        buf.write(f"# max_closure_run={self.max_closure_run}\n")
        return buf.getvalue()


def invariant_curve_scan(oval, n, m=1, samples=256, closure_tol=1e-8,
                         alpha_lo=0.0, alpha_hi=TWO_PI):
    """Sweep the first angle, close the remaining vertices variationally,
    and record the leftover closure residual at the first vertex.

    A table with an invariant curve of (n, m)-periodic points yields residuals
    below `closure_tol` for every first angle; generically the residual curve
    has isolated zeros.  All samples are solved together as pinned rows of
    `_newton`; a row passes when it converges or stops at the round-off floor
    of its gradient.  The first pass seeds every sample from equal gaps.
    Each later pass marches outward (natural-parameter continuation): it
    seeds every unsolved sample next to one that the previous pass solved,
    and the scan ends when a pass solves nothing.  Each solved neighbour
    predicts the sample's angles relative to its first: its own, or, when
    the sample beyond it is solved too, the secant through both
    (2 r(near) - r(far)).  The seed is the mean of the two sides'
    predictions, shifted to the sample's own first angle.  The first and
    last samples are not neighbours, so a window is scanned as an interval.
    Samples that no pass solves are reported as NaN.  ConfigError unless
    `closure_tol` is finite and positive and -inf < alpha_lo < alpha_hi < inf.
    """
    n, m = _check_period(n, m)
    samples = checked_count(samples, "samples", 1)
    if not 0.0 < closure_tol < math.inf:
        raise ConfigError(f"closure_tol = {closure_tol!r} is not finite and positive")
    if not -math.inf < alpha_lo < alpha_hi < math.inf:
        raise ConfigError(f"scan window [{alpha_lo}, {alpha_hi}) must be finite and non-empty")
    alphas = np.linspace(alpha_lo, alpha_hi, samples, endpoint=False)
    orbit_angles = np.full((samples, n), np.nan)
    residuals = np.full(samples, np.nan)
    seeds = alphas[:, None] + TWO_PI * m * np.arange(n) / n
    # angles relative to the first, NaN where unsolved and on two rows of
    # padding at each end: sample k is row k + 2, its neighbours are rows
    # k + 1 and k + 3, and the samples beyond them rows k and k + 4
    rel = np.full((samples + 4, n), np.nan)
    todo = np.arange(samples)
    while todo.size:
        angles, g, reason = _newton(oval, seeds[todo], m, 1e-12, 40)
        ok = (reason == "converged") | (reason == "floor")
        new = todo[ok]
        orbit_angles[new], residuals[new] = angles[ok], g[ok, 0]
        rel[new + 2] = angles[ok] - angles[ok, :1]
        todo = np.intersect1d(np.r_[new - 1, new + 1], np.flatnonzero(np.isnan(residuals)))
        one, two = rel[[todo + 1, todo + 3]], rel[[todo, todo + 4]]
        pred = np.where(np.isnan(two), one, 2.0 * one - two)
        seeds[todo] = np.nanmean(pred, axis=0) + alphas[todo, None]
    return ScanReport(
        n=n, m=m, alpha1=alphas, residual=residuals, closure_tol=closure_tol,
        orbit_angles=orbit_angles,
    )


def rotation_number(oval, state, iters=256):
    """Mean angular advance per step over `iters` steps (summed in order, not
    telescoped) over 2*pi, along one orbit or each orbit of a chord of arrays."""
    iters = checked_count(iters, "iters", 1)
    alphas = billiard.iterate(oval, state.alpha1, state.alpha2, iters - 1)
    return np.cumsum(np.diff(alphas, axis=0), axis=0)[-1] / (iters * TWO_PI)
