"""The package's one scalar root finder, vectorised over brackets.

Every 1-D inversion in the package (the map's reflection rule, its inverse in
phase coordinates, the tangency angles, the reparameterizations of the table
constructors) is a root of a function with a known sign-change bracket.
`bracketed_root` solves a whole array of them at once by safeguarded Newton
steps; `sign_cells` finds the brackets of a function sampled on a grid.
"""

from __future__ import annotations

import numpy as np

#: a solve ends once its last step, Newton or bisection, is below this
#: (plus a few rounding units of the iterate, so large angles also stop)
_XTOL = 1e-12
#: an entry still unsolved after this many steps comes back as NaN; a
#: bracket of width pi needs about 42 halvings to reach _XTOL
_MAX_ITER = 100


def sign_cells(fn, grid):
    """Brackets (lo, hi) of the grid cells that hold a root of fn.

    A cell holds a root when fn changes sign across it or vanishes at its
    left node (at either node for the last cell).  fn must accept an ndarray.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(fn(grid))
    hit = (vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)
    hit[-1] |= vals[-1] == 0.0
    idx = np.flatnonzero(hit)
    return grid[idx], grid[idx + 1]


def bracketed_root(fdf, lo, hi, *params):
    """Roots of f on the brackets [lo, hi], elementwise.

    `fdf(x, *params)` returns (f, f') at an array of points; `params` are
    arrays broadcast against lo and hi, handed to fdf cut down to the entries
    still being solved.  Each entry takes Newton steps from the bracket's
    midpoint and bisects instead when a step would leave the bracket or
    shrinks by less than half.  An entry leaves the working set once its last
    step is below `_XTOL`.  The result has the broadcast shape of the inputs;
    it is an endpoint where f vanishes there and NaN where f has no sign
    change on the bracket.
    """
    lo, hi, *params = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (lo, hi, *params))
    )
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    params = [p.ravel() for p in params]
    both = [np.concatenate([p, p]) for p in params]
    flo, fhi = np.split(np.asarray(fdf(np.concatenate([lo, hi]), *both)[0]), 2)
    root = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, np.nan))

    act = np.flatnonzero(flo * fhi < 0.0)
    a, b, sign = lo[act], hi[act], np.sign(fhi[act])
    params = [p[act] for p in params]
    x = 0.5 * (a + b)
    step = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_ITER):
            if not act.size:
                break
            f, df = fdf(x, *params)
            a = np.where(sign * f < 0.0, x, a)
            b = np.where(sign * f > 0.0, x, b)
            newton = x - f / df
            ok = (a <= newton) & (newton <= b) & (2.0 * np.abs(f) <= np.abs(step * df))
            nxt = np.where(ok, newton, 0.5 * (a + b))
            step = np.where(ok, np.abs(newton - x), 0.5 * (b - a))
            x = nxt
            done = step <= _XTOL + 4.0 * np.spacing(np.abs(x))
            root[act[done]] = x[done]
            act, a, b, sign, x, step, *params = (
                v[~done] for v in (act, a, b, sign, x, step, *params)
            )
    return root.reshape(shape)[()]
