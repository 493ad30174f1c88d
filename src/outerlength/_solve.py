"""The package's one scalar root finder, vectorised over brackets.

Every 1-D inversion in the package (the map's reflection rule, its inverse in
phase coordinates, the tangency angles, the reparameterizations of the table
constructors) is a root of a function with a known sign-change bracket.
`bracketed_root` solves a whole array of them at once by safeguarded Newton
steps, from a predicted `start` when the caller has one inside the bracket
(the map step passes its exact image on the circle), else from the
bracket's midpoint.

A caller that found its brackets by a sign scan passes f at their ends
(`ends`), so the solver's first evaluation is its first Newton step; a
caller without them (the map step's guarded gap bracket) lets the solver
evaluate both ends, which is also its check that the bracket holds a root.

A call with at most `_SMALL` brackets (a scalar step, the tangency cells of
a few points) solves them one by one in plain floats, below the fixed cost
of the array loop's numpy calls on a few entries.  Both branches apply the
same rules in the same order, so an entry gets the same root either way as
long as fdf gives the same values on floats as on arrays.

The banded solves of the spline (`oval`) and of the Newton steps
(`periodic`) take LAPACK's `dgbtrf`, `dgbtrs` and `dgesv` from here: scipy's
`_flapack` extension, loaded once by its file path so that importing the
package does not run `scipy.linalg`'s package `__init__`.  They are the
objects `scipy.linalg.lapack` exports, so they round the same.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

#: a solve ends once its last step, Newton or bisection, is below this
#: (plus a few rounding units of the iterate, so large angles also stop)
_XTOL = 1e-12
#: an entry still unsolved after this many steps comes back as NaN; a
#: bracket of width pi needs about 42 halvings to reach _XTOL
_MAX_ITER = 100
#: working sets up to this size go entry by entry in plain floats, here and
#: in the spline support function's jet
_SMALL = 8
#: the module name scipy gives its LAPACK wrappers
_FLAPACK = "scipy.linalg._flapack"


def _flapack_path():
    """The file of scipy's `_flapack` extension, or None if none is found."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, "linalg", "_flapack" + suffix)
            if path.is_file():
                return path
    return None


def _load_lapack():
    """scipy's `_flapack` module: the one already imported, else loaded from
    its file and entered in `sys.modules`, so that a later `scipy.linalg`
    import reuses it; `scipy.linalg.lapack`'s routines if no file is found."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        path = _flapack_path()
        if path is None:
            from scipy.linalg import lapack as module
        else:
            spec = importlib.util.spec_from_file_location(_FLAPACK, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[_FLAPACK] = module
            spec.loader.exec_module(module)
    return module


_LAPACK = _load_lapack()
dgbtrf, dgbtrs, dgesv = _LAPACK.dgbtrf, _LAPACK.dgbtrs, _LAPACK.dgesv


def _float_root(fdf, lo, hi, start, flo, fhi, params):
    """One bracket of `bracketed_root` in plain floats, step for step the
    array loop's rules; `flo`, `fhi` are f at the ends, or None to evaluate them."""
    if flo is None:
        flo, fhi = fdf(lo, *params)[0], fdf(hi, *params)[0]
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not flo * fhi < 0.0:
        return math.nan
    a, b, sign = lo, hi, math.copysign(1.0, fhi)
    # a NaN start compares false and falls back to the midpoint
    x = start if a < start < b else 0.5 * (a + b)
    step = b - a
    for _ in range(_MAX_ITER):
        f, df = fdf(x, *params)
        if sign * f < 0.0:
            a = x
        elif sign * f > 0.0:
            b = x
        # the array loop's f / df is inf or NaN here, never inside [a, b]
        newton = x - f / df if df else math.nan
        if a <= newton <= b and 2.0 * abs(f) <= abs(step * df):
            step = abs(newton - x)
            x = newton
        else:
            x = 0.5 * (a + b)
            step = 0.5 * (b - a)
        if step <= _XTOL + 4.0 * math.ulp(abs(x)):
            return x
    return math.nan


def _solve_floats(fdf, values, given):
    """The root of one entry (lo, hi, start, *ends, *params) in plain floats;
    `given` says whether the entry holds the two end values."""
    lo, hi, start, *rest = map(float, values)
    if given:
        return _float_root(fdf, lo, hi, start, rest[0], rest[1], rest[2:])
    return _float_root(fdf, lo, hi, start, None, None, rest)


def bracketed_root(fdf, lo, hi, *params, start=None, ends=None):
    """Roots of f on the brackets [lo, hi], elementwise.

    `fdf(x, *params)` returns (f, f') at an array of points; `params` are
    arrays broadcast against lo and hi, handed to fdf cut down to the entries
    still being solved.  `ends` = (f(lo), f(hi)), broadcast like lo and hi,
    are the values of f at the ends when the caller already has them (from
    the scan that found the brackets); without them fdf is called at both
    ends first.  Each entry takes Newton steps from `start` when
    inside the bracket, else from the midpoint: `start` (broadcast like the
    params) is used where lo < start < hi, so no start, a NaN one or one on
    or past an edge gives the midpoint.  An entry bisects instead when
    a step would leave the bracket or shrinks by less than half, and leaves
    the working set once its last step is below `_XTOL`.  The result has the
    broadcast shape of the inputs; it is an endpoint where f vanishes there
    and NaN where f has no sign change on the bracket, by the end values
    given or evaluated alike.

    With at most `_SMALL` brackets each is solved on its own in plain
    floats: fdf then receives floats, not arrays, and must return (f, f')
    equal to its array values.  The rules above, `_XTOL` and `_MAX_ITER`
    are the same on both branches.  A call whose inputs are all floats or
    0-d arrays goes straight to that loop and returns a float.
    """
    # no start: the lower edge, which gives the midpoint and, unlike a NaN,
    # needs no broadcast of its own
    start = lo if start is None else start
    given = ends is not None
    entry = (lo, hi, start, *ends, *params) if given else (lo, hi, start, *params)
    if all(isinstance(v, float) or (isinstance(v, np.ndarray) and not v.shape) for v in entry):
        return _solve_floats(fdf, entry, given)
    entry = [np.asarray(v, dtype=float) for v in entry]
    both = np.broadcast(*entry)
    if both.size <= _SMALL:
        # one tuple of numpy scalars per entry, in C order
        root = [_solve_floats(fdf, values, given) for values in both]
        return np.array(root, dtype=float).reshape(both.shape)[()]
    lo, hi, start, *params = (v.ravel() for v in np.broadcast_arrays(*entry))
    shape = both.shape
    if given:
        flo, fhi, *params = params
    else:
        both = [np.concatenate([p, p]) for p in params]
        flo, fhi = np.split(np.asarray(fdf(np.concatenate([lo, hi]), *both)[0]), 2)
    root = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, np.nan))

    act = np.flatnonzero(flo * fhi < 0.0)
    a, b, sign = lo[act], hi[act], np.sign(fhi[act])
    params = [p[act] for p in params]
    start = start[act]
    x = np.where((a < start) & (start < b), start, 0.5 * (a + b))
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
