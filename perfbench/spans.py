"""Span recorder and outside-in instrumentation of the `outerlength` layers.

The traced run replaces the public functions of every package module, the
public methods of `SupportOval`, each table's representation object and the
dense solves of `periodic` with wrappers that record one span per call:
name, parent span, op id, start, end, a work count and a failure flag.
Nothing in `src/` is edited; all wrapping happens here, at run time.

Spans live in flat arrays while the run goes on and are written to an
`.npz` file when it ends.  A span's self time is its duration minus the
durations of its direct children; a layer's self time is the sum over the
spans whose name starts with that layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

#: package module -> layer name used in span and metric names
LAYERS = {
    "oval": "oval",
    "_solve": "solve",
    "genfun": "genfun",
    "billiard": "billiard",
    "periodic": "periodic",
    "forge": "forge",
    "polygons": "polygons",
    "render": "render",
    "cli": "cli",
}

#: spans whose descendants are attributed to them by `_context`
CONTEXTS = ("periodic.invariant_curve_scan", "periodic.find_periodic", "forge.from_f")

CLI_COMMANDS = {
    "cmd_forge": "forge",
    "cmd_verify": "verify",
    "cmd_scan": "scan",
    "cmd_find_periodic": "find-periodic",
    "cmd_iterate": "iterate",
    "cmd_render": "render",
}


#: per-layer metric -> unit; every metric is better when lower
UNITS = {
    "oval.calls_per_op": "count",
    "oval.points_per_op": "count",
    "oval.self_ms_per_op": "ms",
    "oval.tangent_angles_from.ms": "ms",
    "oval.tangent_angles_from.fail": "ratio",
    "oval.validate.ms": "ms",
    "solve.calls_per_op": "count",
    "solve.fn_evals_per_op": "count",
    "solve.self_ms_per_op": "ms",
    "solve.fail": "ratio",
    "genfun.calls_per_op": "count",
    "genfun.self_ms_per_op": "ms",
    "billiard.self_ms_per_op": "ms",
    "billiard.step.ms": "ms",
    "billiard.step.fail": "ratio",
    "billiard.cartesian_step.ms": "ms",
    "billiard.cartesian_step.fail": "ratio",
    "billiard.step_angles_arr.us_per_chord": "us",
    "billiard.step_angles_arr.nan_frac": "ratio",
    "billiard.twist_report.ms": "ms",
    "periodic.self_ms_per_op": "ms",
    "periodic.invariant_curve_scan.ms_per_sample": "ms",
    "periodic.scan.newton_iters_per_sample": "count",
    "periodic.scan.grad_evals_per_sample": "count",
    "periodic.scan.nan_frac": "ratio",
    "periodic.find_periodic.ms": "ms",
    "periodic.find_periodic.newton_iters": "count",
    "periodic.find_periodic.fail": "ratio",
    "periodic.linalg_ms_per_op": "ms",
    "periodic.action_hessian.self_ms_per_op": "ms",
    "forge.self_ms_per_op": "ms",
    "forge.from_f.ms": "ms",
    "forge.from_f.solver_calls": "count",
    "forge.radon_like.ms": "ms",
    "polygons.self_ms_per_op": "ms",
    "render.self_ms_per_op": "ms",
    "render.save_svg.ms": "ms",
    "cli.self_ms_per_op": "ms",
    **{f"cli.{cmd}.ms": "ms" for cmd in CLI_COMMANDS.values()},
    "trace.overhead_frac": "ratio",
}


class Recorder:
    """In-memory span store; `op` is the id stamped on new spans (-1 = set-up)."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.n = array("q")
        self.bad = array("q")
        self.err = array("b")
        self.stack = [-1]
        self.op = -1

    def name_id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, fn, name, measure=None, count_callables=False):
        """Return fn wrapped in a span.  `measure(args, out) -> (n, bad)`
        fills the work count; with `count_callables`, every callable argument
        is wrapped so that each of its evaluations adds one to the count."""
        nid = self.name_id(name)
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            i = len(rec.t0)
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1])
            rec.op_id.append(rec.op)
            rec.n.append(0)
            rec.bad.append(0)
            rec.err.append(0)
            rec.t1.append(0.0)
            if count_callables:
                args = tuple(_counted(a, rec, i) if callable(a) else a for a in args)
                kw = {k: _counted(v, rec, i) if callable(v) else v for k, v in kw.items()}
            rec.stack.append(i)
            rec.t0.append(clock())
            try:
                out = fn(*args, **kw)
            except BaseException:
                rec.t1[i] = clock()
                rec.err[i] = 1
                raise
            finally:
                rec.stack.pop()
            rec.t1[i] = clock()
            if measure is not None:
                rec.n[i], rec.bad[i] = measure(args, out)
            return out

        return wrapper

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op_id, dtype=np.int32),
            "t0": np.frombuffer(self.t0, dtype=np.float64),
            "t1": np.frombuffer(self.t1, dtype=np.float64),
            "n": np.frombuffer(self.n, dtype=np.int64),
            "bad": np.frombuffer(self.bad, dtype=np.int64),
            "err": np.frombuffer(self.err, dtype=np.int8),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _counted(fn, rec, i):
    def counted(*args, **kw):
        rec.n[i] += 1
        return fn(*args, **kw)

    return counted


# -- work counts -------------------------------------------------------------


def _points(args, out):
    """Angles passed to a representation method (the largest array argument)."""
    sizes = [np.size(a) for a in args if isinstance(a, (float, int, np.ndarray, np.number))]
    return (max(sizes) if sizes else 0), 0


def _chords_nan(args, out):
    return int(np.size(args[1])), int(np.count_nonzero(np.isnan(out)))


def _scan_samples(args, out):
    return int(len(out.alpha1)), int(np.count_nonzero(~np.isfinite(out.residual)))


MEASURES = {
    "billiard.step_angles_arr": _chords_nan,
    "periodic.invariant_curve_scan": _scan_samples,
}


class _CountingRep:
    """Stand-in for a table's representation: every method call is a span
    named `oval.rep.<method>` whose work count is the number of angles."""

    def __init__(self, rep, rec):
        self._inner = rep
        self._rec = rec

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if callable(attr) and not name.startswith("__"):
            attr = self._rec.wrap(attr, "oval.rep." + name, measure=_points)
            setattr(self, name, attr)
        return attr


class _Forwarding:
    """Attribute-forwarding stand-in for a module, with some names replaced."""

    def __init__(self, inner, **replaced):
        self._inner = inner
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        setattr(self, name, attr)
        return attr


def install(rec):
    """Wrap every layer of the imported `outerlength` package in spans."""
    import outerlength
    from outerlength.oval import SupportOval

    wrapped = {}

    def wrapper_for(fn):
        if fn not in wrapped:
            layer = LAYERS[fn.__module__.rsplit(".", 1)[-1]]
            name = layer + "." + CLI_COMMANDS.get(fn.__name__, fn.__name__)
            wrapped[fn] = rec.wrap(
                fn, name, measure=MEASURES.get(name), count_callables=layer == "solve"
            )
        return wrapped[fn]

    def is_layer_function(obj):
        return (
            inspect.isfunction(obj)
            and obj.__module__.startswith("outerlength.")
            and obj.__module__.rsplit(".", 1)[-1] in LAYERS
        )

    modules = [importlib.import_module("outerlength." + m) for m in LAYERS]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if not attr.startswith("_") and is_layer_function(obj):
                setattr(mod, attr, wrapper_for(obj))
    for attr, obj in list(vars(outerlength).items()):
        if inspect.isfunction(obj) and obj in wrapped:
            setattr(outerlength, attr, wrapped[obj])

    for attr, obj in list(vars(SupportOval).items()):
        if attr.startswith("_"):
            continue
        name = "oval." + attr
        if inspect.isfunction(obj):
            setattr(SupportOval, attr, rec.wrap(obj, name))
        elif isinstance(obj, (classmethod, staticmethod)):
            setattr(SupportOval, attr, type(obj)(rec.wrap(obj.__func__, name)))

    init = SupportOval.__init__

    @functools.wraps(init)
    def counting_init(self, rep, *args, **kw):
        init(self, _CountingRep(rep, rec), *args, **kw)

    SupportOval.__init__ = counting_init

    periodic = importlib.import_module("outerlength.periodic")
    linalg = _Forwarding(
        np.linalg,
        solve=rec.wrap(np.linalg.solve, "periodic.linalg.solve"),
        lstsq=rec.wrap(np.linalg.lstsq, "periodic.linalg.lstsq"),
    )
    periodic.np = _Forwarding(np, linalg=linalg)


# -- per-layer metrics ---------------------------------------------------------


def _context(nid, parent, rec):
    """Index of the nearest enclosing CONTEXTS span of each span, or -1."""
    ctx_ids = {rec.ids[c] for c in CONTEXTS if c in rec.ids}
    ctx = [-1] * len(nid)
    for i, (name, par) in enumerate(zip(nid.tolist(), parent.tolist())):
        if name in ctx_ids:
            ctx[i] = i
        elif par >= 0:
            ctx[i] = ctx[par]
    return np.array(ctx, dtype=np.int64)


def layer_metrics(rec, ops):
    """Per-layer metrics over the spans stamped with an op id >= 0, except
    per-call `.ms` figures, which average over every call (set-up included)."""
    a = rec.arrays()
    nid = a["name"].astype(np.int64)
    dur = a["t1"] - a["t0"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    in_op = a["op"] >= 0
    ctx = _context(nid, a["parent"], rec)
    ctx_nid = np.where(ctx >= 0, nid[np.maximum(ctx, 0)], -1)
    ops = max(ops, 1)

    def sel(name):
        return nid == rec.ids.get(name, -1)

    def in_ctx(name):
        return ctx_nid == rec.ids.get(name, -1)

    def prefixed(prefix):
        ids = [i for i, n in enumerate(rec.names) if n.startswith(prefix)]
        return np.isin(nid, ids)

    def layer(name):
        return prefixed(name + ".")

    def mean_ms(name):
        m = sel(name)
        return 1e3 * float(dur[m].mean()) if m.any() else 0.0

    def fail(mask):
        return float(a["err"][mask].mean()) if mask.any() else 0.0

    def per(num, den):
        return float(num) / float(den) if den else 0.0

    out = {}
    rep = prefixed("oval.rep.") & in_op
    out["oval.calls_per_op"] = per(rep.sum(), ops)
    out["oval.points_per_op"] = per(a["n"][rep].sum(), ops)
    solve = layer("solve") & in_op
    out["solve.calls_per_op"] = per(solve.sum(), ops)
    out["solve.fn_evals_per_op"] = per(a["n"][solve].sum(), ops)
    out["solve.fail"] = fail(solve)
    gen = layer("genfun") & in_op
    out["genfun.calls_per_op"] = per(gen.sum(), ops)
    for lay in ("oval", "solve", "genfun", "billiard", "periodic", "forge",
                "polygons", "render", "cli"):
        out[f"{lay}.self_ms_per_op"] = 1e3 * float(self_t[layer(lay) & in_op].sum()) / ops

    for name in ("oval.tangent_angles_from", "billiard.step", "billiard.cartesian_step"):
        out[name + ".ms"] = mean_ms(name)
        out[name + ".fail"] = fail(sel(name))
    arr = sel("billiard.step_angles_arr")
    chords = a["n"][arr].sum()
    out["billiard.step_angles_arr.us_per_chord"] = 1e6 * per(dur[arr].sum(), chords)
    out["billiard.step_angles_arr.nan_frac"] = per(a["bad"][arr].sum(), chords)
    out["billiard.twist_report.ms"] = mean_ms("billiard.twist_report")

    scan = sel("periodic.invariant_curve_scan")
    samples = a["n"][scan].sum()
    in_scan = in_ctx("periodic.invariant_curve_scan")
    out["periodic.invariant_curve_scan.ms_per_sample"] = 1e3 * per(dur[scan].sum(), samples)
    out["periodic.scan.newton_iters_per_sample"] = per(
        (sel("periodic.action_hessian") & in_scan).sum(), samples)
    out["periodic.scan.grad_evals_per_sample"] = per(
        (sel("periodic.action_gradient") & in_scan).sum(), samples)
    out["periodic.scan.nan_frac"] = per(a["bad"][scan].sum(), samples)
    fp = sel("periodic.find_periodic")
    out["periodic.find_periodic.ms"] = mean_ms("periodic.find_periodic")
    out["periodic.find_periodic.newton_iters"] = per(
        (sel("periodic.action_hessian") & in_ctx("periodic.find_periodic")).sum(),
        fp.sum())
    out["periodic.find_periodic.fail"] = fail(fp)
    linalg = prefixed("periodic.linalg.") & in_op
    out["periodic.linalg_ms_per_op"] = 1e3 * float(dur[linalg].sum()) / ops
    out["periodic.action_hessian.self_ms_per_op"] = (
        1e3 * float(self_t[sel("periodic.action_hessian") & in_op].sum()) / ops)

    out["forge.from_f.ms"] = mean_ms("forge.from_f")
    out["forge.from_f.solver_calls"] = per(
        (layer("solve") & in_ctx("forge.from_f")).sum(), sel("forge.from_f").sum())
    out["forge.radon_like.ms"] = mean_ms("forge.radon_like")
    out["oval.validate.ms"] = mean_ms("oval.validate")
    out["render.save_svg.ms"] = mean_ms("render.save_svg")
    for cmd in CLI_COMMANDS.values():
        out[f"cli.{cmd}.ms"] = mean_ms("cli." + cmd)
    return out
