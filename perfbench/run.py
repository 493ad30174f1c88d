"""Outside-in benchmark of `outerlength`: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.  One client issues the ops
of a round one after another and repeats whole rounds until `--seconds`
have passed and there are enough ops for the tail percentile.  BLAS runs on
one thread and no pools are used.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced pass (see `spans.py`) and the tracing overhead.  The line before it
gives the details: rounds, tail percentile and sample count, failures by
reason and by slice of the input mix, the set-up samples and a digest of
the generated inputs.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"

#: set-up runs per measurement: this process plus SETUP_REPEATS - 1 children
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60


def import_workloads():
    """Import `outerlength` from the checkout's `src/` and the workload module."""
    if not (SRC / "outerlength" / "__init__.py").is_file():
        raise ImportError(f"no outerlength package under {SRC}")
    sys.path.insert(0, str(SRC))
    import outerlength

    if Path(outerlength.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"outerlength imported from {outerlength.__file__}, not {SRC}")
    import workloads

    return workloads


class StageClock:
    """Times a set-up stage by stage.  Each stage's time is also divided by
    the mean of the reference timings just before and just after it, and
    these costs are summed; the reference timings are left out of both."""

    def __init__(self):
        self.seconds = self.cost = 0.0
        self._ref = reference_median_s()
        self._t0 = time.perf_counter()

    def mark(self):
        dt = time.perf_counter() - self._t0
        ref = reference_median_s()
        self.seconds += dt
        self.cost += dt / (0.5 * (self._ref + ref))
        self._ref = ref
        self._t0 = time.perf_counter()


def set_up(name, seed):
    """Import the program and build the workload; returns (module, session,
    seconds, cost in references)."""
    clock = StageClock()
    wl = import_workloads()
    if name not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(wl.WORKLOADS)}")
    clock.mark()
    session = wl.WORKLOADS[name][0](seed, clock.mark)
    clock.mark()
    return wl, session, clock.seconds, clock.cost


def child_setup(name, seed):
    """(seconds, seconds / reference time) of a set-up in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    seconds, cost = proc.stdout.split()[-2:]
    return float(seconds), float(cost)


#: the reference computation, timed between ops: a pure-Python loop and
#: NumPy work on a cache-resident array, like the mix in the program
REF_ITERS = 25_000
REF_ARRAY = 20_000
REF_REPEATS = 2
#: op time between two timings of the reference
REF_SPACING_S = 0.1
#: each time the reference is timed, the median of this many timings is taken
REF_SAMPLES = 3
#: the reference's median time on a 2-core x86-64 VM (Python 3.11, NumPy
#: on one thread); `setup_s` is a set-up's cost in references times this
REF_NOMINAL_S = 2.5e-3


def reference_s():
    """Seconds taken by the reference computation: how fast the host runs
    this process right now.  Other tenants of a shared host slow it and the
    ops alike, for stretches of seconds to minutes."""
    import numpy as np

    x = np.linspace(0.0, 6.0, REF_ARRAY)
    t0 = time.perf_counter()
    acc = 0
    for j in range(REF_ITERS):
        acc += j
    for _ in range(REF_REPEATS):
        acc += np.sin(x) @ np.cos(x)
    return time.perf_counter() - t0


def reference_median_s():
    return statistics.median(reference_s() for _ in range(REF_SAMPLES))


@dataclass
class Pass:
    """Timings of one pass.  `costs[i]` is `latencies[i]` divided by the mean
    of the reference timings taken just before and just after it."""

    latencies: list = field(default_factory=list)
    costs: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    passed: list = field(default_factory=list)
    rounds: int = 0
    refused: Counter = field(default_factory=Counter)
    wrong: Counter = field(default_factory=Counter)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def ok(self):
        return sum(self.passed)

    @property
    def failed(self):
        return self.attempted - self.ok

    def settle(self):
        """Time the reference and scale the timings taken since the last one."""
        self.refs.append(reference_median_s())
        scale = 0.5 * (self.refs[-2] + self.refs[-1])
        self.costs += [t / scale for t in self.latencies[len(self.costs):]]


def timed_pass(wl, ops, seconds=0.0, min_timings=1, rounds=None, rec=None):
    """Repeat whole rounds of ops; stop after `rounds` rounds, or once both
    `seconds` and `min_timings` are reached.  Only `run()` is timed; the
    checks are not."""
    res = Pass(refs=[reference_median_s()])
    clock = time.perf_counter
    start = clock()
    since_ref = 0.0
    while True:
        for run, check in ops:
            if rec is not None:
                rec.op = res.attempted
            t0 = clock()
            try:
                out, verdict = run(), None
            except wl.OuterLengthError as exc:
                out, verdict = None, exc
            except Exception as exc:  # an untyped crash is a wrong result
                traceback.print_exc(file=sys.stderr)
                out, verdict = None, "crash-" + type(exc).__name__
            dt = clock() - t0
            if rec is not None:
                rec.op = -1
            res.latencies.append(dt)
            since_ref += dt
            if since_ref >= REF_SPACING_S:
                res.settle()
                since_ref = 0.0
            if verdict is None:
                verdict = check(out)
            res.passed.append(verdict is None)
            if isinstance(verdict, wl.OuterLengthError):
                res.refused[getattr(verdict, "reason", type(verdict).__name__)] += 1
            elif verdict is not None:
                res.wrong[verdict] += 1
        res.rounds += 1
        if rounds is not None:
            if res.rounds >= rounds:
                break
        elif clock() - start >= seconds and res.attempted >= min_timings:
            break
    if len(res.costs) < res.attempted:
        res.settle()
    return res


def _metric(value, unit):
    return {"value": value, "unit": unit}


def by_slice(res, slices):
    """Attempts, fail fraction and median cost of each slice of the input mix."""
    out = {}
    for name in dict.fromkeys(slices):
        idx = [i for i in range(res.attempted) if slices[i % len(slices)] == name]
        out[name] = {
            "attempted": len(idx),
            "fail_frac": 1.0 - sum(res.passed[i] for i in idx) / len(idx),
            "op_p50_ref": statistics.median(res.costs[i] for i in idx),
        }
    return out


def end_to_end(args, wl, session, setup):
    tail_pct = wl.WORKLOADS[args.workload][1]
    min_timings = math.ceil(10.0 / (1.0 - tail_pct / 100.0))
    setups = [setup] + [child_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
    res = timed_pass(wl, session.ops, seconds=args.seconds, min_timings=min_timings)

    def tail(xs):
        return statistics.quantiles(xs, n=100, method="inclusive")[round(tail_pct) - 1]

    cost, lat = sorted(res.costs), sorted(res.latencies)
    cost_tail = tail(cost)
    metrics = {
        "ops_per_ref": _metric(res.ok / sum(cost), "1/ref"),
        "op_p50_ref": _metric(statistics.median(cost), "ref"),
        "op_tail_ref": _metric(cost_tail, "ref"),
        "setup_s": _metric(REF_NOMINAL_S * statistics.median(c for _, c in setups), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "tail_pct": tail_pct,
        "tail_samples_beyond": sum(x > cost_tail for x in cost),
        "setup_samples_s": [s for s, _ in setups],
        "setup_samples_ref": [c for _, c in setups],
        "ref_ms": 1e3 * statistics.median(res.refs),
        "ops_per_s": res.ok / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail(lat),
    }
    if session.slices:
        details["slices"] = by_slice(res, session.slices)
    return res, metrics, details


def traced(args, wl, session):
    import spans

    untraced = timed_pass(wl, session.ops, seconds=args.seconds / 2.0)
    details = {}
    if session.probes:
        probed = timed_pass(wl, session.probes, rounds=1)
        details["known_defects"] = {
            "attempted": probed.attempted, "failed": probed.failed,
            "refused": dict(probed.refused), "wrong": dict(probed.wrong),
        }
    rec = spans.Recorder()
    spans.install(rec)
    traced_session = wl.WORKLOADS[args.workload][0](args.seed)
    try:
        res = timed_pass(wl, traced_session.ops, rounds=untraced.rounds, rec=rec)
    finally:
        traced_session.close()
    values = spans.layer_metrics(rec, res.attempted)
    values["trace.overhead_frac"] = sum(res.costs) / sum(untraced.costs) - 1.0
    TRACE_DIR.mkdir(exist_ok=True)
    span_file = TRACE_DIR / f"{args.workload}-seed{args.seed}.npz"
    rec.save(span_file)
    metrics = {k: _metric(v, spans.UNITS[k]) for k, v in values.items()}
    details.update(spans=len(rec.t0), span_file=str(span_file.relative_to(HERE.parent)))
    return res, metrics, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # before numpy is imported, and inherited by the set-up children
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        wl, session, *setup = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    try:
        if args.setup_only:
            print(*map(repr, setup))
            return 0
        if args.trace:
            res, metrics, details = traced(args, wl, session)
        else:
            res, metrics, details = end_to_end(args, wl, session, tuple(setup))
    finally:
        session.close()
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": session.digest, "rounds": res.rounds, "attempted": res.attempted,
        "fail_frac": res.failed / res.attempted, "refused": dict(res.refused),
        "wrong": dict(res.wrong), **details,
    }
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": not res.wrong,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
