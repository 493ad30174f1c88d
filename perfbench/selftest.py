"""Self-test of the benchmark: run each workload briefly and check its output.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, and a traced run every per-layer
metric, and that no op fails; that two traced runs of one seed give the same
inputs, the same known-defect tally and the same exact counts; and that
another seed changes the
inputs but not the metric names.  It also checks that the benchmark exits
with an error, printing no result, in a directory without the program.
Takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

#: per-layer metrics that are counts or ratios of counts, so must repeat exactly
EXACT = (
    "oval.calls_per_op", "oval.points_per_op", "solve.calls_per_op",
    "solve.fn_evals_per_op", "solve.fail", "genfun.calls_per_op",
    "oval.tangent_angles_from.fail", "billiard.step.fail", "billiard.cartesian_step.fail",
    "billiard.step_angles_arr.nan_frac", "periodic.scan.newton_iters_per_sample",
    "periodic.scan.grad_evals_per_sample", "periodic.scan.nan_frac",
    "periodic.find_periodic.newton_iters", "periodic.find_periodic.fail",
    "forge.from_f.solver_calls",
)


def run(workload, seed, trace, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2].removeprefix("details "))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, details
    assert result["attempted"] >= 1
    assert result["failed"] == 0, details
    return result, details


def check_names(result, spec):
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, (sorted(set(got) ^ set(expected)), got)
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and value == value, (name, value)


def check_workload(name):
    result, _ = parse(run(name, 1, 0))
    check_names(result, BENCH["end_to_end"])
    first, d1 = parse(run(name, 1, 1))
    second, d2 = parse(run(name, 1, 1))
    other, d3 = parse(run(name, 2, 1))
    for res in (first, second, other):
        check_names(res, BENCH["per_layer"])
    assert d1["inputs"] == d2["inputs"], "same seed, different inputs"
    assert d1.get("known_defects") == d2.get("known_defects"), (d1, d2)
    for key in EXACT:
        a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
        assert a == b, f"{key}: {a} != {b} for one seed"
    assert d3["inputs"] != d1["inputs"], "another seed gave the same inputs"
    print(f"ok {name}: known defects {d1.get('known_defects')}, "
          f"oval.points_per_op {first['metrics']['oval.points_per_op']['value']}")


def check_without_program():
    with tempfile.TemporaryDirectory(dir=HERE / "work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("work", "traces", "__pycache__"))
        proc = run(BENCH["workloads"][0]["name"], 1, 0, cwd=tmp)
    assert proc.returncode != 0, "ran without the program"
    assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok: exits with code", proc.returncode, "where the program is missing")


def main(names):
    (HERE / "work").mkdir(exist_ok=True)
    check_without_program()
    for name in names or [w["name"] for w in BENCH["workloads"]]:
        check_workload(name)
    print("selftest passed")


if __name__ == "__main__":
    main(sys.argv[1:])
