"""Smoke test of the benchmark: every workload at its smallest size.

    python3 perfbench/smoke.py

Runs each workload for one round untraced and two rounds traced, and fails
unless the run exits 0, its last line reports ``failed == 0``, every metric
BENCHMARK.json names for that mode is present with its unit, and the
untraced report prints the ungated metrics too. It also checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Runnable by name but left out of BENCHMARK.json to fit the run budget.
EXTRA_WORKLOADS = ("tune-wide",)
# Printed in the report but not gated; "_per_s" is grid points or RK4 steps.
REPORTED = ("op_s_p50", "_per_s", "ops_attempted", "ops_failed")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", workload, "--seed", "1",
            "--seconds", "0.001", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("failed") != 0 or not result.get("correct"):
        errors.append(f"{where}: failed={result.get('failed')}\n{done.stderr}")
    if not trace:
        for name in REPORTED:
            if name not in done.stdout:
                errors.append(f"{where}: report lacks {name}")
    for metric in SPEC["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            errors.append(f"{where}: metric {metric['name']} missing or not in "
                          f"{metric['unit']}: {got}")
    return errors


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail, printing no result."""
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("_work", "__pycache__"))
        done = run(bare, SPEC["workloads"][0]["name"], 0)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    (HERE / "_work").mkdir(exist_ok=True)
    errors = check_bare_directory()
    for workload in [w["name"] for w in SPEC["workloads"]] + list(EXTRA_WORKLOADS):
        for trace in (0, 1):
            found = check_workload(workload, trace)
            print(f"{workload:<14} trace {trace}: {'FAIL' if found else 'ok'}")
            errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
