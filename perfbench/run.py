"""smctune benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is issued only after the previous one has finished. The run
imports smctune from ``src/`` of the checkout that holds this directory,
repeats the workload's set-up, then runs whole rounds of operations until
``--seconds`` have passed, checking every output. It prints a readable
report of every metric and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the metrics that
BENCHMARK.json lists as end-to-end (``--trace 0``) or per-layer
(``--trace 1``). See README.md.
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# Every workload is single-threaded; cap BLAS below the sandbox's 2 cores so
# a library thread pool cannot contend with the measured thread.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def p50(samples):
    """Median seconds of one operation: the median of each kind of operation,
    averaged over the kinds. The kinds run equally often but differ in cost,
    so a pooled median would sit on the edge between two kinds and jump."""
    kinds = sorted({s.kind for s in samples})
    return statistics.fmean(statistics.median(s.seconds for s in samples if s.kind == k)
                            for k in kinds)


def tail(values):
    """Highest percentile with at least ten samples beyond it, i.e. the 11th
    largest value, and its label. Below 21 samples that percentile would not
    exceed the median, so the maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import sys; "
                "sys.path.insert(0, {src!r}); import smctune, smctune.cli; "
                "print(time.perf_counter() - t0)")


def import_seconds(first):
    """Median import time over this process's own import (``first``) and
    fresh interpreters importing the same sources."""
    samples = [first]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(src=str(SRC))],
                              capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def git_commit():
    """Commit of the checkout, read from .git without running git; None
    outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the program's sources, which identifies the code measured
    also where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "smctune").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json", ".csv"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_record(args):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS, "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


class Sample:
    __slots__ = ("kind", "seconds", "traced", "work")

    def __init__(self, kind, seconds, traced, work):
        self.kind, self.seconds, self.traced, self.work = kind, seconds, traced, work


def run_ops(workload, state, seconds, tracer):
    """Whole rounds until ``seconds`` have passed. With a tracer, rounds
    alternate untraced and traced, so the run measures its own overhead."""
    from workloads import CheckFailed
    samples, attempted, failed = [], 0, 0
    rounds, begin = 0, time.perf_counter()
    min_rounds = 2 if tracer is not None else 1
    while rounds < min_rounds or time.perf_counter() - begin < seconds:
        traced = tracer is not None and rounds % 2 == 1
        for op in workload.round(state, rounds):
            attempted += 1
            recording = tracer.recording("op") if traced else contextlib.nullcontext()
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    with recording:
                        t0 = time.perf_counter()
                        output = op.run()
                        elapsed = time.perf_counter() - t0
                work = op.check(output)
            except CheckFailed as exc:
                failed += 1
                print(f"check failed: {op.kind}: {exc}", file=sys.stderr)
                continue
            except Exception:
                failed += 1
                print(f"operation failed: {op.kind}\n{traceback.format_exc()}"
                      f"{sink.getvalue()}", file=sys.stderr)
                continue
            samples.append(Sample(op.kind, elapsed, traced, work))
        rounds += 1
    return samples, attempted, failed


def work_total(samples, key):
    return sum(s.work.get(key, 0) for s in samples)


def end_to_end(workload, samples, setup_s):
    times = [s.seconds for s in samples]
    unit_key = "grid_points" if workload.name.startswith("tune") else "rk4_steps"
    tail_value, tail_label = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (p50(samples), "s"),
        "op_s_tail": (tail_value, "s"),
        f"{unit_key}_per_s": (work_total(samples, unit_key) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"op_s_tail": tail_label, "op_s_p50": f"{len(times)} ops",
             f"{unit_key}_per_s": "per busy second"}
    return metrics, notes


def per_layer(tracer, samples, setups):
    from tracer import SpanStats
    traced = [s for s in samples if s.traced]
    untraced = [s for s in samples if not s.traced]
    ops = SpanStats(tracer, "op")
    setup = SpanStats(tracer, "setup")
    n = len(traced)

    def per_op(value):
        return value / n

    grid = work_total(traced, "grid_points")
    survivors = work_total(traced, "survivors")
    steps = work_total(traced, "rk4_steps")
    simulate_s = ops.seconds.get("sim.simulate", 0.0)
    traced_p50 = p50(traced)
    return {
        "smc.design_calls": (per_op(ops.calls.get("smc.design", 0)), "count"),
        "smc.design_s": (per_op(ops.seconds.get("smc.design", 0.0)), "s"),
        "smc.design_failed": (per_op(ops.failed.get("smc.design", 0)), "count"),
        "freqresp.zeros_calls": (per_op(ops.calls.get("freqresp.zeros", 0)), "count"),
        "freqresp.tf_builds": (per_op(ops.calls.get("freqresp.tf_build", 0)), "count"),
        "freqresp.band_calls": (per_op(ops.calls.get("freqresp.band", 0)), "count"),
        "freqresp.busy_s": (per_op(ops.layer_busy.get("freqresp", 0.0)), "s"),
        "tuning.tune_calls": (per_op(ops.calls.get("tuning.tune", 0)), "count"),
        "tuning.grid_points": (per_op(grid), "count"),
        "tuning.survivors": (per_op(survivors), "count"),
        "tuning.survivor_ratio": (survivors / grid if grid else 0.0, "ratio"),
        "tuning.self_s": (per_op(ops.layer_self.get("tuning", 0.0)), "s"),
        "sim.runs": (per_op(ops.calls.get("sim.simulate", 0)), "count"),
        "sim.rk4_steps": (per_op(steps), "count"),
        "sim.simulate_s": (per_op(simulate_s), "s"),
        "sim.us_per_step": (1e6 * simulate_s / steps if steps else 0.0, "us"),
        "sim.load_accelerogram_s": (per_op(ops.seconds.get("sim.load_accelerogram", 0.0)),
                                    "s"),
        "sim.summarize_s": (per_op(ops.seconds.get("sim.summarize", 0.0)), "s"),
        "sim.trace_write_s": (per_op(ops.seconds.get("sim.trace_write", 0.0)), "s"),
        "sim.trace_bytes": (per_op(work_total(traced, "trace_bytes")), "bytes"),
        "cli.output_write_s": (per_op(ops.seconds.get("cli.output_write", 0.0)), "s"),
        "cli.output_bytes": (per_op(work_total(traced, "output_bytes")), "bytes"),
        "cli.self_s": (per_op(ops.layer_self.get("cli", 0.0)), "s"),
        "lqr.solve_calls": (setup.calls.get("lqr.solve", 0) / setups, "count"),
        "lqr.solve_s": (setup.seconds.get("lqr.solve", 0.0) / setups, "s"),
        "structure.load_s": (setup.seconds.get("structure.load", 0.0) / setups, "s"),
        "trace.op_s_mean": (statistics.fmean(s.seconds for s in traced), "s"),
        "trace.op_s_p50": (traced_p50, "s"),
        "trace.overhead_s": (traced_p50 - p50(untraced), "s"),
        "trace.missing_names": (len(tracer.missing), "count"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "smctune" / "__init__.py").is_file():
        print(f"error: no smctune sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for name in BLAS_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import smctune
    if Path(smctune.__file__).resolve().parent != SRC / "smctune":
        print(f"error: imported smctune from {smctune.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    import_s, import_samples = import_seconds(time.perf_counter() - START)

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    prepare_times = []
    for _ in range(SETUP_REPEATS):
        recording = tracer.recording("setup") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with recording:
            state = workload.prepare(args.seed, work)
        prepare_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(prepare_times)

    samples, attempted, failed = run_ops(workload, state, args.seconds, tracer)
    record = run_record(args)
    record.update(import_s=import_samples, prepare_s=prepare_times, attempted=attempted,
                  failed=failed)
    if not samples or (tracer is not None and {s.traced for s in samples} != {False, True}):
        print("error: no operation succeeded (in one of the traced and untraced halves)",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    if tracer is None:
        metrics, notes = end_to_end(workload, samples, setup_s)
    else:
        metrics, notes = per_layer(tracer, samples, SETUP_REPEATS), {}
        record["missing_names"] = tracer.missing
        tracer.write_csv(work / f"spans-seed{args.seed}.csv")

    kinds = sorted({s.kind for s in samples})
    record["op_s_p50_by_kind"] = {
        k: statistics.median(s.seconds for s in samples if s.kind == k and not s.traced)
        for k in kinds if any(s.kind == k and not s.traced for s in samples)}
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    record["samples"] = [[s.kind, s.seconds, s.traced] for s in samples]
    (work / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"nproc {record['nproc']}  python {record['python']}  numpy {record['numpy']}  "
          f"scipy {record['scipy']}  blas_threads {BLAS_THREADS}")
    print(f"cpu {record['cpu_model']}  commit {record['git_commit']}  "
          f"source {record['source_sha256'][:12]}")
    for name, (value, unit) in metrics.items():
        note = [notes[name]] if name in notes else []
        if name not in gated:
            note.append("reported, not in BENCHMARK.json")
        note = f"  ({'; '.join(note)})" if note else ""
        print(f"  {name:<26} {value:>14.6g} {unit}{note}")
    print(f"  {'ops_attempted':<26} {attempted:>14d}")
    print(f"  {'ops_failed':<26} {failed:>14d}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name in gated}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
