"""massimpute benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload simulate-paper --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` it times the workload's
set-up and then repeats its unit of work for ``--seconds`` seconds, checking
every output, and reports the end-to-end metrics.  With ``--trace 1`` it runs
the unit of work once untraced and once traced and reports per-layer metrics.
The last line of standard output is the JSON result; the lines before it
are for people.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("simulate-paper", "simulate-noboot", "release-build")
# One BLAS thread per process keeps every workload within the 2 cores
# the benchmark is sized for, and makes BLAS summation order fixed.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up repeats at least this often and for at least this long, so that a
# set-up of a few milliseconds still gets a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
STARTUP_REPEATS = 5


def prepare() -> None:
    """Pin BLAS threads and import massimpute from this checkout's src/."""
    if not (SRC / "massimpute" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no massimpute sources under {SRC}")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import massimpute

    if Path(massimpute.__file__).resolve().parent != SRC / "massimpute":
        raise SystemExit(f"perfbench: imported massimpute from {massimpute.__file__}")


def timed(workload, seconds: float) -> tuple[dict, dict, "Tally"]:
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    walls, tally = [], Tally()
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        t0 = perf_counter()
        out = workload.op()
        walls.append(perf_counter() - t0)
        tally.add(workload.check(out))
    # The mean, not the median: interference on a shared host alternates
    # between a fast and a slow state every few seconds, so a run's median
    # jumps between the two modes while the mean follows the share of time
    # spent in each.
    wall = statistics.fmean(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "peak_rss_mb": (workload.peak_rss_mib(), "MiB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    info = {
        **workload.rates(wall),
        "fail_rate": (tally.failed / tally.attempted, "ratio"),
        "ops": (len(walls), "count"),
        "wall_s_median": (statistics.median(walls), "s"),
        "setups": (len(setups), "count"),
    }
    return metrics, info, tally


def traced(workload, work: Path) -> tuple[dict, dict, "Tally"]:
    from workloads import run_child

    tally = Tally()
    workload.setup()
    t0 = perf_counter()
    first = workload.op()
    untraced_s = perf_counter() - t0
    tally.add(workload.check(first))

    span_dir = work / "spans"
    span_dir.mkdir()
    if workload.in_process:
        tracer = spans.Tracer()
        tracer.install()
        try:
            t0 = perf_counter()
            out = workload.op()
            traced_s = perf_counter() - t0
        finally:
            tracer.uninstall()
        spans.write_report(span_dir / "in-process.json", tracer)
    else:
        t0 = perf_counter()
        out = workload.op(span_dir)
        traced_s = perf_counter() - t0
    tally.add(workload.check(out))

    summary, counts = {}, {}
    for path in sorted(span_dir.glob("*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        spans.merge(summary, spans.summarize(doc["spans"]))
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value

    speedup = 0.0
    if workload.in_process:
        t0 = perf_counter()
        second = workload.op(threads=2)
        threads2_s = perf_counter() - t0
        tally.add(workload.check(second))
        differs = workload.same_report(first, second)
        tally.add((0, workload.config.reps if differs else 0, differs))
        speedup = untraced_s / threads2_s

    startups = []
    for _ in range(STARTUP_REPEATS):
        t0 = perf_counter()
        code, _ = run_child(["--version"], work)
        startups.append(perf_counter() - t0)
        tally.add((1, 1 if code else 0, [f"--version: exit {code}"] if code else []))

    metrics = layer_metrics(summary, counts)
    metrics["cli.startup_s"] = (statistics.median(startups), "s")
    metrics["simulation.threads2_speedup"] = (speedup, "ratio")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    info = {"untraced_s": (untraced_s, "s"), "traced_s": (traced_s, "s")}
    return metrics, info, tally


def layer_metrics(summary: dict, counts: dict) -> dict:
    """Per-layer metrics; a layer the workload never reaches reads 0."""
    def total_s(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def per_s(amount, seconds):
        return amount / seconds if seconds else 0.0

    metrics = {}
    for name in spans.SPAN_NAMES:
        row = summary.get(name, {})
        metrics[f"{name}.calls"] = (row.get("calls", 0), "count")
        metrics[f"{name}.self_s"] = (row.get("self_s", 0.0), "s")

    rows = counts.get("data_model.load_sample.rows", 0)
    metrics["data_model.load_sample.rows"] = (rows, "count")
    metrics["data_model.load_sample.rows_per_s"] = (
        per_s(rows, total_s("data_model.load_sample")), "1/s")
    for name in ("mean_model.solve_quasi_score", "estimators.fit_propensity"):
        metrics[f"{name}.newton_iters"] = (counts.get(f"{name}.newton_iters", 0), "count")
    redraws = counts.get("bootstrap.bootstrap_refit.redraws", 0)
    replicates = counts.get("bootstrap.bootstrap_refit.replicates", 0)
    metrics["bootstrap.bootstrap_refit.redraws"] = (redraws, "count")
    metrics["bootstrap.bootstrap_refit.replicates"] = (replicates, "count")
    metrics["bootstrap.refit_useful_ratio"] = (
        per_s(replicates, replicates + redraws), "ratio")
    for name in ("bootstrap.write_augmented_dataset", "bootstrap.read_augmented_dataset"):
        size = counts.get(f"{name}.bytes", 0)
        metrics[f"{name}.bytes"] = (size, "count")
        metrics[f"{name}.mb_per_s"] = (per_s(size / 1e6, total_s(name)), "MB/s")
    return metrics


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, checked) -> None:
        attempted, failed, problems = checked
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "command": shlex.join(sys.orig_argv),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_contract(metrics: dict, trace: bool) -> None:
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    listed = {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if listed != emitted:
        raise SystemExit(
            "perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(listed.items()) ^ set(emitted.items()))}")


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    from workloads import WORKLOADS

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            metrics, info, tally = traced(workload, work)
        else:
            metrics, info, tally = timed(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_contract(metrics, bool(args.trace))

    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "result": result,
              "info": {name: {"value": v, "unit": u} for name, (v, u) in info.items()},
              "problems": tally.problems}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(env))
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed")
    for problem in tally.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  record: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
