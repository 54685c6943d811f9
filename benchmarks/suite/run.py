"""End-to-end benchmark of the MACE reproduction on the real model.

Run from the repository root:

    python3 benchmarks/suite/run.py                        # all workloads
    python3 benchmarks/suite/run.py --trace                # ... plus traced
    python3 benchmarks/suite/run.py --runs 5 --out set.json
    python3 benchmarks/suite/run.py --workload stream --seed 3 \\
        --seconds 10 --trace 0
    python3 benchmarks/suite/run.py --compare parent.json change.json

With ``--workload`` one run executes in this process and the last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
untraced, its per-layer metrics with ``--trace 1``.  Without it, every
workload runs ``--runs`` times, each in a fresh subprocess, one after
another.  A failed output check makes the exit status non-zero.  See
``README.md`` beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_DIR = SUITE / ".work"      # each child run's results, until merged
SCHEMA = "bench-suite-results/1"
CHILD_TIMEOUT_S = 900
# The process environment every measured run gets (values already set by
# the caller win).  One BLAS thread: spinning BLAS threads make the
# timings swing with whatever else the host runs.  glibc keeps freed
# memory instead of unmapping it: otherwise every batch-256 forward
# page-faults its temporaries in again, and on a virtual machine the
# cost of a fault follows the host's load (score: ~18% of its time in
# the kernel, and a process-to-process spread of over 20%).
RUN_ENV = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(256 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}


def _load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def _import_program(argv) -> None:
    """Enter ``RUN_ENV``, then put the package under test and the harness
    modules on the path."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to benchmark: {ROOT / 'src' / 'repro'} "
                         "is missing (run from a full checkout)")
    if any(variable not in os.environ for variable in RUN_ENV):
        # The allocator reads its settings at start-up: start again.
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**RUN_ENV, **os.environ})
    sys.path[:0] = [str(ROOT / "src"), str(SUITE)]


def environment() -> dict:
    """Machine and build facts recorded with every results file."""
    import numpy as np

    blas = None
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: build.get(key) for key in
                ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False)
        if completed.returncode == 0:
            commit = completed.stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "run_env": {variable: os.environ.get(variable)
                        for variable in RUN_ENV},
            "git_commit": commit, "platform": platform.platform()}


def _metric_lines(metrics: dict) -> list:
    return [f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}"
            for name, metric in metrics.items()]


def run_one(args, spec: dict) -> int:
    import workloads

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {metric["name"]: metric["unit"] for metric in spec[kind]}
    started = time.perf_counter()
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    if set(result.metrics) != set(declared):
        raise RuntimeError(
            f"harness produced {sorted(set(result.metrics) ^ set(declared))} "
            f"out of step with BENCHMARK.json {kind}")
    metrics = {name: {"value": float(result.metrics[name]), "unit": unit}
               for name, unit in declared.items()}
    correct = result.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("\n".join(_metric_lines(metrics)))
    for problem in result.problems:
        print(f"  FAILED CHECK: {problem}")
    print(f"checks: {result.attempted} attempted, {result.failed} failed")
    print(f"total wall time {time.perf_counter() - started:.1f} s")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "correct": correct, "attempted": result.attempted,
              "failed": result.failed, "metrics": metrics,
              "details": result.details, "problems": result.problems}
    if args.out:
        _write_set(Path(args.out), [record])
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


def _write_set(path: Path, runs: list) -> None:
    path.write_text(json.dumps({"schema": SCHEMA,
                                "environment": environment(),
                                "runs": runs}, indent=1) + "\n")


def run_all(args, spec: dict) -> int:
    import workloads

    started = time.perf_counter()
    plan = [(name, args.seed + index, 0)
            for index in range(args.runs) for name in workloads.WORKLOADS]
    if args.trace:
        plan += [(name, args.seed, 1) for name in workloads.WORKLOADS]
    runs, status = [], 0
    WORK_DIR.mkdir(exist_ok=True)
    for name, seed, trace in plan:
        handle, out = tempfile.mkstemp(suffix=".json", dir=WORK_DIR)
        os.close(handle)
        try:
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(trace),
                 "--out", out],
                stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
                check=False)
            sys.stdout.write(child.stdout)
            if child.returncode != 0:
                status = 1
            if os.path.getsize(out):
                runs.extend(json.loads(Path(out).read_text())["runs"])
        finally:
            os.unlink(out)
    print(f"total wall time {time.perf_counter() - started:.1f} s "
          f"for {len(plan)} runs")
    if args.out:
        _write_set(Path(args.out), runs)
    return status


def compare(paths, spec: dict) -> int:
    from compare import compare_sets

    parent, change = (json.loads(Path(p).read_text()) for p in paths)
    rows = compare_sets(parent, change, spec["end_to_end"])
    print(f"{'workload':<8} {'metric':<14} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<8} {row['metric']:<14} "
              f"{row['parent']:>12.5g} {row['change']:>12.5g} "
              f"{row['delta']:>+8.1%} {row['spread']:>7.1%} "
              f"{row['bound']:>6.0%}  {row['verdict']}")
    bad = [row for row in rows if row["verdict"] in ("worse", "unresolved")]
    print(f"{len(rows)} comparisons, {len(bad)} worse or unresolved")
    return 1 if bad or not rows else 0


def main(argv=None) -> int:
    spec = _load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"]
                                               for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write the runs to this results file")
    parser.add_argument("--runs", type=int, default=1,
                        help="plain runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    _import_program(sys.argv[1:] if argv is None else argv)
    if args.compare:
        return compare(args.compare, spec)
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
