"""Benchmark of ``dynsub verify``: one workload, passes of fixed work in a warm process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source tree and imports ``dynsub`` from its
``src``.  The set-up is timed as the median of a few launches, each in a
fresh interpreter; then this process repeats the workload's pass (see
``workloads.py``) for about S seconds and reports medians.  With
``--trace 1`` it then runs three passes under ``tracer.Tracer``, each
traced pass after an untraced one, and reports per-layer metrics instead.
The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, calls, samples_per_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# The program's environment: one BLAS thread, no DYNSUB_THREADS pool.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WARMUP_PASSES = 1
MIN_PASSES = 3
TRACED_PASSES = 3
SETUP_LAUNCHES = 5
SETUP_TIMEOUT_S = 30


def pin_environment() -> dict:
    os.environ.update(PINNED_ENV)
    os.environ.pop("DYNSUB_THREADS", None)
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_setup(suite: str, dim: int, seed: int, env: dict) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time of a fresh ``python -m dynsub verify`` of one sample of one call."""
    argv = [sys.executable, "-m", "dynsub", "verify", "--suite", suite, "--dim", str(dim)]
    argv += ["--samples", "1", "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - start, proc


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def library_ok(checks, seed: int) -> bool:
    try:
        checks.check_library(seed)
    except checks.CheckFailure as exc:
        sys.stderr.write(f"FAILED check phase: {exc}\n")
        return False
    return True


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dynsub" / "__init__.py").is_file():
        sys.stderr.write(f"error: no dynsub sources at {SRC}; run from a source tree\n")
        return 2
    env = pin_environment()

    # numpy reads the pinned thread counts when it is first imported, here.
    sys.path.insert(0, str(SRC))
    import checks
    import passes
    import tracer

    # Every launch is a new interpreter, so each is a cold set-up of the
    # program; their median keeps one slow launch from setting the figure.
    suite, dim, _ = calls(args.workload)[0]
    correct = True
    setups: list[float] = []
    for _ in range(SETUP_LAUNCHES):
        seconds, proc = time_setup(suite, dim, args.seed, env)
        setups.append(seconds)
        try:
            checks.check_report(proc.returncode, proc.stdout, suite, dim, 1, args.seed)
        except checks.CheckFailure as exc:
            sys.stderr.write(f"FAILED set-up: {exc}\n{proc.stderr}")
            correct = False

    reference: dict = {}
    failed = 0
    for _ in range(WARMUP_PASSES):
        failed += passes.run_pass(args.workload, args.seed, reference)
    walls: list[float] = []
    cpus: list[float] = []
    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start + statistics.median(walls) <= budget:
        c0, t0 = cpu_seconds(), time.perf_counter()
        failed += passes.run_pass(args.workload, args.seed, reference)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n_passes = WARMUP_PASSES + len(walls)
    correct &= library_ok(checks, args.seed)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # Each traced pass follows an untraced one, so both see the same
        # machine speed; the overhead is the median difference of the pairs.
        tr = tracer.Tracer()
        overheads: list[float] = []
        for _ in range(TRACED_PASSES):
            t0 = time.perf_counter()
            failed += passes.run_pass(args.workload, args.seed, reference)
            t1 = time.perf_counter()
            with tr:
                failed += passes.run_pass(args.workload, args.seed, reference)
            overheads.append((time.perf_counter() - t1) - (t1 - t0))
        n_passes += 2 * TRACED_PASSES
        values = tracer.layer_metrics(tr.spans)
        values["trace.overhead_s"] = statistics.median(overheads)
        units = tracer.METRICS
        tr.dump(RESULTS / f"trace-{stem}.json")
    else:
        values = {
            "verify_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        units = {"verify_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

    result = {
        "correct": correct,
        "attempted": n_passes * samples_per_pass(args.workload),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, pass_wall_s=walls, pass_cpu_s=cpus, setup_s=setups)
    (RESULTS / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
