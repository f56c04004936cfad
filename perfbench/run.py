"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/ggdr`` must exist; nothing is
installed). The seed fixes the generated datasets. The last stdout line is
one JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. The full record of the run (environment, every round, every
fit, any problems) goes to ``.bench_out/``, and with ``--trace 1`` the spans
too. Workloads and metrics are described in ``perfbench/README.md``.

Processes: this one plus at most one child at a time (nproc is 2 on the
reference machine), each with BLAS limited to one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from envinfo import BLAS_THREAD_VARS, host_record, steal_ticks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
SETUP_REPEATS = 9
# a round may end past --seconds, and a run makes at least four rounds
MEASURE_TIMEOUT_FACTOR = 5

METRIC_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "eval_s": "s",
    "accuracy": "fraction",
    "peak_rss_mb": "MB",
}


def _limit_blas_threads() -> dict:
    """Fix BLAS threads for this process and its children; return the child env."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    return dict(os.environ, PYTHONPATH=str(SRC))


def _number(value):
    """JSON has no NaN; a value that could not be measured is null."""
    return value if math.isfinite(value) else None


def _setup_seconds(dirs, env, timeout) -> tuple[list[float], int, int]:
    """Fresh-interpreter set-up times, the first run only warming caches;
    also the probes attempted and failed. A failed probe ends probing."""
    argv = [sys.executable, str(HERE / "setup_probe.py")] + [d for pair in dirs for d in pair]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        try:
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"setup probe took over {timeout} s", file=sys.stderr)
            return samples, i + 1, 1
        if done.returncode != 0:
            print(f"setup probe failed: {done.stderr.strip()}", file=sys.stderr)
            return samples, i + 1, 1
        if i > 0:
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples, SETUP_REPEATS + 1, 0


def _timed_out(timeout) -> dict:
    """The measuring process's result when it had to be stopped: one failed
    operation and nothing measured."""
    return {
        "attempted": 1,
        "failed": 1,
        "problems": [f"measuring process stopped after {timeout} s"],
        "e2e": dict.fromkeys(METRIC_UNITS, float("nan")),
        "per_layer": {},
        "timings": {},
        "rounds": [],
        "fits": {},
        "env": {},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (SRC / "ggdr" / "__init__.py").is_file():
        print(f"error: no ggdr sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    env = _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, dataset_dirs, generate

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"{tag}.spans.jsonl"
    if spans_path.exists():
        spans_path.unlink()
    steal0, cpu0, wall0 = steal_ticks(), os.times(), time.perf_counter()
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        generate(wl, args.seed, str(work))
        dirs = dataset_dirs(str(work))

        setup, setup_attempted, setup_failed = (
            ([], 0, 0) if args.trace else _setup_seconds(dirs, env, args.seconds)
        )
        argv = [
            sys.executable, str(HERE / "measure.py"),
            "--workload", wl.name, "--work-dir", str(work), "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.trace:
            argv += ["--spans", str(spans_path)]
        timeout = MEASURE_TIMEOUT_FACTOR * args.seconds
        try:
            done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            child = _timed_out(timeout)
        else:
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                print(f"error: measuring process exited with {done.returncode}", file=sys.stderr)
                return 3
            child = json.loads(done.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cpu1 = os.times()

    if args.trace:
        metrics = {
            k: {"value": _number(v["value"]), "unit": v["unit"]}
            for k, v in child["per_layer"].items()
        }
    else:
        values = dict(child["e2e"], setup_s=statistics.median(setup) if setup else float("nan"))
        metrics = {k: {"value": _number(values[k]), "unit": METRIC_UNITS[k]} for k in METRIC_UNITS}
    attempted = child["attempted"] + setup_attempted
    failed = child["failed"] + (0 if args.trace else setup_failed)
    steal1 = steal_ticks()
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            **host_record(ROOT),
            **child["env"],
            "blas_threads_requested": BLAS_THREADS,
            "steal_ticks": None if steal0 is None or steal1 is None else steal1 - steal0,
            "wall_s": time.perf_counter() - wall0,
            "cpu_s_children": (cpu1.children_user + cpu1.children_system)
            - (cpu0.children_user + cpu0.children_system),
        },
        "setup_s_samples": setup,
        "timings": child["timings"],
        "rounds": child["rounds"],
        "fits": child["fits"],
        "problems": child["problems"],
        "metrics": metrics,
    }
    with open(out / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in child["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"env": record["env"], "timings": record["timings"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
