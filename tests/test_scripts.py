"""Smoke tests for the experiment scripts the README lists."""

import os
import subprocess
import sys
from pathlib import Path

from ggdr.metrics import MeasureKind

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_dim_sweep_prints_a_row_per_measure():
    done = run_script("dim_sweep.py", "--seeds", 1, "--dims", 12)
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[2:]
    assert [r.split()[0] for r in rows] == [k.value for k in MeasureKind]
    assert all(len(r.split()) == 3 for r in rows)  # metric, pre, d=12


def test_convergence_demo_writes_a_trace_per_measure(tmp_path):
    done = run_script("convergence_demo.py", "--max-iter", 2, "--out-dir", tmp_path)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == len(MeasureKind)
    traces = sorted(p.name for p in tmp_path.iterdir())
    assert traces == sorted(f"trace_{k.value}.csv" for k in MeasureKind)
