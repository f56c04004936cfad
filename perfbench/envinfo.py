"""Run-environment record: versions, BLAS threads in effect, host counters."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess

THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
CONFIG_QUERIES = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)

# environment variables that fix the BLAS thread count; set before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _first_symbol(lib, names):
    for name in names:
        try:
            return getattr(lib, name)
        except AttributeError:
            continue
    return None


def blas_record() -> list[dict]:
    """Thread count and build of every OpenBLAS this process has loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        get_threads = _first_symbol(lib, THREAD_QUERIES)
        if get_threads is not None:
            get_threads.restype = ctypes.c_int
            entry["threads"] = get_threads()
        get_config = _first_symbol(lib, CONFIG_QUERIES)
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            entry["config"] = get_config().decode()
        out.append(entry)
    return out


def library_versions() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def steal_ticks() -> int | None:
    """Host steal ticks summed over all CPUs (8th field of /proc/stat 'cpu')."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def git_sha(root) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_record(root) -> dict:
    return {"git_sha": git_sha(root), "nproc": os.cpu_count(), "machine": platform.machine()}
