"""Environment block and disturbance probe of a benchmark run."""

from __future__ import annotations

import os
import pathlib
import platform
import time

import numpy as np
import scipy

from e2ebench.protocol import PINNED_ENV, REPO_ROOT

__all__ = ["environment", "git_sha", "load_average", "pyloop_seconds"]

_PYLOOP_ITERATIONS = 200_000


def pyloop_seconds() -> float:
    """Wall time of a fixed pure-Python loop.  It touches no memory to
    speak of and calls no library, so when its time moves, a neighbour
    took the core — not the program under test."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_PYLOOP_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


def load_average() -> list[float]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


def _thp_mode() -> str:
    path = pathlib.Path("/sys/kernel/mm/transparent_hugepage/enabled")
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` directly (the driver's
    checkout is not a repository: ``unknown`` there)."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    """What the child process actually sees."""
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "pinned": {k: os.environ.get(k) for k in PINNED_ENV},
        "thp": _thp_mode(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_version(),
        "git_sha": git_sha(),
    }
