"""Noise protocol and estimators shared by the runner and the A/A check.

Pure standard library: ``aa_check.py`` and the parent half of ``run.py``
import this module before the pinned child environment exists, so it
must not pull in numpy (the pins only work when set before that import).
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics
from typing import Hashable, Iterable, Sequence

__all__ = [
    "BENCH_DIR",
    "REPO_ROOT",
    "NOMINAL_SECONDS",
    "PINNED_ENV",
    "WORKLOADS",
    "load_registry",
    "midmean",
    "quiet_replay",
    "quartile_spread",
    "tail_percentile",
    "worsening",
]

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parents[1]

#: ``--seconds`` value the per-workload op counts are calibrated for (the
#: ``run_seconds`` of BENCHMARK.json).  Other values scale the op counts
#: linearly; durations are never fixed, op counts always are.
NOMINAL_SECONDS = 15

WORKLOADS = ("apply-hymv", "solve-batch", "serve-mixed", "adapt-crack")

#: the child's pinned environment.  One BLAS/OMP/MKL thread (the workload
#: is one thread on one core; OpenBLAS would otherwise start a second), no
#: numpy hugepage madvise (cold builds were bimodal 1.5 s / 3-4.6 s under
#: THP=madvise, with sys time 0.4 s vs 2.7-3.4 s), fixed hash seed, and
#: one malloc arena (with rank threads, what the arenas retained made peak
#: RSS wander by 11 %; the probes of the trace pass still start some).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "PYTHONHASHSEED": "0",
    "MALLOC_ARENA_MAX": "1",
}


def load_registry() -> dict:
    """``BENCHMARK.json`` of the checkout this file sits in — the single
    registry of metric names, units, directions and bounds."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(n: int) -> float:
    """Highest percentile that still has at least ten samples beyond it
    (floored at the median for small samples)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n > 0 else 50.0


def midmean(values: Sequence[float]) -> float:
    """Mean of the values between the quartiles.  For a single-peaked
    sample it sits at the median.  The request latencies of ``serve-mixed``
    have two peaks — every solve holds up the queue — with the 50 % point
    in the gap between them, so their median is whichever side the seed's
    last per cent falls on (8.4-12.8 ms over seven seeds of the same
    code); the mid-mean moves smoothly through the gap (12.9-14.4 ms)."""
    x = sorted(values)
    cut = len(x) // 4
    return statistics.fmean(x[cut : len(x) - cut])


def quiet_replay(blocks: Iterable) -> tuple[list[float], float]:
    """Op latencies and busy seconds of ``blocks`` with the neighbours
    taken out.

    Every block has ``steps``, ``(class, seconds)`` pairs in the order they
    ran, and ``ops``, ``(first, end, seconds)`` triples naming the steps
    ``first .. end - 1`` an op waited for.  Steps of one class do the same
    work, so the *quiet time* of a class is its fastest sample: work cannot
    run faster than the machine allows, and every slower sample is the
    same work plus somebody else's (``timeit`` reports a minimum for the
    same reason).  The blocks are then replayed with every step at the
    quiet time of its class: an op's latency is the sum over its steps,
    the busy time the sum over all steps.

    On this shared host no central estimate survives: over six runs the
    median of 2,500 identical applies read 7.2-10.9 ms, their 5th
    percentile 5.3-9.5 ms, their minimum 4.8-5.7 ms (README, *Noise
    protocol*).
    """
    blocks = list(blocks)
    quiet: dict[Hashable, float] = {}
    for block in blocks:
        for cls, seconds in block.steps:
            if seconds < quiet.get(cls, math.inf):
                quiet[cls] = seconds
    latencies, busy = [], 0.0
    for block in blocks:
        clock = [0.0]
        for cls, _ in block.steps:
            clock.append(clock[-1] + quiet[cls])
        latencies += [clock[end] - clock[first] for first, end, _ in block.ops]
        busy += clock[-1]
    return latencies, busy


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the spread the
    benchmark driver computes over ten runs."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf


def worsening(first: float, second: float, better: str) -> float:
    """Relative amount by which ``second`` is worse than ``first`` (negative
    when it is better)."""
    if not first:
        return math.inf if second != first else 0.0
    rel = (second - first) / abs(first)
    return rel if better == "lower" else -rel
