"""The tuned plan: the machine-dependent GEMM crossover, measured here.

The plan choice that depends on the machine is the GEMM multi-RHS
width ``k_min``.  :func:`measure` times it on the live host and returns
the raw timings; :func:`crossovers` is the pure selection rule that
turns timings into ``repro.tune-config/1`` keys, so tests can hand it
synthetic timings.  Each side's time is its fastest sample (min of
:data:`REPEATS` samples): noisy neighbours only ever inflate a sample,
so the minimum is the least contaminated estimate.

``python -m repro.harness tune`` (:func:`main`) writes the selected
crossover to ``tuned_config.json``, which
:func:`repro.serve.plan.load_tuned_config` turns into the
:class:`~repro.serve.plan.ExecutionPlan` the serve and shard harnesses
run under with ``--tuned-from``.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.obs.instrumentation import Instrumentation
from repro.obs.schema import (
    TUNE_CONFIG_SCHEMA,
    new_report,
    validate_report,
    write_report,
)

__all__ = ["GEMM_KS", "crossovers", "main", "measure"]

#: batch widths the GEMM-vs-oracle crossover is searched over
GEMM_KS = (1, 2, 8, 32)

#: samples per side, and calls per sample at k = 1 (``max(2, N_CALLS // k)``
#: at width k)
REPEATS = 5
N_CALLS = 10


class _NullComm:
    """Single-rank stand-in for :class:`repro.simmpi.Communicator`.

    Lets the operator stack run in-process without simulator threads, so
    ``time.perf_counter`` around a product measures the genuine hot
    path.  Collectives degenerate to identities; point-to-point must
    never happen on one rank and raises.
    """

    rank = 0
    size = 1
    vtime = 0.0

    def __init__(self) -> None:
        self.obs = Instrumentation(rank=0, clock=lambda: 0.0, trace=False)

    @contextmanager
    def compute(self, label: str = "compute"):
        w0 = time.perf_counter()
        try:
            yield self
        finally:
            self.obs.record(label, vtime=0.0, wall=time.perf_counter() - w0)

    def advance(self, seconds: float, label: str = "modeled") -> None:
        self.obs.record(label, vtime=seconds)

    def allreduce(self, value, op="sum"):
        return value

    def allgather(self, value):
        return [value]

    def alltoall(self, per_dest):
        if len(per_dest) != 1:
            raise ValueError("single-rank alltoall needs exactly one entry")
        return list(per_dest)

    def isend(self, *a, **k):
        raise RuntimeError("no point-to-point on a single rank")

    irecv = isend
    wait = isend


def _single_rank(cls, spec, **options):
    """Operator ``cls`` of ``spec`` (one part) on an in-process comm."""
    return cls(_NullComm(), spec.partition.local(0), spec.operator, **options)


def _fastest(fn, k: int) -> float:
    """Per-call seconds of ``fn`` at batch width ``k``: the fastest of
    :data:`REPEATS` samples, after two warm-up calls reach steady state."""
    fn()
    fn()
    n = max(2, N_CALLS // k)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, (time.perf_counter() - t0) / n)
    return best


def measure() -> dict:
    """Time the GEMM crossover on this host; returns the raw timings.

    ``{k: {"oracle": s, "gemm": s}}`` in seconds per call: the HYMV
    ``spmv_multi`` per-column oracle vs GEMM on the medium Poisson mesh
    for every ``k`` in :data:`GEMM_KS`.
    """
    from repro.core.hymv import HymvOperator
    from repro.problems import poisson_problem

    # 8000 HEX8 elements, 9261 dofs: the sweep dominates Python overhead
    spec = poisson_problem(20, n_parts=1)
    rng = np.random.default_rng(1234)
    H = _single_rank(HymvOperator, spec, kernel="einsum")
    timings = {}
    for k in GEMM_KS:
        U, V = H.new_multivector(k), H.new_multivector(k)
        U.set_owned(rng.standard_normal((H.n_dofs_owned, k)))
        timings[k] = {
            mode: _fastest(lambda mode=mode: H.spmv_multi(U, V, mode=mode), k)
            for mode in ("oracle", "gemm")
        }
    return timings


def crossovers(timings: dict) -> dict:
    """The plan keys the timings imply, in ``repro.tune-config/1`` form.

    ``gemm_k_min`` is the smallest ``k`` at which GEMM beats the
    per-column oracle, absent when GEMM never wins.
    """
    wins = [k for k, t in timings.items() if t["gemm"] < t["oracle"]]
    return {"gemm_k_min": min(wins)} if wins else {}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.harness tune",
        description="Measure the GEMM multi-RHS crossover k_min on this "
        "host and write it as tuned_config.json, the plan serve/shard "
        "--tuned-from run under",
    )
    ap.add_argument(
        "--tuned-out", type=Path, default=Path("tuned_config.json"),
        help="plan artifact for --tuned-from",
    )
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    timings = measure()
    config = crossovers(timings)
    write_report(args.tuned_out, validate_report(
        new_report(TUNE_CONFIG_SCHEMA, config, source="measured"),
        TUNE_CONFIG_SCHEMA,
    ))
    if not args.quiet:
        for k, t in timings.items():
            print(
                f"[tune] poisson-hex8-medium k={k:>2}: gemm/oracle "
                f"{t['gemm'] * 1e3:.3f}/{t['oracle'] * 1e3:.3f} ms "
                f"= {t['gemm'] / t['oracle']:.2f}"
            )
        print(f"[tune] wrote {args.tuned_out}: {config}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
