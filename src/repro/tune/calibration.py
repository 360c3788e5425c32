"""The tuned plan: the two machine-dependent crossovers, measured here.

The plan choices that depend on the machine are the GEMM multi-RHS
width ``k_min`` and the SELL-C-sigma backend crossover in dofs.
:func:`measure` times both on the live host and returns the raw
per-shape timings; :func:`crossovers` is the pure selection rule that
turns timings into ``repro.tune-config/1`` keys, so tests can hand it
synthetic timings.  Each side's time is its fastest sample (min of
:data:`REPEATS` samples): noisy neighbours only ever inflate a sample,
so the minimum is the least contaminated estimate.

``python -m repro.harness tune`` (:func:`main`) writes the selected
crossovers to ``tuned_config.json``, which
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

__all__ = ["GEMM_KS", "SELLCS_K", "SHAPES", "crossovers", "main", "measure"]

#: batch widths the GEMM-vs-oracle crossover is searched over
GEMM_KS = (1, 2, 8, 32)

#: batch width the SELL-C-sigma and HYMV GEMM paths are compared at
SELLCS_K = 32

#: samples per side, and calls per sample at k = 1 (``max(2, N_CALLS // k)``
#: at width k)
REPEATS = 5
N_CALLS = 10


def _poisson_medium():
    from repro.problems import poisson_problem

    # 8000 HEX8 elements, 9261 dofs: the sweep dominates Python overhead
    return poisson_problem(20, n_parts=1)


def _poisson_tiny():
    from repro.problems import poisson_problem

    return poisson_problem(6, n_parts=1)  # 343 dofs


def _graphlap(nel):
    from repro.problems import graph_laplacian_problem

    # jittered tets: irregular row lengths (729 / 4913 dofs)
    return lambda: graph_laplacian_problem(nel, n_parts=1, seed=3)


#: the backend-crossover shapes, smallest first: name -> spec factory.
#: ``poisson-hex8-medium`` is also the GEMM ``k_min`` shape.
SHAPES = {
    "poisson-hex8-tiny": _poisson_tiny,
    "graphlap-tet4-small": _graphlap(8),
    "graphlap-tet4-medium": _graphlap(16),
    "poisson-hex8-medium": _poisson_medium,
}


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
    """Time both crossovers on this host; returns the raw timings.

    ``{"gemm": {k: {"oracle": s, "gemm": s}}, "sellcs": {shape:
    {"n_dofs": n, "sellcs": s, "hymv": s}}}`` in seconds per call: the
    HYMV ``spmv_multi`` per-column oracle vs GEMM on the medium Poisson
    mesh for every ``k`` in :data:`GEMM_KS`, and the SELL-C-sigma vs
    HYMV GEMM products at ``k =`` :data:`SELLCS_K` on every
    :data:`SHAPES` entry.
    """
    from repro.baselines.sellcs import SellCSOperator
    from repro.core.hymv import HymvOperator

    specs = {name: make() for name, make in SHAPES.items()}
    rng = np.random.default_rng(1234)
    H = _single_rank(HymvOperator, specs["poisson-hex8-medium"], kernel="einsum")
    gemm = {}
    for k in GEMM_KS:
        U, V = H.new_multivector(k), H.new_multivector(k)
        U.set_owned(rng.standard_normal((H.n_dofs_owned, k)))
        gemm[k] = {
            mode: _fastest(lambda mode=mode: H.spmv_multi(U, V, mode=mode), k)
            for mode in ("oracle", "gemm")
        }

    sellcs = {}
    for name, spec in specs.items():
        ops = {
            "sellcs": _single_rank(SellCSOperator, spec),
            "hymv": _single_rank(HymvOperator, spec, kernel="einsum"),
        }
        X = rng.standard_normal((spec.n_dofs, SELLCS_K))
        sellcs[name] = {"n_dofs": spec.n_dofs} | {
            tag: _fastest(
                lambda A=A: A.apply_owned_multi(X, copy=False, mode="gemm"),
                SELLCS_K,
            )
            for tag, A in ops.items()
        }
    return {"gemm": gemm, "sellcs": sellcs}


def crossovers(timings: dict) -> dict:
    """The plan keys the timings imply, in ``repro.tune-config/1`` form.

    ``gemm_k_min`` is the smallest ``k`` at which GEMM beats the
    per-column oracle; ``sellcs_crossover_dofs`` the largest shape at
    which the SELL-C-sigma GEMM beats the HYMV GEMM.  A key is absent
    when its fast path never wins.
    """
    config = {}
    wins = [k for k, t in timings["gemm"].items() if t["gemm"] < t["oracle"]]
    if wins:
        config["gemm_k_min"] = min(wins)
    dofs = [
        t["n_dofs"] for t in timings["sellcs"].values()
        if t["sellcs"] < t["hymv"]
    ]
    if dofs:
        config["sellcs_crossover_dofs"] = max(dofs)
    return config


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.harness tune",
        description="Measure the GEMM k_min and SELL-C-sigma backend "
        "crossovers on this host and write them as tuned_config.json, the "
        "plan serve/shard --tuned-from run under",
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
        for k, t in timings["gemm"].items():
            print(
                f"[tune] poisson-hex8-medium k={k:>2}: gemm/oracle "
                f"{t['gemm'] * 1e3:.3f}/{t['oracle'] * 1e3:.3f} ms "
                f"= {t['gemm'] / t['oracle']:.2f}"
            )
        for name, t in timings["sellcs"].items():
            print(
                f"[tune] {name} ({t['n_dofs']} dofs) k={SELLCS_K}: "
                f"sellcs/hymv {t['sellcs'] * 1e3:.3f}/{t['hymv'] * 1e3:.3f} "
                f"ms = {t['sellcs'] / t['hymv']:.2f}"
            )
        print(f"[tune] wrote {args.tuned_out}: {config}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
