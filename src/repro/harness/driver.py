"""SPMD rank programs shared by all experiments.

Two entry points:

* :func:`run_bench` — the paper's micro-benchmark protocol: time the
  matrix setup, then ten SPMV operations (every scalability figure reports
  exactly these two quantities).
* :func:`run_solve` — full CG solve with Dirichlet conditions and optional
  preconditioning (Fig. 11's total-solve-time protocol), with error
  against the analytic solution.

Methods are selected by name: ``"hymv"``, ``"assembled"`` (PETSc
substitute), ``"matfree"``, plus GPU variants registered by
:mod:`repro.gpu`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.baselines.assembled import AssembledOperator
from repro.baselines.matfree import MatrixFreeOperator
from repro.baselines.partial import PartialAssemblyOperator
from repro.baselines.sellcs import SellCSOperator
from repro.core.hymv import HymvOperator
from repro.core.maps import build_node_maps
from repro.core.rhs import assemble_rhs, local_node_coords
from repro.core.scatter import build_comm_maps
from repro.faults.plan import FaultPlan
from repro.obs.instrumentation import merge_snapshots
from repro.problems import ProblemSpec
from repro.simmpi.engine import run_spmd
from repro.simmpi.network import NetworkModel
from repro.solvers.cg import ResilienceConfig, cg
from repro.solvers.constrained import dirichlet_system
from repro.solvers.preconditioners import (
    BlockJacobiPreconditioner,
    JacobiPreconditioner,
)
from repro.util.arrays import INDEX_DTYPE

__all__ = [
    "BenchResult",
    "SolveOutcome",
    "run_bench",
    "run_solve",
    "OPERATOR_FACTORIES",
]

# method name -> factory(comm, lmesh, operator, ranges, **options)
OPERATOR_FACTORIES = {
    "hymv": HymvOperator,
    "assembled": AssembledOperator,
    "matfree": MatrixFreeOperator,
    "partial": PartialAssemblyOperator,
    "sellcs": SellCSOperator,
}


def _register_gpu_factories() -> None:
    # late import: repro.gpu depends on repro.core
    from repro.gpu.hymv_gpu import AssembledGpuOperator, HymvGpuOperator

    OPERATOR_FACTORIES.setdefault("hymv_gpu", HymvGpuOperator)
    OPERATOR_FACTORIES.setdefault("assembled_gpu", AssembledGpuOperator)


_register_gpu_factories()


def _make_operator(kind, comm, lmesh, operator, ranges, options):
    try:
        factory = OPERATOR_FACTORIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown method {kind!r}; known: {sorted(OPERATOR_FACTORIES)}"
        ) from None
    return factory(comm, lmesh, operator, ranges=ranges, **options)


# ----------------------------------------------------------------------------
# bench protocol: setup + N SPMV
# ----------------------------------------------------------------------------

@dataclass
class BenchResult:
    """Aggregated (max over ranks) timings of one bench run."""

    method: str
    n_parts: int
    n_dofs: int
    setup_time: float
    spmv_time: float  # time of `n_spmv` products
    n_spmv: int
    breakdown: dict[str, float] = field(default_factory=dict)
    flops_spmv: float = 0.0  # global flops of `n_spmv` products
    stored_bytes: int = 0
    #: merged per-rank observability snapshot (phases incl. wall time,
    #: counters) — see :func:`repro.obs.instrumentation.merge_snapshots`
    obs: dict = field(default_factory=dict)

    @property
    def gflops_rate(self) -> float:
        return self.flops_spmv / self.spmv_time / 1e9 if self.spmv_time else 0.0


def _bench_program(comm, lmesh, kind, n_spmv, overlap, options, seed):
    ranges = np.asarray(
        comm.allgather((lmesh.n_begin, lmesh.n_end)), dtype=INDEX_DTYPE
    )
    t0 = comm.vtime
    A = _make_operator(kind, comm, lmesh, OPTIONS_OPERATOR[0], ranges, options)
    setup_time = comm.vtime - t0

    ndpn = A.ndpn
    n_owned_dofs = (lmesh.n_end - lmesh.n_begin) * ndpn
    rng = np.random.default_rng(seed + comm.rank)
    x = rng.standard_normal(n_owned_dofs)

    t1 = comm.vtime
    if kind in ("hymv", "matfree"):
        u, v = A.new_array(), A.new_array()
        u.set_owned(x)
        for _ in range(n_spmv):
            A.spmv(u, v, overlap=overlap)
        y = v.owned_flat.copy()
    else:
        y = x
        for _ in range(n_spmv):
            y = A.apply_owned(x)
    spmv_time = comm.vtime - t1

    flops = A.flops_per_spmv() * n_spmv
    stored = A.stored_bytes() if hasattr(A, "stored_bytes") else 0
    return {
        "setup": setup_time,
        "spmv": spmv_time,
        "timing": comm.obs.as_dict(),
        "obs": comm.obs.snapshot(),
        "flops": flops,
        "stored": stored,
        "checksum": float(np.sum(y)),
    }


# the operator object is large and identical across ranks; pass via a module
# slot instead of per-rank args to avoid 256 copies in rank_args
OPTIONS_OPERATOR = [None]


def run_bench(
    spec: ProblemSpec,
    method: str,
    n_spmv: int = 10,
    overlap: bool = True,
    network: NetworkModel | None = None,
    compute_scale: float = 1.0,
    seed: int = 1234,
    faults: FaultPlan | None = None,
    **options,
) -> BenchResult:
    """Run the setup + ``n_spmv`` protocol for one method on ``spec``."""
    p = spec.n_parts
    OPTIONS_OPERATOR[0] = spec.operator
    rank_args = [
        (spec.partition.local(r), method, n_spmv, overlap, options, seed)
        for r in range(p)
    ]
    results, sim = run_spmd(
        p,
        _bench_program,
        rank_args=rank_args,
        network=network,
        compute_scale=compute_scale,
        faults=faults,
    )
    breakdown: dict[str, float] = {}
    for res in results:
        for k, v in res["timing"].items():
            breakdown[k] = max(breakdown.get(k, 0.0), v)
    return BenchResult(
        method=method,
        n_parts=p,
        n_dofs=spec.n_dofs,
        setup_time=max(r["setup"] for r in results),
        spmv_time=max(r["spmv"] for r in results),
        n_spmv=n_spmv,
        breakdown=breakdown,
        flops_spmv=sum(r["flops"] for r in results),
        stored_bytes=sum(r["stored"] for r in results),
        obs=merge_snapshots([r["obs"] for r in results]),
    )


# ----------------------------------------------------------------------------
# solve protocol: setup + CG to convergence
# ----------------------------------------------------------------------------

@dataclass
class SolveOutcome:
    """Aggregated outcome of a distributed CG solve."""

    method: str
    preconditioner: str
    n_parts: int
    n_dofs: int
    iterations: int
    converged: bool
    restarts: int
    setup_time: float
    solve_time: float
    total_time: float
    err_inf: float  # vs analytic solution, inf-norm over all owned dofs
    breakdown: dict[str, float] = field(default_factory=dict)
    #: merged per-rank observability snapshot (phases + counters)
    obs: dict = field(default_factory=dict)
    #: concatenated owned solution blocks in renumbered dof order (only
    #: populated when run_solve(..., return_solution=True))
    solution: np.ndarray | None = None


def _constrain_block(B: sp.csr_matrix, mask: np.ndarray) -> sp.csr_matrix:
    """Zero constrained rows/cols of the preconditioner block, unit diag."""
    n = B.shape[0]
    free = sp.diags((~mask).astype(np.float64))
    fixed = sp.diags(mask.astype(np.float64))
    return (free @ B @ free + fixed).tocsr()


def _solve_program(
    comm, lmesh, tractions, kind, precond, rtol, maxiter, resilience,
    options,
):
    spec: ProblemSpec = OPTIONS_SPEC[0]
    operator = spec.operator
    ndpn = operator.ndpn
    ranges = np.asarray(
        comm.allgather((lmesh.n_begin, lmesh.n_end)), dtype=INDEX_DTYPE
    )
    t0 = comm.vtime
    A = _make_operator(kind, comm, lmesh, operator, ranges, options)
    setup_time = comm.vtime - t0

    # RHS + BC need element-level maps (the assembled operator's maps cover
    # the matrix halo, not the element ghosts)
    if hasattr(A, "e2l_dofs"):
        maps, cmaps = A.maps, A.cmaps
    else:
        maps = build_node_maps(lmesh.e2g, lmesh.n_begin, lmesh.n_end)
        cmaps = build_comm_maps(comm, maps, ranges=ranges)

    f = assemble_rhs(
        comm, lmesh, maps, cmaps, ndpn,
        body_force=spec.body_force, tractions=tractions,
    )

    owned_ids = np.arange(lmesh.n_begin, lmesh.n_end, dtype=INDEX_DTYPE)
    coords = local_node_coords(maps, lmesh)[maps.owned_slice]
    mask = np.zeros(owned_ids.size * ndpn, dtype=bool)
    u0 = np.zeros(owned_ids.size * ndpn)
    for bc in spec.bcs:
        m = bc.mask_slice(lmesh.n_begin, lmesh.n_end)
        vals = bc.values_for(owned_ids, coords).reshape(-1)
        u0[m] = vals[m]
        mask |= m

    apply_hat, b_hat = dirichlet_system(A.apply_owned, f, u0, mask)

    if precond == "none":
        M = None
    elif precond == "jacobi":
        d = A.diagonal_owned()
        d[mask] = 1.0
        M = JacobiPreconditioner(d)
    elif precond == "bjacobi":
        B = _constrain_block(A.owned_block_csr(), mask)
        M = BlockJacobiPreconditioner(B)
    else:
        raise ValueError(f"unknown preconditioner {precond!r}")

    t1 = comm.vtime
    res = cg(
        comm, apply_hat, b_hat, apply_M=M, rtol=rtol, maxiter=maxiter,
        resilience=resilience,
    )
    solve_time = comm.vtime - t1

    exact = spec.analytic_owned(comm.rank)
    err = (
        float(np.abs(res.x - exact).max())
        if exact is not None and res.x.size
        else 0.0
    )
    err = float(comm.allreduce(err, op="max"))

    return {
        "x": res.x,
        "iterations": res.iterations,
        "converged": res.converged,
        "restarts": res.restarts,
        "setup": setup_time,
        "solve": solve_time,
        "total": comm.vtime,
        "err": err,
        "timing": comm.obs.as_dict(),
        "obs": comm.obs.snapshot(),
    }


OPTIONS_SPEC = [None]


def run_solve(
    spec: ProblemSpec,
    method: str,
    precond: str = "jacobi",
    rtol: float = 1e-3,
    maxiter: int = 20000,
    network: NetworkModel | None = None,
    compute_scale: float = 1.0,
    return_solution: bool = False,
    faults: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
    **options,
) -> SolveOutcome:
    """Distributed CG solve of ``spec`` with one SPMV method.

    ``faults`` injects a :class:`repro.faults.plan.FaultPlan` into the
    simulated network/compute; ``resilience`` enables the CG
    breakdown-detection + restart policy (chaos testing).
    """
    p = spec.n_parts
    OPTIONS_SPEC[0] = spec
    rank_args = [
        (
            spec.partition.local(r),
            spec.rank_tractions(r),
            method,
            precond,
            rtol,
            maxiter,
            resilience,
            options,
        )
        for r in range(p)
    ]
    results, sim = run_spmd(
        p,
        _solve_program,
        rank_args=rank_args,
        network=network,
        compute_scale=compute_scale,
        faults=faults,
    )
    breakdown: dict[str, float] = {}
    for res in results:
        for k, v in res["timing"].items():
            breakdown[k] = max(breakdown.get(k, 0.0), v)
    r0 = results[0]
    solution = (
        np.concatenate([r["x"] for r in results]) if return_solution else None
    )
    return SolveOutcome(
        method=method,
        preconditioner=precond,
        n_parts=p,
        n_dofs=spec.n_dofs,
        iterations=r0["iterations"],
        converged=bool(r0["converged"]),
        restarts=int(r0["restarts"]),
        setup_time=max(r["setup"] for r in results),
        solve_time=max(r["solve"] for r in results),
        total_time=max(r["total"] for r in results),
        err_inf=r0["err"],
        breakdown=breakdown,
        obs=merge_snapshots([r["obs"] for r in results]),
        solution=solution,
    )
