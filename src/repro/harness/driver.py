"""SPMD rank programs shared by all experiments.

Two entry points:

* :func:`run_bench` — the paper's micro-benchmark protocol: time the
  matrix setup, then ten SPMV operations (every scalability figure reports
  exactly these two quantities).
* :func:`run_solve` — full CG solve with Dirichlet conditions and optional
  preconditioning (Fig. 11's total-solve-time protocol), with error
  against the analytic solution.

Methods are operator kinds selected by name (:mod:`repro.kinds`):
``"hymv"``, ``"assembled"`` (PETSc substitute), ``"matfree"``,
``"partial"``, ``"sellcs"`` and the GPU variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.core.operator import DistributedOperator, owned_ranges
from repro.core.rhs import assemble_rhs
from repro.faults.plan import FaultPlan
from repro.kinds import make_operator
from repro.obs.instrumentation import merge_snapshots
from repro.problems import ProblemSpec
from repro.simmpi.engine import run_spmd
from repro.simmpi.network import NetworkModel
from repro.solvers.cg import ResilienceConfig, cg
from repro.solvers.constrained import dirichlet_system, owned_dirichlet
from repro.solvers.preconditioners import (
    BlockJacobiPreconditioner,
    JacobiPreconditioner,
)

__all__ = [
    "BenchResult",
    "SolveOutcome",
    "run_bench",
    "run_solve",
]


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


def _max_timing(results) -> dict[str, float]:
    """Virtual seconds per phase, max over ranks."""
    out: dict[str, float] = {}
    for res in results:
        for k, v in res["timing"].items():
            out[k] = max(out.get(k, 0.0), v)
    return out


def _bench_program(comm, lmesh, operator, kind, n_spmv, overlap, options, seed):
    ranges = owned_ranges(comm, lmesh)
    t0 = comm.vtime
    A = make_operator(kind, comm, lmesh, operator, ranges, **options)
    setup_time = comm.vtime - t0

    rng = np.random.default_rng(seed + comm.rank)
    u, v = A.new_array(), A.new_array()
    u.set_owned(rng.standard_normal(A.n_dofs_owned))
    t1 = comm.vtime
    for _ in range(n_spmv):
        A.spmv(u, v, overlap=overlap)
    spmv_time = comm.vtime - t1

    return {
        "setup": setup_time,
        "spmv": spmv_time,
        "timing": comm.obs.as_dict(),
        "obs": comm.obs.snapshot(),
        "flops": A.flops_per_spmv() * n_spmv,
        "stored": A.stored_bytes(),
    }


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
    """Run the setup + ``n_spmv`` protocol for one method on ``spec``;
    ``options`` go to :func:`repro.kinds.make_operator`."""
    p = spec.n_parts
    results, sim = run_spmd(
        p,
        _bench_program,
        rank_args=[(spec.partition.local(r),) for r in range(p)],
        network=network,
        compute_scale=compute_scale,
        faults=faults,
        operator=spec.operator,
        kind=method,
        n_spmv=n_spmv,
        overlap=overlap,
        options=options,
        seed=seed,
    )
    return BenchResult(
        method=method,
        n_parts=p,
        n_dofs=spec.n_dofs,
        setup_time=max(r["setup"] for r in results),
        spmv_time=max(r["spmv"] for r in results),
        n_spmv=n_spmv,
        breakdown=_max_timing(results),
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
    comm, lmesh, tractions, spec, kind, precond, rtol, maxiter, resilience,
    options, setup_model=None,
):
    ranges = owned_ranges(comm, lmesh)
    t0 = comm.vtime
    A = make_operator(kind, comm, lmesh, spec.operator, ranges, **options)
    if setup_model is not None:
        comm.advance(setup_model(A), "setup.modeled")
    setup_time = comm.vtime - t0

    # RHS + BC are stated on the element-level maps
    maps, cmaps = A.element_maps()
    f = assemble_rhs(
        comm, lmesh, maps, cmaps, A.ndpn,
        body_force=spec.body_force, tractions=tractions,
    )

    mask, u0 = owned_dirichlet(spec, lmesh, maps)
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
    setup_model: Callable[[DistributedOperator], float] | None = None,
    **options,
) -> SolveOutcome:
    """Distributed CG solve of ``spec`` with one SPMV method.

    ``faults`` injects a :class:`repro.faults.plan.FaultPlan` into the
    simulated network/compute; ``resilience`` enables the CG
    breakdown-detection + restart policy (chaos testing).
    ``setup_model(A)`` gives each rank's modeled set-up compute in
    seconds, charged once its operator ``A`` is built (for runs at
    ``compute_scale=0``).
    """
    p = spec.n_parts
    results, sim = run_spmd(
        p,
        _solve_program,
        rank_args=[
            (spec.partition.local(r), spec.rank_tractions(r)) for r in range(p)
        ],
        network=network,
        compute_scale=compute_scale,
        faults=faults,
        spec=spec,
        kind=method,
        precond=precond,
        rtol=rtol,
        maxiter=maxiter,
        resilience=resilience,
        options=options,
        setup_model=setup_model,
    )
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
        breakdown=_max_timing(results),
        obs=merge_snapshots([r["obs"] for r in results]),
        solution=solution,
    )
