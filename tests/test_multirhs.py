"""Multi-RHS contract: batching k right-hand sides through any operator
or through CG is **bitwise identical per column** to k independent
single-RHS runs.

This is the property the serving layer's micro-batcher stands on: a
request's answer must not depend on which batch it happened to ride in.
The implementation guarantees it by keeping every floating-point
operation in per-column loops through the exact single-RHS code paths —
only the communication layer batches (packed ndpn·k-wide halos, k-vector
allreduces), and elementwise/same-order reductions preserve bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import AssembledOperator, MatrixFreeOperator
from repro.baselines.partial import PartialAssemblyOperator
from repro.baselines.sellcs import SellCSOperator
from repro.core import HymvOperator
from repro.core.hymv import reference_spmv
from repro.fem import ElasticityOperator, PoissonOperator
from repro.gpu import HymvGpuOperator
from repro.mesh import ElementType, jittered_hex_mesh
from repro.partition import build_partition
from repro.problems import poisson_problem
from repro.simmpi import run_spmd
from repro.solvers.cg import cg, cg_multi
from repro.solvers.constrained import dirichlet_system
from repro.solvers.preconditioners import JacobiPreconditioner
from repro.util.arrays import INDEX_DTYPE

FACTORIES = {
    "hymv": HymvOperator,
    "matfree": MatrixFreeOperator,
    "partial": PartialAssemblyOperator,
    "assembled": AssembledOperator,
    "hymv_gpu": HymvGpuOperator,
    "sellcs": SellCSOperator,
}

N_PARTS = 4


def _mesh_op():
    mesh = jittered_hex_mesh(3, 3, 3, ElementType.HEX8, jitter=0.25, seed=11)
    op = ElasticityOperator()
    return mesh, op


def _multi_vs_single(kind: str, k: int, mode: str | None = None):
    mesh, op = _mesh_op()
    part = build_partition(mesh, N_PARTS, method="graph")
    n = mesh.n_nodes * op.ndpn
    X = np.random.default_rng(7 * k + 1).standard_normal((n, k))

    def prog(comm, lmesh, Xr):
        A = FACTORIES[kind](comm, lmesh, op)
        singles = np.column_stack(
            [A.apply_owned(np.ascontiguousarray(Xr[:, j])) for j in range(k)]
        )
        if mode is None:
            multi = A.apply_owned_multi(Xr)
        else:
            multi = A.apply_owned_multi(Xr, mode=mode)
        return bool(np.array_equal(singles, multi)), multi

    ndpn = op.ndpn
    rank_args = []
    for r in range(N_PARTS):
        lm = part.local(r)
        rank_args.append((lm, X[lm.n_begin * ndpn: lm.n_end * ndpn]))
    results, _ = run_spmd(N_PARTS, prog, rank_args=rank_args)
    return results


@pytest.mark.parametrize("kind", sorted(FACTORIES))
@pytest.mark.parametrize("k", [1, 2, 5])
def test_apply_multi_bitwise_per_column(kind, k):
    results = _multi_vs_single(kind, k)
    assert all(ok for ok, _ in results)


@pytest.mark.parametrize("kind", ["hymv", "hymv_gpu", "matfree", "partial"])
def test_apply_multi_bitwise_without_workspace(kind):
    """Every column of the multi-RHS driver equals the allocating,
    workspace-free ``reference_spmv`` of that column alone."""
    mesh, op = _mesh_op()
    part = build_partition(mesh, N_PARTS, method="graph")
    k = 3
    X = np.random.default_rng(5).standard_normal((mesh.n_nodes * op.ndpn, k))

    def prog(comm, lmesh, Xr):
        A = FACTORIES[kind](comm, lmesh, op)
        multi = A.apply_owned_multi(Xr)
        u, v = A.new_array(), A.new_array()
        ref = np.empty_like(multi)
        for j in range(k):
            u.set_owned(Xr[:, j])
            ref[:, j] = reference_spmv(A, u, v).owned_flat
        return np.array_equal(ref, multi)

    ndpn = op.ndpn
    rank_args = []
    for r in range(N_PARTS):
        lm = part.local(r)
        rank_args.append((lm, X[lm.n_begin * ndpn: lm.n_end * ndpn]))
    results, _ = run_spmd(N_PARTS, prog, rank_args=rank_args)
    assert all(results)


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_mode_oracle_pins_bitwise_above_default_k_min(kind):
    # k=8 resolves to GEMM under the default mode="auto"
    # (DEFAULT_K_MIN=8); an explicit mode="oracle" must pin the
    # per-column bitwise contract regardless of batch width
    from repro.core.kernels import DEFAULT_K_MIN

    results = _multi_vs_single(kind, DEFAULT_K_MIN, mode="oracle")
    assert all(ok for ok, _ in results)


def test_multivector_shape_validation():
    mesh = jittered_hex_mesh(2, 2, 2, ElementType.HEX8, jitter=0.0, seed=0)
    op = PoissonOperator()

    def prog(comm, lmesh):
        A = HymvOperator(comm, lmesh, op)
        n_owned = (lmesh.n_end - lmesh.n_begin) * op.ndpn
        try:
            A.apply_owned_multi(np.zeros(n_owned))  # 1-D: must raise
        except ValueError:
            return True
        return False

    part = build_partition(mesh, 2, method="slab")
    results, _ = run_spmd(
        2, prog, rank_args=[(part.local(r),) for r in range(2)]
    )
    assert all(results)


# ----------------------------------------------------------------------------
# cg_multi vs the production single-RHS fused CG
# ----------------------------------------------------------------------------

def _cg_program(comm, lmesh, Fr, spec, k, rtol):
    ndpn = spec.operator.ndpn
    ranges = np.asarray(
        comm.allgather((lmesh.n_begin, lmesh.n_end)), dtype=INDEX_DTYPE
    )
    A = HymvOperator(comm, lmesh, spec.operator, ranges=ranges)

    from repro.core.rhs import local_node_coords

    owned_ids = np.arange(lmesh.n_begin, lmesh.n_end, dtype=INDEX_DTYPE)
    coords = local_node_coords(A.maps, lmesh)[A.maps.owned_slice]
    mask = np.zeros(owned_ids.size * ndpn, dtype=bool)
    u0 = np.zeros(owned_ids.size * ndpn)
    for bc in spec.bcs:
        m = bc.mask_slice(lmesh.n_begin, lmesh.n_end)
        vals = bc.values_for(owned_ids, coords).reshape(-1)
        u0[m] = vals[m]
        mask |= m
    d = A.diagonal_owned()
    d[mask] = 1.0
    M = JacobiPreconditioner(d)

    # production path: k independent fused single-RHS solves
    singles = []
    for j in range(k):
        apply_hat, b_hat = dirichlet_system(
            A.apply_owned, np.ascontiguousarray(Fr[:, j]), u0, mask
        )
        singles.append(
            cg(comm, apply_hat, b_hat, apply_M=M, rtol=rtol, fused=True)
        )

    # batched path
    Au0 = A.apply_owned(u0)
    B_hat = Fr - Au0[:, None]
    B_hat[mask, :] = u0[mask, None]

    def hat_multi(X):
        Xp = X.copy()
        Xp[mask, :] = 0.0
        Y = A.apply_owned_multi(Xp)
        Y[mask, :] = X[mask, :]
        return Y

    multi = cg_multi(comm, hat_multi, B_hat, apply_M=M, rtol=rtol)

    return {
        "x_equal": [
            bool(np.array_equal(singles[j].x, multi[j].x)) for j in range(k)
        ],
        "iters": [(singles[j].iterations, multi[j].iterations)
                  for j in range(k)],
        "norms_equal": [
            singles[j].residual_norms == multi[j].residual_norms
            for j in range(k)
        ],
        "converged": [multi[j].converged for j in range(k)],
    }


def test_cg_multi_bitwise_matches_fused_cg():
    k, rtol = 3, 1e-8
    spec = poisson_problem(5, n_parts=N_PARTS)
    F = np.random.default_rng(42).standard_normal((spec.n_dofs, k))
    ndpn = spec.operator.ndpn
    rank_args = []
    for r in range(N_PARTS):
        lm = spec.partition.local(r)
        rank_args.append(
            (lm, F[lm.n_begin * ndpn: lm.n_end * ndpn], spec, k, rtol)
        )
    results, _ = run_spmd(N_PARTS, _cg_program, rank_args=rank_args)
    for res in results:
        assert all(res["converged"])
        assert all(res["x_equal"])
        assert all(a == b for a, b in res["iters"])
        assert all(res["norms_equal"])


def test_cg_multi_k1_matches_fused_cg():
    spec = poisson_problem(4, n_parts=2)
    F = np.random.default_rng(3).standard_normal((spec.n_dofs, 1))
    ndpn = spec.operator.ndpn
    rank_args = []
    for r in range(2):
        lm = spec.partition.local(r)
        rank_args.append(
            (lm, F[lm.n_begin * ndpn: lm.n_end * ndpn], spec, 1, 1e-6)
        )
    results, _ = run_spmd(2, _cg_program, rank_args=rank_args)
    for res in results:
        assert res["x_equal"] == [True]
        assert res["iters"][0][0] == res["iters"][0][1]


def test_elasticity_mesh_has_multiple_ranks_of_work():
    # guard: the parametrized mesh really distributes across all ranks
    mesh, _ = _mesh_op()
    part = build_partition(mesh, N_PARTS, method="graph")
    sizes = [part.local(r).elements.size for r in range(N_PARTS)]
    assert all(s > 0 for s in sizes)


@pytest.mark.parametrize("etype", [ElementType.HEX8])
def test_elasticity_multivector_elementtype(etype):
    # ndpn=3 stresses the packed (ndpn*k)-wide halo path
    results = _multi_vs_single("hymv", 2)
    assert all(ok for ok, _ in results)
