"""Multi-RHS contract: batching k right-hand sides through any operator
or through CG is **bitwise identical per column** to k independent
single-RHS runs.

This is the property the serving layer's micro-batcher stands on: a
request's answer must not depend on which batch it happened to ride in.
The oracle operators guarantee it by running every column through the
exact single-RHS code paths; CG's ``(k, n)`` vector stage by using only
elementwise block ops and contiguous-row dots.  Only the communication
layer batches (packed ndpn·k-wide halos, k-vector allreduces), and
elementwise/same-order reductions preserve bits.
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
from repro.solvers.cg import ResilienceConfig, cg, cg_multi
from repro.solvers.constrained import dirichlet_system, owned_dirichlet
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
# cg_multi vs k single-RHS solves of the classic CG loop
# ----------------------------------------------------------------------------

def _cg_program(comm, lmesh, Fr, spec, k, rtol, X0r=None, atol=0.0):
    ranges = np.asarray(
        comm.allgather((lmesh.n_begin, lmesh.n_end)), dtype=INDEX_DTYPE
    )
    A = HymvOperator(comm, lmesh, spec.operator, ranges=ranges)
    mask, u0 = owned_dirichlet(spec, lmesh, A.maps)
    d = A.diagonal_owned()
    d[mask] = 1.0
    M = JacobiPreconditioner(d)

    # reference: k independent single-RHS solves of the classic loop
    # (the resilient path, fault-free here), which shares no code with
    # cg_multi's block vector stage
    singles = []
    for j in range(k):
        apply_hat, b_hat = dirichlet_system(
            A.apply_owned, np.ascontiguousarray(Fr[:, j]), u0, mask
        )
        x0 = None if X0r is None else np.ascontiguousarray(X0r[:, j])
        singles.append(
            cg(comm, apply_hat, b_hat, x0=x0, apply_M=M, rtol=rtol,
               atol=atol, resilience=ResilienceConfig())
        )

    # batched path
    Au0 = A.apply_owned(u0)
    B_hat = Fr - Au0[:, None]
    B_hat[mask, :] = u0[mask, None]

    def hat_multi(X):
        Xp = X.copy()
        Xp[mask, :] = 0.0
        Y = A.apply_owned_multi(Xp, mode="oracle")
        Y[mask, :] = X[mask, :]
        return Y

    multi = cg_multi(
        comm, hat_multi, B_hat, x0=X0r, apply_M=M, rtol=rtol, atol=atol
    )

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


def _cg_case(spec, F, X0=None, rtol=1e-8, atol=0.0):
    ndpn, k = spec.operator.ndpn, F.shape[1]
    rank_args = []
    for r in range(N_PARTS):
        lm = spec.partition.local(r)
        rows = slice(lm.n_begin * ndpn, lm.n_end * ndpn)
        x0 = None if X0 is None else X0[rows]
        rank_args.append((lm, F[rows], spec, k, rtol, x0, atol))
    results, _ = run_spmd(N_PARTS, _cg_program, rank_args=rank_args)
    return results


def test_cg_multi_bitwise_matches_fused_cg():
    """Column j of the (k, n)-block solve is bitwise the single-RHS
    solve of column j by the classic loop: at every batch width, with
    columns converging at different iterations (frozen rows), a zero
    column (r0 = 0, frozen from the start) and a nonzero initial guess."""
    spec = poisson_problem(5, n_parts=N_PARTS)
    n = spec.n_dofs
    rng = np.random.default_rng(42)
    cases = {f"k={k}": dict(F=rng.standard_normal((n, k)))
             for k in (1, 2, 8, 32)}
    # with an absolute floor, larger columns need more iterations
    cases["staggered"] = dict(
        F=rng.standard_normal((n, 8)) * np.logspace(0, 3, 8), atol=1e-5
    )
    F = rng.standard_normal((n, 4))
    F[:, 1] = 0.0  # homogeneous Dirichlet: a zero b_hat column
    cases["zero-column"] = dict(F=F)
    cases["x0"] = dict(
        F=rng.standard_normal((n, 4)), X0=rng.standard_normal((n, 4))
    )
    for name, case in cases.items():
        results = _cg_case(spec, **case)
        for res in results:
            assert all(res["converged"]), name
            assert all(res["x_equal"]), name
            assert all(a == b for a, b in res["iters"]), name
            assert all(res["norms_equal"]), name
        iters = [b for _, b in results[0]["iters"]]
        if name == "staggered":
            assert len(set(iters)) > 2, iters
        if name == "zero-column":
            assert iters[1] == 0 and min(iters[0], *iters[2:]) > 0


def test_cg_multi_detects_non_spd():
    d = np.linspace(-1.0, 5.0, 50)[:, None]  # indefinite diagonal

    def prog(comm):
        with pytest.raises(RuntimeError, match="breakdown"):
            cg_multi(comm, lambda P: d * P, np.ones((50, 3)))
        return True

    results, _ = run_spmd(1, prog)
    assert results == [True]


def test_solve_multi_rejects_empty_block():
    # cg_multi raises the typed error apply_multi raises, not NumPy's
    # untyped concatenate error
    from repro.serve import ProblemKey, SolverContext

    ctx = SolverContext(
        ProblemKey("poisson", 3, 2, "hex8", 0, "hymv", "einsum")
    )
    with pytest.raises(ValueError, match="need at least one column, got k=0"):
        ctx.solve_multi(np.zeros((ctx.n_dofs, 0)), rtol=1e-6)


@pytest.mark.parametrize("method", ["hymv", "assembled"])
@pytest.mark.parametrize("k,mode", [(3, "oracle"), (8, "gemm")])
def test_dirichlet_block_operator_matches_projected_copy(method, k, mode):
    """The served Dirichlet block operator (copy-free on HYMV) equals the
    projection of a copy — zero the constrained rows, apply, restore
    them — bit for bit, on a block whose constrained rows are nonzero,
    fed the transposed view ``cg_multi`` hands it; in oracle mode each
    column also equals the single-column ``apply_hat`` of
    :func:`dirichlet_system` over ``apply_owned``."""
    from repro.serve import ProblemKey, SolverContext
    from repro.serve.cache import _hat_multi

    ctx = SolverContext(ProblemKey("poisson", 4, 2, "hex8", 0, method))

    def prog(comm, st):
        rows = st["rows"]
        X = np.random.default_rng(comm.rank).standard_normal(
            (k, st["n_owned"])
        ).T
        Xp = X.copy()
        Xp[rows] = 0.0
        ref = st["A"].apply_owned_multi(Xp, mode=mode)
        ref[rows] = X[rows]
        got = _hat_multi(st, X, mode=mode).copy()
        mask = np.zeros(st["n_owned"], dtype=bool)
        mask[rows] = True
        apply_hat, _ = dirichlet_system(
            st["A"].apply_owned, np.zeros(mask.size), st["u0"], mask
        )
        cols = np.column_stack(
            [apply_hat(np.ascontiguousarray(X[:, j])) for j in range(k)]
        )
        return rows.size, ref, got, cols

    results = ctx.sim.run(prog, rank_args=[(st,) for st in ctx.ranks])
    assert all(n_rows for n_rows, *_ in results)
    for _, ref, got, cols in results:
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
        if mode == "oracle":
            np.testing.assert_array_equal(
                got.view(np.int64), cols.view(np.int64)
            )


@pytest.mark.parametrize("method", ["hymv", "assembled", "sellcs"])
def test_degraded_solve_matches_oracle_batch(method):
    """The two served solve paths agree on a fault-free context: per-column
    resilient CG (``degraded=True``) returns the bits and iteration counts
    of the lock-step oracle-mode batch."""
    from repro.serve import ProblemKey, SolverContext

    ctx = SolverContext(ProblemKey("poisson", 4, 2, "hex8", 0, method))
    F = np.random.default_rng(5).standard_normal((ctx.n_dofs, 3))
    F[:, 2] *= 1e3  # columns converging at different iterations
    degraded, _ = ctx.solve_multi(F, rtol=1e-8, degraded=True)
    oracle, _ = ctx.solve_multi(F, rtol=1e-8, mode="oracle")
    assert all(oracle["converged"]) and degraded["restarts"] == [0, 0, 0]
    assert degraded["iterations"] == oracle["iterations"]
    np.testing.assert_array_equal(
        degraded["x"].view(np.int64), oracle["x"].view(np.int64)
    )


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


def _straddling_maps():
    """Node maps of a rank with pre-ghosts, owned nodes and post-ghosts."""
    from repro.core.maps import build_node_maps

    return build_node_maps(np.array([[0, 3, 5, 6], [4, 5, 9, 8]]), 3, 7)


def test_distributed_array_bound_views_share_data():
    """``owned`` / ``owned_flat`` are bound once; a write through ``data``
    shows in both, and a write through either shows in ``data``."""
    from repro.core.da import DistributedArray

    maps = _straddling_maps()
    assert maps.n_pre and maps.n_post
    for ndpn in (1, 3):
        a = DistributedArray(maps, ndpn)
        sl = maps.owned_slice
        a.data[:] = np.arange(a.data.size).reshape(a.data.shape)
        np.testing.assert_array_equal(a.owned, a.data[sl])
        np.testing.assert_array_equal(a.owned_flat, a.data[sl].reshape(-1))
        a.owned_flat[0] = -1.0
        a.owned[-1, -1] = -2.0
        assert a.data[sl][0, 0] == -1.0 and a.data[sl][-1, -1] == -2.0
        a.set_owned(np.full(maps.n_owned * ndpn, 7.0))
        assert (a.data[sl] == 7.0).all() and (a.owned_flat == 7.0).all()
        a.zero()
        assert not a.owned_flat.any()
        b = a.copy()
        b.data[:] = 5.0
        assert (b.owned_flat == 5.0).all() and not a.owned_flat.any()


@pytest.mark.parametrize("k", [1, 3])
def test_multivector_bound_views_share_data(k):
    """The four bound views of a ``DistributedMultiVector`` alias its
    ``data`` in both directions."""
    from repro.core.da import DistributedMultiVector

    maps = _straddling_maps()
    ndpn = 2
    m = DistributedMultiVector(maps, ndpn, k)
    sl = maps.owned_slice
    m.data[:] = np.arange(m.data.size).reshape(m.data.shape)
    np.testing.assert_array_equal(
        m.node_view, m.data.reshape(maps.n_total, ndpn * k)
    )
    np.testing.assert_array_equal(
        m.dof_view, m.data.reshape(maps.n_total * ndpn, k)
    )
    np.testing.assert_array_equal(m.owned, m.data[sl])
    np.testing.assert_array_equal(
        m.owned_matrix, m.data[sl].reshape(maps.n_owned * ndpn, k)
    )
    for view, index in (
        (m.node_view, (0, 0)),
        (m.dof_view, (-1, k - 1)),
        (m.owned, (0, 1, 0)),
        (m.owned_matrix, (1, 0)),
    ):
        view[index] = -3.0
        assert np.count_nonzero(m.data == -3.0) == 1
        m.data[m.data == -3.0] = 0.0
    X = np.random.default_rng(k).standard_normal((maps.n_owned * ndpn, k))
    m.set_owned(X)
    np.testing.assert_array_equal(m.data[sl].reshape(-1, k), X)
    np.testing.assert_array_equal(m.owned_matrix, X)
    m.zero()
    assert not m.node_view.any() and not m.owned_matrix.any()


@pytest.mark.parametrize("method", ["hymv", "assembled"])
@pytest.mark.parametrize("k", [1, 3])
def test_served_answers_are_caller_owned(method, k):
    """``apply_multi`` / ``solve_multi`` answers are the one cross-rank
    copy: mutating a returned ``Y`` or ``x`` changes neither the next
    answer nor operator state, and a later product or solve leaves an
    answer already returned untouched."""
    from repro.serve import ProblemKey, SolverContext

    ctx = SolverContext(ProblemKey("poisson", 4, 2, "hex8", 0, method))
    rng = np.random.default_rng(k)
    X, X2 = rng.standard_normal((2, ctx.n_dofs, k))

    Y, _ = ctx.apply_multi(X)
    ref = Y.copy()
    Y[:] = np.nan
    Y2, _ = ctx.apply_multi(X)
    np.testing.assert_array_equal(Y2.view(np.int64), ref.view(np.int64))
    ctx.apply_multi(X2)
    np.testing.assert_array_equal(Y2.view(np.int64), ref.view(np.int64))

    out, _ = ctx.solve_multi(X, rtol=1e-8)
    xref = out["x"].copy()
    out["x"][:] = np.nan
    again, _ = ctx.solve_multi(X, rtol=1e-8)
    np.testing.assert_array_equal(again["x"].view(np.int64), xref.view(np.int64))
    ctx.solve_multi(X2, rtol=1e-8)
    np.testing.assert_array_equal(again["x"].view(np.int64), xref.view(np.int64))
    assert again["x"].flags.c_contiguous and again["x"].shape == (ctx.n_dofs, k)
