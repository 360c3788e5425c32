"""Edge cases: empty ranks, tiny meshes, degenerate configurations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HymvOperator
from repro.fem import PoissonOperator
from repro.kinds import OPERATOR_KINDS
from repro.mesh import box_hex_mesh
from repro.partition.interface import partition_from_elem_part
from repro.serve import ProblemKey, SolverContext
from repro.simmpi import run_spmd

OP = PoissonOperator()


def _partition_with_empty_rank(p=3):
    """Rank 1 gets no elements at all."""
    mesh = box_hex_mesh(2, 2, 4)
    elem_part = np.zeros(mesh.n_elements, dtype=np.int64)
    elem_part[mesh.n_elements // 2:] = 2
    return mesh, partition_from_elem_part(mesh, p, elem_part)


@pytest.mark.parametrize(
    "factory", [k.factory for k in OPERATOR_KINDS.values()],
    ids=lambda f: f.__name__,
)
def test_empty_rank_spmv(factory):
    mesh, part = _partition_with_empty_rank()
    assert part.local(1).n_local_elements == 0
    assert part.local(1).n_owned == 0
    rng = np.random.default_rng(0)
    x = rng.standard_normal(mesh.n_nodes)

    def prog(comm, lmesh, xo):
        A = factory(comm, lmesh, OP)
        return A.apply_owned(xo)

    args = [
        (part.local(r), x[part.ranges[r, 0]: part.ranges[r, 1]])
        for r in range(3)
    ]
    res, _ = run_spmd(3, prog, rank_args=args)
    y = np.concatenate(res)
    from repro.baselines import SerialReference

    ref = SerialReference(mesh, OP)
    x_old = np.empty_like(x)
    x_old[part.old_of_new] = x
    y_ref = ref.spmv(x_old)[part.old_of_new]
    np.testing.assert_allclose(y, y_ref, atol=1e-12)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("kind", sorted(OPERATOR_KINDS))
def test_served_rank_without_elements_keeps_the_bits(kind):
    """Rank 0 of the one-element mesh on 2 ranks owns no element and no
    dof; its k = 1, oracle k = 8 and GEMM k = 8 applies are those of the
    1-rank key, by int64 view."""
    ctx = {p: SolverContext(ProblemKey("poisson", 1, p, "hex8", 0, kind))
           for p in (1, 2)}
    part = ctx[2].spec.partition
    assert part.local(0).n_local_elements == 0
    assert part.local(0).n_owned == 0
    X = np.random.default_rng(0).standard_normal((ctx[1].n_dofs, 8))
    for cols, mode in ((slice(0, 1), "auto"), (slice(None), "oracle"),
                       (slice(None), "gemm")):
        got, want = (ctx[p].apply_multi(X[:, cols], mode=mode)[0]
                     for p in (2, 1))
        np.testing.assert_array_equal(_bits(got), _bits(want))


def test_empty_rank_solve():
    from repro.fem.analytic import poisson_exact, poisson_forcing
    from repro.fem.dirichlet import DirichletBC
    from repro.harness import run_solve
    from repro.problems import ProblemSpec

    mesh = box_hex_mesh(4, 4, 4)
    elem_part = np.zeros(mesh.n_elements, dtype=np.int64)
    elem_part[mesh.n_elements // 2:] = 2  # rank 1 empty
    part = partition_from_elem_part(mesh, 3, elem_part)
    spec = ProblemSpec(
        name="poisson-empty-rank",
        mesh=mesh,
        partition=part,
        operator=OP,
        body_force=lambda x: poisson_forcing(x)[..., None],
        bcs=[DirichletBC(part.boundary_nodes_new(), 0.0, ndpn=1)],
        analytic=poisson_exact,
    )
    out = run_solve(spec, "hymv", precond="jacobi", rtol=1e-9)
    assert out.converged
    assert out.err_inf < 5e-3


def test_single_element_mesh_end_to_end():
    mesh = box_hex_mesh(1, 1, 1)
    part = partition_from_elem_part(mesh, 1, np.zeros(1, dtype=np.int64))

    def prog(comm):
        A = HymvOperator(comm, part.local(0), OP)
        x = np.ones(A.n_dofs_owned)
        y = A.apply_owned(x)
        return np.abs(y).max()

    res, _ = run_spmd(1, prog)
    assert res[0] < 1e-12  # constant in the Laplacian nullspace


def test_two_ranks_one_element_each():
    mesh = box_hex_mesh(1, 1, 2)
    part = partition_from_elem_part(
        mesh, 2, np.array([0, 1], dtype=np.int64)
    )
    rng = np.random.default_rng(1)
    x = rng.standard_normal(mesh.n_nodes)

    def prog(comm, lmesh, xo):
        A = HymvOperator(comm, lmesh, OP)
        # rank 1's elements are all dependent (the shared face)
        if comm.rank == 1:
            assert A.n_dependent == 1 and A.n_independent == 0
        return A.apply_owned(xo)

    args = [
        (part.local(r), x[part.ranges[r, 0]: part.ranges[r, 1]])
        for r in range(2)
    ]
    res, _ = run_spmd(2, prog, rank_args=args)
    from repro.baselines import SerialReference

    ref = SerialReference(mesh, OP)
    x_old = np.empty_like(x)
    x_old[part.old_of_new] = x
    y_ref = ref.spmv(x_old)[part.old_of_new]
    np.testing.assert_allclose(np.concatenate(res), y_ref, atol=1e-12)


def test_update_elements_out_of_range_is_safe():
    mesh = box_hex_mesh(2, 2, 2)
    part = partition_from_elem_part(
        mesh, 1, np.zeros(mesh.n_elements, dtype=np.int64)
    )

    def prog(comm):
        A = HymvOperator(comm, part.local(0), OP)
        with pytest.raises(IndexError):
            A.update_elements(np.array([99]))
        return True

    res, _ = run_spmd(1, prog)
    assert res[0]


def test_diagonal_positive_for_spd_operator():
    mesh = box_hex_mesh(3, 3, 3)
    part = partition_from_elem_part(
        mesh, 2,
        (np.arange(mesh.n_elements) * 2 // mesh.n_elements).astype(np.int64),
    )

    def prog(comm, lmesh):
        A = HymvOperator(comm, lmesh, OP)
        return A.diagonal_owned()

    res, _ = run_spmd(2, prog, rank_args=[(part.local(r),) for r in range(2)])
    d = np.concatenate(res)
    assert (d > 0).all()
    # cross-check against the serial diagonal
    from repro.baselines import SerialReference

    ref = SerialReference(mesh, OP)
    np.testing.assert_allclose(
        d, ref.A.diagonal()[part.old_of_new], atol=1e-12
    )
