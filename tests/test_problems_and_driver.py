"""Problem specs, RHS assembly, distributed arrays and the drivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.da import DistributedArray
from repro.core.maps import build_node_maps
from repro.core.rhs import assemble_rhs, local_node_coords
from repro.core.scatter import build_comm_maps
from repro.fem.operators import ElasticityOperator, PoissonOperator
from repro.harness import run_bench, run_solve
from repro.harness.meshes import box_dims_for_dofs
from repro.harness.registry import EXPERIMENTS, run_experiment
from repro.mesh import ElementType
from repro.problems import elastic_bar_problem, poisson_problem
from repro.simmpi import run_spmd


# ----------------------------------------------------------------------------
# problem specs
# ----------------------------------------------------------------------------

def test_poisson_problem_spec():
    spec = poisson_problem(5, 3)
    assert spec.n_parts == 3
    assert spec.n_dofs == 6**3
    assert len(spec.bcs) == 1
    assert spec.analytic is not None
    # boundary nodes constrained
    bn = spec.partition.boundary_nodes_new()
    assert np.array_equal(spec.bcs[0].nodes, bn)


def test_elastic_bar_spec_tractions_partitioned():
    spec = elastic_bar_problem(3, 3, ElementType.HEX20)
    # top face: one traction group; rank-local subsets cover it exactly
    elems, faces, t = spec.tractions[0]
    total = sum(len(spec.rank_tractions(r)[0][0]) for r in range(3))
    assert total == len(elems)
    assert t[2] > 0  # upward traction
    # minimal pinning: 6 constrained dofs
    ndofs = sum(bc.constrained_dofs().size for bc in spec.bcs)
    assert ndofs == 6


@pytest.mark.parametrize("etype,unstructured", [
    (ElementType.HEX8, False), (ElementType.HEX20, True),
    (ElementType.HEX27, False), (ElementType.TET4, False),
    (ElementType.TET10, False),
])
def test_elastic_bar_top_pairs_match_per_face_reference(etype, unstructured):
    """The vectorised top-face selection keeps the per-face loop's pairs,
    order and dtype."""
    from repro.mesh.element import corner_faces

    spec = elastic_bar_problem((2, 2, 3), 1, etype, unstructured=unstructured)
    mesh, Lz = spec.mesh, 2.0
    cf = corner_faces(etype)
    want = []
    for e, f in mesh.boundary_faces():
        nodes = mesh.conn[e, list(cf[f])]
        if np.allclose(mesh.coords[nodes][:, 2], Lz, atol=1e-9):
            want.append((e, f))
    want = np.asarray(want, dtype=np.int64).reshape(-1, 2)
    elems, faces, _ = spec.tractions[0]
    got = np.stack([elems, faces], axis=1)
    assert got.dtype == want.dtype and len(want) > 0
    assert np.array_equal(got, want)


def test_elastic_bar_pin_validation():
    with pytest.raises(ValueError):
        elastic_bar_problem(2, 1, pin="nothing")


def test_analytic_owned_shapes():
    spec = elastic_bar_problem(2, 2, ElementType.HEX8)
    for r in range(2):
        exact = spec.analytic_owned(r)
        b, e = spec.partition.ranges[r]
        assert exact.shape == ((e - b) * 3,)


# ----------------------------------------------------------------------------
# RHS assembly / local coords / DA
# ----------------------------------------------------------------------------

def test_local_node_coords_cover_all_slots():
    spec = poisson_problem(4, 3)
    part = spec.partition
    for r in range(3):
        lm = part.local(r)
        maps = build_node_maps(lm.e2g, lm.n_begin, lm.n_end)
        coords = local_node_coords(maps, lm)
        l2g = maps.local_to_global()
        np.testing.assert_allclose(
            coords, part.coords_by_new_id()[l2g], atol=0
        )


def test_assemble_rhs_matches_serial():
    spec = elastic_bar_problem(3, 3, ElementType.HEX20)
    part, op = spec.partition, spec.operator

    def prog(comm, lmesh, tractions):
        maps = build_node_maps(lmesh.e2g, lmesh.n_begin, lmesh.n_end)
        cmaps = build_comm_maps(comm, maps)
        return assemble_rhs(
            comm, lmesh, maps, cmaps, 3,
            body_force=spec.body_force, tractions=tractions,
        )

    res, _ = run_spmd(
        3, prog,
        rank_args=[(part.local(r), spec.rank_tractions(r)) for r in range(3)],
    )
    f = np.concatenate(res)
    # total force balance: body force total + traction total = 0 in z
    mat = op.material
    vol = 1.0 * 1.0 * 2.0
    fz = f.reshape(-1, 3)[:, 2].sum()
    np.testing.assert_allclose(
        fz, -mat.rho * mat.g * vol + mat.rho * mat.g * 2.0 * 1.0, atol=1e-10
    )


def test_distributed_array_views_and_reductions():
    spec = poisson_problem(4, 2)
    part = spec.partition

    def prog(comm, lmesh):
        maps = build_node_maps(lmesh.e2g, lmesh.n_begin, lmesh.n_end)
        da = DistributedArray(maps, ndpn=2)
        da.set_owned(np.full((maps.n_owned, 2), float(comm.rank + 1)))
        # views share memory
        da.owned_flat[0] = 42.0
        assert da.data[maps.n_pre, 0] == 42.0
        db = da.copy()
        db.zero()
        assert da.owned_flat[0] == 42.0 and db.owned_flat.sum() == 0.0
        assert db.dot(da, comm) == 0.0
        return da.dot(da, comm)

    res, _ = run_spmd(2, prog, rank_args=[(part.local(r),) for r in range(2)])
    assert res[1] == res[0] > 42.0**2  # collective agreement


# ----------------------------------------------------------------------------
# drivers / registry
# ----------------------------------------------------------------------------

def test_run_bench_unknown_method():
    spec = poisson_problem(3, 1)
    with pytest.raises(ValueError, match="unknown method"):
        run_bench(spec, "petsc")


def test_run_solve_unknown_precond():
    spec = poisson_problem(3, 1)
    with pytest.raises(ValueError, match="unknown preconditioner"):
        run_solve(spec, "hymv", precond="amg")


def test_run_solve_returns_solution_when_asked():
    spec = poisson_problem(4, 2)
    out = run_solve(spec, "hymv", rtol=1e-8, return_solution=True)
    assert out.solution.shape == (spec.n_dofs,)
    out2 = run_solve(spec, "hymv", rtol=1e-8)
    assert out2.solution is None


def test_registry_complete_and_errors():
    expected = {
        "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
        "fig11", "table1", "memory", "verification",
    }
    assert set(EXPERIMENTS) == expected
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_box_dims_for_dofs_accuracy():
    for etype, op in [
        (ElementType.HEX8, PoissonOperator()),
        (ElementType.HEX20, ElasticityOperator()),
        (ElementType.TET10, PoissonOperator()),
    ]:
        dims = box_dims_for_dofs(etype, op, 5000.0)
        spec_fn = poisson_problem if op.ndpn == 1 else elastic_bar_problem
        spec = spec_fn(dims, 1, etype)
        assert 0.3 * 5000 < spec.n_dofs < 3.0 * 5000


def test_bench_flop_accounting_scales_with_nspmv():
    spec = poisson_problem(5, 2)
    b1 = run_bench(spec, "hymv", n_spmv=1)
    b4 = run_bench(spec, "hymv", n_spmv=4)
    np.testing.assert_allclose(b4.flops_spmv, 4 * b1.flops_spmv)


def test_harness_main_cli(tmp_path, capsys):
    from repro.harness.__main__ import main

    rc = main(["fig3", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fig3.txt").exists()
    out = capsys.readouterr().out
    assert "Fig 3" in out


def test_partition_to_mesh_order_roundtrip():
    spec = elastic_bar_problem(2, 2, ElementType.HEX8)
    part = spec.partition
    rng = np.random.default_rng(3)
    vals_new = rng.standard_normal(spec.n_dofs)
    back = part.to_mesh_order(vals_new, ndpn=3)
    # node i of the mesh carries the values of renumbered node new_of_old[i]
    for i in (0, 5, part.mesh.n_nodes - 1):
        np.testing.assert_array_equal(
            back[i], vals_new.reshape(-1, 3)[part.new_of_old[i]]
        )
    scalar = part.to_mesh_order(np.arange(part.mesh.n_nodes, dtype=float))
    assert scalar.shape == (part.mesh.n_nodes,)
