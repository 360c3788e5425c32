"""The adaptive-matrix property (paper §I/§III, XFEM/AMR use-case):
updating a few element matrices without any global reassembly."""

from __future__ import annotations

import numpy as np

from repro.core import HymvOperator
from repro.fem import ElasticityOperator, PoissonOperator
from repro.mesh import ElementType, box_hex_mesh
from repro.partition import build_partition
from repro.simmpi import run_spmd


def _spmv_all(part, op, x, update=None):
    p = part.n_parts

    def prog(comm, lmesh, xo):
        A = HymvOperator(comm, lmesh, op)
        if update is not None:
            local_ids, scale = update(lmesh)
            A.update_elements(local_ids, stiffness_scale=scale)
        y = A.apply_owned(xo)
        return y, A.comm.obs.as_dict()

    ndpn = op.ndpn
    args = [
        (part.local(r), x[part.ranges[r, 0] * ndpn: part.ranges[r, 1] * ndpn])
        for r in range(p)
    ]
    res, _ = run_spmd(p, prog, rank_args=args)
    return np.concatenate([r[0] for r in res]), [r[1] for r in res]


def test_update_matches_full_recomputation():
    """Scaling a subset of element matrices via update_elements equals a
    full serial assembly with those elements scaled."""
    mesh = box_hex_mesh(4, 4, 4)
    op = PoissonOperator()
    part = build_partition(mesh, 3, method="slab")
    rng = np.random.default_rng(0)
    x = rng.standard_normal(mesh.n_nodes)

    # globally: scale elements 5, 17, 40 ("cracked") by 0.25
    cracked = np.array([5, 17, 40])
    scale = 0.25

    def update(lmesh):
        pos = np.flatnonzero(np.isin(lmesh.elements, cracked))
        return pos, scale

    y, _ = _spmv_all(part, op, x, update=update)

    # serial reference with scaled elements
    import scipy.sparse as sp

    ke = op.element_matrices(mesh.coords[mesh.conn], mesh.etype)
    ke[cracked] *= scale
    n = mesh.etype.n_nodes
    rows = np.repeat(mesh.conn, n, axis=1).reshape(-1)
    cols = np.tile(mesh.conn, (1, n)).reshape(-1)
    A = sp.coo_matrix((ke.reshape(-1), (rows, cols)),
                      shape=(mesh.n_nodes,) * 2).tocsr()
    x_old = np.empty_like(x)
    x_old[part.old_of_new] = x
    y_ref = (A @ x_old)[part.old_of_new]
    np.testing.assert_allclose(y, y_ref, atol=1e-12)


def test_update_with_new_coordinates():
    """Moving an element's nodes and updating only that element matches a
    fresh operator on the moved mesh."""
    mesh = box_hex_mesh(3, 3, 3)
    op = PoissonOperator()
    part = build_partition(mesh, 1, method="slab")
    lmesh = part.local(0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(mesh.n_nodes)

    moved = lmesh.coords.copy()
    moved[4] = moved[4] * 1.0
    moved[4, :, :] += 0.02  # translate element 4 (still valid geometry)

    def prog(comm):
        A = HymvOperator(comm, lmesh, op)
        A.update_elements(np.array([4]), coords=moved[4][None])
        return A.apply_owned(x)

    res, _ = run_spmd(1, prog)

    def prog_fresh(comm):
        from dataclasses import replace

        lm2 = replace(lmesh, coords=moved)
        A = HymvOperator(comm, lm2, op)
        return A.apply_owned(x)

    res2, _ = run_spmd(1, prog_fresh)
    np.testing.assert_allclose(res[0], res2[0], atol=1e-12)


def test_update_cost_proportional_to_subset():
    """The paper's adaptivity claim: updating k elements costs ~k/E of the
    full element-matrix computation (vs full reassembly for the
    matrix-assembled approach)."""
    mesh = box_hex_mesh(8, 8, 8, ElementType.HEX20)
    op = ElasticityOperator()
    part = build_partition(mesh, 1, method="slab")
    lmesh = part.local(0)

    def prog(comm):
        A = HymvOperator(comm, lmesh, op)
        t_setup = comm.obs.total("setup.emat_compute")
        # 8 of 512 elements, re-integrated: a coordinate update (here to
        # the same coordinates) cannot rescale a remembered matrix
        A.update_elements(np.arange(8), coords=lmesh.coords[:8])
        t_update = comm.obs.total("update.emat_compute")
        return t_setup, t_update

    res, _ = run_spmd(1, prog)
    t_setup, t_update = res[0]
    # 8/512 of the work; allow generous overhead for small-batch effects
    assert t_update < t_setup / 8.0


def test_update_empty_subset_is_noop():
    mesh = box_hex_mesh(2, 2, 2)
    part = build_partition(mesh, 1, method="slab")

    def prog(comm):
        A = HymvOperator(comm, part.local(0), PoissonOperator())
        ke_before = A.ke.copy()
        A.update_elements(np.array([], dtype=np.int64))
        return np.array_equal(A.ke, ke_before)

    res, _ = run_spmd(1, prog)
    assert res[0]


def test_update_preserves_symmetry():
    mesh = box_hex_mesh(3, 3, 3)
    part = build_partition(mesh, 1, method="slab")

    def prog(comm):
        A = HymvOperator(comm, part.local(0), PoissonOperator())
        A.update_elements(np.array([0, 1]), stiffness_scale=10.0)
        return np.abs(A.ke - np.swapaxes(A.ke, 1, 2)).max()

    res, _ = run_spmd(1, prog)
    assert res[0] < 1e-12
