"""Local (Rivara) refinement and element-matrix reuse across meshes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HymvOperator
from repro.fem import PoissonOperator
from repro.mesh import box_tet_mesh
from repro.mesh.adapt import refine_local
from repro.mesh.element import TET_FACES
from repro.partition import build_partition
from repro.simmpi import run_spmd


def _conforming(mesh) -> bool:
    keys = np.vstack(
        [np.sort(mesh.conn[:, list(f)], axis=1) for f in TET_FACES]
    )
    view = np.ascontiguousarray(keys).view([("", keys.dtype)] * 3).reshape(-1)
    _, counts = np.unique(view, return_counts=True)
    return set(counts.tolist()) <= {1, 2}


def _volumes(mesh):
    c = mesh.coords[mesh.conn]
    return np.linalg.det(c[:, 1:4] - c[:, 0:1]) / 6.0


def test_refine_local_basic():
    mesh = box_tet_mesh(2, 2, 2, jitter=0.15, seed=1)
    ref = refine_local(mesh, [0, 5])
    assert ref.mesh.n_elements > mesh.n_elements
    assert _conforming(ref.mesh)
    v = _volumes(ref.mesh)
    assert (v > 0).all()
    np.testing.assert_allclose(v.sum(), _volumes(mesh).sum(), rtol=1e-12)


def test_refine_local_ancestry_and_unchanged():
    mesh = box_tet_mesh(2, 2, 2, jitter=0.0)
    marked = [3]
    ref = refine_local(mesh, marked)
    assert ref.ancestor.shape == (ref.mesh.n_elements,)
    # unchanged elements are bit-identical to their ancestors
    for ei in np.flatnonzero(ref.unchanged):
        anc = ref.ancestor[ei]
        np.testing.assert_array_equal(
            ref.mesh.coords[ref.mesh.conn[ei]], mesh.coords[mesh.conn[anc]]
        )
    # the marked element is gone (touched)
    assert not ref.unchanged[3]
    assert (~ref.unchanged).sum() >= 2


def test_refine_local_empty_marks_is_identity():
    mesh = box_tet_mesh(2, 2, 2, jitter=0.1)
    ref = refine_local(mesh, np.array([], dtype=np.int64))
    assert ref.mesh.n_elements == mesh.n_elements
    assert ref.unchanged.all()


def test_refine_local_validation():
    mesh = box_tet_mesh(1, 1, 1)
    with pytest.raises(ValueError):
        refine_local(mesh, [99])
    from repro.mesh import box_hex_mesh

    with pytest.raises(ValueError):
        refine_local(box_hex_mesh(1, 1, 1), [0])


def test_repeated_refinement_keeps_quality_bounded():
    """Rivara bisection famously keeps shape quality bounded; check the
    min dihedral-ish quality does not collapse over repeated passes."""
    mesh = box_tet_mesh(2, 2, 2, jitter=0.1)

    def quality(m):
        c = m.coords[m.conn]
        vol = np.abs(np.linalg.det(c[:, 1:4] - c[:, 0:1]) / 6.0)
        edges = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)]
        h = np.max(
            [np.linalg.norm(c[:, a] - c[:, b], axis=1) for a, b in edges],
            axis=0,
        )
        return (vol / h**3).min()

    q0 = quality(mesh)
    rng = np.random.default_rng(0)
    for _ in range(3):
        marked = rng.choice(mesh.n_elements, size=4, replace=False)
        mesh = refine_local(mesh, marked).mesh
        assert _conforming(mesh)
        assert (_volumes(mesh) > 0).all()
    assert quality(mesh) > q0 / 20.0  # bounded degradation


def test_ke_cache_reuse_across_refinement():
    """Adaptive workflow: after local refinement, only new elements pay
    the elemental computation; results match a cold rebuild exactly."""
    op = PoissonOperator()
    mesh = box_tet_mesh(2, 2, 2, jitter=0.1)
    ref = refine_local(mesh, [0, 7])
    fine = ref.mesh

    part_old = build_partition(mesh, 1, method="slab")
    part_new = build_partition(fine, 1, method="slab")
    rng = np.random.default_rng(2)
    x = rng.standard_normal(fine.n_nodes)

    def prog(comm):
        A_old = HymvOperator(comm, part_old.local(0), op)
        cache_old = A_old.export_ke_cache()
        # translate the cache to the refined mesh via ancestry, keeping
        # only untouched elements
        cache = {
            ei: cache_old[int(ref.ancestor[ei])]
            for ei in np.flatnonzero(ref.unchanged)
        }
        A_warm = HymvOperator(comm, part_new.local(0), op, ke_cache=cache)
        A_cold = HymvOperator(comm, part_new.local(0), op)
        y_warm = A_warm.apply_owned(x)
        y_cold = A_cold.apply_owned(x)
        return A_warm.cache_hits, np.abs(y_warm - y_cold).max()

    res, _ = run_spmd(1, prog)
    hits, err = res[0]
    assert hits == int(ref.unchanged.sum())
    assert hits > 0
    assert err == 0.0  # bitwise identical matrices


def test_ke_cache_fem_correctness_after_refinement():
    """Solve on a locally-refined mesh with cached matrices; error vs the
    exact solution stays consistent."""
    import scipy.sparse.linalg  # noqa: F401 (ensure available)

    from repro.fem.analytic import poisson_exact, poisson_forcing
    from repro.baselines.serial import SerialReference
    from repro.fem.loads import body_force_rhs_batch

    mesh = box_tet_mesh(3, 3, 3, jitter=0.1)
    # refine around the domain centre where the forcing peaks
    cent = mesh.element_centroids()
    marked = np.flatnonzero(np.linalg.norm(cent - 0.25, axis=1) < 0.3)
    fine = refine_local(mesh, marked).mesh
    ref = SerialReference(fine, PoissonOperator())
    fe = body_force_rhs_batch(
        fine.coords[fine.conn], fine.etype,
        lambda x: poisson_forcing(x)[..., None], 1,
    )
    f = ref.rhs_from_elemental(fe[:, :, None])
    u = ref.solve_dirichlet(f, fine.boundary_nodes(), np.zeros(ref.n_dofs))
    err = np.abs(u - poisson_exact(fine.coords)).max()
    assert err < 5e-3
