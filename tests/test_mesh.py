"""Mesh generation: structured boxes, tetrahedralization, promotion,
boundary extraction, dual graph."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mesh import ElementType, box_hex_mesh, box_tet_mesh, jittered_hex_mesh
from repro.mesh.element import corner_faces, face_nodes
from repro.mesh.unstructured import promote_mesh

dims = st.integers(min_value=1, max_value=4)


@given(dims, dims, dims)
def test_hex8_box_counts(nx, ny, nz):
    m = box_hex_mesh(nx, ny, nz)
    assert m.n_elements == nx * ny * nz
    assert m.n_nodes == (nx + 1) * (ny + 1) * (nz + 1)


@given(dims, dims, dims)
def test_hex27_box_counts(nx, ny, nz):
    m = box_hex_mesh(nx, ny, nz, ElementType.HEX27)
    assert m.n_nodes == (2 * nx + 1) * (2 * ny + 1) * (2 * nz + 1)


@given(dims, dims, dims)
def test_hex20_box_counts(nx, ny, nz):
    m = box_hex_mesh(nx, ny, nz, ElementType.HEX20)
    corners = (nx + 1) * (ny + 1) * (nz + 1)
    edges = (
        nx * (ny + 1) * (nz + 1)
        + (nx + 1) * ny * (nz + 1)
        + (nx + 1) * (ny + 1) * nz
    )
    assert m.n_nodes == corners + edges


def test_box_respects_lengths_and_origin():
    m = box_hex_mesh(2, 3, 4, lengths=(2.0, 3.0, 4.0), origin=(-1.0, 0.5, 2.0))
    lo, hi = m.coords.min(axis=0), m.coords.max(axis=0)
    np.testing.assert_allclose(lo, [-1.0, 0.5, 2.0])
    np.testing.assert_allclose(hi, [1.0, 3.5, 6.0])


@pytest.mark.parametrize(
    "etype", [ElementType.HEX8, ElementType.HEX20, ElementType.HEX27]
)
def test_hex_jacobians_positive(etype):
    from repro.fem.elemmat import jacobians
    from repro.mesh.quadrature import quadrature_for
    from repro.mesh.shape_functions import shape_functions_for

    m = jittered_hex_mesh(3, 3, 3, etype, jitter=0.25, seed=3)
    sf = shape_functions_for(etype)
    q = quadrature_for(etype)
    _, detJ, _ = jacobians(sf.grad(q.points), m.coords[m.conn])
    assert (detJ > 0).all()


def test_tet_mesh_positive_volumes_and_conformity():
    m = box_tet_mesh(3, 3, 3, jitter=0.3, seed=7)
    c = m.coords[m.conn]
    vols = np.linalg.det(c[:, 1:4] - c[:, 0:1]) / 6.0
    assert (vols > 0).all()
    np.testing.assert_allclose(vols.sum(), 1.0, rtol=1e-12)
    # conformity: every interior triangle face shared by exactly 2 tets
    from repro.mesh.element import TET_FACES

    keys = np.vstack([np.sort(m.conn[:, list(f)], axis=1) for f in TET_FACES])
    view = np.ascontiguousarray(keys).view([("", keys.dtype)] * 3).reshape(-1)
    _, counts = np.unique(view, return_counts=True)
    assert set(counts.tolist()) <= {1, 2}
    assert (counts == 1).sum() == 2 * 6 * 9  # boundary triangles


def test_tet10_midpoints_on_edges():
    from repro.mesh.element import TET_EDGES

    m = box_tet_mesh(2, 2, 2, ElementType.TET10, jitter=0.2, seed=1)
    c = m.coords[m.conn]
    for k, (i, j) in enumerate(TET_EDGES):
        np.testing.assert_allclose(c[:, 4 + k], (c[:, i] + c[:, j]) / 2.0)


def test_promotion_shares_midside_nodes():
    base = box_hex_mesh(2, 2, 2)
    m = promote_mesh(base, ElementType.HEX27)
    # unique global edge count of a 2x2x2 hex grid: 3 * n*(n+1)^2 with n=2
    n_edges = 3 * 2 * 9
    n_faces = 3 * 4 * 3  # 3 directions * (2*2 faces * 3 layers)
    assert m.n_nodes == base.n_nodes + n_edges + n_faces + base.n_elements


def test_promotion_rejects_bad_pairs():
    m = box_hex_mesh(2, 2, 2)
    with pytest.raises(ValueError):
        promote_mesh(m, ElementType.TET10)


@pytest.mark.parametrize("etype", list(ElementType))
def test_boundary_nodes_geometric(etype):
    if etype.is_hex:
        m = box_hex_mesh(3, 3, 3, etype)
    else:
        m = box_tet_mesh(3, 3, 3, etype, jitter=0.0)
    bn = m.boundary_nodes()
    on_box = np.any(
        (np.abs(m.coords) < 1e-12) | (np.abs(m.coords - 1.0) < 1e-12), axis=1
    )
    np.testing.assert_array_equal(np.sort(np.flatnonzero(on_box)), bn)


def test_dual_graph_structured_hex():
    m = box_hex_mesh(3, 3, 3)
    edges = m.dual_graph_edges()
    # interior faces of a 3x3x3 grid: 3 * 2 * 9 = 54
    assert edges.shape == (54, 2)
    assert (edges[:, 0] != edges[:, 1]).all()


def test_face_nodes_cover_higher_order():
    for etype in (ElementType.HEX20, ElementType.HEX27, ElementType.TET10):
        fn = face_nodes(etype)
        cf = corner_faces(etype)
        for f, face in enumerate(fn):
            assert set(cf[f]) <= set(face)
            if etype is ElementType.HEX27:
                assert len(face) == 9
            elif etype is ElementType.HEX20:
                assert len(face) == 8
            else:
                assert len(face) == 6


def test_mesh_validation_errors():
    from repro.mesh.mesh import Mesh

    coords = np.zeros((4, 3))
    with pytest.raises(ValueError):
        Mesh(coords, np.array([[0, 1, 2, 99]]), ElementType.TET4)
    with pytest.raises(ValueError):
        Mesh(np.zeros((4, 2)), np.array([[0, 1, 2, 3]]), ElementType.TET4)
    with pytest.raises(ValueError):
        Mesh(coords, np.array([[0, 1, 2]]), ElementType.TET4)


def test_node_elements_adjacency():
    m = box_hex_mesh(2, 2, 2)
    offsets, elems = m.node_elements()
    # center node of a 2x2x2 grid belongs to all 8 elements
    center = np.flatnonzero(
        np.all(np.abs(m.coords - 0.5) < 1e-12, axis=1)
    )[0]
    assert offsets[center + 1] - offsets[center] == 8
    assert set(elems[offsets[center]: offsets[center + 1]].tolist()) == set(
        range(8)
    )


# -- boundary detection vs the per-face reference ------------------------

def _ref_boundary_faces(m):
    """Face-major (element, face) pairs whose corner set occurs once:
    one structured-void ``np.unique`` over every face key."""
    faces = corner_faces(m.etype)
    keys = np.vstack([np.sort(m.conn[:, list(f)], axis=1) for f in faces])
    owners = np.vstack([
        np.stack([np.arange(m.n_elements), np.full(m.n_elements, fi)], axis=1)
        for fi in range(len(faces))
    ])
    view = np.ascontiguousarray(keys).view(
        [("", keys.dtype)] * keys.shape[1]
    ).reshape(-1)
    _, inverse, counts = np.unique(view, return_inverse=True, return_counts=True)
    return owners[counts[inverse] == 1]


def _ref_boundary_nodes(m):
    fnodes = face_nodes(m.etype)
    ids = [m.conn[e, list(fnodes[f])] for e, f in _ref_boundary_faces(m)]
    return np.unique(np.concatenate(ids))


def _ref_dual_edges(m):
    faces = corner_faces(m.etype)
    keys = np.vstack([np.sort(m.conn[:, list(f)], axis=1) for f in faces])
    elems = np.tile(np.arange(m.n_elements), len(faces))
    view = np.ascontiguousarray(keys).view(
        [("", keys.dtype)] * keys.shape[1]
    ).reshape(-1)
    order = np.argsort(view, kind="stable")
    sv, se = view[order], elems[order]
    same = sv[1:] == sv[:-1]
    return np.stack([se[:-1][same], se[1:][same]], axis=1)


@pytest.mark.parametrize("build", [
    lambda: box_hex_mesh(3, 2, 4),
    lambda: jittered_hex_mesh(2, 3, 2, ElementType.HEX20, jitter=0.2, seed=1),
    lambda: box_tet_mesh(3, 3, 2, jitter=0.25, seed=4),
    lambda: box_tet_mesh(2, 2, 3, ElementType.TET10, jitter=0.0),
], ids=["hex8", "hex20-jittered", "tet4-jittered", "tet10"])
def test_boundary_detection_matches_per_face_reference(build):
    m = build()
    for got, want in (
        (m.boundary_faces(), _ref_boundary_faces(m)),
        (m.boundary_nodes(), _ref_boundary_nodes(m)),
        (m.dual_graph_edges(), _ref_dual_edges(m)),
    ):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
