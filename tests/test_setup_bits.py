"""Set-up outputs, pinned bit for bit against the straightforward forms.

A cold build computes the boundary, the centroids the partitioners
read, the Jacobians and the element matrices with rewrites that cut
sorting, copying and strided traffic: face keys packed into two int64s
and sorted once, centroids as a running corner sum, the 3x3 adjugate on
component-major copies of ``J``, element matrices written in place.
Each rewrite does the same arithmetic in the same order, so every array
it produces must equal the plain formulation kept here (and only here),
compared by int64 view.  An adaptive patch equals a fresh build bitwise
only while these bits hold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fem.elemmat import InvertedElementError, _basis, _geometry
from repro.fem.material import IsotropicElasticity
from repro.fem.operators import (
    ElasticityOperator,
    GraphLaplacianOperator,
    PoissonOperator,
)
from repro.mesh import (
    ElementType,
    Mesh,
    box_hex_mesh,
    box_tet_mesh,
    jittered_hex_mesh,
    refine_local,
)
from repro.mesh.element import corner_faces, face_nodes
from repro.mesh.mesh import pack_face_keys
from repro.mesh.unstructured import promote_mesh


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind == "f":
        return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))
    return a.dtype == b.dtype and np.array_equal(a, b)


# -- the plain formulations ---------------------------------------------

def _plain_face_keys(mesh):
    faces = np.asarray(corner_faces(mesh.etype))
    keys = np.sort(mesh.conn[:, faces], axis=2)
    keys = keys.transpose(1, 0, 2).reshape(-1, faces.shape[1])
    order = np.lexsort(keys.T[::-1])
    sk = keys[order]
    return order, (sk[1:] == sk[:-1]).all(axis=1)


def _plain_boundary_faces(mesh):
    order, dup = _plain_face_keys(mesh)
    shared = np.zeros(order.size, dtype=bool)
    shared[1:] = dup
    shared[:-1] |= dup
    once = np.zeros(order.size, dtype=bool)
    once[order] = ~shared
    face, elem = np.divmod(np.flatnonzero(once), mesh.n_elements)
    return np.stack([elem, face], axis=1)


def _plain_boundary_nodes(mesh):
    bf = _plain_boundary_faces(mesh)
    fnodes = np.asarray(face_nodes(mesh.etype))
    return np.unique(mesh.conn[bf[:, :1], fnodes[bf[:, 1]]])


def _plain_dual_graph_edges(mesh):
    order, dup = _plain_face_keys(mesh)
    se = order % mesh.n_elements
    return np.stack([se[:-1][dup], se[1:][dup]], axis=1)


def _plain_centroids(mesh):
    nc = mesh.etype.corner_count
    return mesh.coords[mesh.conn[:, :nc]].mean(axis=1)


def _plain_geometry(dNt, coords):
    q = dNt.shape[0]
    J = np.matmul(dNt.reshape(3 * q, -1), coords).reshape(-1, q, 3, 3)
    invJt = np.empty_like(J)
    for i in range(3):
        u, v = J[..., (i + 1) % 3, :], J[..., (i + 2) % 3, :]
        invJt[..., i, 0] = u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1]
        invJt[..., i, 1] = u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2]
        invJt[..., i, 2] = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    detJ = (
        J[..., 0, 0] * invJt[..., 0, 0]
        + J[..., 0, 1] * invJt[..., 0, 1]
        + J[..., 0, 2] * invJt[..., 0, 2]
    )
    if (detJ <= 0).any():
        raise InvertedElementError(int((detJ <= 0).sum()))
    invJt /= detJ[..., None, None]
    return J, detJ, invJt


def _plain_weighted(basis, coords, coefficient=None):
    _, detJ, invJt = _plain_geometry(basis.dNt, coords)
    wd = basis.weights * detJ
    if coefficient is not None:
        kappa = np.asarray(coefficient(np.matmul(basis.N, coords)))
        wd = wd * kappa.reshape(wd.shape)
    return invJt, wd


def _plain_poisson(coords, etype, coefficient=None):
    basis = _basis(etype, None)
    invJt, wd = _plain_weighted(basis, coords, coefficient)
    g = np.matmul(np.swapaxes(invJt, -1, -2), basis.dNt)
    E, q, _, n = g.shape
    gw = (g * wd[:, :, None, None]).reshape(E, 3 * q, n)
    return np.matmul(np.swapaxes(gw, 1, 2), g.reshape(E, 3 * q, n))


def _plain_elasticity(coords, etype, lam, mu):
    basis = _basis(etype, None)
    invJt, wd = _plain_weighted(basis, coords)
    g = np.matmul(basis.dN, invJt)
    E, q, n, _ = g.shape
    G = g.reshape(E, q, 3 * n)
    P = np.matmul(np.swapaxes(G * wd[:, :, None], 1, 2), G)
    P = P.reshape(E, n, 3, n, 3)
    ke = lam * P
    ke += mu * P.transpose(0, 1, 4, 3, 2)
    gdot = mu * (P[:, :, 0, :, 0] + P[:, :, 1, :, 1] + P[:, :, 2, :, 2])
    for i in range(3):
        ke[:, :, i, :, i] += gdot
    return ke.reshape(E, 3 * n, 3 * n)


def _plain_graph_laplacian(op, coords):
    mid = 0.5 * (coords[:, :, None, :] + coords[:, None, :, :])
    phase = (
        mid[..., 0] * 12.9898
        + mid[..., 1] * 78.233
        + mid[..., 2] * 37.719
        + op.seed * 0.618033988749895
    )
    u = np.sin(phase) * 43758.5453123
    u -= np.floor(u)
    w = np.where(u < op.drop, 0.0, u)
    n = coords.shape[1]
    w = w * (1.0 - np.eye(n))
    ke = np.zeros_like(w)
    idx = np.arange(n)
    ke[:, idx, idx] = w.sum(axis=2) + op.shift
    ke -= w
    return ke


# -- meshes -------------------------------------------------------------

def _renumbered(mesh, seed):
    """The same mesh with shuffled node ids and element order."""
    rng = np.random.default_rng(seed)
    new_of_old = rng.permutation(mesh.n_nodes)
    coords = np.empty_like(mesh.coords)
    coords[new_of_old] = mesh.coords
    conn = new_of_old[mesh.conn][rng.permutation(mesh.n_elements)]
    return Mesh(coords, conn, mesh.etype)


def _one_tet(etype):
    tet = Mesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
               np.arange(4)[None, :], ElementType.TET4)
    return tet if etype is ElementType.TET4 else promote_mesh(tet, etype)


def _meshes(etype):
    """Structured, perturbed, unstructured and one-element meshes."""
    if etype.is_hex:
        out = {
            "structured": lambda: box_hex_mesh(4, 3, 5, etype),
            "perturbed": lambda: jittered_hex_mesh(
                4, 4, 3, etype, jitter=0.3, seed=1),
            "unstructured": lambda: _renumbered(
                jittered_hex_mesh(3, 4, 4, etype, jitter=0.3, seed=2), 3),
            "one-element": lambda: box_hex_mesh(1, 1, 1, etype),
        }
    else:
        out = {
            "structured": lambda: box_tet_mesh(3, 4, 2, etype, jitter=0.0),
            "perturbed": lambda: box_tet_mesh(3, 3, 3, etype, jitter=0.3),
            "unstructured": lambda: _renumbered(
                box_tet_mesh(3, 3, 3, etype, jitter=0.3, seed=4), 5),
            "one-element": lambda: _one_tet(etype),
        }
        if etype is ElementType.TET4:
            out["refined"] = lambda: refine_local(
                box_tet_mesh(3, 3, 3, etype, jitter=0.2, seed=6),
                np.arange(0, 160, 7)).mesh
    return out


CASES = [
    (etype, name, build)
    for etype in ElementType
    for name, build in _meshes(etype).items()
]
IDS = [f"{etype.value}-{name}" for etype, name, _ in CASES]


# -- mesh-level arrays --------------------------------------------------

@pytest.mark.parametrize("etype,name,build", CASES, ids=IDS)
def test_face_structures_equal_the_plain_sort(etype, name, build):
    mesh = build()
    want_order, want_dup = _plain_face_keys(mesh)
    order, dup = mesh._sorted_face_keys()
    assert _same(order, want_order) and _same(dup, want_dup)
    assert _same(mesh.boundary_faces(), _plain_boundary_faces(mesh))
    assert _same(mesh.boundary_nodes(), _plain_boundary_nodes(mesh))
    assert _same(mesh.dual_graph_edges(), _plain_dual_graph_edges(mesh))


@pytest.mark.parametrize("etype,name,build", CASES, ids=IDS)
def test_centroids_equal_the_mean(etype, name, build):
    mesh = build()
    assert _same(mesh.element_centroids(), _plain_centroids(mesh))


def test_face_key_packer_guards_int64_overflow():
    ids = [np.array([3, 1]), np.array([0, 2]), np.array([2, 0]),
           np.array([1, 3])]
    hi, lo = pack_face_keys(list(ids), 4)
    assert hi.tolist() == [0 * 4 + 1, 0 * 4 + 1]
    assert lo.tolist() == [2 * 4 + 3, 2 * 4 + 3]
    for n in (1 << 32, 3_037_000_500):  # N^2 >= 2^63
        with pytest.raises(ValueError, match="overflow"):
            pack_face_keys(list(ids), n)
    pack_face_keys(list(ids), 3_037_000_499)  # N^2 < 2^63: packs


# -- element-level arrays -----------------------------------------------

def _kappa(x):
    return 1.0 + x[..., 0] ** 2 + 0.5 * x[..., 2]


MAT = IsotropicElasticity(E=2.5, nu=0.3)
OPERATORS = {
    "poisson": (PoissonOperator(), lambda X, et: _plain_poisson(X, et)),
    "poisson-kappa": (
        PoissonOperator(coefficient=_kappa),
        lambda X, et: _plain_poisson(X, et, _kappa),
    ),
    "elasticity": (
        ElasticityOperator(material=MAT),
        lambda X, et: _plain_elasticity(X, et, MAT.lam, MAT.mu),
    ),
    "graph-laplacian": (
        GraphLaplacianOperator(seed=3),
        lambda X, et: _plain_graph_laplacian(GraphLaplacianOperator(seed=3), X),
    ),
}


@pytest.mark.parametrize("etype,name,build", CASES, ids=IDS)
def test_geometry_equals_the_strided_adjugate(etype, name, build):
    mesh = build()
    X = mesh.coords[mesh.conn]
    dNt = _basis(etype, None).dNt
    for got, want in zip(_geometry(dNt, X), _plain_geometry(dNt, X)):
        assert _same(got, want)
        assert got.flags.c_contiguous


@pytest.mark.parametrize("etype", list(ElementType), ids=lambda e: e.value)
def test_geometry_counts_the_same_inverted_points(etype):
    mesh = _meshes(etype)["perturbed"]()
    X = mesh.coords[mesh.conn].copy()
    X[[1, 4], :, 2] *= -1.0
    X[2, :, :] = X[2, :1, :]  # degenerate: every point has detJ = 0
    dNt = _basis(etype, None).dNt
    with pytest.raises(InvertedElementError) as want:
        _plain_geometry(dNt, X)
    with pytest.raises(InvertedElementError) as got:
        _geometry(dNt, X)
    assert got.value.n_bad == want.value.n_bad > 0


@pytest.mark.parametrize("kind", OPERATORS)
@pytest.mark.parametrize("etype,name,build", CASES, ids=IDS)
def test_element_matrices_equal_the_plain_kernels(etype, name, build, kind):
    mesh = build()
    op, plain = OPERATORS[kind]
    X = mesh.coords[mesh.conn]
    # several blocks, the last one partial
    X = X[np.arange(2 * op.ke_block(etype) + 3) % X.shape[0]]
    want = plain(X, etype)
    assert _same(op.element_matrices(X, etype), want)
    nd = op.element_dofs(etype)
    out = np.full((X.shape[0], nd, nd), np.nan)
    assert _same(op.element_matrices(X, etype, out=out), want)
