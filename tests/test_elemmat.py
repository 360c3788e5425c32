"""Contract of the batched element-matrix kernels.

The kernels in :mod:`repro.fem.elemmat` use a closed-form 3x3 inverse
and batched ``np.matmul`` with the element axis as a pure batch axis.
Two properties follow and are pinned here:

* they agree with the textbook ``np.linalg`` + ``einsum`` formulation
  (kept below as the reference, and only here) to a few ulp of each
  element's largest entry;
* they are **batch invariant**: an element's matrix depends only on its
  own coordinates, bit for bit, never on which other elements shared the
  call.  An adaptive patch recomputes a subset of elements and must land
  on exactly the rows a fresh full build computes, so this is the
  contract behind "patch == fresh build, bitwise".

Batch invariance is also what makes :meth:`Operator.element_matrices`,
which runs an operator's kernel over cache-sized element blocks, equal
one call on the whole batch; its bits, ``out=`` contract, whole-batch
error count and peak allocation are pinned at the end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hymv import HymvOperator
from repro.fem.elemmat import (
    elasticity_ke_batch,
    jacobians,
    mass_ke_batch,
    physical_gradients,
    poisson_ke_batch,
    reference_gradients,
)
from repro.fem.material import IsotropicElasticity
from repro.fem.operators import (
    KE_BLOCK_BYTES,
    ElasticityOperator,
    GraphLaplacianOperator,
    PoissonOperator,
)
from repro.mesh import ElementType, box_hex_mesh, box_tet_mesh, jittered_hex_mesh
from repro.mesh.quadrature import quadrature_for
from repro.mesh.shape_functions import shape_functions_for
from repro.problems import poisson_problem

from .kernel_cases import one_rank_comm, traced_bytes

LAM, MU = 1.7, 0.6


def _kappa(x):
    return 1.0 + x[..., 0] ** 2 + 0.5 * x[..., 2]


# -- reference kernel: the np.linalg / einsum formulation ----------------

def _ref_geometry(etype, coords):
    sf = shape_functions_for(etype)
    quad = quadrature_for(etype)
    dN = sf.grad(quad.points)
    J = np.einsum("qnd,enk->eqdk", dN, coords, optimize=True)
    detJ = np.linalg.det(J)
    invJ = np.linalg.inv(J)
    g = np.einsum("qnd,eqkd->eqnk", dN, invJ, optimize=True)
    return sf.eval(quad.points), g, quad.weights[None, :] * detJ


def _ref_poisson(coords, etype, coefficient=None):
    N, g, wd = _ref_geometry(etype, coords)
    if coefficient is not None:
        xq = np.einsum("qn,enk->eqk", N, coords, optimize=True)
        wd = wd * coefficient(xq)
    return np.einsum("eqnk,eqmk,eq->enm", g, g, wd, optimize=True)


def _ref_elasticity(coords, etype):
    _, g, wd = _ref_geometry(etype, coords)
    E, _, n, _ = g.shape
    ke = LAM * np.einsum("eqni,eqmj,eq->enimj", g, g, wd, optimize=True)
    ke += MU * np.einsum("eqnj,eqmi,eq->enimj", g, g, wd, optimize=True)
    gdot = MU * np.einsum("eqnk,eqmk,eq->enm", g, g, wd, optimize=True)
    for i in range(3):
        ke[:, :, i, :, i] += gdot
    return ke.reshape(E, 3 * n, 3 * n)


def _ref_mass(coords, etype):
    N, _, wd = _ref_geometry(etype, coords)
    return np.einsum("qn,qm,eq->enm", N, N, wd, optimize=True)


# -- cases ---------------------------------------------------------------

def _jittered(etype):
    if etype.is_hex:
        mesh = jittered_hex_mesh(3, 3, 3, etype, jitter=0.2, seed=5)
    else:
        mesh = box_tet_mesh(2, 2, 2, etype, jitter=0.2, seed=5)
    return mesh.coords[mesh.conn]


KERNELS = {
    "poisson": (
        lambda X, et: poisson_ke_batch(X, et), _ref_poisson,
    ),
    "poisson-kappa": (
        lambda X, et: poisson_ke_batch(X, et, coefficient=_kappa),
        lambda X, et: _ref_poisson(X, et, _kappa),
    ),
    "elasticity": (
        lambda X, et: elasticity_ke_batch(X, et, LAM, MU), _ref_elasticity,
    ),
    "mass": (lambda X, et: mass_ke_batch(X, et), _ref_mass),
}

ETYPES = list(ElementType)

_MATERIAL = IsotropicElasticity(E=2.0, nu=0.3)

OPERATORS = {
    "poisson": PoissonOperator(),
    "poisson-kappa": PoissonOperator(coefficient=_kappa),
    "elasticity": ElasticityOperator(material=_MATERIAL),
    "graph-laplacian": GraphLaplacianOperator(seed=3),
}


def _batch(etype, n_el):
    """``n_el`` distinct elements: the jittered mesh's, repeated, each
    node moved by its own small random offset."""
    X = _jittered(etype)
    X = np.resize(X, (n_el, *X.shape[1:]))
    rng = np.random.default_rng(n_el)
    return X + rng.uniform(-0.01, 0.01, X.shape)


def _bits(a):
    return a.view(np.int64)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("etype", ETYPES, ids=lambda e: e.value)
def test_agrees_with_linalg_einsum_reference(etype, kernel):
    """Per element, |Ke - Ke_ref| <= 32 ulp of that element's max |Ke|."""
    fast, ref = KERNELS[kernel]
    X = _jittered(etype)
    ke, ke_ref = fast(X, etype), ref(X, etype)
    assert ke.shape == ke_ref.shape and ke.dtype == np.float64
    err = np.abs(ke - ke_ref).max(axis=(1, 2))
    ulp = np.spacing(np.abs(ke_ref).max(axis=(1, 2)))
    assert (err <= 32 * ulp).all(), (err / ulp).max()


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("etype", ETYPES, ids=lambda e: e.value)
def test_element_matrix_is_batch_invariant(etype, kernel):
    """Every third element, and each element alone, reproduces its rows
    of the full-batch result bit for bit."""
    fast, _ = KERNELS[kernel]
    X = _jittered(etype)
    full = fast(X, etype)
    assert np.array_equal(fast(X[::3], etype), full[::3])
    assert np.array_equal(fast(X[1::3][::-1], etype), full[1::3][::-1])
    for e in range(X.shape[0]):
        assert np.array_equal(fast(X[e: e + 1], etype)[0], full[e])


@pytest.mark.parametrize("etype", ETYPES, ids=lambda e: e.value)
def test_inverted_element_raises_with_bad_point_count(etype):
    """The count is the whole batch's: one inverted element below a
    block, and two in different blocks of a batch of over three."""
    mesh = (box_hex_mesh(2, 2, 2, etype) if etype.is_hex
            else box_tet_mesh(2, 2, 2, etype, jitter=0.0))
    X = mesh.coords[mesh.conn].copy()
    X[1, :, 2] *= -1.0  # mirror one element: orientation flips everywhere
    q = quadrature_for(etype).n_points
    msg = f"^{q} quadrature points with non-positive Jacobian"
    for call in (
        lambda: poisson_ke_batch(X, etype),
        lambda: elasticity_ke_batch(X, etype, LAM, MU),
        lambda: mass_ke_batch(X, etype),
    ):
        with pytest.raises(ValueError, match=msg):
            call()
    for op in (OPERATORS["poisson"], OPERATORS["elasticity"]):
        B = op.ke_block(etype)
        Xb = _batch(etype, 3 * B + 7)
        Xb[[1, 2 * B + 3], :, 2] *= -1.0  # blocks 0 and 2
        nd = op.element_dofs(etype)
        out = np.empty((Xb.shape[0], nd, nd))
        with pytest.raises(ValueError, match=f"^{2 * q} quadrature points"):
            op.element_matrices(Xb, etype, out=out)


@pytest.mark.parametrize("etype", ETYPES, ids=lambda e: e.value)
def test_reference_gradients_cached_and_read_only(etype):
    quad = quadrature_for(etype)
    dN = reference_gradients(etype)
    assert dN is reference_gradients(etype, quad)
    assert np.array_equal(dN, shape_functions_for(etype).grad(quad.points))
    assert not dN.flags.writeable
    with pytest.raises(ValueError):
        dN[0, 0, 0] = 1.0


@pytest.mark.parametrize("etype", ETYPES, ids=lambda e: e.value)
def test_jacobians_and_gradients_keep_their_contract(etype):
    X = _jittered(etype)
    dN = reference_gradients(etype)
    J, detJ, invJ = jacobians(dN, X)
    q = dN.shape[0]
    assert J.shape == invJ.shape == (X.shape[0], q, 3, 3)
    assert detJ.shape == (X.shape[0], q)
    np.testing.assert_allclose(detJ, np.linalg.det(J), rtol=1e-13)
    np.testing.assert_allclose(invJ @ J, np.broadcast_to(np.eye(3), J.shape),
                               atol=1e-12)
    g = physical_gradients(dN, invJ)
    g_ref = np.einsum("qnd,eqkd->eqnk", dN, np.linalg.inv(J))
    np.testing.assert_allclose(g, g_ref, rtol=1e-12, atol=1e-12)


# -- the blocked driver: Operator.element_matrices ----------------------

@pytest.mark.parametrize("kind", OPERATORS)
@pytest.mark.parametrize("etype", ETYPES, ids=lambda e: e.value)
def test_blocked_element_matrices_equal_one_kernel_call(etype, kind):
    """Blocked == one unblocked kernel call, bit for bit, at batch sizes
    around the block size."""
    op = OPERATORS[kind]
    B = op.ke_block(etype)
    X = _batch(etype, 3 * B + 7)
    for n_el in (0, 1, B - 1, B, B + 1, 3 * B + 7):
        blocked = op.element_matrices(X[:n_el], etype)
        single = op._ke_batch(X[:n_el], etype)
        assert blocked.shape == single.shape
        assert np.array_equal(_bits(blocked), _bits(single)), n_el


def test_element_matrices_out_contract():
    op, etype = PoissonOperator(), ElementType.HEX8
    X = _batch(etype, 2 * op.ke_block(etype) + 1)
    out = np.empty((X.shape[0], 8, 8))
    assert op.element_matrices(X, etype, out=out) is out
    assert np.array_equal(_bits(out), _bits(op._ke_batch(X, etype)))
    for bad in (
        np.empty((X.shape[0] - 1, 8, 8)),  # shape
        np.empty((X.shape[0], 8, 8), dtype=np.float32),  # dtype
        np.empty((8, 8, X.shape[0])).transpose(2, 0, 1),  # layout
    ):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            op.element_matrices(X, etype, out=bad)


@pytest.mark.parametrize("scaled", [False, True], ids=["plain", "scaled"])
def test_hymv_store_bitwise_with_and_without_cache_hits(scaled):
    """A HYMV store computed in place over several blocks equals one
    kernel call followed by the scale, and a rebuild taking every other
    element from the ``ke_cache`` equals both."""
    spec = poisson_problem(8, 1)  # 512 HEX8 elements: three blocks
    lmesh = spec.partition.local(0)
    assert lmesh.n_local_elements > 2 * spec.operator.ke_block(lmesh.etype)
    scale = (np.random.default_rng(4).uniform(0.5, 2.0, lmesh.n_local_elements)
             if scaled else None)
    fresh = HymvOperator(one_rank_comm(), lmesh, spec.operator, elem_scale=scale)
    want = spec.operator._ke_batch(lmesh.coords[fresh._order], lmesh.etype)
    if scaled:
        want = want * scale[fresh._order][:, None, None]
    assert np.array_equal(_bits(fresh.ke), _bits(want))
    half = dict(list(fresh.export_ke_cache().items())[::2])
    warm = HymvOperator(one_rank_comm(), lmesh, spec.operator,
                        ke_cache=half, elem_scale=scale)
    assert warm.cache_hits == len(half)
    assert np.array_equal(_bits(warm.ke), _bits(fresh.ke))


#: peak bytes allowed beyond the block budget, for allocator and NumPy
#: version differences: every case below measured at most 0.96 of the
#: budget itself
ALLOC_SLACK_BYTES = 64 << 10


def _peak_bytes(call) -> int:
    return traced_bytes(call)[2]


def test_element_matrices_into_out_peak_within_block_budget():
    """4,096 HEX8 Poisson elements into a preallocated ``out`` (2 MiB)
    peak at one block's temporaries; one kernel call on the whole batch
    peaks at several times the output."""
    op, etype = PoissonOperator(), ElementType.HEX8
    X = _batch(etype, 4096)
    out = np.empty((4096, 8, 8))
    peak = _peak_bytes(lambda: op.element_matrices(X, etype, out=out))
    assert peak <= KE_BLOCK_BYTES + ALLOC_SLACK_BYTES
    assert _peak_bytes(lambda: op._ke_batch(X, etype)) > 3 * out.nbytes


@pytest.mark.parametrize("kind", OPERATORS)
@pytest.mark.parametrize("etype", ETYPES, ids=lambda e: e.value)
def test_ke_words_bound_every_kernel(etype, kind):
    """``_ke_words`` is an upper bound for every kernel, so each block
    stays within the budget."""
    op = OPERATORS[kind]
    X = _batch(etype, 3 * op.ke_block(etype) + 7)
    nd = op.element_dofs(etype)
    out = np.empty((X.shape[0], nd, nd))
    peak = _peak_bytes(lambda: op.element_matrices(X, etype, out=out))
    assert peak <= KE_BLOCK_BYTES + ALLOC_SLACK_BYTES
