"""The variable-coefficient Poisson operator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import PartialAssemblyOperator, SerialReference
from repro.core import HymvOperator
from repro.fem import PoissonOperator
from repro.mesh import ElementType, box_hex_mesh, box_tet_mesh
from repro.partition import build_partition
from repro.simmpi import run_spmd


# ----------------------------------------------------------------------------
# variable-coefficient Poisson
# ----------------------------------------------------------------------------

def _kappa(x):
    return 1.0 + 4.0 * (x[..., 0] > 0.5)  # material interface at x = 0.5


def test_constant_coefficient_scales_laplacian():
    mesh = box_tet_mesh(2, 2, 2, jitter=0.15)
    base = PoissonOperator().element_matrices(mesh.coords[mesh.conn], mesh.etype)
    op = PoissonOperator(
        coefficient=lambda x: np.full(x.shape[:-1], 2.5)
    )
    scaled = op.element_matrices(mesh.coords[mesh.conn], mesh.etype)
    np.testing.assert_allclose(scaled, 2.5 * base, atol=1e-12)


def test_coefficient_operator_symmetric_psd():
    mesh = box_hex_mesh(3, 3, 3)
    op = PoissonOperator(coefficient=_kappa)
    ke = op.element_matrices(mesh.coords[mesh.conn], mesh.etype)
    np.testing.assert_allclose(ke, np.swapaxes(ke, 1, 2), atol=1e-12)
    assert np.linalg.eigvalsh(ke).min() > -1e-10
    np.testing.assert_allclose(ke.sum(axis=2), 0.0, atol=1e-10)


@pytest.mark.parametrize("factory", [HymvOperator, PartialAssemblyOperator])
def test_distributed_coefficient_spmv_matches_serial(factory):
    mesh = box_tet_mesh(3, 3, 3, ElementType.TET10, jitter=0.15)
    op = PoissonOperator(coefficient=_kappa)
    part = build_partition(mesh, 3, method="graph")
    ref = SerialReference(mesh, op)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(mesh.n_nodes)
    x_old = np.empty_like(x)
    x_old[part.old_of_new] = x
    y_ref = ref.spmv(x_old)[part.old_of_new]

    def prog(comm, lmesh, xo):
        A = factory(comm, lmesh, op)
        return A.apply_owned(xo)

    args = [
        (part.local(r), x[part.ranges[r, 0]: part.ranges[r, 1]])
        for r in range(3)
    ]
    res, _ = run_spmd(3, prog, rank_args=args)
    np.testing.assert_allclose(np.concatenate(res), y_ref, atol=1e-11)


def test_interface_problem_flux_continuity():
    """1-D-like interface sanity: with kappa = (1 | 5) split at x = 0.5
    and u fixed to 0/1 on the x faces, the discrete solution is piecewise
    linear with the analytic interface value."""

    mesh = box_hex_mesh(8, 2, 2)
    op = PoissonOperator(coefficient=_kappa)
    ref = SerialReference(mesh, op)
    x = mesh.coords[:, 0]
    left = np.flatnonzero(np.abs(x) < 1e-12)
    right = np.flatnonzero(np.abs(x - 1.0) < 1e-12)
    cons = np.concatenate([left, right])
    u0 = np.zeros(mesh.n_nodes)
    u0[right] = 1.0
    u = ref.solve_dirichlet(np.zeros(mesh.n_nodes), cons, u0)
    # exact: u = x * 2k2/(k1+k2)... flux continuity k1 u1' = k2 u2'
    # with k1=1 on [0,.5], k2=5 on [.5,1]: u(0.5) = (1/k1)/((1/k1)+(1/k2))
    u_mid_exact = (1.0 / 1.0) / (1.0 / 1.0 + 1.0 / 5.0)
    mid = np.flatnonzero(np.abs(x - 0.5) < 1e-12)
    np.testing.assert_allclose(u[mid], u_mid_exact, atol=1e-10)
