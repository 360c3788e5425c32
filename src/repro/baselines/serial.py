"""Serial reference: global CSR assembly on the unpartitioned mesh.

Used by the test suite as ground truth for every distributed SPMV and
solve, and by the examples for small-problem verification.  It keeps
SciPy's COO→CSR on purpose: an assembly independent of the sort-based
routine in :mod:`repro.baselines.assembled` that it checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.fem.operators import Operator
from repro.mesh.mesh import Mesh
from repro.util.arrays import INDEX_DTYPE, scatter_add

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["SerialReference", "assemble_global_csr"]


def assemble_global_csr(mesh: Mesh, operator: Operator) -> sp.csr_matrix:
    """Assemble the global sparse matrix of ``operator`` on ``mesh``."""
    import scipy.sparse as sp

    ke = operator.element_matrices(mesh.coords[mesh.conn], mesh.etype)
    ndpn = operator.ndpn
    n = mesh.etype.n_nodes
    dofmap = (
        mesh.conn[:, :, None] * ndpn + np.arange(ndpn, dtype=INDEX_DTYPE)
    ).reshape(mesh.n_elements, n * ndpn)
    nd = n * ndpn
    rows = np.repeat(dofmap, nd, axis=1).reshape(-1)
    cols = np.tile(dofmap, (1, nd)).reshape(-1)
    shape = (mesh.n_nodes * ndpn,) * 2
    return sp.coo_matrix((ke.reshape(-1), (rows, cols)), shape=shape).tocsr()


class SerialReference:
    """Global matrix + helpers for verifying distributed results."""

    def __init__(self, mesh: Mesh, operator: Operator):
        self.mesh = mesh
        self.operator = operator
        self.ndpn = operator.ndpn
        self.A = assemble_global_csr(mesh, operator)

    @property
    def n_dofs(self) -> int:
        return self.A.shape[0]

    def spmv(self, u: np.ndarray) -> np.ndarray:
        return self.A @ u

    def rhs_from_elemental(self, fe: np.ndarray) -> np.ndarray:
        """Accumulate elemental load vectors ``(E, n, ndpn)`` globally."""
        f = np.zeros(self.n_dofs)
        dofmap = (
            self.mesh.conn[:, :, None] * self.ndpn
            + np.arange(self.ndpn, dtype=INDEX_DTYPE)
        )
        scatter_add(f, dofmap, fe)
        return f

    def solve_dirichlet(
        self, f: np.ndarray, constrained: np.ndarray, u0: np.ndarray
    ) -> np.ndarray:
        """Direct solve with Dirichlet values ``u0`` on ``constrained``."""
        import scipy.sparse.linalg as spla

        free = np.setdiff1d(
            np.arange(self.n_dofs, dtype=INDEX_DTYPE), constrained
        )
        u = u0.copy()
        rhs = f - self.A @ u0
        u[free] = u0[free] + spla.spsolve(
            self.A[np.ix_(free, free)].tocsc(), rhs[free]
        )
        return u
