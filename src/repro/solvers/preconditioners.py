"""Preconditioners (paper §V-F).

* Jacobi — exact assembled diagonal (identical operator ⇒ identical
  iteration counts for HYMV and the assembled baseline).
* Block Jacobi — the rank's owned diagonal block, factorized once with
  SuperLU and applied by triangular solves.  HYMV assembles its block from
  local elements (paper: "HYMV needs to assemble the diagonal block
  matrix"); the assembled baseline extracts the exact block from its CSR,
  so iteration counts may differ slightly between the two — as they do
  between the real codes.

Protocol: ``M(r, out=None)`` applies ``M ≈ A^-1`` to an ``(n,)`` vector
or to a ``(k, n)`` block of ``k`` row vectors (the layout of
:func:`repro.solvers.cg.cg_multi`), writing into ``out`` when given and
returning the result.  Row ``j`` of a block apply is bitwise equal to
applying ``M`` to row ``j`` alone.  No preconditioning is ``apply_M=None``
in the solvers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["JacobiPreconditioner", "BlockJacobiPreconditioner"]


class JacobiPreconditioner:
    """Diagonal scaling ``z = r / diag(A)``."""

    def __init__(self, diagonal: np.ndarray):
        diagonal = np.asarray(diagonal, dtype=np.float64)
        if (diagonal <= 0.0).any():
            raise ValueError(
                "Jacobi preconditioner requires a positive diagonal"
            )
        self._inv = 1.0 / diagonal

    def __call__(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            return r * self._inv
        np.multiply(r, self._inv, out=out)
        return out


class BlockJacobiPreconditioner:
    """Per-rank owned-block solve ``z = B^-1 r`` via sparse LU."""

    def __init__(self, block: sp.spmatrix):
        # imported here, not at the top: SuperLU pulls in scipy.linalg
        # and scipy.sparse.linalg (~10 MB), which a Jacobi-preconditioned
        # or unpreconditioned solve never needs
        import scipy.sparse.linalg as spla

        block = block.tocsc()
        if block.shape[0] != block.shape[1]:
            raise ValueError("block must be square")
        self._lu = spla.splu(block)
        self.n = block.shape[0]

    def __call__(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # one solve per row: SuperLU's multi-RHS triangular solves take a
        # BLAS3 path whose columns need not match single solves bitwise
        z = np.empty(r.shape) if out is None else out
        for src, dst in zip(np.atleast_2d(r), np.atleast_2d(z)):
            dst[:] = self._lu.solve(src)
        return z
