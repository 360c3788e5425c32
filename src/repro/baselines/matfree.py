"""Matrix-free SPMV (paper Algorithm 4).

Identical element-by-element structure, maps and kernels as HYMV — the
*only* difference is that the element matrices are recomputed from nodal
coordinates and operator definition inside every SPMV instead of being
loaded from memory.  That difference is the whole story of Figs. 4 and 5:
no setup cost, but each product pays the full elemental-assembly flops.
"""

from __future__ import annotations

import numpy as np

from repro.core.hymv import EbeOperatorBase

__all__ = ["MatrixFreeOperator"]


class MatrixFreeOperator(EbeOperatorBase):
    """Algorithm 4: recompute ``Ke`` in every elemental sweep."""

    def _element_matrices(self, sl: slice) -> np.ndarray:
        # recompute-then-scale per product: an adaptive update only
        # touches the persisted coords/scale arrays (the base-class
        # no-op refresh), and the next sweep picks them up here
        ke = self._integrate(sl)
        self.comm.obs.incr("spmv.ke_recomputed", ke.shape[0])
        self.comm.obs.incr(
            "spmv.ke_flops", ke.shape[0] * self.operator.ke_flops(self.etype)
        )
        return ke

    def flops_per_spmv(self) -> float:
        """EMV flops plus the per-product element-matrix recomputation."""
        e = self.n_local_elements
        return e * (
            self.operator.emv_flops(self.etype)
            + self.operator.ke_flops(self.etype)
        )
