"""Partial-assembly (geometric-storage) operator — an extension variant.

The paper positions HYMV between matrix-assembled and matrix-free; the
related-work section points at matrix-free accelerations (stencil
scaling, MFEM/libCEED-style partial assembly).  This operator implements
that fourth point in the design space:

* at setup it stores only the *geometric factors* per quadrature point —
  for the Poisson operator the symmetric 3x3 matrix
  ``G_q = w_q detJ_q J_q^{-T} J_q^{-1}`` (6 floats), for elasticity the
  full ``invJ``/``w detJ`` pair — instead of the dense ``Ke``;
* each SPMV contracts reference-gradient tables against the stored
  factors, recovering exactly the same product as HYMV with a fraction of
  the memory (``O(q)`` vs ``O(nd²)`` per element) at the price of more
  flops per product.

It shares all maps/exchange machinery with HYMV through
:class:`~repro.core.hymv.EbeOperatorBase`, so it slots into every driver
as method name ``"partial"``.
"""

from __future__ import annotations

import numpy as np

from repro.core.hymv import EbeOperatorBase
from repro.fem.elemmat import jacobians
from repro.fem.operators import ElasticityOperator, PoissonOperator
from repro.mesh.quadrature import quadrature_for
from repro.mesh.shape_functions import shape_functions_for

__all__ = ["PartialAssemblyOperator"]


class PartialAssemblyOperator(EbeOperatorBase):
    """Matrix-free with precomputed geometric factors (libCEED-style)."""

    # the elasticity contractions run as BLAS GEMMs whose summation order
    # depends on the batch size, so GEMM sweeps stay whole slices
    _chunked_gemm = False

    def __init__(self, comm, lmesh, operator, ranges=None, kernel="einsum",
                 modeled_rate_gflops=None, elem_scale=None):
        super().__init__(
            comm, lmesh, operator, ranges=ranges, kernel=kernel,
            modeled_rate_gflops=modeled_rate_gflops, elem_scale=elem_scale,
        )
        if not isinstance(operator, (PoissonOperator, ElasticityOperator)):
            raise TypeError(
                "partial assembly supports the Poisson and elasticity "
                f"operators, got {type(operator).__name__}"
            )
        quad = operator.quad or quadrature_for(self.etype)
        sf = shape_functions_for(self.etype)
        self._dN = sf.grad(quad.points)  # (q, n, 3)
        self._qw = quad.weights
        self._N = (
            sf.eval(quad.points)
            if isinstance(operator, PoissonOperator)
            and operator.coefficient is not None
            else None
        )
        with comm.compute("setup.geom_factors"):
            fa, fb = self._geom_factors(
                self._coords_perm,
                None if self._scale_perm is None else self._scale_perm,
            )
            if isinstance(operator, PoissonOperator):
                self._G = fa
            else:
                self._invJ = fa
                self._wd = fb

    def _geom_factors(self, coords, scale):
        """Geometric factors of an element-coordinate batch (row-wise
        bitwise batch-independent, so a subset refresh produces exactly
        the rows a full fresh build would)."""
        _, detJ, invJ = jacobians(self._dN, coords)
        wd = self._qw[None, :] * detJ  # (E, q)
        if self._N is not None:
            xq = np.einsum("qn,enk->eqk", self._N, coords, optimize=True)
            kappa = np.asarray(
                self.operator.coefficient(xq), dtype=np.float64
            )
            wd = wd * kappa.reshape(wd.shape)
        if scale is not None:
            # the stiffness scale folds into the quadrature weights (the
            # operator is linear in wd); 1.0 rows are bitwise untouched
            wd = wd * scale[:, None]
        if isinstance(self.operator, PoissonOperator):
            # G[e,q] = wd * invJ^T invJ in *reference* indices
            # (symmetric; stored dense 3x3 for kernel simplicity —
            # still ~nd²/(9 q) smaller than Ke)
            G = np.einsum(
                "eqdk,eqdl,eq->eqkl", invJ, invJ, wd, optimize=True
            )
            return G, None
        return invJ, wd

    def _refresh_elements(self, pos, moved, old_scale) -> None:
        """Recompute the stored geometric factors of the updated rows
        only — the partial-assembly analogue of HYMV's subset ``Ke``
        recomputation (always, whether or not the geometry ``moved``)."""
        with self.comm.compute("update.geom_factors"):
            scale = (
                None if self._scale_perm is None else self._scale_perm[pos]
            )
            fa, fb = self._geom_factors(self._coords_perm[pos], scale)
            if isinstance(self.operator, PoissonOperator):
                self._G[pos] = fa
            else:
                self._invJ[pos] = fa
                self._wd[pos] = fb
        self.comm.obs.incr("update.ke_recomputed", pos.size)

    # ------------------------------------------------------------------

    def _local_emv(self, sl, ue, ve=None):
        """Quadrature contractions against the stored geometric factors
        (allocating; the ``_multi`` forms carry the GEMM column axis ``k``
        through every einsum, so the factors stream once for all k)."""
        poisson = isinstance(self.operator, PoissonOperator)
        if ue.ndim == 3:
            if poisson:
                return self._apply_poisson_multi(sl, ue)
            return self._apply_elasticity_multi(sl, ue)
        if poisson:
            return self._apply_poisson(sl, ue)
        return self._apply_elasticity(sl, ue)

    def _account_sweep(self, n, k) -> None:
        """Modeled compute only: partial assembly counts no
        ``spmv.elements`` / ``spmv.flops``."""
        if self.modeled_rate_gflops:
            flops = self.flops_per_spmv() / max(self.n_local_elements, 1)
            self.comm.advance(
                n * k * flops / (self.modeled_rate_gflops * 1e9),
                "spmv.emv.modeled",
            )

    def _apply_poisson(self, sl, ue):
        # grad in reference space: g[e,q,d] = dN[q,n,d] u[e,n]
        g = np.einsum("qnd,en->eqd", self._dN, ue, optimize=True)
        # contract with geometric factors: f[e,q,k] = G[e,q,k,l] g[e,q,l]
        f = np.einsum("eqkl,eql->eqk", self._G[sl], g, optimize=True)
        # back to nodes: v[e,n] = dN[q,n,k] f[e,q,k]
        return np.einsum("qnk,eqk->en", self._dN, f, optimize=True)

    def _apply_elasticity(self, sl, ue):
        op: ElasticityOperator = self.operator
        lam, mu = op.material.lam, op.material.mu
        invJ = self._invJ[sl]
        wd = self._wd[sl]
        E, nd = ue.shape
        n = self.etype.n_nodes
        uen = ue.reshape(E, n, 3)
        # physical gradient of the displacement field:
        # H[e,q,i,k] = d u_i / d x_k
        gref = np.einsum("qnd,eni->eqid", self._dN, uen, optimize=True)
        H = np.einsum("eqid,eqkd->eqik", gref, invJ, optimize=True)
        # stress(ish) tensor: sigma = lam tr(eps) I + 2 mu eps
        tr = np.einsum("eqii->eq", H)
        sym = 0.5 * (H + np.swapaxes(H, 2, 3))
        sigma = 2.0 * mu * sym
        i3 = np.arange(3)
        sigma[:, :, i3, i3] += lam * tr[:, :, None]
        sigma *= wd[:, :, None, None]
        # v[e,n,i] = dN_phys[e,q,n,k] sigma[e,q,i,k]
        dN_phys = np.einsum("qnd,eqkd->eqnk", self._dN, invJ, optimize=True)
        ve = np.einsum("eqnk,eqik->eni", dN_phys, sigma, optimize=True)
        return ve.reshape(E, nd)

    def _apply_poisson_multi(self, sl, ue):
        # the single-RHS contractions with a trailing column axis c=k
        g = np.einsum("qnd,enc->eqdc", self._dN, ue, optimize=True)
        f = np.einsum("eqkl,eqlc->eqkc", self._G[sl], g, optimize=True)
        return np.einsum("qnk,eqkc->enc", self._dN, f, optimize=True)

    def _apply_elasticity_multi(self, sl, ue):
        op: ElasticityOperator = self.operator
        lam, mu = op.material.lam, op.material.mu
        invJ = self._invJ[sl]
        wd = self._wd[sl]
        E, nd, k = ue.shape
        n = self.etype.n_nodes
        uen = ue.reshape(E, n, 3, k)
        gref = np.einsum("qnd,enic->eqidc", self._dN, uen, optimize=True)
        H = np.einsum("eqidc,eqkd->eqikc", gref, invJ, optimize=True)
        tr = np.einsum("eqiic->eqc", H)
        sym = 0.5 * (H + np.swapaxes(H, 2, 3))
        sigma = 2.0 * mu * sym
        i3 = np.arange(3)
        sigma[:, :, i3, i3, :] += lam * tr[:, :, None, :]
        sigma *= wd[:, :, None, None, None]
        dN_phys = np.einsum("qnd,eqkd->eqnk", self._dN, invJ, optimize=True)
        ve = np.einsum("eqnk,eqikc->enic", dN_phys, sigma, optimize=True)
        return ve.reshape(E, nd, k)

    # ------------------------------------------------------------------
    # preconditioner support: build Ke on demand (setup-time only)
    # ------------------------------------------------------------------

    def _element_matrices(self, sl: slice) -> np.ndarray:
        ke = self.operator.element_matrices(
            self._coords_perm[sl], self.etype
        )
        if self._scale_perm is not None:
            ke *= self._scale_perm[sl][:, None, None]
        return ke

    # ------------------------------------------------------------------

    def flops_per_spmv(self) -> float:
        q = (self.operator.quad or quadrature_for(self.etype)).n_points
        n = self.etype.n_nodes
        if isinstance(self.operator, PoissonOperator):
            per_elem = 2.0 * q * n * 3 * 2 + q * 15.0
        else:
            per_elem = 2.0 * q * n * 9 * 2 + q * 80.0
        return self.n_local_elements * per_elem

    def stored_bytes(self) -> int:
        if isinstance(self.operator, PoissonOperator):
            return self._G.nbytes
        return self._invJ.nbytes + self._wd.nbytes
