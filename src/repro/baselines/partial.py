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
        # the reference-gradient table as a (3q, n) matrix,
        # B[(q, d), n] = dN[q, n, d]: one element's quadrature-point
        # gradients are one matmul, whatever the batch around it
        q, n = self._dN.shape[:2]
        self._B = np.ascontiguousarray(
            self._dN.transpose(0, 2, 1).reshape(3 * q, n)
        )
        self._qw = quad.weights
        self._N = (
            sf.eval(quad.points)
            if isinstance(operator, PoissonOperator)
            and operator.coefficient is not None
            else None
        )
        with comm.compute("setup.geom_factors"):
            fa, fb = self._geom_factors(self._coords, self._scale)
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
            scale = None if self._scale is None else self._scale[pos]
            fa, fb = self._geom_factors(self._coords[pos], scale)
            if isinstance(self.operator, PoissonOperator):
                self._G[pos] = fa
            else:
                self._invJ[pos] = fa
                self._wd[pos] = fb
        self.comm.obs.incr("update.ke_recomputed", pos.size)

    # ------------------------------------------------------------------

    def _local_emv(self, sl, ue, ve=None):
        """Quadrature contractions against the stored geometric factors,
        written into ``ve`` when given.  Every contraction with the
        reference-gradient table is one matmul per element (the element
        is the stack axis), so an element's bits do not depend on the
        batch around it and GEMM sweeps run in chunks like HYMV's; the
        GEMM column axis ``k`` rides in each matmul, so the factors
        stream once for all k."""
        if not isinstance(self.operator, PoissonOperator):
            return self._apply_elasticity(sl, ue, ve)
        if ue.ndim == 3:
            return self._apply_poisson_multi(sl, ue, ve)
        return self._apply_poisson(sl, ue)

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

    def _apply_poisson_multi(self, sl, ue, ve=None):
        # per element: reference gradients at the quadrature points
        # g = B u, contraction with the geometric factors f = G g, and
        # back to the nodes v = B^T f, each one matmul over the stack
        E, n, k = ue.shape
        g = np.matmul(self._B, ue).reshape(E, -1, 3, k)
        f = np.matmul(self._G[sl], g).reshape(E, -1, k)
        return np.matmul(self._B.T, f, out=ve)

    def _apply_elasticity(self, sl, ue, ve=None):
        # ue is (E, nd, k), or (E, nd) as the k = 1 view
        op: ElasticityOperator = self.operator
        lam, mu = op.material.lam, op.material.mu
        invJ = self._invJ[sl]
        E, nd = ue.shape[:2]
        n, k = nd // 3, ue.shape[2] if ue.ndim == 3 else 1
        # reference gradients g[e,q,d,(i,c)] = dN[q,n,d] u[e,n,i,c]
        g = np.matmul(self._B, ue.reshape(E, n, 3 * k))
        g = g.reshape(E, -1, 3, 3 * k)
        # physical gradients H[e,q,m,i,c] = d u_i / d x_m
        H = np.matmul(invJ, g).reshape(E, -1, 3, 3, k)
        tr = H[:, :, 0, 0] + H[:, :, 1, 1] + H[:, :, 2, 2]
        # stress(ish) tensor: sigma = lam tr(eps) I + 2 mu eps
        sigma = H + np.swapaxes(H, 2, 3)
        sigma *= mu
        i3 = np.arange(3)
        sigma[:, :, i3, i3] += lam * tr[:, :, None]
        sigma *= self._wd[sl][:, :, None, None, None]
        # back to reference directions, into g (no longer read), then to
        # the nodes: v[e,n,(i,c)] = dN[q,n,d] invJ[e,q,m,d] sigma[e,q,m,i,c]
        s = np.matmul(np.swapaxes(invJ, 2, 3), sigma.reshape(g.shape), out=g)
        out = np.matmul(
            self._B.T, s.reshape(E, -1, 3 * k),
            out=None if ve is None else ve.reshape(E, n, 3 * k),
        )
        return out.reshape(ue.shape)

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
