"""Matrix-assembled baseline — the PETSc ``MatMult`` substitute.

Setup performs *real parallel assembly*: each rank computes its element
matrices, keeps the triplets whose rows it owns, and ships off-rank row
contributions to their owners (the communication that makes assembled
setup expensive at scale — paper Figs. 4, 5, 7).  The assembled matrix is
row-distributed CSR, split PETSc-style into a diagonal block (owned
columns) and off-diagonal blocks (halo columns) so the halo exchange
overlaps the diagonal-block product.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.da import DistributedArray, DistributedMultiVector
from repro.core.kernels import resolve_mode
from repro.core.maps import NodeMaps
from repro.core.scatter import HaloExchange, build_comm_maps
from repro.fem.operators import Operator
from repro.partition.interface import LocalMesh
from repro.simmpi.communicator import Communicator
from repro.util.arrays import INDEX_DTYPE, as_index

__all__ = ["AssembledOperator"]


class AssembledOperator:
    """Distributed CSR operator with PETSc-like assembly and SPMV."""

    def __init__(
        self,
        comm: Communicator,
        lmesh: LocalMesh,
        operator: Operator,
        ranges: np.ndarray | None = None,
        elem_scale: np.ndarray | None = None,
    ):
        self.comm = comm
        self.lmesh = lmesh
        self.operator = operator
        self.ndpn = operator.ndpn
        self.etype = lmesh.etype

        if ranges is None:
            ranges = np.asarray(
                comm.allgather((lmesh.n_begin, lmesh.n_end)), dtype=INDEX_DTYPE
            )
        self._ranges = ranges
        # element inputs the assembly is a pure function of; coords start
        # as a reference to the local mesh and go copy-on-write on the
        # first coordinate update
        self._coords = lmesh.coords
        self._elem_scale: np.ndarray | None = None
        if elem_scale is not None:
            scale = np.asarray(elem_scale, dtype=np.float64)
            if scale.shape != (lmesh.n_local_elements,):
                raise ValueError(
                    f"elem_scale shape {scale.shape} != "
                    f"({lmesh.n_local_elements},) local elements"
                )
            self._elem_scale = np.ascontiguousarray(scale)
        self.spmv_count = 0
        self._assemble("setup")

    def _assemble(self, prefix: str) -> None:
        """Full parallel assembly from the current coords/scale state
        (collective).  ``prefix`` labels the timing phases: ``setup.*``
        at construction, ``update.*`` when re-run by
        :meth:`update_elements` — the assembled baseline's answer to an
        adaptive update *is* a full reassembly, which is exactly the
        cost structure the adaptive operators avoid."""
        comm, lmesh, ndpn = self.comm, self.lmesh, self.ndpn
        ends = self._ranges[:, 1]

        with comm.compute(f"{prefix}.emat_compute"):
            ke = self.operator.element_matrices(self._coords, lmesh.etype)
            if self._elem_scale is not None:
                ke *= self._elem_scale[:, None, None]

        with comm.compute(f"{prefix}.assembly_local"):
            n = self.etype.n_nodes
            nd = n * ndpn
            gdofs = (
                lmesh.e2g[:, :, None] * ndpn
                + np.arange(ndpn, dtype=INDEX_DTYPE)
            ).reshape(lmesh.n_local_elements, nd)
            rows = np.repeat(gdofs, nd, axis=1).reshape(-1)
            cols = np.tile(gdofs, (1, nd)).reshape(-1)
            vals = ke.reshape(-1)
            row_nodes = rows // ndpn
            owners = np.searchsorted(ends, row_nodes, side="right")
            mine = owners == comm.rank
            per_dest: list = [None] * comm.size
            for r in np.unique(owners):
                if r == comm.rank:
                    continue
                sel = owners == r
                per_dest[int(r)] = (rows[sel], cols[sel], vals[sel])

        # the expensive part: off-rank row contributions to their owners
        t0 = comm.vtime
        received = comm.alltoall(per_dest)
        comm.obs.add(f"{prefix}.comm", comm.vtime - t0)

        with comm.compute(f"{prefix}.assembly_local"):
            rparts = [(rows[mine], cols[mine], vals[mine])] + [
                t for t in received if t is not None
            ]
            rows = np.concatenate([t[0] for t in rparts])
            cols = np.concatenate([t[1] for t in rparts])
            vals = np.concatenate([t[2] for t in rparts])

            # matrix halo: column nodes outside the owned range
            col_nodes = cols // ndpn
            outside = (col_nodes < lmesh.n_begin) | (col_nodes >= lmesh.n_end)
            halo_nodes = np.unique(col_nodes[outside])
            self.maps = NodeMaps(
                n_begin=lmesh.n_begin,
                n_end=lmesh.n_end,
                ghost_pre=halo_nodes[halo_nodes < lmesh.n_begin],
                ghost_post=halo_nodes[halo_nodes >= lmesh.n_end],
                e2l=np.empty((0, 1), dtype=INDEX_DTYPE),
                independent=np.empty(0, dtype=INDEX_DTYPE),
                dependent=np.empty(0, dtype=INDEX_DTYPE),
            )
            lrows = rows - lmesh.n_begin * ndpn
            lcols = self.maps.global_to_local(col_nodes) * ndpn + cols % ndpn
            n_owned_dofs = (lmesh.n_end - lmesh.n_begin) * ndpn
            n_total_dofs = self.maps.n_total * ndpn
            A_ext = sp.coo_matrix(
                (vals, (lrows, lcols)), shape=(n_owned_dofs, n_total_dofs)
            ).tocsr()
            lo = self.maps.n_pre * ndpn
            hi = lo + n_owned_dofs
            self.A_diag = A_ext[:, lo:hi].tocsr()
            self.A_pre = A_ext[:, :lo].tocsr()
            self.A_post = A_ext[:, hi:].tocsr()
            self._blocks = (self.A_diag, self.A_pre, self.A_post)
            self.nnz = A_ext.nnz

        t0 = comm.vtime
        self.cmaps = build_comm_maps(comm, self.maps, ranges=self._ranges)
        comm.obs.add(f"{prefix}.comm_maps", comm.vtime - t0)

        self.n_dofs_owned = n_owned_dofs
        # packed halo exchanges and multi-RHS work buffers, per column
        # count k.  The node maps may change across a reassembly (halo
        # columns follow the values' sparsity), so none of them may
        # survive it
        self._halos: dict[int, HaloExchange] = {}
        self._work_multi: dict[int, tuple] = {}
        if hasattr(self, "_work_u"):
            del self._work_u

    # ------------------------------------------------------------------

    def update_elements(
        self,
        local_elems: np.ndarray,
        coords: np.ndarray | None = None,
        stiffness_scale: float | np.ndarray | None = None,
    ) -> None:
        """Patch element inputs, then reassemble the whole distributed
        CSR (timed as ``update.*``).  Collective: every rank must call,
        even with an empty subset — there is no local-only update for an
        assembled matrix, which is the baseline cost the harness measures
        the adaptive operators against.  Signature and absolute-scale
        semantics match
        :meth:`repro.core.hymv.EbeOperatorBase.update_elements`."""
        local_elems = as_index(local_elems)
        if local_elems.size:
            lo = int(local_elems.min())
            hi = int(local_elems.max())
            n_local = self.lmesh.n_local_elements
            if lo < 0 or hi >= n_local:
                raise IndexError(
                    f"update_elements: local element ids out of range "
                    f"[{lo}, {hi}] vs {n_local} local elements"
                )
            if coords is not None:
                coords = np.asarray(coords, dtype=np.float64)
                want = (local_elems.size, self.etype.n_nodes, 3)
                if coords.shape != want:
                    raise ValueError(
                        f"coords shape {coords.shape} != {want} for "
                        f"{local_elems.size} updated elements"
                    )
                if self._coords is self.lmesh.coords:
                    self._coords = self.lmesh.coords.copy()
                self._coords[local_elems] = coords
            if stiffness_scale is not None:
                scale = np.broadcast_to(
                    np.asarray(stiffness_scale, dtype=np.float64),
                    (local_elems.size,),
                )
                if self._elem_scale is None:
                    self._elem_scale = np.ones(self.lmesh.n_local_elements)
                self._elem_scale[local_elems] = scale
            self.comm.obs.incr("update.elements", local_elems.size)
        self._assemble("update")

    # ------------------------------------------------------------------

    def new_array(self) -> DistributedArray:
        return DistributedArray(self.maps, self.ndpn)

    def _halo_for(self, k: int) -> HaloExchange:
        """Packed halo exchange for node rows of width ``ndpn * k``."""
        h = self._halos.get(k)
        if h is None:
            h = self._halos[k] = HaloExchange(self.cmaps, self.ndpn * k)
        return h

    #: phases of the diagonal-block and halo-block products
    _phases = ("spmv.csr.diag", "spmv.csr.halo")

    def _block_product(self, i: int, x: np.ndarray) -> np.ndarray:
        """Product of ``_blocks[i]`` (0 diag, 1 pre, 2 post) with its
        column slice ``x`` of the dof vector, or of the ``(·, k)`` dof
        block under the GEMM mode (one SpMM)."""
        return self._blocks[i] @ x

    def _apply(self, un: np.ndarray, D: np.ndarray, k: int) -> np.ndarray:
        """Algorithm 2 for assembled blocks over ``k`` columns: the ghost
        scatter of the node rows ``un`` is in flight during the diagonal
        block product; the pre/post halo blocks then add into it in that
        order.  ``D`` is the dof view of ``un``."""
        comm = self.comm
        t0 = comm.vtime
        halo = self._halo_for(k)
        npre = self.maps.n_pre * self.ndpn
        off = npre + self.n_dofs_owned
        reqs = halo.start_scatter(comm, un)
        with comm.compute(self._phases[0]):
            y = self._block_product(0, D[npre:off])
        tw = comm.vtime
        halo.finish_scatter(comm, un, reqs)
        comm.obs.add("spmv.scatter.wait", comm.vtime - tw)
        with comm.compute(self._phases[1]):
            if self.A_pre.shape[1]:
                y += self._block_product(1, D[:npre])
            if self.A_post.shape[1]:
                y += self._block_product(2, D[off:])
        comm.obs.incr("spmv.flops", 2.0 * self.nnz * k)
        comm.obs.add("spmv.total", comm.vtime - t0)
        self.spmv_count += k
        return y

    def _work(self, k: int) -> tuple:
        """``(U, xcol, Y)`` for ``k`` columns: the GEMM mode's work
        multivector, the oracle loop's contiguous column and its output
        block."""
        w = self._work_multi.get(k)
        if w is None:
            n = self.n_dofs_owned
            w = self._work_multi[k] = (
                DistributedMultiVector(self.maps, self.ndpn, k),
                np.empty(n),
                np.empty((n, k)),
            )
        return w

    def apply_owned(self, x: np.ndarray, copy: bool = True) -> np.ndarray:
        """``y = A x`` on owned dofs; halo exchange overlapped with the
        diagonal-block product (PETSc's MatMult structure).

        ``copy=False`` may return an operator-owned buffer, overwritten
        by the next call."""
        if not hasattr(self, "_work_u"):
            self._work_u = self.new_array()
        u = self._work_u
        u.set_owned(x)
        y = self._apply(u.data, u.data.reshape(-1), 1)
        return y.copy() if copy else y

    def apply_owned_multi(
        self, X: np.ndarray, copy: bool = True, mode: str = "auto"
    ) -> np.ndarray:
        """Multi-RHS application.

        The resolved ``"oracle"`` mode runs one :meth:`apply_owned` per
        column — each column pays its own message round, and the result
        is trivially bitwise-per-column (signature parity with
        :meth:`repro.core.hymv.EbeOperatorBase.apply_owned_multi`).  A
        single column always takes the single-RHS path.

        The resolved ``"gemm"`` mode exchanges ghosts for all k columns
        in ONE packed ``ndpn*k``-wide scatter and computes each block
        with a single product over the ``(·, k)`` dof matrix — the BLAS3
        analogue (scipy's CSR·dense kernel streams the matrix once for
        all columns).  It accumulates the three blocks in the same order
        as the 1-D path, so it matches the oracle to rounding; it is not
        bitwise (the halo blocks' partial sums add to the diag product in
        a different grouping).  ``copy=False`` may return an
        operator-owned block, overwritten by the next same-``k`` call.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"expected (n, k) multivector, got shape {X.shape}")
        k = X.shape[1]
        if k == 1:
            y = self.apply_owned(np.ascontiguousarray(X[:, 0]), copy=copy)
            return y.reshape(-1, 1)
        U, xcol, Y = self._work(k)
        if resolve_mode(mode, k) != "gemm":
            for j in range(k):
                np.copyto(xcol, X[:, j])
                Y[:, j] = self.apply_owned(xcol, copy=False)
        else:
            U.set_owned(X)
            Y = self._apply(U.node_view, U.dof_view, k)
        return Y.copy() if copy else Y

    # ------------------------------------------------------------------
    # preconditioner support / accounting
    # ------------------------------------------------------------------

    def diagonal_owned(self) -> np.ndarray:
        return self.A_diag.diagonal().copy()

    def owned_block_csr(self) -> sp.csr_matrix:
        """The exact (owned x owned) diagonal block, remote contributions
        included (this is what PETSc's block Jacobi uses)."""
        return self.A_diag

    def flops_per_spmv(self) -> float:
        """2 flops per stored nonzero."""
        return 2.0 * self.nnz

    def stored_bytes(self) -> int:
        """CSR storage (values + column indices + row pointers)."""
        total = 0
        for A in (self.A_diag, self.A_pre, self.A_post):
            total += A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        return total
