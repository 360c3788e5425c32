"""Matrix-assembled baseline — the PETSc ``MatMult`` substitute.

Setup performs *real parallel assembly*: each rank computes its element
matrices, keeps the triplets whose rows it owns, and ships off-rank row
contributions to their owners as global ``(rows, cols, values)`` —
PETSc's ``ADD_VALUES`` stash, the communication that makes assembled
setup expensive at scale (paper Figs. 4, 5, 7).  The matrix is
row-distributed CSR, split PETSc-style into a diagonal block (owned
columns) and off-diagonal blocks (halo columns) so the halo exchange
overlaps the diagonal-block product.

One sort-based routine (Ramírez-Gil et al., arXiv:1501.04784) builds
every assembled matrix: this set-up (and so SELL-C-sigma's), the
fixed-pattern patch of :meth:`AssembledOperator.update_elements` and
HYMV's block-Jacobi block.  A kept triplet becomes one int64 key
``block·BW + row·W + col`` over the ``[diag | pre | post]`` column
blocks, so the sorted keys are the three CSR blocks in turn.  One
stable sort and ``np.bincount`` (which adds in input order) sum each
slot's contributions in **set-up order**: local elements in local-mesh
order, row-major, then the received blocks in source-rank order.  A
slot's value is a function of its contributions and that order alone,
so :func:`patch_csr`, which re-reduces a slot over all of them in the
same order, writes exactly what a fresh :func:`assemble_csr` would.
The pattern is a function of the connectivity (explicit zeros are
kept), so a coordinate or stiffness patch never changes it.
"""

from __future__ import annotations

import numpy as np

from repro.core import segment
from repro.core.csr import CsrBlock
from repro.core.maps import NodeMaps
from repro.core.operator import DistributedOperator, owned_ranges
from repro.core.scatter import build_comm_maps
from repro.fem.operators import Operator
from repro.partition.interface import LocalMesh
from repro.simmpi.communicator import Communicator
from repro.util.arrays import INDEX_DTYPE

__all__ = ["AssembledOperator", "assemble_csr", "patch_csr"]


def _dofs(first: np.ndarray, ndpn: int) -> np.ndarray:
    """Per-node ``(E, n)`` labels of a node's first dof → per-dof
    ``(E, n·ndpn)`` labels, node-major."""
    E, n = first.shape
    return (first[:, :, None] + np.arange(ndpn, dtype=INDEX_DTYPE)).reshape(E, n * ndpn)


def _pick(ke, rows, cols, rows_ok, cols_ok):
    """The triplets of the element rows flagged in the flat mask
    ``rows_ok`` and the columns flagged in the ``(E, nd)`` mask
    ``cols_ok`` (``None``: all), in set-up order, as broadcastable
    ``(row, col)`` labels (``rows``/``cols``: ``(E, nd)`` per-dof labels),
    values and the column mask to flatten them with (:func:`_flat`)."""
    nd = rows.shape[1]
    if rows_ok is None and cols_ok is None:
        return rows[:, :, None], cols[:, None, :], ke, None
    sel = np.arange(rows.size) if rows_ok is None else np.flatnonzero(rows_ok)
    e = sel // nd
    m = None if cols_ok is None else cols_ok[e]
    return rows.reshape(-1)[sel][:, None], cols[e], ke.reshape(-1, nd)[sel], m


def _flat(x, shape, m):
    """``x`` broadcast to ``shape``, flattened through mask ``m``."""
    x = np.broadcast_to(x, shape)
    return x.reshape(-1) if m is None else x[m]


class _Keys:
    """Slot keys of one rank's owned rows and ``[diag | pre | post]``
    column blocks (``pre``/``post``: sorted halo nodes)."""

    def __init__(self, n_begin, n_end, pre, post, ndpn):
        self.n_begin, self.n_end, self.pre, self.post = n_begin, n_end, pre, post
        self.ndpn = ndpn
        self.n_rows = (n_end - n_begin) * ndpn
        self.widths = (self.n_rows, pre.size * ndpn, post.size * ndpn)
        self.W = max(*self.widths, 1)
        self.BW = max(self.n_rows, 1) * self.W

    def rows(self, gdof):
        return (gdof - self.n_begin * self.ndpn) * self.W

    def cols(self, g):
        """Key offset of each global node's first dof."""
        out = (g - self.n_begin) * self.ndpn
        for mask, halo, b in ((g < self.n_begin, self.pre, 1),
                              (g >= self.n_end, self.post, 2)):
            if mask.any():
                out[mask] = b * self.BW + np.searchsorted(halo, g[mask]) * self.ndpn
        return out

    def reduce(self, ke, e2g, gdof, rows_ok, cols_ok, received):
        """Sorted unique slot keys and each slot's sum of the kept
        triplets — the local ones (column keys mapped per node), then
        each received block — added in that set-up order (the sort is
        stable)."""
        r, c, v, m = _pick(ke, self.rows(gdof), _dofs(self.cols(e2g), self.ndpn),
                           rows_ok, cols_ok)
        keys, vals = [_flat(r + c, v.shape, m)], [_flat(v, v.shape, m)]
        del r, c, v
        for rows, cols, v in received:
            keys.append(self.rows(rows) + self.cols(cols // self.ndpn)
                        + cols % self.ndpn)
            vals.append(v)
        k = keys[0] if len(keys) == 1 else np.concatenate(keys)
        del keys
        order = np.argsort(k, kind="stable")
        k = k[order]
        head = np.ones(k.size, dtype=bool)
        np.not_equal(k[1:], k[:-1], out=head[1:])
        slots = k[head]
        v = (vals[0] if len(vals) == 1 else np.concatenate(vals))[order]
        del k, order
        slot = np.cumsum(head)
        slot -= 1
        return slots, np.bincount(slot, weights=v)


def _ship(comm, ke, gdof, own, rows_ok, cols_ok, phase):
    """Send every off-rank flagged row's triplets to its owner
    (collective; ``cols_ok(d)``: the column mask for destination ``d``).
    Returns the non-empty received blocks in source-rank order."""
    per_dest: list = [None] * comm.size
    flat = own.reshape(-1)
    live = flat if rows_ok is None else flat[rows_ok]
    for d in np.flatnonzero(np.bincount(live, minlength=comm.size)):
        if d != comm.rank:
            sel = flat == d if rows_ok is None else rows_ok & (flat == d)
            r, c, v, m = _pick(ke, gdof, gdof, sel, cols_ok(d))
            t = tuple(_flat(x, v.shape, m) for x in (r, c, v))
            per_dest[d] = t if t[0].size else None
    t0 = comm.vtime
    received = comm.alltoall(per_dest)
    comm.obs.add(phase, comm.vtime - t0)
    return [t for t in received if t is not None]


def assemble_csr(comm, ke, e2g, ndpn, ranges, phases, diag_only=False):
    """Assemble this rank's owned rows from every rank's element
    matrices (collective).

    ``ke`` is the ``(E, nd, nd)`` batch of the local elements in
    local-mesh order, ``e2g`` their global nodes, ``ranges`` the
    ``(P, 2)`` owned node ranges; ``phases`` label the local work before
    the exchange, the exchange and the work after it.  Returns
    ``(ghost_pre, ghost_post, (A_diag, A_pre, A_post))``.  ``diag_only``
    keeps only triplets whose row and column have one owner (no halo):
    the block-Jacobi block, bitwise the full assembly's ``A_diag``."""
    local, wire, final = phases
    n_begin, n_end = (int(x) for x in ranges[comm.rank])
    with comm.compute(local):
        own_n = np.searchsorted(ranges[:, 1], e2g, side="right")
        own, gdof = np.repeat(own_n, ndpn, axis=1), _dofs(e2g * ndpn, ndpn)
    received = _ship(comm, ke, gdof, own, None,
                     (lambda d: own == d) if diag_only else (lambda d: None),
                     wire)
    with comm.compute(final):
        mine = own_n == comm.rank
        halo = np.empty(0, dtype=INDEX_DTYPE)
        if not diag_only:
            nodes = np.concatenate([e2g[mine.any(axis=1)].reshape(-1)]
                                   + [c // ndpn for _, c, _ in received])
            halo = np.unique(nodes[(nodes < n_begin) | (nodes >= n_end)])
        keys = _Keys(n_begin, n_end, halo[halo < n_begin],
                     halo[halo >= n_end], ndpn)
        slots, data = keys.reduce(
            ke, e2g, gdof, None if mine.all() else (own == comm.rank).reshape(-1),
            (own == comm.rank) if diag_only else None, received,
        )
        idx = np.int32 if max(slots.size, keys.W) < 2**31 - 1 else INDEX_DTYPE
        bounds = np.searchsorted(slots, np.arange(4) * keys.BW)
        blocks = []
        for b in range(3):
            kb = slots[bounds[b]:bounds[b + 1]] - b * keys.BW
            row = kb // keys.W
            indptr = np.zeros(keys.n_rows + 1, dtype=idx)
            np.cumsum(np.bincount(row, minlength=keys.n_rows), out=indptr[1:])
            blocks.append(CsrBlock(
                data[bounds[b]:bounds[b + 1]], (kb - row * keys.W).astype(idx),
                indptr, (keys.n_rows, keys.widths[b]),
            ))
    return keys.pre, keys.post, tuple(blocks)


def patch_csr(comm, ke, e2g, hit, ndpn, ranges, maps, blocks, phases) -> None:
    """Re-reduce in place every slot of :func:`assemble_csr`'s ``blocks``
    whose row and column nodes are both flagged (collective).

    ``ke``/``e2g`` are all local elements with a flagged node, in
    local-mesh order, and ``hit`` their ``(E', n)`` node flags.  Every
    element contributing to a flagged slot has a flagged node, so each
    flagged slot sees all its contributions in set-up order and gets the
    value a fresh assembly would.  Only flagged off-rank triplets travel,
    to owners the set-up shipped to.  ``maps`` holds the halo nodes;
    ``phases`` label the work as in :func:`assemble_csr`."""
    local, wire, final = phases
    n_begin, n_end = (int(x) for x in ranges[comm.rank])
    with comm.compute(local):
        own = np.repeat(np.searchsorted(ranges[:, 1], e2g, side="right"),
                        ndpn, axis=1)
        gdof, hit = _dofs(e2g * ndpn, ndpn), np.repeat(hit, ndpn, axis=1)
    received = _ship(comm, ke, gdof, own, hit.reshape(-1), lambda d: hit, wire)
    with comm.compute(final):
        keys = _Keys(n_begin, n_end, maps.ghost_pre, maps.ghost_post, ndpn)
        slots, data = keys.reduce(
            ke, e2g, gdof, (hit & (own == comm.rank)).reshape(-1), hit, received,
        )
        bounds = np.searchsorted(slots, np.arange(4) * keys.BW)
        for b, A in enumerate(blocks):
            kb = slots[bounds[b]:bounds[b + 1]] - b * keys.BW
            # the touched rows' slots: their keys and data positions
            rows = np.unique(kb // keys.W)
            start = A.indptr[rows].astype(INDEX_DTYPE)
            lens = A.indptr[rows + 1] - start
            pos = np.arange(lens.sum()) + np.repeat(start - np.cumsum(lens) + lens,
                                                    lens)
            at = np.searchsorted(np.repeat(rows, lens) * keys.W + A.indices[pos], kb)
            A.data[pos[at]] = data[bounds[b]:bounds[b + 1]]


class AssembledOperator(DistributedOperator):
    """Distributed CSR operator with PETSc-like assembly and SPMV."""

    def __init__(
        self,
        comm: Communicator,
        lmesh: LocalMesh,
        operator: Operator,
        ranges: np.ndarray | None = None,
        elem_scale: np.ndarray | None = None,
        modeled_rate_gflops: float | None = None,
    ):
        super().__init__(comm, lmesh, operator)
        self._ranges = owned_ranges(comm, lmesh) if ranges is None else ranges
        # block products advance 2 flops per stored entry at this rate
        # (GFLOP/s) of modeled time, as HymvOperator's EMV sweeps do
        self.modeled_rate_gflops = modeled_rate_gflops
        # the assembly is a pure function of the element coordinates (read
        # from the local mesh until an update moves them) and scales
        self._scale = self._checked_scale(elem_scale)
        self._assemble("setup")

    def _assemble(self, prefix: str) -> None:
        """Full parallel assembly from the current coords/scale state
        (collective) through :func:`assemble_csr`.
        ``prefix`` labels the timing phases: ``setup.*`` at
        construction, ``update.*`` when re-run by :meth:`reassemble`."""
        comm, lmesh = self.comm, self.lmesh
        ke = self._element_matrices(prefix)
        pre, post, self._blocks = assemble_csr(
            comm, ke, lmesh.e2g, self.ndpn, self._ranges, self._phases_of(prefix)
        )
        del ke
        self.A_diag, self.A_pre, self.A_post = self._blocks
        self.nnz = sum(A.nnz for A in self._blocks)
        # the matrix halo: column nodes outside the owned range
        self.maps = NodeMaps(
            n_begin=lmesh.n_begin,
            n_end=lmesh.n_end,
            ghost_pre=pre,
            ghost_post=post,
            e2l=np.empty((0, 1), dtype=INDEX_DTYPE),
            independent=np.empty(0, dtype=INDEX_DTYPE),
            dependent=np.empty(0, dtype=INDEX_DTYPE),
        )

        t0 = comm.vtime
        cmaps = build_comm_maps(comm, self.maps, ranges=self._ranges)
        comm.obs.add(f"{prefix}.comm_maps", comm.vtime - t0)
        # packed halos and work vectors are built against these node
        # maps: a reassembly rebinds them
        self._bind(self.maps, cmaps)
        npre = self.maps.n_pre * self.ndpn
        self._own = slice(npre, npre + self.n_dofs_owned)

    # ------------------------------------------------------------------

    def update_elements(
        self,
        local_elems: np.ndarray,
        coords: np.ndarray | None = None,
        stiffness_scale: float | np.ndarray | None = None,
    ) -> None:
        """Patch element inputs, then re-add the changed values over the
        fixed sparsity pattern (timed as ``update.*``), as a PETSc user
        would.  Collective, even with an empty subset: elements on other
        ranks share the touched slots.  The touched nodes are gathered,
        every local element with one is re-integrated, and
        :func:`patch_csr` re-reduces the slots between touched nodes —
        bitwise a fresh assembly.  Signature and absolute-scale semantics
        match :meth:`repro.core.hymv.EbeOperatorBase.update_elements`."""
        local_elems, _ = self._persist_update(local_elems, coords,
                                              stiffness_scale)
        comm, lmesh = self.comm, self.lmesh
        t0 = comm.vtime
        touched = comm.allgather(np.unique(lmesh.e2g[local_elems]))
        comm.obs.add("update.comm", comm.vtime - t0)
        touched = np.unique(np.concatenate(touched))
        if not touched.size:
            return
        with comm.compute("update.assembly_local"):
            hit = np.isin(lmesh.e2g, touched)
            elems = np.flatnonzero(hit.any(axis=1))
        ke = self._element_matrices("update", elems)
        comm.obs.incr("update.ke_recomputed", elems.size)
        patch_csr(comm, ke, lmesh.e2g[elems], hit[elems], self.ndpn,
                  self._ranges, self.maps, (self.A_diag, self.A_pre, self.A_post),
                  self._phases_of("update"))

    def reassemble(self) -> None:
        """Full reassembly from the current element inputs (collective,
        timed as ``update.*``): SELL-C-sigma's update, and the adapt
        harness's reassembly baseline."""
        self._assemble("update")
        self.comm.obs.incr("update.ke_recomputed", self.lmesh.n_local_elements)

    @staticmethod
    def _phases_of(prefix: str) -> tuple[str, str, str]:
        return (f"{prefix}.assembly_local", f"{prefix}.comm",
                f"{prefix}.assembly_local")

    def _element_matrices(self, prefix: str, elems=slice(None)) -> np.ndarray:
        """Scaled element matrices of ``elems``: the same bits whatever
        the batch (the kernels are batch invariant)."""
        with self.comm.compute(f"{prefix}.emat_compute"):
            return self._integrate(elems)

    # ------------------------------------------------------------------

    #: phases of the diagonal-block and halo-block products
    _phases = ("spmv.csr.diag", "spmv.csr.halo")

    def _block_product(self, i: int, x: np.ndarray) -> np.ndarray:
        """Product of ``_blocks[i]`` (0 diag, 1 pre, 2 post) with its
        column slice ``x`` of the dof vector, or of the ``(·, k)`` dof
        block under the GEMM mode (one SpMM): the kernel calls of
        ``scipy.sparse.csr_matrix``'s product, made here so that a
        product is one Python call."""
        A = self._blocks[i]
        m, n = A.shape
        if x.ndim == 1:
            y = np.zeros(m)
            segment._csr_matvec(m, n, A.indptr, A.indices, A.data, x, y)
        else:
            y = np.zeros((m, x.shape[1]))
            segment._csr_matvecs(m, n, x.shape[1], A.indptr, A.indices, A.data,
                                 x.ravel(), y.ravel())
        return y

    def _product(self, un, vn, uf, vf, k, overlap, gemm) -> None:
        """The owned rows of ``vf`` from :meth:`_apply`.  One column
        always takes the 1-D product; the oracle runs it per column, each
        with its own halo round — the bits and messages of ``k`` single
        products.  GEMM runs each block once over all ``k`` columns
        after ONE packed ``ndpn*k``-wide scatter (SciPy's CSR·dense
        kernel streams the matrix once for all columns); it adds the
        three blocks in the 1-D order, so it matches the oracle to
        rounding, not bitwise."""
        own = self._own
        if uf.ndim == 1 or (gemm and k > 1):
            vf[own] = self._apply(un, uf, k, overlap)
        elif k == 1:
            vf[own, 0] = self._apply(un, uf[:, 0], 1, overlap)
        else:
            u = self._work[0]
            x = u.data.reshape(-1)
            for j in range(k):
                x[own] = uf[own, j]
                vf[own, j] = self._apply(u.data, x, 1, overlap)

    def _apply(
        self, un: np.ndarray, D: np.ndarray, k: int, overlap: bool
    ) -> np.ndarray:
        """PETSc's ``MatMult`` over ``k`` columns; returns the owned rows.
        Overlapped, the ghost scatter of the node rows ``un`` is in
        flight during the diagonal block product; blocking, it completes
        first.  The pre/post halo blocks then add into the product in
        that order.  ``D`` is the dof view of ``un``."""
        comm = self.comm
        t0 = comm.vtime
        halo = self._halos.get(k) or self._halo_for(k)
        own = self._own
        if overlap:
            reqs = halo.start_scatter(comm, un)
        else:
            tw = comm.vtime
            halo.scatter(comm, un)
            comm.obs.add("spmv.scatter.wait", comm.vtime - tw)
        rate = self.modeled_rate_gflops
        with comm.compute(self._phases[0]):
            y = self._block_product(0, D[own])
            if rate:
                comm.advance(2.0 * self.A_diag.nnz * k / (rate * 1e9),
                             "spmv.csr.modeled")
        if overlap:
            tw = comm.vtime
            halo.finish_scatter(comm, un, reqs)
            comm.obs.add("spmv.scatter.wait", comm.vtime - tw)
        with comm.compute(self._phases[1]):
            if self.A_pre.shape[1]:
                y += self._block_product(1, D[: own.start])
            if self.A_post.shape[1]:
                y += self._block_product(2, D[own.stop:])
            if rate:
                comm.advance(
                    2.0 * (self.A_pre.nnz + self.A_post.nnz) * k / (rate * 1e9),
                    "spmv.csr.modeled",
                )
        comm.obs.incr("spmv.flops", 2.0 * self.nnz * k)
        comm.obs.add("spmv.total", comm.vtime - t0)
        self.spmv_count += k
        return y

    # ------------------------------------------------------------------
    # preconditioner support / accounting
    # ------------------------------------------------------------------

    def diagonal_owned(self) -> np.ndarray:
        return self.A_diag.diagonal()

    def owned_block_csr(self):
        """The exact (owned x owned) diagonal block, remote contributions
        included (this is what PETSc's block Jacobi uses), as a
        ``scipy.sparse.csr_matrix`` on ``A_diag``'s arrays."""
        return self.A_diag.to_scipy()

    def flops_per_spmv(self) -> float:
        """2 flops per stored nonzero."""
        return 2.0 * self.nnz

    def stored_bytes(self) -> int:
        """CSR storage (values + column indices + row pointers)."""
        total = 0
        for A in (self.A_diag, self.A_pre, self.A_post):
            total += A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        return total
