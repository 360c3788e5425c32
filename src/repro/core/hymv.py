"""The HYMV operator: setup, Algorithm 2 SPMV, adaptive updates.

``HymvOperator`` is the paper's contribution: element matrices are
computed **once** at setup and stored per rank; every SPMV is a sweep of
batched dense EMVs with ghost exchange overlapped over the independent
elements.  ``EbeOperatorBase`` factors the element-by-element machinery so
the matrix-free baseline (Alg. 4) shares maps, layout and kernels and
differs *only* in recomputing the element matrices per product — exactly
the comparison the paper makes.

Storage layout: local elements are permuted so the independent set is a
contiguous prefix and the dependent set a contiguous suffix.  The two
Algorithm-2 sweeps then operate on *views* of the stored element-matrix
batch — no per-SPMV copies.  For linear elements
(``nd <= CSR_VIEW_MAX_ND``) either HYMV kernel reads that batch
through a :class:`~repro.core.kernels.KeCsrView`: each k = 1 or oracle
sweep is one SciPy CSR matvec that gathers and multiplies in C, with
the bits of paper eq. (4) (:func:`~repro.core.kernels.emv_columns` on
the gathered element vectors).  The GEMM multi-RHS mode and larger
elements keep the batched matmul.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.da import DistributedArray, DistributedMultiVector
from repro.core.kernels import (
    CSR_VIEW_MAX_ND,
    EMV_KERNELS,
    EmvWorkspace,
    KeCsrView,
    emv_columns,
    gather_element_vectors,
    resolve_mode,
)
from repro.core.maps import NodeMaps, build_node_maps
from repro.core.scatter import (
    CommMaps,
    HaloExchange,
    build_comm_maps,
    gather,
    scatter,
)
from repro.core.segment import SegmentScatter, _csr_matvec
from repro.fem.operators import Operator
from repro.partition.interface import LocalMesh
from repro.simmpi.communicator import Communicator
from repro.util.arrays import (
    INDEX_DTYPE,
    WidestScratch,
    as_index,
    inverse_permutation,
    scatter_add,
)

__all__ = ["EbeOperatorBase", "HymvOperator", "reference_spmv"]

#: host-compute phase of each Algorithm-2 slice
_EMV_PHASES = {
    part: f"spmv.emv.{part}" for part in ("independent", "dependent", "all")
}


def check_update(local_elems, n_local, n_nodes, coords, stiffness_scale):
    """Validated ``(local_elems, coords, scale)`` of an element update:
    ids must lie in ``[0, n_local)`` (fancy indexing would wrap or clip
    them into silently wrong numerics), coords be ``(n, n_nodes, 3)``;
    a scalar scale is broadcast over the ``n`` elements."""
    local_elems = as_index(local_elems)
    n = local_elems.size
    if n:
        lo, hi = int(local_elems.min()), int(local_elems.max())
        if lo < 0 or hi >= n_local:
            raise IndexError(
                f"update_elements: local element ids out of range "
                f"[{lo}, {hi}] vs {n_local} local elements"
            )
        if coords is not None:
            coords = np.asarray(coords, dtype=np.float64)
            if coords.shape != (n, n_nodes, 3):
                raise ValueError(
                    f"coords shape {coords.shape} != {(n, n_nodes, 3)} for "
                    f"{n} updated elements"
                )
        if stiffness_scale is not None:
            stiffness_scale = np.broadcast_to(
                np.asarray(stiffness_scale, dtype=np.float64), (n,)
            )
    return local_elems, coords, stiffness_scale


class EbeOperatorBase:
    """Element-by-element machinery shared by HYMV and matrix-free."""

    def __init__(
        self,
        comm: Communicator,
        lmesh: LocalMesh,
        operator: Operator,
        ranges: np.ndarray | None = None,
        kernel: str = "einsum",
        modeled_rate_gflops: float | None = None,
        elem_scale: np.ndarray | None = None,
    ):
        self.comm = comm
        self.lmesh = lmesh
        self.operator = operator
        self.ndpn = operator.ndpn
        self.etype = lmesh.etype
        if kernel not in EMV_KERNELS:
            raise ValueError(f"unknown EMV kernel {kernel!r}")
        self.kernel_name = kernel
        self.kernel = EMV_KERNELS[kernel]
        # optional deterministic compute model: each EMV sweep advances
        # virtual time by flops/rate instead of relying on measured wall
        # time (combine with Simulator(compute_scale=0) for fully
        # reproducible virtual-time studies, e.g. the overlap ablation)
        self.modeled_rate_gflops = modeled_rate_gflops

        with comm.compute("setup.maps"):
            self.maps: NodeMaps = build_node_maps(
                lmesh.e2g, lmesh.n_begin, lmesh.n_end
            )
            # permute elements: [independent | dependent] for view-based sweeps
            self._order = np.concatenate(
                [self.maps.independent, self.maps.dependent]
            ).astype(INDEX_DTYPE)
            self._inv_order = inverse_permutation(self._order)
            self._n_indep = int(self.maps.independent.size)
            self.e2l_dofs = self._dof_map(self.maps.e2l[self._order])
            # one-time bounds check: the hot path gathers/scatters with
            # mode="clip", which would turn an out-of-range map entry
            # into silently wrong numerics instead of an IndexError
            if self.e2l_dofs.size:
                lo = int(self.e2l_dofs.min())
                hi = int(self.e2l_dofs.max())
                n_total_dofs = self.maps.n_total * self.ndpn
                if lo < 0 or hi >= n_total_dofs:
                    raise IndexError(
                        f"E2L dof map out of range: [{lo}, {hi}] vs "
                        f"{n_total_dofs} local dofs"
                    )
            self._coords_perm = lmesh.coords[self._order]
            # optional per-element stiffness scale (local mesh order),
            # stored in permuted order like coords.  Absolute semantics:
            # the effective element matrix is always
            # ``scale * Ke(coords)`` — multiplying by 1.0 is an IEEE-754
            # no-op, so a fresh build with a partially-1.0 scale array is
            # bitwise identical to an unscaled build on the 1.0 rows.
            self._scale_perm: np.ndarray | None = None
            if elem_scale is not None:
                scale = np.asarray(elem_scale, dtype=np.float64)
                if scale.shape != (lmesh.n_local_elements,):
                    raise ValueError(
                        f"elem_scale shape {scale.shape} != "
                        f"({lmesh.n_local_elements},) local elements"
                    )
                self._scale_perm = np.ascontiguousarray(scale[self._order])

        t0 = comm.vtime
        if ranges is None:
            ranges = np.asarray(
                comm.allgather((lmesh.n_begin, lmesh.n_end)),
                dtype=INDEX_DTYPE,
            )
        self._ranges = ranges
        self.cmaps: CommMaps = build_comm_maps(comm, self.maps, ranges=ranges)
        comm.obs.add("setup.comm_maps", comm.vtime - t0)

        # Algorithm-2 slices with explicit bounds (a sweep's element
        # count is ``sl.stop - sl.start``) and fixed per-element flops
        self._sl_indep = slice(0, self._n_indep)
        self._sl_dep = slice(self._n_indep, lmesh.n_local_elements)
        self._sl_all = slice(0, lmesh.n_local_elements)
        self._emv_flops = operator.emv_flops(self.etype)
        self.n_dofs_owned = self.maps.n_owned * self.ndpn
        self.spmv_count = 0
        # under fault injection, sanity-check received ghost values so
        # corruption surfaces as a counter the resilient solver can act on
        self._check_ghosts = bool(getattr(comm, "faults_active", False))
        self._recv_all = (
            np.concatenate(self.cmaps.recv_slots).astype(INDEX_DTYPE)
            if self.cmaps.recv_slots
            else np.empty(0, dtype=INDEX_DTYPE)
        )

        # zero-allocation hot path: preallocated EMV workspace, packed
        # halo buffers and precomputed segment-sum scatters per sweep
        with comm.compute("setup.workspace"):
            E = lmesh.n_local_elements
            self._ws = EmvWorkspace(E, self.e2l_dofs.shape[1])
            self._seg_indep = SegmentScatter(self.e2l_dofs[self._sl_indep])
            self._seg_dep = SegmentScatter(self.e2l_dofs[self._sl_dep])
            # one packed halo exchange per node-row width ndpn*k, so one
            # exchange serves all k columns of a multivector product
            self._halos: dict[int, HaloExchange] = {}
            self.halo = self._halo_for(1)
        self._seg_all: SegmentScatter | None = None
        # the (U, V) work multivectors backing apply_owned_multi
        maps, ndpn = self.maps, self.ndpn
        n = maps.n_total * ndpn
        self._work_multi = WidestScratch((n, n), lambda bufs, k: tuple(
            DistributedMultiVector(maps, ndpn, k, data=b[: n * k])
            for b in bufs
        ))

    # -- construction helpers -------------------------------------------

    def _dof_map(self, e2l: np.ndarray) -> np.ndarray:
        """Node-level E2L → dof-level (E, n*ndpn) map (node-major dofs)."""
        E, n = e2l.shape
        dofs = e2l[:, :, None] * self.ndpn + np.arange(
            self.ndpn, dtype=INDEX_DTYPE
        )
        return dofs.reshape(E, n * self.ndpn)

    def new_array(self) -> DistributedArray:
        return DistributedArray(self.maps, self.ndpn)

    # -- elemental sweep -------------------------------------------------

    def _element_matrices(self, sl: slice) -> np.ndarray:
        """Element matrices of a permuted-order slice (storage vs.
        recompute is the HYMV/matrix-free distinction)."""
        raise NotImplementedError

    def _segment_for(self, sl: slice) -> SegmentScatter:
        """Precomputed segment scatter of a sweep slice (the whole-range
        one is built on first use: only blocking products sweep it)."""
        if sl is self._sl_indep:
            return self._seg_indep
        if sl is self._sl_dep:
            return self._seg_dep
        if self._seg_all is None:
            self._seg_all = SegmentScatter(self.e2l_dofs)
        return self._seg_all

    def _columns_batch(self, sl: slice) -> np.ndarray | None:
        """Optional precomputed column-major matrix batch for the
        ``columns`` kernel (operators with stored matrices override)."""
        return None

    def _local_emv(
        self, sl: slice, ue: np.ndarray, ve: np.ndarray | None = None
    ) -> np.ndarray:
        """The local kernel: element products of slice ``sl`` for the
        gathered ``ue`` — ``(E, nd)``, or ``(E, nd, k)`` under the GEMM
        mode — written into ``ve`` when given, freshly allocated
        otherwise.  Operators that do not store or recompute element
        matrices (partial assembly) override this."""
        ke = self._element_matrices(sl)
        if ue.ndim == 3:
            return self.kernel(ke, ue, out=ve, mode="gemm")
        if self.kernel is emv_columns and ve is not None:
            return emv_columns(
                ke, ue, out=ve, tmp=self._ws.tmp[: ue.shape[0]],
                columns=self._columns_batch(sl),
            )
        return self.kernel(ke, ue, out=ve)

    def _gather_emv(
        self, sl: slice, uf: np.ndarray, ue: np.ndarray, ve: np.ndarray
    ) -> np.ndarray:
        """Element products of slice ``sl`` for the flat input ``uf``:
        gather into the workspace ``ue``, then the local kernel into
        ``ve``; returns the products."""
        gather_element_vectors(uf, self.e2l_dofs[sl], out=ue)
        return self._local_emv(sl, ue, ve)

    def _gather_emv_add(
        self, uf: np.ndarray, vf: np.ndarray, sl: slice, zeroed: bool
    ) -> int:
        """Gather → local kernel → segment-add over the non-empty slice
        ``sl``, through the workspace; returns the number of elements
        swept.  ``zeroed`` says ``vf`` is all ``+0.0`` (Algorithm 2's
        first sweep), so the segment scatter sums straight into it —
        same bits, no scratch round trip
        (:class:`~repro.core.segment.SegmentScatter`).

        ``uf``/``vf`` are flat local dof vectors — 1-D (k = 1, or an
        oracle column copied contiguous, so the oracle multivector path
        inherits the single-RHS bits column by column) or
        ``(n_dofs, k)`` blocks for the BLAS3 GEMM mode, where the element
        matrices are produced once for all k columns, chunk by chunk
        (:meth:`_emv_chunks`) with one sweep's bits."""
        n = sl.stop - sl.start
        seg = self._segment_for(sl)
        if uf.ndim == 1:
            ue, ve = self._ws.views(n)
            seg.add_into(vf, self._gather_emv(sl, uf, ue, ve), zeroed=zeroed)
            return n
        ws = self._ws
        if n <= ws.chunk:  # one chunk, without a generator
            ue, ve = ws.multi_views(n, uf.shape[1])
            chunks = (self._gather_emv(sl, uf, ue, ve),)
        else:
            chunks = self._emv_chunks(sl, uf)
        seg.add_chunks_multi(vf, chunks, ws.chunk * ws.nd, zeroed)
        return n

    def _emv_chunks(self, sl: slice, uf: np.ndarray):
        """Element products of ``sl`` for the ``(n_dofs, k)`` block
        ``uf``, yielded per chunk of ``chunk`` elements through the
        workspace's chunk-sized pair."""
        c, k = self._ws.chunk, uf.shape[1]
        for a in range(sl.start, sl.stop, c):
            b = min(a + c, sl.stop)
            ue, ve = self._ws.multi_views(b - a, k)
            yield self._gather_emv(slice(a, b), uf, ue, ve)

    def _account_sweep(self, n: int, k: int) -> None:
        """Counters and modeled compute of an ``n``-element sweep over
        ``k`` columns (k-scaled totals, so virtual-time studies stay
        independent of the multi-RHS mode)."""
        flops = n * self._emv_flops * k
        self.comm.obs.incr("spmv.elements", n * k)
        self.comm.obs.incr("spmv.flops", flops)
        if self.modeled_rate_gflops:
            self.comm.advance(
                flops / (self.modeled_rate_gflops * 1e9), "spmv.emv.modeled"
            )

    def _emv_sweep(
        self, uf: np.ndarray, vf: np.ndarray, sl: slice, zeroed: bool
    ) -> None:
        """One accounted elemental sweep (see :meth:`_gather_emv_add`)."""
        n = self._gather_emv_add(uf, vf, sl, zeroed)
        self._account_sweep(n, 1 if uf.ndim == 1 else uf.shape[1])

    def _verify_ghosts(self, un: np.ndarray) -> None:
        """Flag non-finite received ghost values (fault-injection runs
        only): raises the ``spmv.ghost_nonfinite`` counter that the
        resilient CG treats as a local corruption signal.

        One vectorized ``isfinite`` pass over the concatenated recv-slot
        array precomputed at setup (no per-neighbor Python loop)."""
        if self._recv_all.size == 0:
            return
        vals = un[self._recv_all]
        bad = int(vals.size - np.count_nonzero(np.isfinite(vals)))
        if bad:
            self.comm.obs.incr("spmv.ghost_nonfinite", bad)

    # -- Algorithm 2 ------------------------------------------------------

    def _halo_for(self, k: int) -> HaloExchange:
        """Packed halo exchange for node rows of width ``ndpn * k``
        (built once per distinct column count)."""
        h = self._halos.get(k)
        if h is None:
            h = self._halos[k] = HaloExchange(self.cmaps, self.ndpn * k)
        return h

    def _algorithm2(
        self,
        un: np.ndarray,
        vn: np.ndarray,
        uf: np.ndarray,
        vf: np.ndarray,
        k: int,
        overlap: bool,
        run: Callable[[str, slice, np.ndarray, np.ndarray, bool], None],
    ) -> None:
        """The Algorithm-2 schedule on ``(n_total, ndpn*k)`` node rows:
        post the ghost scatter of ``un``, run the independent elements,
        finish the scatter, run the dependent elements, gather ``vn``.
        ``overlap=False`` completes the scatter first and runs all
        elements in one sweep.  ``run(part, sl, uf, vf, zeroed)`` does
        (and times) the local work of slice ``sl`` on the dof views
        ``uf`` / ``vf`` of ``un`` / ``vn``; ``part`` names the slice
        ``"independent"``, ``"dependent"`` or ``"all"``, and ``zeroed``
        is true for the first sweep after ``vn`` is zeroed.

        A slice without elements runs no sweep and no timer (on one
        rank the dependent slice is always empty): it would add ``+0.0``
        seconds and no flops, so clocks, counters and bits are kept."""
        comm = self.comm
        obs = comm.obs
        halo = self._halo_for(k)
        t0 = comm.vtime
        vn[:] = 0.0
        if overlap:
            reqs = halo.start_scatter(comm, un)
            sl = self._sl_indep
            if sl.stop > sl.start:
                run("independent", sl, uf, vf, True)
            tw = comm.vtime
            halo.finish_scatter(comm, un, reqs)
        else:
            tw = comm.vtime
            halo.scatter(comm, un)
        obs.record("spmv.scatter.wait", vtime=comm.vtime - tw)
        if self._check_ghosts:
            self._verify_ghosts(un)
        sl = self._sl_dep if overlap else self._sl_all
        if sl.stop > sl.start:
            run("dependent" if overlap else "all", sl, uf, vf, not overlap)
        tg = comm.vtime
        halo.gather(comm, vn)
        obs.record("spmv.gather", vtime=comm.vtime - tg)
        obs.record("spmv.total", vtime=comm.vtime - t0)
        self.spmv_count += k

    def _host_run(
        self, part: str, sl: slice, uf: np.ndarray, vf: np.ndarray,
        zeroed: bool,
    ) -> None:
        """``run`` of :meth:`_algorithm2`: one measured host sweep."""
        with self.comm.compute(_EMV_PHASES[part]):
            self._emv_sweep(uf, vf, sl, zeroed)

    def _host_run_columns(
        self, part: str, sl: slice, uf: np.ndarray, vf: np.ndarray,
        zeroed: bool,
    ) -> None:
        """``run`` of :meth:`_algorithm2` for the oracle multi-RHS mode:
        the single-RHS sweep per column.  At ``k > 1`` the sweeps run
        on rows of transposed workspace copies of ``uf`` and ``vf``, so
        each sees contiguous single-RHS operands and allocates nothing
        (copies move bits unchanged; a zeroed ``vf`` is zeroed, not
        read)."""
        with self.comm.compute(_EMV_PHASES[part]):
            k = uf.shape[1]
            if k == 1:
                self._emv_sweep(uf[:, 0], vf[:, 0], sl, zeroed)
                return
            ut, vt = self._ws.column_views(uf.shape[0], k)
            np.copyto(ut, uf.T)
            if zeroed:
                vt.fill(0.0)
            else:
                np.copyto(vt, vf.T)
            for j in range(k):
                self._emv_sweep(ut[j], vt[j], sl, zeroed)
            np.copyto(vf.T, vt)

    def spmv(
        self,
        u: DistributedArray,
        v: DistributedArray,
        overlap: bool = True,
    ) -> DistributedArray:
        """Distributed SPMV ``v = K u`` (owned block of ``v`` is exact on
        return; ghost entries of ``v`` are scratch).

        ``overlap=True`` is Algorithm 2: the ghost scatter of ``u`` is in
        flight while independent elements compute; ``overlap=False`` is
        the blocking variant used in the ablation study.
        """
        self._algorithm2(
            u.data, v.data, u.data.reshape(-1), v.data.reshape(-1), 1,
            overlap, self._host_run,
        )
        return v

    def apply(self, u: DistributedArray, v: DistributedArray) -> DistributedArray:
        """Solver-facing alias of :meth:`spmv` (MatShell interface)."""
        return self.spmv(u, v)

    def apply_owned(self, x: np.ndarray, copy: bool = True) -> np.ndarray:
        """MatShell-style application on owned dof vectors (what the CG
        solver calls); halo handling is internal.  The distributed
        product lands in work arrays preallocated on first use.

        **Aliasing contract:** by default the result is returned as a
        fresh copy the caller owns — two products held simultaneously
        stay distinct, and mutating one (e.g. masking Dirichlet rows)
        never touches operator state.  ``copy=False`` instead returns a
        *view* into the operator-owned work buffer, overwritten by the
        next ``apply_owned``/``spmv`` call: zero-copy for hot loops that
        consume the result immediately and must not mutate it."""
        if not hasattr(self, "_work_u"):
            self._work_u = self.new_array()
            self._work_v = self.new_array()
        self._work_u.set_owned(x)
        self.spmv(self._work_u, self._work_v)
        owned = self._work_v.owned_flat
        return np.array(owned, copy=True) if copy else owned

    # -- multi-RHS (matrix-multivector) path ------------------------------

    def new_multivector(self, k: int) -> DistributedMultiVector:
        return DistributedMultiVector(self.maps, self.ndpn, k)

    def spmv_multi(
        self,
        u: DistributedMultiVector,
        v: DistributedMultiVector,
        overlap: bool = True,
        mode: str = "auto",
    ) -> DistributedMultiVector:
        """Batched multi-RHS SPMV ``V = K U`` (Algorithm 2 over ``k``
        right-hand sides at once).

        Under ``mode="oracle"`` column ``j`` of the result is **bitwise
        identical** to ``spmv`` applied to column ``j`` alone: each
        column runs through the exact single-RHS elemental sweep (same
        workspace, same kernels, same accumulation order).  The batching
        win is in the communication layer — ONE ghost exchange of packed
        ``ndpn * k`` node rows replaces ``k`` exchanges, amortizing
        per-message latency across the batch (the multivector analogue
        of the paper's batched-EMV rationale; per-scalar ghost copies and
        accumulations are independent, so packing cannot change bits).

        Under ``mode="gemm"`` the elemental stage additionally runs as
        batched BLAS3 GEMMs over the whole ``(E, nd, k)`` block: each
        stored/recomputed element matrix is streamed through memory once
        for all k columns instead of k times.  Results match the oracle
        to rounding (:func:`repro.core.kernels.gemm_equivalence_rtol`),
        not bitwise.  ``mode="auto"`` (the default) picks GEMM when
        ``k >= DEFAULT_K_MIN``.
        """
        k = u.k
        if resolve_mode(mode, k) == "gemm":
            run = self._host_run
        else:
            run = self._host_run_columns
        self._algorithm2(
            u.node_view, v.node_view, u.dof_view, v.dof_view, k, overlap, run
        )
        return v

    def work_multivectors(
        self, k: int
    ) -> tuple[DistributedMultiVector, DistributedMultiVector]:
        """The operator-owned ``(U, V)`` work pair of width ``k`` behind
        :meth:`apply_owned_multi`.  Callers that fill ``U`` themselves and
        run :meth:`spmv_multi` (the Dirichlet block operator of
        :mod:`repro.serve.cache`) skip the input and output copies.  Every
        width views one buffer per role sized for the widest ``k`` seen,
        so both are overwritten by the next work product of *any* width."""
        return self._work_multi.get(k) or self._work_multi(k)

    def apply_owned_multi(
        self, X: np.ndarray, copy: bool = True, mode: str = "auto"
    ) -> np.ndarray:
        """Multi-RHS :meth:`apply_owned`: applies the operator to the
        ``(n_owned_dofs, k)`` columns of ``X`` in one batched product.

        Under the resolved ``"oracle"`` mode column ``j`` of the result
        is bitwise identical to ``apply_owned(X[:, j])``; the resolved
        ``"gemm"`` mode (``auto`` picks it for ``k >= DEFAULT_K_MIN``) runs
        the BLAS3 elemental stage and matches to rounding (see
        :meth:`spmv_multi`).  The work multivectors are
        :meth:`work_multivectors`; the aliasing contract matches
        ``apply_owned`` except that ``copy=False`` returns a view
        overwritten by the next multi-RHS product of *any* width.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"expected (n, k) multivector, got shape {X.shape}")
        U, V = self.work_multivectors(X.shape[1])
        U.set_owned(X)
        self.spmv_multi(U, V, mode=mode)
        owned = V.owned_matrix
        return np.array(owned, copy=True) if copy else owned

    # -- preconditioner support (shared: HYMV loads stored matrices,
    #    matrix-free recomputes once) --------------------------------------

    def diagonal(self) -> DistributedArray:
        """Exact assembled diagonal of K on owned dofs (collective)."""
        d = self.new_array()
        ke = self._element_matrices(self._sl_all)
        nd = self.e2l_dofs.shape[1]
        diag_e = ke.diagonal(axis1=1, axis2=2)
        scatter_add(d.data.reshape(-1), self.e2l_dofs, diag_e)
        d.accumulate_ghosts(self.comm, self.cmaps)
        return d

    def diagonal_owned(self) -> np.ndarray:
        return self.diagonal().owned_flat.copy()

    def owned_block_csr(self):
        """The (owned x owned) diagonal block, assembled collectively.

        This is the block-preconditioner assembly the paper mentions
        ("for block Jacobi preconditioner, HYMV needs to assemble the
        diagonal block matrix"): each rank contributes the (i, j) entries
        of its element matrices for which ``owner(i) == owner(j)``, and
        ships off-rank contributions to that owner.  Fed in local-mesh
        element order through the assembled baseline's
        :func:`~repro.baselines.assembled.assemble_csr`, the result is its
        ``A_diag`` bit for bit.
        """
        from repro.baselines.assembled import assemble_csr  # import cycle

        ke = self._element_matrices(self._sl_all)[self._inv_order]
        _, _, (block, _, _) = assemble_csr(
            self.comm, ke, self.lmesh.e2g, self.ndpn, self._ranges,
            ("precond.block_local", "precond.block_comm",
             "precond.block_assemble"),
            diag_only=True,
        )
        return block

    # -- adaptivity (the XFEM / AMR use-case, paper §I & §III) ------------

    def update_elements(
        self,
        local_elems: np.ndarray,
        coords: np.ndarray | None = None,
        stiffness_scale: float | np.ndarray | None = None,
    ) -> None:
        """Update a subset of local elements in place.

        This is the "adaptive-matrix" property: enrichment/refinement of
        a few elements costs only their recomputation — no global
        assembly.  ``local_elems`` are indices into the local mesh's
        element list; ``coords`` optionally replaces the subset's node
        coordinates; ``stiffness_scale`` sets the subset's *absolute*
        per-element stiffness scale (a simple model of XFEM-style
        stiffness modification of cracked elements) — re-applying the
        same scale is idempotent, and the scale persists across later
        coordinate updates of the same element.

        Both updates are persisted (permuted coords / scale arrays), so
        the post-update operator state is indistinguishable from a fresh
        build on the updated inputs; subclasses refresh their stored
        products via :meth:`_refresh_elements`, which is told whether the
        subset's geometry changed and its pre-update scales (a
        scale-only update leaves ``Ke(coords)`` unchanged, so HYMV
        rescales instead of re-integrating).  Workspaces, segment
        scratch and work multivectors are kept: an in-place update
        changes none of their shapes.  Raises ``IndexError`` on any
        out-of-range (or negative) index rather than letting fancy
        indexing wrap or clip it into silently-wrong numerics — same
        hardening as the e2l map check at setup.
        """
        local_elems, coords, scale = check_update(
            local_elems, self.n_local_elements, self.etype.n_nodes, coords,
            stiffness_scale,
        )
        if local_elems.size == 0:
            return
        pos = self._inv_order[local_elems]
        if coords is not None:
            self._coords_perm[pos] = coords
        old_scale = None if self._scale_perm is None else self._scale_perm[pos]
        if scale is not None:
            if self._scale_perm is None:
                self._scale_perm = np.ones(self.lmesh.n_local_elements)
            self._scale_perm[pos] = scale
        self._refresh_elements(pos, coords is not None, old_scale)
        self.comm.obs.incr("update.elements", pos.size)

    def _refresh_elements(
        self, pos: np.ndarray, moved: bool, old_scale: np.ndarray | None
    ) -> None:
        """Refresh stored per-element products for permuted positions
        ``pos`` after a coords/scale change.  ``moved`` says the subset's
        coordinates were replaced; ``old_scale`` holds its pre-update
        scales (``None`` when the operator had no scale array).  The
        base class stores nothing derived (matrix-free recomputes per
        product), so the default is a no-op."""

    # -- cost accounting --------------------------------------------------

    @property
    def n_local_elements(self) -> int:
        return self.lmesh.n_local_elements

    @property
    def n_independent(self) -> int:
        return self._n_indep

    @property
    def n_dependent(self) -> int:
        return self.lmesh.n_local_elements - self._n_indep

    def flops_per_spmv(self) -> float:
        """Local flops of one SPMV sweep (EMV only, paper's counting)."""
        return self.n_local_elements * self._emv_flops


class HymvOperator(EbeOperatorBase):
    """The adaptive-matrix operator (paper's HYMV).

    Setup computes and *stores* all local element matrices (timed as
    ``setup.emat_compute`` + ``setup.local_copy`` — the two bars of
    Figs. 5/7); each SPMV then loads them instead of recomputing.
    """

    def __init__(
        self,
        comm: Communicator,
        lmesh: LocalMesh,
        operator: Operator,
        ranges: np.ndarray | None = None,
        kernel: str = "einsum",
        modeled_rate_gflops: float | None = None,
        ke_cache: dict | None = None,
        elem_scale: np.ndarray | None = None,
    ):
        """``ke_cache`` optionally maps *global element ids* to previously
        computed element matrices (e.g. carried across an adaptive
        refinement via :class:`repro.mesh.adapt.LocalRefinement`
        ancestry); cache hits skip the elemental computation — the
        adaptive-matrix property across mesh changes.  Cached entries
        already embed their stiffness scale, so ``elem_scale`` is applied
        only to freshly computed rows."""
        super().__init__(
            comm, lmesh, operator, ranges=ranges, kernel=kernel,
            modeled_rate_gflops=modeled_rate_gflops, elem_scale=elem_scale,
        )
        gids = lmesh.elements[self._order]
        if ke_cache:
            hit = np.array([int(g) in ke_cache for g in gids], dtype=bool)
        else:
            hit = np.zeros(gids.size, dtype=bool)
        nd = operator.element_dofs(lmesh.etype)
        self.ke = np.empty((gids.size, nd, nd))
        with comm.compute("setup.emat_compute"):
            # without cache hits the blocked driver writes straight into
            # the store; the scale multiplies in place, same bits
            if not hit.any():
                operator.element_matrices(
                    self._coords_perm, lmesh.etype, out=self.ke
                )
                if self._scale_perm is not None:
                    self.ke *= self._scale_perm[:, None, None]
            elif not hit.all():
                kx = operator.element_matrices(
                    self._coords_perm[~hit], lmesh.etype
                )
                if self._scale_perm is not None:
                    kx *= self._scale_perm[~hit][:, None, None]
                self.ke[~hit] = kx
        with comm.compute("setup.local_copy"):
            if hit.any():
                self.ke[hit] = np.stack(
                    [ke_cache[int(g)] for g in gids[hit]], axis=0
                )
        self.cache_hits = int(hit.sum())
        # remembered unit-scale matrices ``Ke(coords)`` of patched rows,
        # allocated on the first patch (untouched rows stay unfaulted)
        self._unit: np.ndarray | None = None
        self._unit_known: np.ndarray | None = None
        # linear elements: either kernel's single-RHS sweeps run as one
        # CSR matvec over a view of ``ke`` (gather + EMV in C), with the
        # ``columns`` kernel's eq. (4) bits; the GEMM mode keeps matmul
        self._eq4 = nd <= CSR_VIEW_MAX_ND
        # larger elements under ``columns`` (the eq. 4 ablation) stream
        # a column-major copy: strided ``ke[:, :, j]`` reads fetch a full
        # cache line per double, ``_kcol[j]`` is contiguous (paper eq.
        # 4's SIMD layout).  Same operands, same add order, same bits.
        self._kcol: np.ndarray | None = None
        if self.kernel_name == "columns" and not self._eq4:
            with comm.compute("setup.column_layout"):
                self._kcol = np.ascontiguousarray(self.ke.transpose(2, 0, 1))
        self._csr: KeCsrView | None = None
        if self._eq4 and _csr_matvec is not None:
            with comm.compute("setup.csr_view"):
                self._csr = KeCsrView(
                    self.ke, self.e2l_dofs, self.maps.n_total * self.ndpn
                )

    def export_ke_cache(self) -> dict:
        """Element matrices keyed by global element id (for reuse across
        adaptive refinements)."""
        gids = self.lmesh.elements[self._order]
        return {int(g): self.ke[i] for i, g in enumerate(gids)}

    def _element_matrices(self, sl: slice) -> np.ndarray:
        return self.ke[sl]  # a view — slices never copy

    def _columns_batch(self, sl: slice) -> np.ndarray | None:
        return None if self._kcol is None else self._kcol[:, sl]

    def _local_emv(
        self, sl: slice, ue: np.ndarray, ve: np.ndarray | None = None
    ) -> np.ndarray:
        """A CSR-view operator's single-RHS products are
        :func:`~repro.core.kernels.emv_columns` on the gathered ``ue``
        — the view's bits, for :func:`reference_spmv` and for the
        fallback when SciPy's kernel is unavailable."""
        if not self._eq4 or ue.ndim == 3:
            return super()._local_emv(sl, ue, ve)
        tmp = None if ve is None else self._ws.tmp[: ue.shape[0]]
        return emv_columns(self.ke[sl], ue, out=ve, tmp=tmp)

    def _gather_emv(
        self, sl: slice, uf: np.ndarray, ue: np.ndarray, ve: np.ndarray
    ) -> np.ndarray:
        if self._csr is None or uf.ndim != 1:
            return super()._gather_emv(sl, uf, ue, ve)
        return self._csr.matvec(sl.start, sl.stop, uf, ve)

    # -- adaptivity (the XFEM / AMR use-case, paper §I & §III) ------------

    def _refresh_elements(
        self, pos: np.ndarray, moved: bool, old_scale: np.ndarray | None
    ) -> None:
        """Store ``U_e * s_e`` at permuted positions ``pos``: the
        unit-scale matrix ``U_e = Ke(coords)`` times the (already
        updated) persisted scale — the multiply a fresh build does, so
        the patched rows are bitwise fresh-build rows.  ``U_e`` is the
        remembered one; else, when the geometry did not move and the
        pre-update scale is exactly ``1.0`` (or there was no scale
        array), the stored row itself (``Ke * 1.0 == Ke`` bit for bit);
        else one integration, remembered afterwards.  A coordinate
        update forgets ``U_e``.  The cost of an adaptive update is
        therefore at most these ``pos.size`` elemental computations,
        nothing global, and none for a scale-only update of rows already
        seen."""
        if self._unit is None:
            self._unit = np.empty_like(self.ke)
            self._unit_known = np.zeros(self.n_local_elements, dtype=bool)
        unit, known = self._unit, self._unit_known
        if moved:
            known[pos] = False
        else:
            stored = ~known[pos]
            if old_scale is not None:
                stored &= old_scale == 1.0
            take = pos[stored]
            unit[take] = self.ke[take]
            known[take] = True
        todo = pos[~known[pos]]
        if todo.size:
            with self.comm.compute("update.emat_compute"):
                unit[todo] = self.operator.element_matrices(
                    self._coords_perm[todo], self.etype
                )
            known[todo] = True
        with self.comm.compute("update.local_copy"):
            ke = unit[pos]
            if self._scale_perm is not None:
                ke *= self._scale_perm[pos][:, None, None]
            self.ke[pos] = ke
            if self._kcol is not None:
                self._kcol[:, pos] = ke.transpose(2, 0, 1)
        self.comm.obs.incr("update.ke_recomputed", todo.size)
        self.comm.obs.incr("update.ke_rescaled", pos.size - todo.size)
        self.comm.obs.incr(
            "update.ke_flops",
            todo.size * self.operator.ke_flops(self.etype),
        )

    def stored_bytes(self) -> int:
        """Memory footprint of the element-matrix storage the SPMV
        streams: ``ke``, plus the ``columns`` kernel's column-major copy
        or the CSR view's index arrays.  The element maps every EBE
        operator shares (matrix-free stores only those) are not
        counted."""
        total = self.ke.nbytes
        if self._kcol is not None:
            total += self._kcol.nbytes
        if self._csr is not None:
            total += self._csr.nbytes
        return total


def reference_spmv(
    A: EbeOperatorBase, u: DistributedArray, v: DistributedArray
) -> DistributedArray:
    """``v = K u`` by the plain allocating product, without workspace,
    packed halo, segment scatter or overlap — the bitwise reference the
    Algorithm-2 driver is checked against (tests, the kernels bench).

    Blocking ghost fill, then per independent/dependent slice an
    allocating gather → :meth:`EbeOperatorBase._local_emv` →
    ``scatter_add``, then the blocking gather.  Counts ``spmv.elements``
    and ``spmv.flops`` like an EMV sweep; records no phases."""
    comm = A.comm
    v.data[:] = 0.0
    scatter(comm, u.data, A.cmaps)
    uf, vf = u.data.reshape(-1), v.data.reshape(-1)
    for sl in (A._sl_indep, A._sl_dep):
        idx = A.e2l_dofs[sl]
        if idx.shape[0]:
            ve = A._local_emv(sl, gather_element_vectors(uf, idx))
            scatter_add(vf, idx, ve)
    gather(comm, v.data, A.cmaps)
    n = A.n_local_elements
    comm.obs.incr("spmv.elements", n)
    comm.obs.incr("spmv.flops", n * A._emv_flops)
    return v

