"""The distributed-operator protocol: one shell, one local product per kind.

The paper plugs HYMV into PETSc as a MatShell, so the solver calls the
same ``MatMult`` whatever storage sits behind it.
:class:`DistributedOperator` is that shell: the packed halo exchange
per column count, the work vectors behind ``apply_owned`` and
``apply_owned_multi``, the multi-RHS mode resolution and the ``copy=``
contract.  A kind supplies only :meth:`~DistributedOperator._product`:
Algorithm 2 over element sweeps (:class:`~repro.core.hymv.EbeOperatorBase`)
or the diagonal and halo block products
(:class:`~repro.baselines.assembled.AssembledOperator`).  As in
Panigrahi et al. (arXiv:2208.07129), one matrix-multivector product is
the interface and each storage format brings only its local kernel.
"""

from __future__ import annotations

import numpy as np

from repro.core.da import DistributedArray, DistributedMultiVector
from repro.core.kernels import resolve_mode
from repro.core.maps import NodeMaps, build_node_maps
from repro.core.scatter import CommMaps, HaloExchange, build_comm_maps
from repro.fem.operators import Operator
from repro.partition.interface import LocalMesh
from repro.simmpi.communicator import Communicator
from repro.util.arrays import INDEX_DTYPE, WidestScratch, as_index

__all__ = ["DistributedOperator", "owned_ranges"]


def owned_ranges(comm: Communicator, lmesh: LocalMesh) -> np.ndarray:
    """Every rank's owned node range ``[n_begin, n_end)`` as a ``(P, 2)``
    array (collective)."""
    return np.asarray(
        comm.allgather((lmesh.n_begin, lmesh.n_end)), dtype=INDEX_DTYPE
    )


class DistributedOperator:
    """The MatShell every operator kind is: ``spmv`` / ``spmv_multi`` on
    distributed (multi)vectors and ``apply_owned`` / ``apply_owned_multi``
    on owned dof blocks, over the node maps bound by :meth:`_bind`."""

    #: element matrices a set-up took from a ``ke_cache`` (the kinds that
    #: take one count them)
    cache_hits = 0
    #: element storage order as local-mesh element ids (``None``: the
    #: local mesh's order), and in that order the private element
    #: coordinates (``None`` while the local mesh is read) and absolute
    #: stiffness scales (``None``: unscaled)
    _order: np.ndarray | None = None
    _coords: np.ndarray | None = None
    _scale: np.ndarray | None = None

    def __init__(
        self, comm: Communicator, lmesh: LocalMesh, operator: Operator
    ):
        self.comm = comm
        self.lmesh = lmesh
        self.operator = operator
        self.ndpn = operator.ndpn
        self.etype = lmesh.etype
        self.spmv_count = 0

    def _checked_scale(self, elem_scale) -> np.ndarray | None:
        """The per-element stiffness scale given in local-mesh order,
        validated against the local element count, in storage order
        (``None``: unscaled)."""
        if elem_scale is None:
            return None
        scale = np.asarray(elem_scale, dtype=np.float64)
        n = self.lmesh.n_local_elements
        if scale.shape != (n,):
            raise ValueError(
                f"elem_scale shape {scale.shape} != ({n},) local elements"
            )
        return scale.copy() if self._order is None else scale[self._order]

    def _element_coords(self, pos) -> np.ndarray:
        """Node coordinates of the elements at storage positions ``pos``
        (an index array or slice): rows of the private copy, else only
        those rows gathered from the local mesh."""
        if self._coords is not None:
            return self._coords[pos]
        return self.lmesh.element_coords(
            pos if self._order is None else self._order[pos]
        )

    def _integrate(self, pos, out: np.ndarray | None = None) -> np.ndarray:
        """Element matrices of the elements at storage positions ``pos``,
        integrated from their coordinates (into ``out`` when given),
        times their scales."""
        ke = self.operator.element_matrices(
            self._element_coords(pos), self.etype, out=out
        )
        if self._scale is not None:
            ke *= self._scale[pos][:, None, None]
        return ke

    def _persist_update(self, local_elems, coords, stiffness_scale):
        """Validate and persist the inputs of an ``update_elements``;
        returns the elements' storage positions and their pre-update
        scales (``None`` without a scale array).

        Ids must lie in ``[0, n_local)`` (fancy indexing would wrap or
        clip them into silently wrong numerics), coords be ``(n,
        n_nodes, 3)``; a scalar scale is broadcast over the ``n``
        elements.  Coordinates are copy-on-write: while the local mesh
        is read, the first coordinates it does not hold (by bits) make
        the private copy; those it holds — the adaptive path moves the
        mesh itself first — make none."""
        ids = as_index(local_elems)
        n, n_local = ids.size, self.lmesh.n_local_elements
        if n and (ids.min() < 0 or ids.max() >= n_local):
            raise IndexError(
                f"update_elements: local element ids out of range "
                f"[{ids.min()}, {ids.max()}] vs {n_local} local elements"
            )
        pos = ids if self._order is None else self._inv_order[ids]
        old_scale = None if self._scale is None else self._scale[pos]
        if not n:
            return pos, old_scale
        want = (n, self.etype.n_nodes, 3)
        if coords is not None and np.shape(coords) != want:
            raise ValueError(f"coords shape {np.shape(coords)} != {want}")
        if stiffness_scale is not None:
            scale = np.broadcast_to(
                np.asarray(stiffness_scale, dtype=np.float64), (n,)
            )
            if self._scale is None:
                self._scale = np.ones(n_local)
            self._scale[pos] = scale
        if coords is not None:
            coords = np.asarray(coords, dtype=np.float64)
            if self._coords is None and not np.array_equal(
                self._element_coords(pos).view(np.int64),
                coords.view(np.int64),
            ):
                self._coords = self._element_coords(np.arange(n_local))
            if self._coords is not None:
                self._coords[pos] = coords
        self.comm.obs.incr("update.elements", n)
        return pos, old_scale

    def _bind(self, maps: NodeMaps, cmaps: CommMaps) -> None:
        """Run products on the node maps ``maps`` / ``cmaps``: packed halo
        exchanges, work vectors and work multivectors are (re)built
        against them, so a kind that rebuilds its maps rebinds."""
        self.maps, self.cmaps = maps, cmaps
        ndpn = self.ndpn
        self.n_dofs_owned = maps.n_owned * ndpn
        self._halos: dict[int, HaloExchange] = {}
        self._work = (self.new_array(), self.new_array())
        n = maps.n_total * ndpn
        self._work_multi = WidestScratch((n, n), lambda bufs, k: tuple(
            DistributedMultiVector(maps, ndpn, k, data=b[: n * k])
            for b in bufs
        ))

    # -- the protocol ----------------------------------------------------

    def new_array(self) -> DistributedArray:
        return DistributedArray(self.maps, self.ndpn)

    def new_multivector(self, k: int) -> DistributedMultiVector:
        return DistributedMultiVector(self.maps, self.ndpn, k)

    def element_maps(self) -> tuple[NodeMaps, CommMaps]:
        """Node and comm maps of the local elements' nodes, which loads
        and Dirichlet rows are stated on (collective).  A kind whose
        product runs on other maps (the assembled matrix halo) builds
        them here; the element-by-element kinds return their own."""
        lm = self.lmesh
        maps = build_node_maps(lm.e2g, lm.n_begin, lm.n_end)
        return maps, build_comm_maps(self.comm, maps, ranges=self._ranges)

    def _halo_for(self, k: int) -> HaloExchange:
        """Packed halo exchange for node rows of width ``ndpn * k``
        (built once per distinct column count)."""
        h = self._halos.get(k)
        if h is None:
            h = self._halos[k] = HaloExchange(self.cmaps, self.ndpn * k)
        return h

    def _product(
        self,
        un: np.ndarray,
        vn: np.ndarray,
        uf: np.ndarray,
        vf: np.ndarray,
        k: int,
        overlap: bool,
        gemm: bool,
    ) -> None:
        """The kind's local product ``V = K U`` over ``k`` columns: ``un``
        / ``vn`` are the ``(n_total, ndpn*k)`` node rows, ``uf`` / ``vf``
        their dof views — 1-D for one vector (:meth:`spmv`),
        ``(n_dofs, k)`` for a multivector.  The owned block of ``vf`` is
        exact on return; ghost entries of ``vn`` are scratch.
        ``overlap`` runs the ghost exchange under the work that needs no
        ghost; ``gemm`` is the resolved multi-RHS mode (otherwise every
        column gets the single-RHS product's bits)."""
        raise NotImplementedError

    def spmv(
        self, u: DistributedArray, v: DistributedArray, overlap: bool = True
    ) -> DistributedArray:
        """Distributed SPMV ``v = K u`` (owned block of ``v`` is exact on
        return; ghost entries of ``v`` are scratch).

        ``overlap=True`` is Algorithm 2: the ghost scatter of ``u`` is in
        flight while the local work that needs no ghost runs;
        ``overlap=False`` is the blocking variant of the ablation study.
        """
        self._product(
            u.data, v.data, u.data.reshape(-1), v.data.reshape(-1), 1,
            overlap, False,
        )
        return v

    def spmv_multi(
        self,
        u: DistributedMultiVector,
        v: DistributedMultiVector,
        overlap: bool = True,
        mode: str = "auto",
    ) -> DistributedMultiVector:
        """Batched multi-RHS SPMV ``V = K U``.

        Under ``mode="oracle"`` column ``j`` of the result is **bitwise
        identical** to ``spmv`` applied to column ``j`` alone: each
        column runs through the single-RHS local product.  The element
        kinds batch the communication layer — ONE ghost exchange of
        packed ``ndpn * k`` node rows replaces ``k`` exchanges (per-scalar
        ghost copies are independent, so packing cannot change bits);
        the assembled kinds pay one exchange per column.

        Under ``mode="gemm"`` the local work runs as BLAS3 products over
        the whole ``(n, k)`` block: each stored/recomputed matrix streams
        through memory once for all k columns instead of k times, with
        one packed exchange.  Results match the oracle to rounding
        (:func:`repro.core.kernels.gemm_equivalence_rtol`), not bitwise.
        ``mode="auto"`` (the default) picks GEMM when
        ``k >= DEFAULT_K_MIN``.
        """
        k = u.k
        self._product(
            u.node_view, v.node_view, u.dof_view, v.dof_view, k, overlap,
            resolve_mode(mode, k) == "gemm",
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

    def apply_owned(self, x: np.ndarray, copy: bool = True) -> np.ndarray:
        """MatShell-style application on owned dof vectors (what the CG
        solver calls); halo handling is internal.

        **Aliasing contract:** by default the result is returned as a
        fresh copy the caller owns — two products held simultaneously
        stay distinct, and mutating one (e.g. masking Dirichlet rows)
        never touches operator state.  ``copy=False`` instead returns a
        *view* into the operator-owned work vector, overwritten by the
        next ``apply_owned``: zero-copy for hot loops that consume the
        result immediately and must not mutate it."""
        u, v = self._work
        u.set_owned(x)
        self.spmv(u, v)
        owned = v.owned_flat
        return np.array(owned, copy=True) if copy else owned

    def apply_owned_multi(
        self, X: np.ndarray, copy: bool = True, mode: str = "auto"
    ) -> np.ndarray:
        """Multi-RHS :meth:`apply_owned`: applies the operator to the
        ``(n_owned_dofs, k)`` columns of ``X`` in one batched product
        (:meth:`spmv_multi` on :meth:`work_multivectors`).  The aliasing
        contract matches ``apply_owned`` except that ``copy=False``
        returns a view overwritten by the next multi-RHS product of
        *any* width."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"expected (n, k) multivector, got shape {X.shape}")
        U, V = self.work_multivectors(X.shape[1])
        U.set_owned(X)
        self.spmv_multi(U, V, mode=mode)
        owned = V.owned_matrix
        return np.array(owned, copy=True) if copy else owned

    # -- what a kind stores ----------------------------------------------

    def stored_bytes(self) -> int:
        """Bytes of the operator data a product streams (matrix-free
        stores none)."""
        return 0

    def export_ke_cache(self) -> dict:
        """Stored element matrices keyed by global element id, for reuse
        by a later build (kinds that store none export none)."""
        return {}
