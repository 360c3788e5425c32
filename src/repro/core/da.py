"""Distributed array (DA): the partitioned vector of Fig. 2.

Data is stored per node as ``(n_total_nodes, ndpn)`` in the
``[pre-ghost | owned | post-ghost]`` layout, so ghost exchange operates on
contiguous node rows, and the solver sees the owned block as a flat dof
vector.

:class:`DistributedMultiVector` is the ``k``-column generalization used by
the multi-RHS SPMV/solve paths (``repro.serve`` micro-batching): the same
node layout with a trailing column axis, exposing the two views the
batched hot path needs — node rows of width ``ndpn * k`` for a *single*
packed halo exchange covering all columns, and a flat ``(n_dofs, k)``
dof matrix whose strided columns feed the per-column element sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.core.maps import NodeMaps
from repro.core.scatter import CommMaps, gather
from repro.simmpi.communicator import Communicator

__all__ = ["DistributedArray", "DistributedMultiVector"]


class DistributedArray:
    """A nodal vector distributed across ranks.

    Attributes
    ----------
    data:
        ``(n_total, ndpn)`` C-contiguous local storage (ghosts + owned),
        never rebound: its views ``owned`` ``(n_owned, ndpn)`` and the
        flat ``owned_flat`` are bound once at construction.
    maps:
        The rank's :class:`~repro.core.maps.NodeMaps`.
    """

    __slots__ = ("data", "maps", "ndpn", "owned", "owned_flat")

    def __init__(self, maps: NodeMaps, ndpn: int = 1, data: np.ndarray | None = None):
        self.maps = maps
        self.ndpn = ndpn
        if data is None:
            data = np.zeros((maps.n_total, ndpn))
        else:
            data = np.ascontiguousarray(data, dtype=np.float64).reshape(
                maps.n_total, ndpn
            )
        self.data = data
        self.owned = data[maps.owned_slice]
        self.owned_flat = self.owned.reshape(-1)

    def copy(self) -> "DistributedArray":
        return DistributedArray(self.maps, self.ndpn, self.data.copy())

    def zero(self) -> "DistributedArray":
        self.data[:] = 0.0
        return self

    def set_owned(self, values: np.ndarray) -> "DistributedArray":
        self.owned[:] = np.asarray(values, dtype=np.float64).reshape(
            self.maps.n_owned, self.ndpn
        )
        return self

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------

    def accumulate_ghosts(self, comm: Communicator, cmaps: CommMaps) -> None:
        """Blocking ghost→owner gather (adds ghost partial sums into
        owners, leaving ghost entries stale)."""
        gather(comm, self.data, cmaps)

    # ------------------------------------------------------------------
    # distributed reductions (owned dofs only)
    # ------------------------------------------------------------------

    def dot(self, other: "DistributedArray", comm: Communicator) -> float:
        local = float(self.owned_flat @ other.owned_flat)
        return float(comm.allreduce(local))


class DistributedMultiVector:
    """``k`` nodal vectors distributed across ranks, stored as one block.

    Storage is ``(n_total, ndpn, k)`` C-contiguous, i.e. each node row
    packs all ``ndpn * k`` scalars of that node contiguously.  That makes
    a multi-RHS ghost exchange a *single* halo exchange of node rows of
    width ``ndpn * k`` (column values interleaved per dof), amortizing
    per-message latency across all ``k`` right-hand sides, while
    ``dof_view[:, j]`` recovers column ``j`` as a strided flat dof vector
    with exactly the values a :class:`DistributedArray` would hold.

    ``data`` is never rebound; its views are bound once at construction:
    ``node_view`` ``(n_total, ndpn * k)`` (the packed node rows),
    ``dof_view`` ``(n_total * ndpn, k)``, ``owned`` ``(n_owned, ndpn, k)``
    and ``owned_matrix`` ``(n_owned * ndpn, k)``.
    """

    __slots__ = (
        "data", "maps", "ndpn", "k",
        "node_view", "dof_view", "owned", "owned_matrix",
    )

    def __init__(
        self,
        maps: NodeMaps,
        ndpn: int = 1,
        k: int = 1,
        data: np.ndarray | None = None,
    ):
        if k < 1:
            raise ValueError(f"need at least one column, got k={k}")
        self.maps = maps
        self.ndpn = int(ndpn)
        self.k = int(k)
        if data is None:
            data = np.zeros((maps.n_total, ndpn, k))
        else:
            data = np.ascontiguousarray(data, dtype=np.float64).reshape(
                maps.n_total, ndpn, k
            )
        self.data = data
        self.node_view = data.reshape(maps.n_total, self.ndpn * self.k)
        self.dof_view = data.reshape(maps.n_total * self.ndpn, self.k)
        self.owned = data[maps.owned_slice]
        self.owned_matrix = self.owned.reshape(maps.n_owned * self.ndpn, self.k)

    def zero(self) -> "DistributedMultiVector":
        self.data[:] = 0.0
        return self

    def set_owned(self, values: np.ndarray) -> "DistributedMultiVector":
        self.owned_matrix[:] = np.asarray(values, dtype=np.float64).reshape(
            self.maps.n_owned * self.ndpn, self.k
        )
        return self
