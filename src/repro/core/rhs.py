"""Distributed right-hand-side assembly on the DA layout.

Elemental load vectors (body force, traction) are accumulated through the
same E2L map / ghost gather the SPMV uses, yielding the owned RHS block on
every rank.
"""

from __future__ import annotations

import numpy as np

from repro.core.da import DistributedArray
from repro.core.maps import NodeMaps
from repro.core.scatter import CommMaps
from repro.fem.loads import ForceFn, body_force_rhs_batch, traction_rhs_batch
from repro.partition.interface import LocalMesh
from repro.simmpi.communicator import Communicator
from repro.util.arrays import INDEX_DTYPE, scatter_add

__all__ = ["local_node_coords", "assemble_rhs"]


def local_node_coords(maps: NodeMaps, lmesh: LocalMesh) -> np.ndarray:
    """``(n_total, 3)`` coordinates of every local slot (owned + ghosts),
    recovered from element coordinates (each local node, owned or ghost,
    belongs to at least one local element)."""
    # one (element, node) position per slot, then one row gather
    src = np.zeros(maps.n_total, dtype=INDEX_DTYPE)
    src[maps.e2l.reshape(-1)] = np.arange(maps.e2l.size, dtype=INDEX_DTYPE)
    return np.take(lmesh.coords.reshape(-1, 3), src, axis=0)


def assemble_rhs(
    comm: Communicator,
    lmesh: LocalMesh,
    maps: NodeMaps,
    cmaps: CommMaps,
    ndpn: int,
    body_force: ForceFn | np.ndarray | None = None,
    tractions: (
        list[tuple[np.ndarray, np.ndarray, ForceFn | np.ndarray]] | None
    ) = None,
) -> np.ndarray:
    """Assemble the owned RHS block (flat dofs) of this rank (collective).

    Parameters
    ----------
    body_force:
        Constant vector or callable on physical points.
    tractions:
        List of ``(local_element_ids, face_ids, traction)`` — boundary
        faces of local elements carrying the given traction.
    """
    f = DistributedArray(maps, ndpn)
    flat = f.data.reshape(-1)
    n_elems, n_nodes = maps.e2l.shape
    e2l_dofs = (
        maps.e2l[:, :, None] * ndpn + np.arange(ndpn)
    ).reshape(n_elems, n_nodes * ndpn)

    if body_force is not None and n_elems:
        fe = body_force_rhs_batch(lmesh.coords, lmesh.etype, body_force, ndpn)
        scatter_add(flat, e2l_dofs, fe.reshape(n_elems, n_nodes * ndpn))

    for elems, faces, traction in tractions or ():
        if len(elems) == 0:
            continue
        fe = traction_rhs_batch(
            lmesh.coords[elems], lmesh.etype, faces, traction, ndpn
        )
        scatter_add(flat, e2l_dofs[elems], fe.reshape(fe.shape[0], -1))

    f.accumulate_ghosts(comm, cmaps)
    return f.owned_flat.copy()
