"""Global (serial) mesh container.

A :class:`Mesh` is the pre-partitioning description of the discretized
domain: node coordinates, element connectivity, element type.  The
partitioners in :mod:`repro.partition` turn it into per-rank local meshes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mesh.element import ElementType, corner_faces, face_nodes
from repro.util.arrays import INDEX_DTYPE, as_f64, as_index, unique_index


@dataclass
class Mesh:
    """An unpartitioned finite-element mesh.

    Attributes
    ----------
    coords:
        ``(n_nodes, 3)`` node coordinates.
    conn:
        ``(n_elements, nodes_per_element)`` node indices, in the library's
        local node order (see :mod:`repro.mesh.element`).
    etype:
        The element type (single element type per mesh).
    """

    coords: np.ndarray
    conn: np.ndarray
    etype: ElementType
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.coords = as_f64(self.coords)
        self.conn = as_index(self.conn)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise ValueError("coords must have shape (n_nodes, 3)")
        if self.conn.ndim != 2 or self.conn.shape[1] != self.etype.n_nodes:
            raise ValueError(
                f"conn must have shape (n_elements, {self.etype.n_nodes})"
            )
        if self.conn.size and (
            self.conn.min() < 0 or self.conn.max() >= self.coords.shape[0]
        ):
            raise ValueError("connectivity references nonexistent nodes")

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elements(self) -> int:
        return self.conn.shape[0]

    # ------------------------------------------------------------------
    # derived structures (cached)
    # ------------------------------------------------------------------

    def _sorted_face_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, dup)`` over the face-major corner keys (row
        ``f * n_elements + e`` is face ``f`` of element ``e``, its corner
        ids sorted): ``order`` is the stable lexicographic order of the
        keys, and ``dup[i]`` says sorted key ``i + 1`` equals key ``i``.
        A set-up intermediate: the structures derived from it are
        cached, the sort is not."""
        faces = np.asarray(corner_faces(self.etype)).T  # (c, F)
        # row j: corner j of every face, face-major
        ids = np.ascontiguousarray(self.conn.T)[faces].reshape(len(faces), -1)
        hi, lo = pack_face_keys(list(ids), self.n_nodes)
        order = np.lexsort((lo, hi))
        hi, lo = hi[order], lo[order]
        dup = (hi[1:] == hi[:-1]) & (lo[1:] == lo[:-1])
        return order, dup

    def boundary_faces(self) -> np.ndarray:
        """``(F, 2)`` array of (element, local_face) pairs on the boundary,
        face-major (all boundary faces ``0`` first, elements ascending).

        A face is on the boundary iff its corner-node set occurs in exactly
        one element.
        """
        if "boundary_faces" not in self._cache:
            self._cache_boundary_faces(*self._sorted_face_keys())
        return self._cache["boundary_faces"]

    def _cache_boundary_faces(self, order: np.ndarray, dup: np.ndarray) -> None:
        shared = np.zeros(order.size, dtype=bool)
        shared[1:] = dup
        shared[:-1] |= dup
        once = np.zeros(order.size, dtype=bool)
        once[order] = ~shared
        face, elem = np.divmod(np.flatnonzero(once), self.n_elements)
        self._cache["boundary_faces"] = np.stack([elem, face], axis=1)

    def boundary_nodes(self) -> np.ndarray:
        """Sorted global indices of every node on the domain boundary
        (corner and higher-order nodes alike)."""
        if "boundary_nodes" in self._cache:
            return self._cache["boundary_nodes"]
        bf = self.boundary_faces()
        fnodes = np.asarray(face_nodes(self.etype))
        out = unique_index(self.conn[bf[:, :1], fnodes[bf[:, 1]]])
        self._cache["boundary_nodes"] = out
        return out

    def node_elements(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style node→element adjacency ``(offsets, elements)``."""
        if "node_elements" in self._cache:
            return self._cache["node_elements"]
        flat = self.conn.reshape(-1)
        offsets = np.zeros(self.n_nodes + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(flat, minlength=self.n_nodes), out=offsets[1:])
        elems = np.argsort(flat, kind="stable") // self.etype.n_nodes
        self._cache["node_elements"] = (offsets, elems)
        return offsets, elems

    def dual_graph_edges(self) -> np.ndarray:
        """``(m, 2)`` element pairs sharing a face (the element dual graph).

        Used by the graph partitioner (METIS substitute).
        """
        if "dual_edges" in self._cache:
            return self._cache["dual_edges"]
        order, dup = self._sorted_face_keys()
        se = order % self.n_elements
        pairs = np.stack([se[:-1][dup], se[1:][dup]], axis=1)
        self._cache["dual_edges"] = pairs
        if "boundary_faces" not in self._cache:  # asked for next, same sort
            self._cache_boundary_faces(order, dup)
        return pairs

    def element_centroids(self) -> np.ndarray:
        """``(E, 3)`` centroids of the corner nodes of each element."""
        nc = self.etype.corner_count
        # corner by corner, in the order ``mean(axis=1)`` adds them
        out = np.take(self.coords, self.conn[:, 0], axis=0)
        for j in range(1, nc):
            out += np.take(self.coords, self.conn[:, j], axis=0)
        out /= nc
        return out


def pack_face_keys(ids: list, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Int64 keys ``(hi, lo)`` ordered as the sorted corner-id tuples of
    the 3 or 4 id columns ``ids``: a compare-exchange network sorts the
    columns in place, then ``hi = a N + b``, ``lo = c N + d`` (``c`` for
    triangles), ``N = n_nodes``.  ``ValueError`` when ``N^2`` overflows."""
    if int(n_nodes) ** 2 >= 1 << 63:
        raise ValueError(f"{n_nodes} nodes overflow the int64 face keys")
    net = [(0, 1), (1, 2), (0, 1)]
    if len(ids) == 4:
        net = [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)]
    for i, j in net:
        ids[i], ids[j] = np.minimum(ids[i], ids[j]), np.maximum(ids[i], ids[j])
    hi = ids[0] * n_nodes + ids[1]
    lo = ids[2] if len(ids) == 3 else ids[2] * n_nodes + ids[3]
    return hi, lo
