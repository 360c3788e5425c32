"""Global (serial) mesh container.

A :class:`Mesh` is the pre-partitioning description of the discretized
domain: node coordinates, element connectivity, element type.  The
partitioners in :mod:`repro.partition` turn it into per-rank local meshes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mesh.element import ElementType, corner_faces, face_nodes
from repro.util.arrays import as_f64, as_index, INDEX_DTYPE


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
        keys, and ``dup[i]`` says sorted key ``i + 1`` equals key ``i``."""
        if "face_keys" in self._cache:
            return self._cache["face_keys"]
        faces = np.asarray(corner_faces(self.etype))
        keys = np.sort(self.conn[:, faces], axis=2)  # (E, F, c)
        keys = keys.transpose(1, 0, 2).reshape(-1, faces.shape[1])
        order = np.lexsort(keys.T[::-1])
        sk = keys[order]
        dup = (sk[1:] == sk[:-1]).all(axis=1)
        self._cache["face_keys"] = (order, dup)
        return order, dup

    def boundary_faces(self) -> np.ndarray:
        """``(F, 2)`` array of (element, local_face) pairs on the boundary,
        face-major (all boundary faces ``0`` first, elements ascending).

        A face is on the boundary iff its corner-node set occurs in exactly
        one element.
        """
        if "boundary_faces" in self._cache:
            return self._cache["boundary_faces"]
        order, dup = self._sorted_face_keys()
        shared = np.zeros(order.size, dtype=bool)
        shared[1:] = dup
        shared[:-1] |= dup
        once = np.zeros(order.size, dtype=bool)
        once[order] = ~shared
        face, elem = np.divmod(
            np.flatnonzero(once).astype(INDEX_DTYPE), self.n_elements
        )
        boundary = np.stack([elem, face], axis=1)
        self._cache["boundary_faces"] = boundary
        return boundary

    def boundary_nodes(self) -> np.ndarray:
        """Sorted global indices of every node on the domain boundary
        (corner and higher-order nodes alike)."""
        if "boundary_nodes" in self._cache:
            return self._cache["boundary_nodes"]
        bf = self.boundary_faces()
        fnodes = np.asarray(face_nodes(self.etype))
        out = np.unique(self.conn[bf[:, :1], fnodes[bf[:, 1]]])
        self._cache["boundary_nodes"] = out
        return out

    def node_elements(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style node→element adjacency ``(offsets, elements)``."""
        if "node_elements" in self._cache:
            return self._cache["node_elements"]
        flat_nodes = self.conn.reshape(-1)
        flat_elems = np.repeat(
            np.arange(self.n_elements, dtype=INDEX_DTYPE), self.etype.n_nodes
        )
        order = np.argsort(flat_nodes, kind="stable")
        sorted_nodes = flat_nodes[order]
        sorted_elems = flat_elems[order]
        counts = np.bincount(sorted_nodes, minlength=self.n_nodes)
        offsets = np.zeros(self.n_nodes + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=offsets[1:])
        self._cache["node_elements"] = (offsets, sorted_elems)
        return offsets, sorted_elems

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
        return pairs

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.coords.min(axis=0), self.coords.max(axis=0)

    def element_centroids(self) -> np.ndarray:
        """``(E, 3)`` centroids of the corner nodes of each element."""
        nc = self.etype.corner_count
        return self.coords[self.conn[:, :nc]].mean(axis=1)
