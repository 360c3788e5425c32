"""Element-type registry.

Local node-ordering conventions (fixed across the whole library):

``HEX8``  — corners of the reference cube ``[-1, 1]^3``::

    0:(-1,-1,-1) 1:(+1,-1,-1) 2:(+1,+1,-1) 3:(-1,+1,-1)
    4:(-1,-1,+1) 5:(+1,-1,+1) 6:(+1,+1,+1) 7:(-1,+1,+1)

``HEX20`` — the 8 corners followed by 12 mid-edge nodes in the edge order
given by :data:`HEX_EDGES`.

``HEX27`` — the 20 nodes above, then 6 face centres in the face order of
:data:`HEX_FACES`, then the cell centre (node 26).

``TET4``  — vertices of the reference tetrahedron
``{x, y, z >= 0, x + y + z <= 1}``: ``0:(0,0,0) 1:(1,0,0) 2:(0,1,0)
3:(0,0,1)``.

``TET10`` — the 4 vertices, then 6 mid-edge nodes in the edge order of
:data:`TET_EDGES`.
"""

from __future__ import annotations

import enum


class ElementType(enum.Enum):
    """Finite-element cell types supported by the library."""

    HEX8 = "hex8"
    HEX20 = "hex20"
    HEX27 = "hex27"
    TET4 = "tet4"
    TET10 = "tet10"

    @property
    def n_nodes(self) -> int:
        return _N_NODES[self]

    @property
    def is_hex(self) -> bool:
        return self in (ElementType.HEX8, ElementType.HEX20, ElementType.HEX27)

    @property
    def is_tet(self) -> bool:
        return not self.is_hex

    @property
    def corner_count(self) -> int:
        """Number of geometric corner (vertex) nodes."""
        return 8 if self.is_hex else 4

    @property
    def default_quadrature_degree(self) -> int:
        """Polynomial degree the default stiffness quadrature integrates."""
        return _DEFAULT_QUAD_DEGREE[self]


_N_NODES = {
    ElementType.HEX8: 8,
    ElementType.HEX20: 20,
    ElementType.HEX27: 27,
    ElementType.TET4: 4,
    ElementType.TET10: 10,
}

_DEFAULT_QUAD_DEGREE = {
    ElementType.HEX8: 3,
    ElementType.HEX20: 5,
    ElementType.HEX27: 5,
    ElementType.TET4: 2,
    ElementType.TET10: 4,
}

#: Edges of the hex, as (corner, corner) pairs; HEX20/HEX27 mid-edge node
#: ``8 + i`` lies on ``HEX_EDGES[i]``.
HEX_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (1, 2), (2, 3), (3, 0),
    (4, 5), (5, 6), (6, 7), (7, 4),
    (0, 4), (1, 5), (2, 6), (3, 7),
)

#: Faces of the hex (corner quadruples, outward-ordered); HEX27 face node
#: ``20 + i`` is the centre of ``HEX_FACES[i]``.
HEX_FACES: tuple[tuple[int, int, int, int], ...] = (
    (0, 3, 2, 1),  # zeta = -1
    (4, 5, 6, 7),  # zeta = +1
    (0, 1, 5, 4),  # eta  = -1
    (1, 2, 6, 5),  # xi   = +1
    (2, 3, 7, 6),  # eta  = +1
    (3, 0, 4, 7),  # xi   = -1
)

#: Mid-edge node ``i`` of HEX20/HEX27 face ``f`` (for boundary extraction):
#: edge indices whose both corners lie on the face.
HEX_FACE_EDGES: tuple[tuple[int, ...], ...] = tuple(
    tuple(
        ei
        for ei, (a, b) in enumerate(HEX_EDGES)
        if a in face and b in face
    )
    for face in HEX_FACES
)

#: Edges of the tet; TET10 mid-edge node ``4 + i`` lies on ``TET_EDGES[i]``.
TET_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3),
)

#: Faces of the tet (corner triples).
TET_FACES: tuple[tuple[int, int, int], ...] = (
    (0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2),
)

TET_FACE_EDGES: tuple[tuple[int, ...], ...] = tuple(
    tuple(
        ei
        for ei, (a, b) in enumerate(TET_EDGES)
        if a in face and b in face
    )
    for face in TET_FACES
)


def corner_faces(etype: ElementType) -> tuple[tuple[int, ...], ...]:
    """Corner-node tuples of each face of ``etype`` (used for boundary
    detection and the element dual graph)."""
    return HEX_FACES if etype.is_hex else TET_FACES


def face_nodes(etype: ElementType) -> tuple[tuple[int, ...], ...]:
    """All local nodes lying on each face (corners + higher-order nodes)."""
    if etype is ElementType.HEX8:
        return HEX_FACES
    if etype is ElementType.HEX20:
        return tuple(
            face + tuple(8 + e for e in HEX_FACE_EDGES[i])
            for i, face in enumerate(HEX_FACES)
        )
    if etype is ElementType.HEX27:
        return tuple(
            face + tuple(8 + e for e in HEX_FACE_EDGES[i]) + (20 + i,)
            for i, face in enumerate(HEX_FACES)
        )
    if etype is ElementType.TET4:
        return TET_FACES
    if etype is ElementType.TET10:
        return tuple(
            face + tuple(4 + e for e in TET_FACE_EDGES[i])
            for i, face in enumerate(TET_FACES)
        )
    raise ValueError(f"unsupported element type: {etype}")
