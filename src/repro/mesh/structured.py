"""Structured box hex meshes (Hex8 / Hex20 / Hex27).

Node numbering places the z index outermost so that z-slab partitioning
(the decomposition used in the paper's verification runs) yields contiguous
global node ranges per partition.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.element import ElementType
from repro.mesh.mesh import Mesh
from repro.mesh.shape_functions import reference_nodes
from repro.util.arrays import INDEX_DTYPE

__all__ = ["box_hex_mesh"]


def box_hex_mesh(
    nx: int,
    ny: int,
    nz: int,
    etype: ElementType = ElementType.HEX8,
    lengths: tuple[float, float, float] = (1.0, 1.0, 1.0),
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> Mesh:
    """Structured ``nx x ny x nz``-element hex mesh of a box.

    Parameters
    ----------
    nx, ny, nz:
        Number of elements per direction (all >= 1).
    etype:
        ``HEX8``, ``HEX20`` or ``HEX27``.
    lengths, origin:
        Physical box dimensions and lower corner.
    """
    if not etype.is_hex:
        raise ValueError(f"box_hex_mesh supports hex types only, got {etype}")
    if min(nx, ny, nz) < 1:
        raise ValueError("need at least one element per direction")

    if etype is ElementType.HEX8:
        return _linear_box(nx, ny, nz, lengths, origin)
    return _quadratic_box(nx, ny, nz, etype, lengths, origin)


def _linear_box(nx, ny, nz, lengths, origin) -> Mesh:
    px, py, pz = nx + 1, ny + 1, nz + 1
    xs = origin[0] + np.linspace(0.0, lengths[0], px)
    ys = origin[1] + np.linspace(0.0, lengths[1], py)
    zs = origin[2] + np.linspace(0.0, lengths[2], pz)
    Z, Y, X = np.meshgrid(zs, ys, xs, indexing="ij")
    coords = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)

    def nid(i, j, k):
        return (k * py + j) * px + i

    ex, ey, ez = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    # element order: z outermost to match slab partitioning
    ex, ey, ez = (
        a.transpose(2, 1, 0).ravel() for a in (ex, ey, ez)
    )
    offsets = ((reference_nodes(ElementType.HEX8) + 1) // 2).astype(INDEX_DTYPE)
    # nid is linear: corner c of an element is its corner 0 plus nid(c)
    conn = nid(ex, ey, ez)[:, None] + nid(*offsets.T)
    return Mesh(coords, conn, ElementType.HEX8)


def _quadratic_box(nx, ny, nz, etype, lengths, origin) -> Mesh:
    # Fine vertex grid with 2*n + 1 points per direction; HEX27 keeps all
    # fine nodes, HEX20 keeps nodes with at most one odd index (corners and
    # mid-edge nodes).
    fx, fy, fz = 2 * nx + 1, 2 * ny + 1, 2 * nz + 1
    K, J, I = np.meshgrid(
        np.arange(fz), np.arange(fy), np.arange(fx), indexing="ij"
    )
    if etype is ElementType.HEX20:
        keep = ((I % 2) + (J % 2) + (K % 2)) <= 1
    else:
        keep = np.ones_like(I, dtype=bool)
    fine_to_compact = np.full(fx * fy * fz, -1, dtype=INDEX_DTYPE)
    flat_keep = keep.ravel()
    fine_to_compact[flat_keep] = np.arange(flat_keep.sum(), dtype=INDEX_DTYPE)

    xs = origin[0] + np.linspace(0.0, lengths[0], fx)
    ys = origin[1] + np.linspace(0.0, lengths[1], fy)
    zs = origin[2] + np.linspace(0.0, lengths[2], fz)
    coords = np.stack(
        [xs[I.ravel()], ys[J.ravel()], zs[K.ravel()]], axis=1
    )[flat_keep]

    def fid(i, j, k):
        return (k * fy + j) * fx + i

    ex, ey, ez = np.meshgrid(
        np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
    )
    ex, ey, ez = (a.transpose(2, 1, 0).ravel() for a in (ex, ey, ez))
    offsets = np.rint(reference_nodes(etype) + 1.0).astype(INDEX_DTYPE)
    conn = np.stack(
        [
            fine_to_compact[fid(2 * ex + ox, 2 * ey + oy, 2 * ez + oz)]
            for ox, oy, oz in offsets
        ],
        axis=1,
    )
    if (conn < 0).any():  # pragma: no cover - defensive
        raise AssertionError("HEX20 connectivity referenced a dropped node")
    return Mesh(coords, conn, etype)
