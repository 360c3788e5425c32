"""Adaptive local refinement of tetrahedral meshes (Rivara bisection).

The paper motivates HYMV with adaptivity: "applications with adaptive
multiresolution (AMR) or frequent enrichments ... where only a minor
subset of elements needs to be updated, while the global assembly is
completely avoided".  This module provides the mesh side of that story:

* :func:`refine_local` — longest-edge (Rivara) bisection of a marked
  element subset, with recursive conformity closure, on TET4 meshes.
* ancestry tracking — every element of the refined mesh knows which
  original element it descends from, and whether it is untouched, so
  stored element matrices can be *reused* for unchanged elements and
  recomputed only for the new ones (see ``HymvOperator(ke_cache=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mesh.element import ElementType, TET_EDGES
from repro.mesh.mesh import Mesh
from repro.util.arrays import INDEX_DTYPE, as_index

__all__ = ["LocalRefinement", "refine_local"]


@dataclass
class LocalRefinement:
    """Result of a local refinement pass.

    Attributes
    ----------
    mesh:
        The refined (conforming) mesh.
    ancestor:
        ``(E_new,)`` index of each element's originating element in the
        *input* mesh.
    unchanged:
        ``(E_new,)`` bool — True where the element is bit-identical to
        its ancestor (same nodes, same coordinates), so any cached
        element matrix remains valid.
    """

    mesh: Mesh
    ancestor: np.ndarray
    unchanged: np.ndarray


def _longest_edge(coords: list, tet: list[int]) -> tuple[int, int]:
    """Longest edge of one tet as a local-vertex pair, ties broken by the
    sorted global ids for cross-element consistency."""
    best = None
    for a, b in TET_EDGES:
        ga, gb = tet[a], tet[b]
        diff = coords[ga] - coords[gb]
        d = float(diff @ diff)
        key = (-d, min(ga, gb), max(ga, gb))
        if best is None or key < best[0]:
            best = (key, (a, b))
    return best[1]


def refine_local(
    mesh: Mesh, marked: np.ndarray, max_passes: int = 100
) -> LocalRefinement:
    """Bisect the marked TET4 elements, closing for conformity.

    Every marked element is bisected at its longest edge; elements that
    end up with a hanging midpoint on one of their edges are bisected in
    turn (at *their* longest edge, per Rivara) until the mesh conforms.
    """
    if mesh.etype is not ElementType.TET4:
        raise ValueError("local refinement supports TET4 meshes")
    marked = np.unique(as_index(marked))
    if marked.size and (marked.min() < 0 or marked.max() >= mesh.n_elements):
        raise ValueError("marked element ids out of range")

    coords = [row for row in mesh.coords]
    elems: list[list[int]] = [list(row) for row in mesh.conn]
    ancestor = list(range(mesh.n_elements))
    touched = [False] * mesh.n_elements
    midpoint: dict[tuple[int, int], int] = {}

    def split_edge(ga: int, gb: int) -> int:
        key = (min(ga, gb), max(ga, gb))
        if key not in midpoint:
            coords.append(0.5 * (coords[ga] + coords[gb]))
            midpoint[key] = len(coords) - 1
        return midpoint[key]

    def bisect(ei: int) -> None:
        tet = elems[ei]
        la, lb = _longest_edge(coords, tet)
        ga, gb = tet[la], tet[lb]
        m = split_edge(ga, gb)
        child1 = list(tet)
        child1[lb] = m
        child2 = list(tet)
        child2[la] = m
        elems[ei] = child1
        touched[ei] = True
        elems.append(child2)
        ancestor.append(ancestor[ei])
        touched.append(True)

    queue = list(marked)
    for _ in range(max_passes):
        for ei in queue:
            bisect(ei)
        # conformity: any element whose edge has a midpoint must split
        queue = []
        for ei, tet in enumerate(elems):
            for a, b in TET_EDGES:
                key = (min(tet[a], tet[b]), max(tet[a], tet[b]))
                if key in midpoint:
                    queue.append(ei)
                    break
        if not queue:
            break
    else:  # pragma: no cover - Rivara terminates in practice
        raise RuntimeError("conformity closure did not terminate")

    new_coords = np.asarray(coords)
    new_conn = np.asarray(elems, dtype=INDEX_DTYPE)
    # restore positive orientation where bisection flipped a child
    c = new_coords[new_conn]
    vol = np.linalg.det(c[:, 1:4] - c[:, 0:1])
    flip = vol < 0
    new_conn[flip] = new_conn[flip][:, [0, 2, 1, 3]]
    out = Mesh(new_coords, new_conn, ElementType.TET4)
    return LocalRefinement(
        mesh=out,
        ancestor=np.asarray(ancestor, dtype=INDEX_DTYPE),
        unchanged=~np.asarray(touched, dtype=bool),
    )
