"""Applying a :class:`~repro.adapt.delta.MeshDelta` to a problem spec.

Two layers:

* :func:`apply_delta_to_spec` — the *truth* update: patch the spec's
  mesh coordinates / per-element scales in place (non-structural), or
  refine the mesh and re-partition deterministically (structural).
  ``ProblemKey.build_spec()`` replays deltas through this same function,
  so a delta-updated context and a context freshly built from the
  post-update key see bit-identical inputs.
* :func:`localize_delta` — project an applied non-structural delta onto
  ranks: the touched element set (scaled elements plus every element
  incident on a moved node) split into per-rank
  :class:`~repro.adapt.delta.OperatorDelta`\\ s for ``update_elements``.

Determinism notes (what makes the bitwise differential suite pass):

* the partition is built from the *pre-delta* coordinates and is never
  recomputed on a coordinate move, so both paths share one partition;
* a structural refinement re-partitions by ancestry
  (``elem_part_new = elem_part[ancestor]``) — children stay on their
  ancestor's rank, deterministically in both paths;
* scales are absolute and multiply element matrices row-wise, and
  ``x * 1.0`` is exact in IEEE-754 — a fresh build scaling the whole
  batch equals a delta path scaling only the touched rows, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.adapt.delta import MeshDelta, OperatorDelta
from repro.mesh.adapt import LocalRefinement, refine_local
from repro.mesh.element import ElementType
from repro.partition.interface import partition_from_elem_part

__all__ = ["apply_delta_to_spec", "localize_delta", "touched_elements"]


def apply_delta_to_spec(spec, delta: MeshDelta):
    """Apply ``delta`` to ``spec``; returns ``(spec, refinement)``.

    Non-structural deltas mutate ``spec`` in place (mesh coords,
    elem_scale) and return ``refinement=None``.
    Structural deltas return a *new* spec on the refined, re-partitioned
    mesh plus the :class:`~repro.mesh.adapt.LocalRefinement` ancestry
    (for ``ke_cache`` carry-over).  Element ids in the delta are mesh
    element ids; node ids are renumbered (partition) ids.
    """
    if delta.is_structural:
        return _refine_spec(spec, delta)

    mesh, part = spec.mesh, spec.partition
    if delta.scale_elements.size:
        hi = int(delta.scale_elements.max())
        if int(delta.scale_elements.min()) < 0 or hi >= mesh.n_elements:
            raise IndexError(
                f"scale_elements out of range vs {mesh.n_elements} elements"
            )
        if spec.elem_scale is None:
            spec.elem_scale = np.ones(mesh.n_elements)
        spec.elem_scale[delta.scale_elements] = delta.scale_values
    if delta.move_nodes.size:
        hi = int(delta.move_nodes.max())
        if int(delta.move_nodes.min()) < 0 or hi >= mesh.n_nodes:
            raise IndexError(
                f"move_nodes out of range vs {mesh.n_nodes} nodes"
            )
        # the ranks' local meshes read these coordinates, not a copy
        mesh.coords[part.old_of_new[delta.move_nodes]] = delta.move_coords
    return spec, None


def _refine_spec(spec, delta: MeshDelta):
    """Structural path: Rivara bisection + ancestry re-partition."""
    from dataclasses import replace

    from repro.fem.dirichlet import DirichletBC

    mesh, part = spec.mesh, spec.partition
    if mesh.etype is not ElementType.TET4:
        raise NotImplementedError(
            f"local refinement supports TET4 meshes, not {mesh.etype}"
        )
    if spec.operator.ndpn != 1:
        raise NotImplementedError(
            "structural deltas are wired for the Poisson problem "
            "(boundary-condition reconstruction is problem-specific)"
        )
    ref: LocalRefinement = refine_local(mesh, delta.refine_elements)
    # children inherit their ancestor's rank: deterministic, local, and
    # identical whether reached by delta or by a fresh key rebuild
    elem_part_new = part.elem_part[ref.ancestor]
    part_new = partition_from_elem_part(
        ref.mesh, part.n_parts, elem_part_new
    )
    bcs = [DirichletBC(part_new.boundary_nodes_new(), 0.0, ndpn=1)]
    elem_scale = (
        None
        if spec.elem_scale is None
        else np.ascontiguousarray(spec.elem_scale[ref.ancestor])
    )
    spec_new = replace(
        spec,
        mesh=ref.mesh,
        partition=part_new,
        bcs=bcs,
        elem_scale=elem_scale,
    )
    return spec_new, ref


def touched_elements(spec, delta: MeshDelta) -> np.ndarray:
    """Mesh element ids a non-structural delta dirties: the scaled set
    plus every element incident on a moved node."""
    if delta.is_structural:
        raise ValueError("touched_elements is for non-structural deltas")
    if not delta.move_nodes.size:
        return delta.scale_elements
    part = spec.partition
    incident = part.incident_elements(part.old_of_new[delta.move_nodes])
    return np.union1d(delta.scale_elements, incident)


def localize_delta(spec, delta: MeshDelta):
    """Rank-local projections of an *already applied* non-structural
    delta; returns ``(touched, [OperatorDelta per rank])``.

    Each rank's coords/scale rows are read back from the post-update
    spec, so elements touched only through a node move still carry their
    current absolute scale (idempotent to re-apply — same bits).
    """
    touched = touched_elements(spec, delta)
    mesh, part = spec.mesh, spec.partition
    # local indices come out ascending: every rank's element list is sorted
    owner, local = part.elem_part[touched], part.local_index(touched)
    out = []
    for r in range(part.n_parts):
        gids, local_ids = touched[owner == r], local[owner == r]
        coords = mesh.coords[mesh.conn[gids]] if delta.move_nodes.size else None
        scale = None if spec.elem_scale is None else spec.elem_scale[gids]
        out.append(OperatorDelta(local_elems=local_ids, coords=coords, scale=scale))
    return touched, out
