"""Delta types: the wire format of an incremental mesh/operator change.

A :class:`MeshDelta` describes one atomic update to a served problem in
*global* terms (mesh element ids, renumbered node ids) — the form a
client or a crack-propagation model produces.  It is canonicalized at
construction (sorted unique ids, last occurrence wins), so value-equal
deltas have equal :meth:`~MeshDelta.fingerprint`\\ s and composition is
associative-by-construction.

A :class:`OperatorDelta` is the rank-local projection the serve layer
hands to ``update_elements``: local element indices plus the post-update
coords/scale rows for exactly those elements.

Scales are **absolute** (the effective element matrix is
``scale * Ke(coords)``), matching
:meth:`repro.core.hymv.EbeOperatorBase.update_elements`: re-applying a
delta is idempotent, and two deltas compose by last-wins override.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.util.arrays import INDEX_DTYPE, as_index

__all__ = ["MeshDelta", "OperatorDelta", "CrackFront"]


def _empty_ids() -> np.ndarray:
    return np.empty(0, dtype=INDEX_DTYPE)


def _last_wins(ids: np.ndarray, vals: np.ndarray):
    """Sorted-unique ids with, for duplicates, the *last* value kept."""
    ids = as_index(ids)
    vals = np.asarray(vals, dtype=np.float64)
    if ids.size == 0:
        return ids.copy(), vals.reshape((0,) + vals.shape[1:]).copy()
    # np.unique on the reversed ids returns the index of each id's first
    # occurrence there — i.e. its last occurrence in the original order
    uniq, first_rev = np.unique(ids[::-1], return_index=True)
    return uniq, vals[::-1][first_rev]


@dataclass(frozen=True)
class MeshDelta:
    """One atomic incremental update, in global mesh/problem terms.

    Attributes
    ----------
    scale_elements / scale_values:
        Absolute stiffness scales for mesh element ids (crack-front
        softening: the element matrix becomes ``scale * Ke``).
    move_nodes / move_coords:
        New xyz positions for *renumbered* node ids (the id space the
        serving layer works in — mesh smoothing, boundary tracking).
    refine_elements:
        Mesh element ids to bisect (:func:`repro.mesh.adapt.refine_local`).
        A refining delta is *structural* — it changes dof counts — and
        must be pure: no scales or moves in the same delta.
    """

    scale_elements: np.ndarray = field(default_factory=_empty_ids)
    scale_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    move_nodes: np.ndarray = field(default_factory=_empty_ids)
    move_coords: np.ndarray = field(
        default_factory=lambda: np.empty((0, 3))
    )
    refine_elements: np.ndarray = field(default_factory=_empty_ids)

    def __post_init__(self):
        se = as_index(self.scale_elements)
        sv = np.asarray(self.scale_values, dtype=np.float64).reshape(-1)
        if se.size != sv.size:
            raise ValueError(
                f"scale_elements ({se.size}) and scale_values ({sv.size}) "
                "length mismatch"
            )
        if sv.size and sv.min() <= 0.0:
            raise ValueError(
                f"stiffness scales must be positive, got min {sv.min()}"
            )
        se, sv = _last_wins(se, sv)
        mn = as_index(self.move_nodes)
        mc = np.asarray(self.move_coords, dtype=np.float64).reshape(-1, 3)
        if mn.size != mc.shape[0]:
            raise ValueError(
                f"move_nodes ({mn.size}) and move_coords ({mc.shape[0]}) "
                "length mismatch"
            )
        mn, mc = _last_wins(mn, mc)
        re = np.unique(as_index(self.refine_elements))
        if re.size and (se.size or mn.size):
            raise ValueError(
                "a structural (refining) delta must be pure — compose "
                "scales/moves as separate deltas around the refinement"
            )
        # read-only: the memoised fingerprint (and every key holding this
        # delta) must not go stale behind an in-place write
        for name, arr in (
            ("scale_elements", se),
            ("scale_values", sv),
            ("move_nodes", mn),
            ("move_coords", mc),
            ("refine_elements", re),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # -- identity -------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable short hash of the canonicalized payload (computed once
        per instance — the arrays are read-only)."""
        fp = self.__dict__.get("_fingerprint")
        if fp is not None:
            return fp
        h = hashlib.sha1()
        for tag, arr in (
            (b"se", self.scale_elements),
            (b"sv", self.scale_values),
            (b"mn", self.move_nodes),
            (b"mc", self.move_coords),
            (b"re", self.refine_elements),
        ):
            h.update(tag)
            h.update(np.ascontiguousarray(arr).tobytes())
        fp = h.hexdigest()[:12]
        object.__setattr__(self, "_fingerprint", fp)
        return fp

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MeshDelta)
            and self.fingerprint() == other.fingerprint()
        )

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    # -- shape ----------------------------------------------------------

    @property
    def is_structural(self) -> bool:
        return self.refine_elements.size > 0

    @property
    def is_empty(self) -> bool:
        return (
            self.scale_elements.size == 0
            and self.move_nodes.size == 0
            and self.refine_elements.size == 0
        )

    def compose(self, other: "MeshDelta") -> "MeshDelta":
        """The single delta equivalent to applying ``self`` then
        ``other`` (non-structural only; ``other`` wins on overlap)."""
        if self.is_structural or other.is_structural:
            raise ValueError("cannot compose structural deltas")
        return MeshDelta(
            scale_elements=np.concatenate(
                [self.scale_elements, other.scale_elements]
            ),
            scale_values=np.concatenate(
                [self.scale_values, other.scale_values]
            ),
            move_nodes=np.concatenate([self.move_nodes, other.move_nodes]),
            move_coords=np.concatenate(
                [self.move_coords, other.move_coords]
            ),
        )

    def describe(self) -> str:
        return (
            f"delta[{self.fingerprint()}] scales={self.scale_elements.size} "
            f"moves={self.move_nodes.size} "
            f"refines={self.refine_elements.size}"
        )


@dataclass(frozen=True)
class OperatorDelta:
    """Rank-local projection of a non-structural :class:`MeshDelta`:
    exactly the arguments one rank passes to ``update_elements``."""

    local_elems: np.ndarray
    coords: np.ndarray | None  # (k, n_nodes, 3) post-update rows
    scale: np.ndarray | None  # (k,) absolute scales


class CrackFront:
    """A planar crack front advancing through the unit cube along +x.

    A deterministic softening model driving the adapt harness: at step
    ``i`` of ``n_steps`` the front sits at ``x = (i+1)/n_steps``, and the
    elements whose centroid entered the band since the previous step —
    within ``half_width`` of the crack plane ``y = y0`` — are softened to
    the absolute ``soft_scale`` (an XFEM-style enrichment proxy).  Pure
    function of the mesh and the step index: every run, and the fresh
    rebuilds the differential verifier makes, see identical deltas.
    """

    def __init__(
        self,
        soft_scale: float = 0.05,
        y0: float = 0.5,
        half_width: float = 0.26,
    ):
        if soft_scale <= 0:
            raise ValueError(f"soft_scale must be positive, got {soft_scale}")
        self.soft_scale = soft_scale
        self.y0 = y0
        self.half_width = half_width

    def _band(self, mesh, x_lo: float, x_hi: float) -> np.ndarray:
        c = mesh.coords[mesh.conn].mean(axis=1)
        sel = (
            (c[:, 0] > x_lo)
            & (c[:, 0] <= x_hi)
            & (np.abs(c[:, 1] - self.y0) <= self.half_width)
        )
        return np.flatnonzero(sel).astype(INDEX_DTYPE)

    def scale_delta(self, mesh, step: int, n_steps: int) -> MeshDelta:
        """Softening delta of step ``step`` (may be empty)."""
        x_lo = step / n_steps
        x_hi = (step + 1) / n_steps
        elems = self._band(mesh, x_lo, x_hi)
        return MeshDelta(
            scale_elements=elems,
            scale_values=np.full(elems.size, self.soft_scale),
        )

    def refine_delta(self, mesh, step: int, n_steps: int) -> MeshDelta:
        """Refinement delta of step ``step``: bisect the elements the
        front just crossed (TET4 meshes only)."""
        x_lo = step / n_steps
        x_hi = (step + 1) / n_steps
        return MeshDelta(refine_elements=self._band(mesh, x_lo, x_hi))

    def move_delta(
        self, spec, step: int, n_steps: int, amplitude: float = 5e-3
    ) -> MeshDelta:
        """Node-smoothing delta of step ``step``: interior nodes ahead of
        the front shift by a small deterministic offset (renumbered ids,
        amplitude well under the mesh spacing so geometry stays valid)."""
        part = spec.partition
        coords_new = part.coords_by_new_id()
        x_hi = (step + 1) / n_steps
        boundary = np.zeros(coords_new.shape[0], dtype=bool)
        boundary[part.boundary_nodes_new()] = True
        sel = np.flatnonzero(
            ~boundary
            & (coords_new[:, 0] <= x_hi)
            & (np.abs(coords_new[:, 1] - self.y0) <= self.half_width)
        ).astype(INDEX_DTYPE)
        if sel.size == 0:
            return MeshDelta()
        rng = np.random.default_rng(1000 + step)
        shift = amplitude * rng.standard_normal((sel.size, 3))
        return MeshDelta(
            move_nodes=sel, move_coords=coords_new[sel] + shift
        )
