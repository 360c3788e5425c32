"""Dirichlet boundary conditions via constrained-dof projection.

All three SPMV methods (HYMV, matrix-assembled, matrix-free) expose the
*same* unconstrained operator ``K``; Dirichlet conditions are imposed
uniformly at the solver level through the standard projection trick: with
``P`` the projector zeroing constrained dofs and ``u0`` the prescribed
values (zero on free dofs),

    solve  P K P w = P (f - K u0),   u = u0 + w.

This keeps the operator implementations directly comparable (the paper
does the same by routing every method through PETSc's MatShell CG).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.util.arrays import INDEX_DTYPE, as_index, unique_index

__all__ = ["DirichletBC"]

ValueFn = Callable[[np.ndarray], np.ndarray]


@dataclass
class DirichletBC:
    """A set of constrained nodes with prescribed values.

    Parameters
    ----------
    nodes:
        Sorted global node ids (renumbered ids when used with a
        :class:`repro.partition.Partition`).
    value:
        Constant scalar / ``(ndpn,)`` vector, or a callable mapping node
        coordinates ``(m, 3)`` to values ``(m, ndpn)``.
    ndpn:
        Degrees of freedom per node.
    components:
        Which dof components are constrained (default: all).
    """

    nodes: np.ndarray
    value: float | np.ndarray | ValueFn = 0.0
    ndpn: int = 1
    components: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        self.nodes = unique_index(self.nodes)
        if self.components is None:
            self.components = tuple(range(self.ndpn))

    def constrained_dofs(self) -> np.ndarray:
        """Sorted constrained global dof ids (dof = node * ndpn + comp)."""
        comps = np.asarray(self.components, dtype=INDEX_DTYPE)
        return np.sort(
            (self.nodes[:, None] * self.ndpn + comps[None, :]).reshape(-1)
        )

    def mask_slice(self, begin: int, end: int) -> np.ndarray:
        """Boolean mask over dofs ``[begin*ndpn, end*ndpn)`` marking
        constrained entries (half-open *node* range)."""
        n = (end - begin) * self.ndpn
        mask = np.zeros(n, dtype=bool)
        dofs = self.constrained_dofs()
        lo = np.searchsorted(dofs, begin * self.ndpn)
        hi = np.searchsorted(dofs, end * self.ndpn)
        mask[dofs[lo:hi] - begin * self.ndpn] = True
        return mask

    def values_for(self, node_ids: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Prescribed dof values ``(m, ndpn)`` for the subset of
        ``node_ids`` (with coordinates ``coords``) that are constrained;
        unconstrained nodes/components get 0."""
        node_ids = as_index(node_ids)
        out = np.zeros((node_ids.size, self.ndpn))
        pos = np.searchsorted(self.nodes, node_ids)
        pos = np.clip(pos, 0, self.nodes.size - 1)
        hit = self.nodes[pos] == node_ids
        if not hit.any():
            return out
        if callable(self.value):
            vals = np.asarray(self.value(coords[hit]), dtype=np.float64)
            vals = vals.reshape(int(hit.sum()), self.ndpn)
        else:
            vals = np.broadcast_to(
                np.asarray(self.value, dtype=np.float64).reshape(-1),
                (int(hit.sum()), self.ndpn),
            )
        sel = np.zeros((int(hit.sum()), self.ndpn), dtype=bool)
        sel[:, list(self.components)] = True
        out[hit] = np.where(sel, vals, 0.0)
        return out
