"""Dirichlet-constrained systems at the solver level.

Builds the projected SPD system

    A_hat = P A P + (I - P),     b_hat = P (f - A u0) + (I - P) u0

whose solution equals the eliminated system's with the prescribed values
in place.  Works with any ``apply_owned`` operator, keeping the three SPMV
methods directly comparable under identical boundary conditions;
:func:`owned_dirichlet` derives the rank's mask and ``u0`` from a
problem's boundary conditions.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.rhs import local_node_coords
from repro.util.arrays import INDEX_DTYPE

__all__ = ["dirichlet_system", "owned_dirichlet"]

ApplyFn = Callable[[np.ndarray], np.ndarray]


def dirichlet_system(
    apply_A: ApplyFn,
    f: np.ndarray,
    u0: np.ndarray,
    constrained_mask: np.ndarray,
) -> tuple[ApplyFn, np.ndarray]:
    """Return ``(apply_A_hat, b_hat)`` for the constrained solve.

    Parameters
    ----------
    apply_A:
        Unconstrained operator on owned dof vectors.
    f:
        Owned right-hand side (load vector).
    u0:
        Owned prescribed values (zero on free dofs).
    constrained_mask:
        Boolean mask over owned dofs marking Dirichlet entries.

    The returned operator is SPD on the full space, and CG started from
    zero yields ``x`` with ``x[constrained] == u0[constrained]`` and the
    correct free-dof solution.
    """
    mask = np.asarray(constrained_mask, dtype=bool)
    f = np.asarray(f, dtype=np.float64)
    u0 = np.asarray(u0, dtype=np.float64)
    if mask.shape != f.shape or u0.shape != f.shape:
        raise ValueError("f, u0 and constrained_mask must share a shape")

    b_hat = f - apply_A(u0)
    b_hat[mask] = u0[mask]

    def apply_hat(x: np.ndarray) -> np.ndarray:
        xp = x.copy()
        xp[mask] = 0.0
        y = apply_A(xp)
        y[mask] = x[mask]
        return y

    return apply_hat, b_hat


def owned_dirichlet(spec, lmesh, maps) -> tuple[np.ndarray, np.ndarray]:
    """``(constrained_mask, u0)`` of ``spec.bcs`` over this rank's owned
    dofs: the Dirichlet entries and their prescribed values (zero on free
    dofs), as :func:`dirichlet_system` takes them.  ``maps`` are the
    element-level node maps of ``lmesh``, which locate the node
    coordinates a position-dependent boundary value reads."""
    ndpn = spec.operator.ndpn
    owned_ids = np.arange(lmesh.n_begin, lmesh.n_end, dtype=INDEX_DTYPE)
    coords = local_node_coords(maps, lmesh)[maps.owned_slice]
    mask = np.zeros(owned_ids.size * ndpn, dtype=bool)
    u0 = np.zeros(owned_ids.size * ndpn)
    for bc in spec.bcs:
        m = bc.mask_slice(lmesh.n_begin, lmesh.n_end)
        vals = bc.values_for(owned_ids, coords).reshape(-1)
        u0[m] = vals[m]
        mask |= m
    return mask, u0
