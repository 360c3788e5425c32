"""Batched element-matrix kernels.

Everything here is vectorized over element batches: this is the "dense
local linear algebra" at the heart of HYMV, and also the per-iteration
cost of the matrix-free baseline.

Every contraction is a ``np.matmul`` whose leading axis is the element
(or element x quadrature-point) batch, and the 3x3 Jacobian inverse is
the closed-form adjugate, so an element's matrix is computed by the same
operations in the same order whatever else shares the batch.  That
makes the kernels **batch invariant** — a row depends only on its own
element's coordinates, bit for bit — which is what lets an adaptive
patch that recomputes a few elements equal a fresh full build bitwise.

Index conventions: ``e`` element, ``q`` quadrature point, ``n/m`` local
node, ``d/k/i/j`` spatial direction.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from repro.mesh.element import ElementType
from repro.mesh.quadrature import QuadratureRule, quadrature_for
from repro.mesh.shape_functions import shape_functions_for
from repro.util.arrays import as_f64

__all__ = [
    "InvertedElementError",
    "jacobians",
    "physical_gradients",
    "reference_gradients",
    "poisson_ke_batch",
    "elasticity_ke_batch",
    "mass_ke_batch",
]


class InvertedElementError(ValueError):
    """A batch has ``n_bad`` quadrature points with a non-positive
    Jacobian; the count lets a blocked caller report the whole batch's."""

    def __init__(self, n_bad: int):
        super().__init__(
            f"{n_bad} quadrature points with non-positive Jacobian "
            "(inverted or degenerate elements)"
        )
        self.n_bad = n_bad


class _Basis(NamedTuple):
    """Read-only reference data of one (element type, quadrature rule)."""

    weights: np.ndarray  # (q,)
    N: np.ndarray  # (q, n) shape values
    dN: np.ndarray  # (q, n, 3) reference gradients
    dNt: np.ndarray  # (q, 3, n) the same, direction-major per point


def _basis(etype: ElementType, quad: QuadratureRule | None) -> _Basis:
    if quad is None:
        quad = quadrature_for(etype)
    return _basis_at(etype, quad.points.tobytes(), quad.weights.tobytes())


@functools.lru_cache(maxsize=64)
def _basis_at(etype: ElementType, points: bytes, weights: bytes) -> _Basis:
    """Reference data of ``etype`` at a rule given by its raw bytes (the
    hashable form of the array-valued :class:`QuadratureRule`)."""
    pts = np.frombuffer(points).reshape(-1, 3)
    sf = shape_functions_for(etype)
    dN = sf.grad(pts)
    basis = _Basis(
        np.frombuffer(weights),
        sf.eval(pts),
        dN,
        np.ascontiguousarray(dN.transpose(0, 2, 1)),
    )
    for a in basis:
        a.flags.writeable = False
    return basis


def reference_gradients(
    etype: ElementType, quad: QuadratureRule | None = None
) -> np.ndarray:
    """Reference shape-function gradients ``(q, n, 3)`` at ``quad``'s
    points (default: the element's stiffness rule), computed once per
    (element type, rule) and returned read-only."""
    return _basis(etype, quad).dN


def _geometry(dNt: np.ndarray, coords: np.ndarray):
    """``(J, detJ, invJ^T)`` of a batch from direction-major reference
    gradients ``dNt`` ``(q, 3, n)``.

    ``J = dN^T X`` is one ``(3q, n) @ (n, 3)`` product per element.  The
    inverse is the adjugate over the determinant: with rows ``r_i`` of
    ``J``, row ``i`` of ``J^-T`` is ``r_{i+1} x r_{i+2} / det``.
    """
    q = dNt.shape[0]
    J = np.matmul(dNt.reshape(3 * q, -1), coords).reshape(-1, q, 3, 3)
    # the same element-wise operations on contiguous components: ``r[d, k]``
    # is ``J[(d + 1) % 3, (k + 1) % 3]`` over every (element, point)
    roll = np.array([1, 2, 0, 1])
    r = J.reshape(-1, 9).T.reshape(3, 3, -1)[np.ix_(roll, roll)]
    adj = r[:3, :3] * r[1:, 1:]
    for i in range(3):  # row by row: a (3, E q) temporary, not (3, 3, E q)
        adj[i] -= r[i, 1:] * r[i + 1, :3]
    detJ = r[2, 2] * adj[0, 0]  # J[0, k] = r[2, k - 1]
    detJ += r[2, 0] * adj[0, 1]
    detJ += r[2, 1] * adj[0, 2]
    del r  # freed before invJ^T: the peak stays inside ``_ke_words``
    if (detJ <= 0).any():
        raise InvertedElementError(int((detJ <= 0).sum()))
    adj /= detJ
    invJt = np.empty_like(J)
    invJt.reshape(-1, 9).T[...] = adj.reshape(9, -1)
    return J, detJ.reshape(J.shape[:2]), invJt


def jacobians(
    dN: np.ndarray, coords: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Geometric Jacobians of a batch of elements.

    Parameters
    ----------
    dN:
        ``(q, n, 3)`` reference shape-function gradients.
    coords:
        ``(E, n, 3)`` element node coordinates.

    Returns
    -------
    ``(J, detJ, invJ)`` with shapes ``(E, q, 3, 3)``, ``(E, q)``,
    ``(E, q, 3, 3)``.  ``J[d, k] = d x_k / d xi_d``.  Raises
    :class:`InvertedElementError` (a ``ValueError``) naming the number
    of quadrature points with a non-positive Jacobian.
    """
    dNt = np.ascontiguousarray(np.swapaxes(dN, 1, 2))
    J, detJ, invJt = _geometry(dNt, as_f64(coords))
    return J, detJ, np.swapaxes(invJt, -1, -2)


def physical_gradients(dN: np.ndarray, invJ: np.ndarray) -> np.ndarray:
    """Physical shape-function gradients ``(E, q, n, 3)``.

    With ``J[d, k] = d x_k / d xi_d`` we have ``d xi_d / d x_k =
    (J^-1)[k, d]``, hence ``dN_phys = dN_ref J^-T`` at each point.
    """
    return np.matmul(dN, np.swapaxes(invJ, -1, -2))


def _weighted(basis: _Basis, coords: np.ndarray, coefficient=None):
    """``(invJ^T, wd)``: the inverse-transposed Jacobians ``(E, q, 3, 3)``
    and the quadrature weights times ``detJ`` (times ``kappa``) ``(E, q)``."""
    _, detJ, invJt = _geometry(basis.dNt, coords)
    wd = basis.weights * detJ
    if coefficient is not None:
        xq = np.matmul(basis.N, coords)
        kappa = np.asarray(coefficient(xq), dtype=np.float64)
        wd = wd * kappa.reshape(wd.shape)
    return invJt, wd


def poisson_ke_batch(
    coords: np.ndarray,
    etype: ElementType,
    quad: QuadratureRule | None = None,
    coefficient=None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Poisson stiffness matrices ``(E, n, n)`` for ``-div(kappa grad u)``,
    written into ``out`` when given.

    ``Ke[n, m] = sum_q w_q detJ_q kappa(x_q) grad(N_n) . grad(N_m)``;
    ``coefficient`` is a callable on physical points (default: 1, the
    Laplace operator).  Computed as ``G^T (w detJ) G`` with ``G`` the
    ``(3q, n)`` stack of physical gradients.
    """
    coords = as_f64(coords)
    basis = _basis(etype, quad)
    invJt, wd = _weighted(basis, coords, coefficient)
    g = np.matmul(np.swapaxes(invJt, -1, -2), basis.dNt)  # (E, q, 3, n)
    E, q, _, n = g.shape
    gw = (g * wd[:, :, None, None]).reshape(E, 3 * q, n)
    return np.matmul(np.swapaxes(gw, 1, 2), g.reshape(E, 3 * q, n), out=out)


def elasticity_ke_batch(
    coords: np.ndarray,
    etype: ElementType,
    lam: float,
    mu: float,
    quad: QuadratureRule | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Isotropic linear-elasticity stiffness matrices ``(E, 3n, 3n)``,
    written into ``out`` when given.

    DOF ordering is node-major: dof ``3 n + i`` is component ``i`` of node
    ``n``.  The kernel is the standard index form

    ``Ke[(n,i),(m,j)] = ∫ lam g_n,i g_m,j + mu g_n,j g_m,i
    + mu delta_ij (g_n . g_m)``,

    all three terms read off one product ``P = G^T (w detJ) G`` with
    ``G`` the ``(q, 3n)`` gradients: ``P[(n,i),(m,j)] = ∫ g_n,i g_m,j``.
    """
    coords = as_f64(coords)
    basis = _basis(etype, quad)
    invJt, wd = _weighted(basis, coords)
    g = np.matmul(basis.dN, invJt)  # (E, q, n, 3)
    E, q, n, _ = g.shape
    G = g.reshape(E, q, 3 * n)
    P = np.matmul(np.swapaxes(G * wd[:, :, None], 1, 2), G)
    P = P.reshape(E, n, 3, n, 3)
    if out is None:
        out = np.empty((E, 3 * n, 3 * n))
    ke = np.multiply(lam, P, out=out.reshape(P.shape))
    ke += mu * P.transpose(0, 1, 4, 3, 2)
    gdot = mu * (P[:, :, 0, :, 0] + P[:, :, 1, :, 1] + P[:, :, 2, :, 2])
    for i in range(3):
        ke[:, :, i, :, i] += gdot
    return out


def mass_ke_batch(
    coords: np.ndarray,
    etype: ElementType,
    quad: QuadratureRule | None = None,
    ndpn: int = 1,
) -> np.ndarray:
    """Consistent mass matrices ``(E, ndpn*n, ndpn*n)`` (unit density):
    ``N^T (w detJ) N`` per element."""
    coords = as_f64(coords)
    basis = _basis(etype, quad)
    _, wd = _weighted(basis, coords)
    m = np.matmul(basis.N.T, basis.N * wd[:, :, None])
    if ndpn == 1:
        return m
    E, n, _ = m.shape
    out = np.zeros((E, n, ndpn, n, ndpn))
    for i in range(ndpn):
        out[:, :, i, :, i] = m
    return out.reshape(E, ndpn * n, ndpn * n)
