"""Right-hand-side assembly primitives: body forces and surface tractions.

Both return *elemental* load vectors ``(E, n_nodes, ndpn)``; accumulation
into distributed vectors happens through the same E2L scatter machinery the
SPMV uses.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from repro.fem.elemmat import jacobians
from repro.mesh.element import ElementType, corner_faces
from repro.mesh.quadrature import QuadratureRule, gauss_rule, quadrature_for
from repro.mesh.shape_functions import reference_nodes, shape_functions_for
from repro.util.arrays import as_f64

__all__ = ["body_force_rhs_batch", "traction_rhs_batch", "face_area_batch"]

ForceFn = Callable[[np.ndarray], np.ndarray]


def body_force_rhs_batch(
    coords: np.ndarray,
    etype: ElementType,
    force: ForceFn | np.ndarray,
    ndpn: int = 1,
    quad: QuadratureRule | None = None,
) -> np.ndarray:
    """Elemental body-force load vectors ``f_e[n, k] = ∫ N_n b_k dV``.

    ``force`` is either a constant ``(ndpn,)`` vector or a callable mapping
    physical points ``(..., 3)`` to force values ``(..., ndpn)``.
    """
    coords = as_f64(coords)
    sf = shape_functions_for(etype)
    if quad is None:
        quad = quadrature_for(etype)
    N = sf.eval(quad.points)  # (q, n)
    dN = sf.grad(quad.points)
    _, detJ, _ = jacobians(dN, coords)
    wd = quad.weights[None, :] * detJ  # (E, q)
    if callable(force):
        xq = np.einsum("qn,enk->eqk", N, coords, optimize=True)
        b = np.asarray(force(xq), dtype=np.float64)  # (E, q, ndpn)
        b = b.reshape(xq.shape[0], xq.shape[1], ndpn)
        return np.einsum("qn,eqk,eq->enk", N, b, wd, optimize=True)
    b = np.asarray(force, dtype=np.float64).reshape(ndpn)
    return np.einsum("qn,eq,k->enk", N, wd, b, optimize=True)


# ----------------------------------------------------------------------------
# face quadrature (for tractions)
# ----------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _quad_face_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss rule on the reference square [-1, 1]^2."""
    x, w = gauss_rule(n)
    S, T = np.meshgrid(x, x, indexing="ij")
    WS, WT = np.meshgrid(w, w, indexing="ij")
    return np.stack([S.ravel(), T.ravel()], axis=1), (WS * WT).ravel()


@functools.lru_cache(maxsize=None)
def _tri_face_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed Gauss rule on the unit triangle {a, b >= 0, a + b <= 1}."""
    xa, wa = gauss_rule(n)
    xb, wb = gauss_rule(n, 1.0)
    ta, tb = 0.5 * (xa + 1.0), 0.5 * (xb + 1.0)
    wa01, wb01 = wa / 2.0, wb / 4.0  # (1 - b) absorbed into Jacobi weight
    A, B = np.meshgrid(ta, tb, indexing="ij")
    WA, WB = np.meshgrid(wa01, wb01, indexing="ij")
    a = (A * (1.0 - B)).ravel()
    b = B.ravel()
    return np.stack([a, b], axis=1), (WA * WB).ravel()


@functools.lru_cache(maxsize=None)
def _face_quadrature(etype: ElementType, face: int, n: int):
    """Reference-volume points, weights and in-face tangent derivatives
    for face ``face`` of element type ``etype``.

    Returns ``(xi (q, 3), w (q,), dxi_ds (q, 3), dxi_dt (q, 3))``.
    """
    corners = corner_faces(etype)[face]
    ref = reference_nodes(etype)[list(corners)]
    if etype.is_hex:
        st, w = _quad_face_rule(n)
        s, t = st[:, 0], st[:, 1]
        q0 = 0.25 * (1 - s) * (1 - t)
        q1 = 0.25 * (1 + s) * (1 - t)
        q2 = 0.25 * (1 + s) * (1 + t)
        q3 = 0.25 * (1 - s) * (1 + t)
        xi = np.einsum("q,k->qk", q0, ref[0]) + np.einsum("q,k->qk", q1, ref[1])
        xi += np.einsum("q,k->qk", q2, ref[2]) + np.einsum("q,k->qk", q3, ref[3])
        dq_ds = np.stack([-(1 - t), (1 - t), (1 + t), -(1 + t)], axis=1) * 0.25
        dq_dt = np.stack([-(1 - s), -(1 + s), (1 + s), (1 - s)], axis=1) * 0.25
        dxi_ds = dq_ds @ ref
        dxi_dt = dq_dt @ ref
    else:
        ab, w = _tri_face_rule(n)
        a, b = ab[:, 0], ab[:, 1]
        xi = (
            ref[0][None, :]
            + a[:, None] * (ref[1] - ref[0])[None, :]
            + b[:, None] * (ref[2] - ref[0])[None, :]
        )
        dxi_ds = np.broadcast_to(ref[1] - ref[0], (len(w), 3)).copy()
        dxi_dt = np.broadcast_to(ref[2] - ref[0], (len(w), 3)).copy()
    return xi, w, dxi_ds, dxi_dt


def _face_geometry(
    coords: np.ndarray, etype: ElementType, face: int, n: int
):
    """Shape values, quadrature weights * surface Jacobian, and physical
    points on one face of a batch of elements."""
    sf = shape_functions_for(etype)
    xi, w, dxi_ds, dxi_dt = _face_quadrature(etype, face, n)
    N = sf.eval(xi)  # (q, n)
    dN = sf.grad(xi)  # (q, n, 3)
    # physical tangents: T_s[e,q,k] = sum_n (dN[q,n,:] . dxi_ds[q,:]) x[e,n,k]
    dn_ds = np.einsum("qnd,qd->qn", dN, dxi_ds, optimize=True)
    dn_dt = np.einsum("qnd,qd->qn", dN, dxi_dt, optimize=True)
    Ts = np.einsum("qn,enk->eqk", dn_ds, coords, optimize=True)
    Tt = np.einsum("qn,enk->eqk", dn_dt, coords, optimize=True)
    dA = np.linalg.norm(np.cross(Ts, Tt), axis=-1)  # (E, q)
    xq = np.einsum("qn,enk->eqk", N, coords, optimize=True)
    return N, w[None, :] * dA, xq


def traction_rhs_batch(
    coords: np.ndarray,
    etype: ElementType,
    faces: np.ndarray,
    traction: ForceFn | np.ndarray,
    ndpn: int = 1,
    n_quad: int = 3,
) -> np.ndarray:
    """Elemental traction load vectors ``f_e[n, k] = ∫_face N_n t_k dA``.

    Parameters
    ----------
    coords:
        ``(F, n_nodes, 3)`` coordinates of the elements owning the faces.
    faces:
        ``(F,)`` local face index of each entry.
    traction:
        Constant ``(ndpn,)`` vector or callable on physical points.
    """
    coords = as_f64(coords)
    faces = np.asarray(faces)
    out = np.zeros((coords.shape[0], etype.n_nodes, ndpn))
    for face in np.unique(faces):
        sel = faces == face
        N, wda, xq = _face_geometry(coords[sel], etype, int(face), n_quad)
        if callable(traction):
            t = np.asarray(traction(xq), dtype=np.float64)
            t = t.reshape(xq.shape[0], xq.shape[1], ndpn)
            out[sel] = np.einsum("qn,eqk,eq->enk", N, t, wda, optimize=True)
        else:
            t = np.asarray(traction, dtype=np.float64).reshape(ndpn)
            out[sel] = np.einsum("qn,eq,k->enk", N, wda, t, optimize=True)
    return out


def face_area_batch(
    coords: np.ndarray, etype: ElementType, faces: np.ndarray, n_quad: int = 3
) -> np.ndarray:
    """Areas of the given (element, face) pairs (testing/diagnostics)."""
    coords = as_f64(coords)
    faces = np.asarray(faces)
    out = np.zeros(coords.shape[0])
    for face in np.unique(faces):
        sel = faces == face
        _, wda, _ = _face_geometry(coords[sel], etype, int(face), n_quad)
        out[sel] = wda.sum(axis=1)
    return out
