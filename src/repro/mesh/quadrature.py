"""Numerical quadrature on the reference elements.

Hexes use tensor-product Gauss–Legendre rules; tetrahedra use the conical
(collapsed-coordinate) product rule built from Gauss–Legendre and
Gauss–Jacobi component rules, which is exact for total degree ``2n - 1``
with ``n^3`` points and has strictly positive weights.

The component rules come from :func:`gauss_rule`, which reads the 1-4
point rules every default stiffness matrix and load vector uses from a
table of SciPy's own values, so building an operator does not import
``scipy.special`` (about 5 MB resident for a handful of constants).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.mesh.element import ElementType

__all__ = [
    "QuadratureRule", "quadrature_for", "gauss_rule", "hex_rule", "tet_rule",
]

#: ``(n, alpha) -> (nodes, weights)`` on ``[-1, 1]``: exactly the values
#: ``roots_legendre(n)`` (``alpha = 0``) and ``roots_jacobi(n, alpha, 0.0)``
#: return, as round-trip literals; an integer and a float ``alpha`` give
#: the same bits, and ``tests/test_import_budget.py`` checks every entry
_GAUSS_TABLE = {
    (1, 0): ((0.0,), (2.0,)),
    (2, 0): (
        (-0.5773502691896257, 0.5773502691896257),
        (1.0, 1.0),
    ),
    (3, 0): (
        (-0.7745966692414834, 0.0, 0.7745966692414834),
        (0.5555555555555558, 0.8888888888888883, 0.5555555555555558),
    ),
    (4, 0): (
        (-0.8611363115940526, -0.3399810435848563,
         0.3399810435848563, 0.8611363115940526),
        (0.3478548451374538, 0.6521451548625462,
         0.6521451548625462, 0.3478548451374538),
    ),
    (1, 1): ((-0.3333333333333333,), (2.0,)),
    (2, 1): (
        (-0.6898979485566357, 0.2898979485566358),
        (1.2721655269759087, 0.7278344730240913),
    ),
    (3, 1): (
        (-0.8228240809745921, -0.1810662711185305, 0.5753189235216941),
        (0.8037276549558384, 0.9169644254383448, 0.2793079196058167),
    ),
    (4, 1): (
        (-0.8857916077709646, -0.44631397272375245,
         0.16718086473783364, 0.7204802713124389),
        (0.5420276537259541, 0.8138582720410844,
         0.5193901904329293, 0.12472388380003234),
    ),
    (1, 2): ((-0.5,), (2.6666666666666665,)),
    (2, 2): (
        (-0.754970354689117, 0.08830368802245062),
        (1.860379610028064, 0.8062870566386026),
    ),
    (3, 2): (
        (-0.8540119518537006, -0.30599246792329643, 0.41000441977699675),
        (1.2570908885190917, 1.169970154078929, 0.23960562406864572),
    ),
    (4, 2): (
        (-0.9029989011060054, -0.5227985248962753,
         0.03409459020873491, 0.5917028357935458),
        (0.8871073248902219, 1.1476703183937156,
         0.5490710973833848, 0.08281792599934465),
    ),
}


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on a reference element.

    ``weights`` sum to the reference-element measure (8 for the hex,
    1/6 for the unit tet).
    """

    points: np.ndarray  # (q, 3)
    weights: np.ndarray  # (q,)
    degree: int  # total polynomial degree integrated exactly

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def gauss_rule(n: int, alpha: float = 0) -> tuple[np.ndarray, np.ndarray]:
    """``n``-point Gauss rule on ``[-1, 1]`` for weight ``(1 - x)^alpha``.

    Gauss–Legendre at ``alpha = 0``, else Gauss–Jacobi with ``beta = 0``.
    Tabulated rules are bitwise SciPy's; any other ``(n, alpha)`` asks
    ``scipy.special``.
    """
    hit = _GAUSS_TABLE.get((n, alpha))
    if hit is not None:
        return np.array(hit[0]), np.array(hit[1])
    from scipy.special import roots_jacobi, roots_legendre

    return roots_legendre(n) if alpha == 0 else roots_jacobi(n, alpha, 0.0)


def _gauss_01(n: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [0, 1] for weight ``(1 - t)^alpha``."""
    x, w = gauss_rule(n, alpha)
    t = 0.5 * (x + 1.0)
    w01 = w / (2.0 ** (alpha + 1))
    return t, w01


@functools.lru_cache(maxsize=None)
def hex_rule(n: int) -> QuadratureRule:
    """``n^3``-point tensor Gauss rule on ``[-1, 1]^3`` (degree ``2n - 1``)."""
    x, w = gauss_rule(n)
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    WX, WY, WZ = np.meshgrid(w, w, w, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    wts = (WX * WY * WZ).ravel()
    return QuadratureRule(pts, wts, degree=2 * n - 1)


@functools.lru_cache(maxsize=None)
def tet_rule(n: int) -> QuadratureRule:
    """Conical product rule on the unit tet (degree ``2n - 1``).

    Uses the Duffy-style collapse ``x = a (1-b)(1-c), y = b (1-c), z = c``
    whose Jacobian ``(1-b)(1-c)^2`` is absorbed into Gauss–Jacobi weights.
    """
    ta, wa = _gauss_01(n, alpha=0)
    tb, wb = _gauss_01(n, alpha=1)
    tc, wc = _gauss_01(n, alpha=2)
    A, B, C = np.meshgrid(ta, tb, tc, indexing="ij")
    WA, WB, WC = np.meshgrid(wa, wb, wc, indexing="ij")
    z = C
    y = B * (1.0 - C)
    x = A * (1.0 - B) * (1.0 - C)
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    wts = (WA * WB * WC).ravel()
    return QuadratureRule(pts, wts, degree=2 * n - 1)


def quadrature_for(etype: ElementType, degree: int | None = None) -> QuadratureRule:
    """Quadrature rule for ``etype`` exact to total ``degree``.

    With ``degree=None`` the element's default stiffness-matrix degree is
    used (2 points/direction for linear elements, 3 for quadratic).
    """
    if degree is None:
        degree = etype.default_quadrature_degree
    n = max(1, (degree + 2) // 2)  # 2n - 1 >= degree
    return hex_rule(n) if etype.is_hex else tet_rule(n)
