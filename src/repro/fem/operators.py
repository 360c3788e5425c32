"""PDE operators: the application-side providers of element matrices.

An :class:`Operator` is what HYMV's setup phase calls to obtain element
matrices, what the matrix-free baseline calls *every* SPMV, and what the
matrix-assembled baseline calls once before global assembly.  It also
carries flop estimates used by the throughput analysis (Table I, Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fem.elemmat import (
    InvertedElementError,
    elasticity_ke_batch,
    poisson_ke_batch,
)
from repro.fem.material import IsotropicElasticity
from repro.mesh.element import ElementType
from repro.mesh.quadrature import QuadratureRule, quadrature_for

#: Byte budget of one element block in :meth:`Operator.element_matrices`.
#: The batch kernel runs on as many consecutive elements as keep its
#: temporaries, result included (:meth:`Operator._ke_words`, a measured
#: upper bound), within this many bytes: half of one core's 2 MiB L2 on
#: the reference host (2-vCPU Xeon).  One call on a whole batch instead
#: allocates and first-touches several MB of ``(E, q, 3, n)``
#: temporaries on every cold build.  Cold single-rank ``OperatorCache``
#: builds by budget, median ms of 16 interleaved runs ("none" is one
#: block; elements per block at 1 MiB in brackets):
#:
#: ==============================  ====  ====  ====  ====  ====  ====
#: key                             none  256K  512K    1M    2M    4M
#: ==============================  ====  ====  ====  ====  ====  ====
#: Poisson HEX8 nel=16 (227)       25.4  20.0  18.0  17.8  17.1  16.3
#: Poisson TET4 nel=10 (390)       28.3  22.6  20.5  18.9  20.6  21.0
#: Poisson HEX8 nel=32 (227)        246   226   195   172   179   171
#: Poisson HEX8 nel=16, assembled  57.6  53.8  52.7  52.4  48.1  47.9
#: elastic HEX8 nel=8 (58)         21.0  19.7  16.0  14.7  13.6  14.1
#: ==============================  ====  ====  ====  ====  ====  ====
#:
#: 1-4 MiB are within the runs' noise of each other; every column beats
#: one block, so the budget is a constant, not a tuning knob.
KE_BLOCK_BYTES = 1 << 20


def _n_points(etype: ElementType, quad: QuadratureRule | None) -> int:
    return (quad or quadrature_for(etype)).n_points


@dataclass(frozen=True)
class Operator:
    """Base operator interface.

    Subclasses implement the batch kernel :meth:`_ke_batch` and bound its
    temporaries in :meth:`_ke_words`; ``ndpn`` is the number of degrees
    of freedom per mesh node.
    """

    ndpn: int = 1

    def element_matrices(
        self,
        coords: np.ndarray,
        etype: ElementType,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched element matrices ``(E, ndpn*n, ndpn*n)`` of the
        element coordinates ``coords`` ``(E, n, 3)``, written into
        ``out`` (C-contiguous float64 of that shape; allocated when
        None), which is returned.

        The kernel runs on consecutive blocks of :meth:`ke_block`
        elements.  Every kernel is batch invariant — an element's matrix
        depends only on its own coordinates, bit for bit — so the result
        equals one call on the whole batch exactly.  Inverted elements
        raise :class:`~repro.fem.elemmat.InvertedElementError` counting
        the bad quadrature points of the whole batch."""
        nd = self.element_dofs(etype)
        shape = (coords.shape[0], nd, nd)
        if out is None:
            out = np.empty(shape)
        elif (
            out.shape != shape
            or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                f"out must be C-contiguous float64 {shape}, got "
                f"{out.dtype} {out.shape}"
            )
        step = self.ke_block(etype)
        n_bad = 0
        for s in range(0, shape[0], step):
            try:
                self._ke_batch(coords[s: s + step], etype, out[s: s + step])
            except InvertedElementError as exc:
                n_bad += exc.n_bad
        if n_bad:
            raise InvertedElementError(n_bad)
        return out

    def ke_block(self, etype: ElementType) -> int:
        """Elements per block of :meth:`element_matrices`: as many as
        keep the kernel's temporaries within :data:`KE_BLOCK_BYTES`."""
        return max(1, KE_BLOCK_BYTES // (8 * self._ke_words(etype)))

    def _ke_batch(self, coords, etype, out=None) -> np.ndarray:
        """The batch kernel: element matrices of one block, written into
        ``out`` (allocated when None), which is returned."""
        raise NotImplementedError

    def _ke_words(self, etype: ElementType) -> int:
        """Upper bound on the float64 words per element the batch kernel
        allocates at its peak, result included (fitted to ``tracemalloc``
        peaks of every element type)."""
        raise NotImplementedError

    def element_dofs(self, etype: ElementType) -> int:
        return self.ndpn * etype.n_nodes

    # ---- cost accounting (used by perfmodel / Table I) -----------------

    def ke_flops(self, etype: ElementType) -> float:
        """Estimated flops of an efficient element-matrix computation.

        Hexes pay the full quadrature loop (jacobians, inversions,
        physical gradients, stiffness contraction per point).  Straight-
        sided tets are affine — one Jacobian per element and the
        quadrature sum collapses into a volume factor — which is how
        optimized FEM codes (and the paper's) compute them.
        """
        n = etype.n_nodes
        if etype.is_tet:
            # straight-sided tets are affine: TET4 needs one point, TET10
            # a degree-2 rule over its linear gradients
            q = 1 if n == 4 else 4
        else:
            q = quadrature_for(etype).n_points
        jac = 2.0 * q * n * 9  # J = dN^T X
        inv = q * 60.0  # 3x3 det + inverse
        grad = 2.0 * q * n * 9  # dN_phys
        if self.ndpn == 1:
            stiff = 2.0 * q * n * n * 3
        else:
            stiff = 3.0 * (2.0 * q * n * n * 9) + 2.0 * q * n * n * 3
        return jac + inv + grad + stiff

    def emv_flops(self, etype: ElementType) -> float:
        """Flops of one dense elemental matrix-vector product."""
        nd = self.element_dofs(etype)
        return 2.0 * nd * nd


@dataclass(frozen=True)
class PoissonOperator(Operator):
    """Diffusion operator ``-div(kappa grad u)``.

    ``coefficient`` is an optional callable on physical points giving the
    (scalar) diffusivity ``kappa(x)``; None means the Laplace operator of
    the paper's verification problem.  It must be pointwise — each
    value a function of its own point only — because it is evaluated on
    one element block at a time.
    """

    ndpn: int = 1
    quad: QuadratureRule | None = None
    coefficient: object = None

    def _ke_batch(self, coords, etype, out=None):
        return poisson_ke_batch(coords, etype, self.quad, self.coefficient, out)

    def _ke_words(self, etype):
        # invJ^T and weights ~16 q, two (q, 3, n) gradient stacks, the
        # (n, n) result; also covers the geometry's ~40 q peak before them
        q, n = _n_points(etype, self.quad), etype.n_nodes
        return 16 * q + 6 * q * n + n * n


@dataclass(frozen=True)
class GraphLaplacianOperator(Operator):
    """Weighted graph Laplacian over per-element node cliques — the
    non-FEM sparsity generator for the SELL-C-sigma backend.

    Each element contributes the Laplacian of a weighted clique on its
    nodes: ``K_e = diag(W_e 1) - W_e + shift * I``.  Edge weights are a
    deterministic hash of the *physical* edge-midpoint coordinates (plus
    ``seed``), so every element containing a geometric edge assigns it
    the same weight and the assembled matrix is independent of the
    partitioning and of element order.  A ``drop`` fraction of edges get
    weight zero (hash below threshold), giving irregular per-row value
    distributions; combined with an unstructured tet mesh's irregular
    node valence this produces the skewed row-length histograms that a
    sliced-ELL format has to handle.  The ``shift`` keeps the assembled
    operator SPD (the pure Laplacian is only semi-definite).
    """

    ndpn: int = 1
    seed: int = 0
    drop: float = 0.35
    shift: float = 0.05

    def _ke_batch(self, coords, etype, out=None):
        # symmetric edge-midpoint hash -> uniform(0, 1) per node pair
        mid = 0.5 * (coords[:, :, None, :] + coords[:, None, :, :])
        phase = (
            mid[..., 0] * 12.9898
            + mid[..., 1] * 78.233
            + mid[..., 2] * 37.719
            + self.seed * 0.618033988749895
        )
        u = np.sin(phase) * 43758.5453123
        u -= np.floor(u)
        w = np.where(u < self.drop, 0.0, u)
        n = coords.shape[1]
        eye = np.eye(n)
        w = w * (1.0 - eye)  # no self-edges
        ke = np.subtract(0.0, w, out=out)  # the diagonal's w is +0.0
        idx = np.arange(n)
        ke[:, idx, idx] = w.sum(axis=2) + self.shift
        return ke

    def ke_flops(self, etype: ElementType) -> float:
        """Hash + row-sum cost: ~30 flops per clique pair."""
        n = etype.n_nodes
        return 30.0 * n * n

    def _ke_words(self, etype):
        # about eight (n, n) hash/weight arrays alive at once
        n = etype.n_nodes
        return 8 * n * (n + 2)


@dataclass(frozen=True)
class ElasticityOperator(Operator):
    """Isotropic linear elasticity (3 dofs per node)."""

    ndpn: int = 3
    material: IsotropicElasticity = field(default_factory=IsotropicElasticity)
    quad: QuadratureRule | None = None

    def _ke_batch(self, coords, etype, out=None):
        m = self.material
        return elasticity_ke_batch(coords, etype, m.lam, m.mu, self.quad, out)

    def _ke_words(self, etype):
        # as Poisson, but P, the result and mu P^T alive at once: three
        # (nd, nd)
        q, n = _n_points(etype, self.quad), etype.n_nodes
        return 16 * q + 6 * q * n + 3 * (3 * n) ** 2
