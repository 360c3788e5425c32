"""Flop and byte counters per SPMV method (feeds Table I and Fig. 10).

Counting conventions follow the paper: HYMV and matrix-free count the
elemental products (2 nd² per element, plus the per-product elemental
assembly for matrix-free); assembled counts 2 flops per stored nonzero.
Bytes are modeled main-memory traffic per SPMV.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fem.operators import Operator
from repro.mesh.element import ElementType

__all__ = ["MethodCounters", "spmv_counters", "estimate_nnz"]

#: modeled SELL-C-sigma occupancy (real nonzeros / padded slots) at the
#: default layout (C=32, sigma=8C); the sellcs bench measures 0.94-0.97
#: across the harness problems, so the model books 5% padding overhead
SELLCS_MODEL_OCCUPANCY = 0.95


def estimate_nnz(etype: ElementType, ndpn: int, n_nodes: int) -> float:
    """Estimated nonzeros of the assembled matrix.

    Uses the interior-node valence of each element type (nodes sharing an
    element with a given node, including itself).
    """
    valence = {
        ElementType.HEX8: 27.0,
        # HEX20: Table I implies 19.2 GFLOP per SPMV at 5.6M dofs
        # => ~171 nnz/dof => node valence ≈ 57
        ElementType.HEX20: 57.0,
        # HEX27: averaged over corner/edge/face/centre node stencils
        ElementType.HEX27: 64.0,
        ElementType.TET4: 15.0,
        ElementType.TET10: 28.0,
    }[etype]
    return n_nodes * ndpn * valence * ndpn


@dataclass(frozen=True)
class MethodCounters:
    """Per-SPMV flops and modeled memory traffic (one rank)."""

    flops: float
    bytes_: float

    @property
    def arithmetic_intensity(self) -> float:
        return self.flops / self.bytes_ if self.bytes_ else 0.0


def spmv_counters(
    method: str,
    etype: ElementType,
    operator: Operator,
    n_elements: float,
    n_nodes: float,
    sellcs_occupancy: float | None = None,
) -> MethodCounters:
    """Counters of one SPMV on one rank with ``n_elements`` local
    elements and ``n_nodes`` local nodes.

    ``sellcs_occupancy`` overrides :data:`SELLCS_MODEL_OCCUPANCY` for the
    ``sellcs`` branch — pass a measured gauge (the bench's
    ``sellcs.occupancy``) or the calibrated value so model
    placements track the actual ``(C, sigma)`` layout.
    """
    ndpn = operator.ndpn
    nd = operator.element_dofs(etype)
    n_dofs = n_nodes * ndpn

    if method == "hymv":
        flops = n_elements * operator.emv_flops(etype)
        bytes_ = (
            n_elements * nd * nd * 8.0  # stream stored element matrices
            + n_elements * nd * 8.0 * 2  # element vectors ue, ve
            + n_elements * nd * 8.0  # E2L index loads
            + n_dofs * 8.0 * 2  # u read, v write
        )
    elif method == "matfree":
        flops = n_elements * (
            operator.emv_flops(etype) + operator.ke_flops(etype)
        )
        bytes_ = (
            n_elements * etype.n_nodes * 3 * 8.0  # nodal coordinates
            + n_elements * nd * 8.0 * 2  # ue, ve
            + n_elements * nd * 8.0  # E2L index loads
            + n_elements * nd * nd * 8.0  # Ke write/read in cache tier
            + n_dofs * 8.0 * 2
        )
    elif method == "assembled":
        nnz = estimate_nnz(etype, ndpn, n_nodes)
        flops = 2.0 * nnz
        bytes_ = (
            nnz * 8.0  # matrix values
            + nnz * 4.0  # column indices
            + nnz * 8.0  # x gather (irregular — counted per access)
            + n_dofs * 8.0 * 2  # y write, row pointers amortized
        )
    elif method == "sellcs":
        # same stored nonzeros as assembled, inflated by the modeled
        # padding; every padded slot is streamed *and* multiplied (pad
        # cols hit the pinned zero), so both flops and bytes scale by
        # 1/occupancy — the x gather runs through the contiguous
        # permuted vector, and the row permutation adds two index
        # streams plus the permuted-output pass
        occ = (
            sellcs_occupancy
            if sellcs_occupancy is not None
            else SELLCS_MODEL_OCCUPANCY
        )
        if not 0.0 < occ <= 1.0:
            raise ValueError(f"occupancy must be in (0, 1], got {occ}")
        padded = estimate_nnz(etype, ndpn, n_nodes) / occ
        flops = 2.0 * padded
        bytes_ = (
            padded * 8.0  # slice values
            + padded * 4.0  # slice column indices
            + padded * 8.0  # x gather through the padded vector
            + n_dofs * 4.0 * 2  # perm / inv index streams
            + n_dofs * 8.0 * 3  # y write + permute-out read/write
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    return MethodCounters(flops=flops, bytes_=bytes_)


#: Ratio of Advisor-observed traffic (all cache levels, every load/store
#: the core executes) to our modeled DRAM traffic, calibrated once against
#: the paper's Fig. 10 AIs for 20-node hex elasticity.  HYMV re-touches
#: element vectors and the accumulation target several times (≈3×);
#: assembled's x-gather largely hits cache (<1×); the matrix-free
#: quadrature loops are extremely load/store dense relative to their DRAM
#: footprint.
ADVISOR_TRAFFIC_FACTOR = {
    "hymv": 3.0,
    "assembled": 0.62,
    "matfree": 264.0,
    # no Advisor measurement exists for SELL-C-sigma (the method is not
    # in the paper's Fig. 10); the slice kernels stream values/columns
    # once like CSR but re-touch the gathered operand and the partial
    # accumulator through the take/multiply/add passes, so book ~2x the
    # modeled DRAM traffic at all cache levels — uncalibrated, model-only
    "sellcs": 2.0,
}


def advisor_counters(
    method: str,
    etype: ElementType,
    operator: Operator,
    n_elements: float,
    n_nodes: float,
    sellcs_occupancy: float | None = None,
) -> MethodCounters:
    """Counters under the Intel-Advisor traffic convention (Fig. 10):
    same flops, bytes scaled by the calibrated all-level traffic factor."""
    c = spmv_counters(
        method, etype, operator, n_elements, n_nodes,
        sellcs_occupancy=sellcs_occupancy,
    )
    return MethodCounters(
        flops=c.flops, bytes_=c.bytes_ * ADVISOR_TRAFFIC_FACTOR[method]
    )
