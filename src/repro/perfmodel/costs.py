"""Per-phase time estimates for each SPMV method on the modeled machine.

The estimates combine the calibrated core rates
(:mod:`repro.perfmodel.machine`) with a surface/volume geometry model of
one *process's* partition (for hybrid MPI+OpenMP runs the partition is
``threads`` times larger and the compute rates scale by
``threads * omp_efficiency``).  They are used to extrapolate the emulated
runs to the paper's core counts; the *shapes* (who wins, crossovers) are
the target, not absolute times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.fem.operators import Operator
from repro.mesh.element import ElementType
from repro.perfmodel.counters import (
    SELLCS_MODEL_OCCUPANCY,
    estimate_nnz,
    spmv_counters,
)
from repro.perfmodel.machine import FRONTERA, GPU_NODE, FronteraMachine, GpuModel

__all__ = [
    "CaseGeometry",
    "method_setup_time",
    "method_spmv_time",
    "gpu_setup_time",
    "gpu_spmv_time",
    "assembled_gpu_setup_time",
    "assembled_gpu_spmv_time",
    "sellcs_gpu_spmv_time",
]

# asymptotic nodes per element for each type (structured grids)
_NODES_PER_ELEM = {
    ElementType.HEX8: 1.0,
    ElementType.HEX20: 4.0,
    ElementType.HEX27: 8.0,
    ElementType.TET4: 1.0 / 6.0,
    ElementType.TET10: 4.0 / 3.0,
}

# surface nodes per boundary element face (one ghost layer)
_SURF_NODES_PER_FACE = {
    ElementType.HEX8: 1.0,
    ElementType.HEX20: 3.0,
    ElementType.HEX27: 4.0,
    ElementType.TET4: 0.5,
    ElementType.TET10: 2.0,
}


@dataclass(frozen=True)
class CaseGeometry:
    """Geometry of one process's partition for the cost model."""

    etype: ElementType
    ndpn: int
    n_elements: float  # local elements (per process)
    n_nodes: float  # local owned nodes (per process)
    ghost_nodes: float
    boundary_elements: float  # dependent elements
    n_neighbors: float
    n_ranks: int
    structured: bool = True

    @classmethod
    def from_granularity(
        cls,
        etype: ElementType,
        operator: Operator,
        dofs_per_process: float,
        n_ranks: int,
        structured: bool = True,
    ) -> "CaseGeometry":
        """Derive per-process geometry from the weak-scaling granularity."""
        ndpn = operator.ndpn
        nodes = dofs_per_process / ndpn
        npe = _NODES_PER_ELEM[etype]
        elements = nodes / npe
        # side length of the process's element cube
        hexes = elements / (6.0 if etype.is_tet else 1.0)
        m = max(hexes, 1.0) ** (1.0 / 3.0)
        faces = 3.0 * m * m  # ghosted faces (lowest-rank ownership ≈ half)
        surf_scale = 1.0 if structured else 1.8
        ghost = faces * _SURF_NODES_PER_FACE[etype] * surf_scale
        boundary_elems = min(
            elements, 6.0 * m * m * (6.0 if etype.is_tet else 1.0) * surf_scale
        )
        neighbors = (6.0 if structured else 12.0) if n_ranks > 2 else 1.0
        neighbors = min(neighbors, max(n_ranks - 1, 0))
        if n_ranks == 1:
            ghost = 0.0
            boundary_elems = 0.0
        return cls(
            etype=etype,
            ndpn=ndpn,
            n_elements=elements,
            n_nodes=nodes,
            ghost_nodes=min(ghost, nodes),
            boundary_elements=boundary_elems,
            n_neighbors=neighbors,
            n_ranks=n_ranks,
            structured=structured,
        )


def _eff(threads: int, machine: FronteraMachine) -> float:
    """Effective core multiplier of one process with OpenMP threads."""
    return threads * machine.rates.omp_efficiency if threads > 1 else 1.0


def _exchange_time(geo: CaseGeometry, machine: FronteraMachine) -> float:
    """One ghost scatter (or gather): messages to each neighbor."""
    if geo.n_ranks <= 1:
        return 0.0
    net = machine.network
    ghost_bytes = geo.ghost_nodes * geo.ndpn * 8.0
    return geo.n_neighbors * net.latency_inter + ghost_bytes / net.bandwidth_inter


def method_setup_time(
    method: str,
    geo: CaseGeometry,
    operator: Operator,
    machine: FronteraMachine = FRONTERA,
    threads: int = 1,
) -> dict[str, float]:
    """Setup-phase breakdown (seconds) for one method.

    Returns a dict with at least ``total``; HYMV/assembled include
    ``emat_compute`` and ``overhead`` (local copy resp. global assembly),
    mirroring the bar splits of Figs. 5 and 7.
    """
    r = machine.rates
    eff = _eff(threads, machine)
    E = geo.n_elements
    nd = operator.element_dofs(geo.etype)
    emat_rate = r.emat_setup_gflops(geo.etype)
    t_emat = E * operator.ke_flops(geo.etype) / (emat_rate * 1e9 * eff)

    if method == "matfree":
        return {"emat_compute": 0.0, "overhead": 0.0, "total": 0.0}

    if method == "hymv":
        ke_bytes = E * nd * nd * 8.0
        t_copy = ke_bytes / (r.copy_gbps * 1e9 * eff)
        t_maps = geo.ghost_nodes * geo.ndpn * 8.0 / (
            r.rhs_gather_gbps * 1e9
        ) + _exchange_time(geo, machine)
        return {
            "emat_compute": t_emat,
            "overhead": t_copy + t_maps,
            "total": t_emat + t_copy + t_maps,
        }

    if method == "assembled":
        nnz = estimate_nnz(geo.etype, geo.ndpn, geo.n_nodes)
        insert = r.insert_s_per_nnz
        if not geo.structured:
            insert *= r.unstructured_insert_factor
        t_base = r.assembly_base_s * nnz / (nnz + r.assembly_base_nnz)
        t_insert = (nnz * insert + t_base) / eff
        # off-rank row triplets of boundary elements (24 B per entry)
        trip_bytes = geo.boundary_elements * nd * nd * 24.0 * 0.5
        net = machine.network
        t_comm = (
            geo.n_neighbors * net.latency_inter
            + trip_bytes / net.bandwidth_inter
            + trip_bytes / 24.0 * insert  # merge received triplets
        )
        if geo.n_ranks > 1:
            # MatAssembly flush/synchronization rounds (stragglers at scale)
            t_comm += math.log2(geo.n_ranks) * r.assembly_sync_s
        return {
            "emat_compute": t_emat,
            "overhead": t_insert + t_comm,
            "total": t_emat + t_insert + t_comm,
        }
    raise ValueError(f"unknown method {method!r}")


def method_spmv_time(
    method: str,
    geo: CaseGeometry,
    operator: Operator,
    machine: FronteraMachine = FRONTERA,
    threads: int = 1,
    overlap: bool = True,
    n_spmv: int = 1,
) -> float:
    """Time of ``n_spmv`` products for one method (seconds)."""
    r = machine.rates
    eff = _eff(threads, machine)
    c = spmv_counters(method, geo.etype, operator, geo.n_elements, geo.n_nodes)
    if method == "hymv":
        rate = r.emv_gflops
        if threads > 1:
            eff *= r.hybrid_emv_bonus
    elif method == "matfree":
        rate = r.emat_gflops
    else:
        rate = r.csr_gflops
        dofs = geo.n_nodes * geo.ndpn
        rate *= dofs / (dofs + r.csr_overhead_dofs)
    if not geo.structured and method == "assembled":
        # irregular sparsity and partition boundaries degrade CSR SPMV
        # (paper's own observation for Fig. 7; factor calibrated to the
        # reported 3.6x average HYMV advantage)
        rate *= 0.25
    t_local = c.flops / (rate * 1e9 * eff)
    t_comm = _exchange_time(geo, machine)
    interior_frac = 1.0 - min(
        geo.boundary_elements / max(geo.n_elements, 1.0), 1.0
    )

    if method == "assembled":
        # halo exchange overlapped with the diagonal-block product; no gather
        hidden = t_local * interior_frac
        t = t_local + max(0.0, t_comm - hidden)
    else:
        if overlap:
            hidden = t_local * interior_frac
            t = t_local + max(0.0, t_comm - hidden) + t_comm  # + gather
        else:
            t = t_local + 2.0 * t_comm
    return t * n_spmv


# ----------------------------------------------------------------------------
# GPU variants (Algorithm 3)
# ----------------------------------------------------------------------------

def gpu_setup_time(
    geo: CaseGeometry,
    operator: Operator,
    machine: FronteraMachine = FRONTERA,
    gpu: GpuModel = GPU_NODE,
    threads: int = 1,
) -> dict[str, float]:
    """HYMV-GPU setup: CPU-side HYMV setup + element-matrix H2D transfer
    (the reason GPU setup is slightly above CPU setup in Fig. 8)."""
    base = method_setup_time("hymv", geo, operator, machine, threads)
    nd = operator.element_dofs(geo.etype)
    ke_bytes = geo.n_elements * nd * nd * 8.0
    t_h2d = ke_bytes / (gpu.setup_h2d_gbps * 1e9)
    return {
        "emat_compute": base["emat_compute"],
        "overhead": base["overhead"] + t_h2d,
        "total": base["total"] + t_h2d,
    }


def gpu_spmv_time(
    geo: CaseGeometry,
    operator: Operator,
    machine: FronteraMachine = FRONTERA,
    gpu: GpuModel = GPU_NODE,
    threads: int = 1,
    n_streams: int = 8,
    scheme: str = "gpu",
    n_spmv: int = 1,
) -> float:
    """HYMV-GPU SPMV (Algorithm 3) with the stream pipeline.

    ``scheme``: ``"gpu"`` (blocking comm, all elements on device),
    ``"gpu_cpu_overlap"`` (dependent elements on host, overlapped),
    ``"gpu_gpu_overlap"`` (all on device, comm overlapped with the
    independent-element kernel).
    """
    r = machine.rates
    eff = _eff(threads, machine)
    E = geo.n_elements
    nd = operator.element_dofs(geo.etype)
    flops = E * operator.emv_flops(geo.etype)
    ke_bytes = E * nd * nd * 8.0
    vec_bytes = E * nd * 8.0

    # host side: build bue / accumulate bve (OpenMP parallel, Alg. 3)
    t_host = 2.0 * vec_bytes / (r.rhs_gather_gbps * 1e9 * eff)
    # device kernel: stream stored matrices through GDDR6
    t_kernel = max(ke_bytes / (gpu.mem_gbps * 1e9), flops / (gpu.fp64_gflops * 1e9))
    t_kernel += n_streams * gpu.kernel_launch_s
    # PCIe transfers (H2D of bue, D2H of bve on separate copy engines)
    t_h2d = vec_bytes / (gpu.pcie_gbps * 1e9)
    t_d2h = vec_bytes / (gpu.pcie_gbps * 1e9)
    # stream pipeline: stages overlap, pipeline fill/drain ~ 1/n_streams
    stages = [t_h2d, t_kernel, t_d2h]
    t_pipe = max(stages) + (sum(stages) - max(stages)) / max(n_streams, 1)

    t_comm = _exchange_time(geo, machine)
    dep_frac = min(geo.boundary_elements / max(geo.n_elements, 1.0), 1.0)

    if scheme == "gpu":
        t = t_comm + t_host + t_pipe + t_comm
    elif scheme == "gpu_gpu_overlap":
        hidden = t_pipe * (1.0 - dep_frac)
        t = t_host + t_pipe + max(0.0, t_comm - hidden) + t_comm
    elif scheme == "gpu_cpu_overlap":
        # dependent elements on host CPU while transfers/kernel run
        t_dep_host = dep_frac * flops / (r.emv_gflops * 1e9 * eff)
        t_indep_pipe = t_pipe * (1.0 - dep_frac)
        t = t_host + max(t_indep_pipe, t_comm + t_dep_host) + t_comm
    else:
        raise ValueError(f"unknown GPU scheme {scheme!r}")
    return t * n_spmv


def sellcs_gpu_spmv_time(
    geo: CaseGeometry,
    operator: Operator,
    machine: FronteraMachine = FRONTERA,
    gpu: GpuModel = GPU_NODE,
    n_streams: int = 8,
    C: int = 32,
    occupancy: float | None = None,
    n_spmv: int = 1,
) -> float:
    """SELL-C-sigma SPMV on the GPU: occupancy-scaled streamed-chunk model.

    The SELL layout is the GPU-native unified format (Kreutzer et al.,
    arXiv:1112.5588): chunks of ``C`` rows are processed by one warp
    each, streaming the padded value/column slices at GDDR rate.  The
    model books:

    * padded traffic and flops — the real nonzeros inflated by
      ``1/occupancy`` (every padded slot is streamed and multiplied
      against the pinned zero), plus the permuted x gather and the
      permute-out pass;
    * a warp-efficiency factor ``min(1, C/32)``: chunks narrower than a
      warp leave lanes idle, so the effective streaming rate scales by
      ``C/32`` below the warp width (wider chunks fill the warp; going
      past 32 adds nothing because chunks map to whole warps);
    * the stream pipeline of Algorithm 3 — the vectors cross PCIe in
      one chunk per stream while the kernel streams the resident
      slices, with per-chunk launch overhead — via
      the same fill/drain approximation as :func:`gpu_spmv_time`;
    * a host-staged halo exchange per product (the layout lives on
      device; ghost values stage D2H/H2D like the cuSPARSE path).

    ``occupancy`` defaults to the calibrated model value
    (:data:`~repro.perfmodel.counters.SELLCS_MODEL_OCCUPANCY`); pass the
    measured ``sellcs.occupancy`` gauge of the actual ``(C, sigma)``
    layout to model that layout.
    """
    if n_streams < 1:
        raise ValueError(f"need at least one stream, got {n_streams}")
    if C < 1:
        raise ValueError(f"chunk height C must be >= 1, got {C}")
    occ = occupancy if occupancy is not None else SELLCS_MODEL_OCCUPANCY
    if not 0.0 < occ <= 1.0:
        raise ValueError(f"occupancy must be in (0, 1], got {occ}")

    n_dofs = geo.n_nodes * geo.ndpn
    padded = estimate_nnz(geo.etype, geo.ndpn, geo.n_nodes) / occ
    flops = 2.0 * padded
    # slice values + int32 columns, the x gather through the padded
    # vector, perm/inv index streams and the permute-out pass
    kernel_bytes = (
        padded * (8.0 + 4.0 + 8.0) + n_dofs * 4.0 * 2 + n_dofs * 8.0 * 3
    )
    warp_eff = min(1.0, C / 32.0)
    t_kernel = max(
        kernel_bytes / (gpu.mem_gbps * 1e9 * warp_eff),
        flops / (gpu.fp64_gflops * 1e9 * warp_eff),
    )
    t_kernel += n_streams * gpu.kernel_launch_s
    vec_bytes = n_dofs * 8.0
    t_h2d = vec_bytes / (gpu.pcie_gbps * 1e9)
    t_d2h = vec_bytes / (gpu.pcie_gbps * 1e9)
    stages = [t_h2d, t_kernel, t_d2h]
    t_pipe = max(stages) + (sum(stages) - max(stages)) / max(n_streams, 1)

    ghost_bytes = geo.ghost_nodes * geo.ndpn * 8.0
    t_halo = (
        _exchange_time(geo, machine)
        + 2.0 * ghost_bytes / (gpu.pcie_gbps * 1e9)  # D2H + H2D staging
    )
    return (t_pipe + t_halo) * n_spmv


def assembled_gpu_setup_time(
    geo: CaseGeometry,
    operator: Operator,
    machine: FronteraMachine = FRONTERA,
    gpu: GpuModel = GPU_NODE,
) -> float:
    """PETSc-GPU (cuSPARSE) setup: CPU assembly + CSR H2D transfer +
    cuSPARSE analysis pass."""
    base = method_setup_time("assembled", geo, operator, machine)["total"]
    nnz = estimate_nnz(geo.etype, geo.ndpn, geo.n_nodes)
    csr_bytes = nnz * 12.0
    t_h2d = csr_bytes / (gpu.setup_h2d_gbps * 1e9)
    t_analysis = nnz * 2.0e-9  # cuSPARSE csrmv analysis
    return base + t_h2d + t_analysis


def assembled_gpu_spmv_time(
    geo: CaseGeometry,
    operator: Operator,
    machine: FronteraMachine = FRONTERA,
    gpu: GpuModel = GPU_NODE,
    n_spmv: int = 1,
) -> float:
    """PETSc-GPU SPMV: cuSPARSE CSR kernel + host-staged halo exchange."""
    nnz = estimate_nnz(geo.etype, geo.ndpn, geo.n_nodes)
    csr_bytes = nnz * 12.0 + geo.n_nodes * geo.ndpn * 8.0 * 2
    t_kernel = csr_bytes / (gpu.csr_gbps * 1e9) + gpu.kernel_launch_s
    ghost_bytes = geo.ghost_nodes * geo.ndpn * 8.0
    t_halo = (
        _exchange_time(geo, machine)
        + 2.0 * ghost_bytes / (gpu.pcie_gbps * 1e9)  # D2H + H2D staging
    )
    return (t_kernel + t_halo) * n_spmv
