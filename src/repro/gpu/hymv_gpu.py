"""GPU operators: HYMV-GPU (Algorithm 3) and the PETSc-GPU substitute.

Numerics run in NumPy (identical results to the CPU operators — covered
by the same equality tests); virtual time advances by *modeled* device
durations from the calibrated GPU model, so the emulated GPU experiments
are consistent with the Frontera-scale model tier.

Overlap schemes (paper §V-D):

* ``"gpu"`` — blocking MPI, all elements batched on the device.
* ``"gpu_cpu_overlap"`` — nonblocking MPI overlapped with the device
  pipeline of independent elements; dependent elements on the host CPU.
* ``"gpu_gpu_overlap"`` — nonblocking MPI overlapped with the device
  pipeline; dependent elements in a second device batch.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.assembled import AssembledOperator
from repro.core.hymv import HymvOperator
from repro.gpu.streams import StreamScheduler
from repro.perfmodel.machine import FRONTERA, GPU_NODE, FronteraMachine, GpuModel

__all__ = ["HymvGpuOperator", "AssembledGpuOperator"]


class HymvGpuOperator(HymvOperator):
    """Algorithm 3: batched EMV on the (simulated) device.

    Extra setup cost: the one-time element-matrix H2D transfer.  Per
    SPMV: host-side ``bue`` assembly, the chunked stream pipeline
    (H2D of ``bue``, batched kernel, D2H of ``bve``), host-side ``bve``
    accumulation, and the ghost exchange per the selected scheme.
    """

    def __init__(
        self,
        comm,
        lmesh,
        operator,
        ranges=None,
        kernel: str = "einsum",
        n_streams: int = 8,
        scheme: str = "gpu_gpu_overlap",
        gpu: GpuModel = GPU_NODE,
        machine: FronteraMachine = FRONTERA,
        threads: int = 4,
        ke_cache: dict | None = None,
        elem_scale: np.ndarray | None = None,
    ):
        super().__init__(
            comm, lmesh, operator, ranges=ranges, kernel=kernel,
            ke_cache=ke_cache, elem_scale=elem_scale,
        )
        if scheme not in ("gpu", "gpu_cpu_overlap", "gpu_gpu_overlap"):
            raise ValueError(f"unknown GPU scheme {scheme!r}")
        self.n_streams = n_streams
        self.scheme = scheme
        self.gpu = gpu
        self.machine = machine
        self.threads = threads
        self.last_timeline: StreamScheduler | None = None
        # one-time element-matrix transfer to the device
        t_h2d = self.ke.nbytes / (gpu.setup_h2d_gbps * 1e9)
        comm.advance(t_h2d, "setup.ke_h2d")

    def _refresh_elements(self, pos, moved, old_scale) -> None:
        """Host refresh plus the H2D transfer of only the touched
        element matrices — the device-side adaptive update stays
        proportional to the touched subset, like the host one."""
        super()._refresh_elements(pos, moved, old_scale)
        nd = self.e2l_dofs.shape[1]
        touched_bytes = pos.size * nd * nd * 8.0
        self.comm.advance(
            touched_bytes / (self.gpu.setup_h2d_gbps * 1e9), "update.ke_h2d"
        )

    # -- device-side sweep -------------------------------------------------

    def _host_rate(self) -> float:
        r = self.machine.rates
        eff = self.threads * r.omp_efficiency if self.threads > 1 else 1.0
        return r.rhs_gather_gbps * 1e9 * eff

    def _device_time(self, E: int, k: int, kernel_bytes: float) -> float:
        """Modeled duration of one device batch of ``E`` elements over
        ``k`` columns: the chunked stream pipeline (H2D of ``bue``, the
        batched kernel streaming ``kernel_bytes`` of element matrices,
        D2H of ``bve``) plus the host staging of both vector batches."""
        nd = self.e2l_dofs.shape[1]
        vec_bytes = E * nd * 8.0 * k
        flops = 2.0 * E * nd * nd * k
        sched = StreamScheduler(gpu=self.gpu, n_streams=self.n_streams)
        t_pipe = sched.run_batch(
            h2d_bytes=vec_bytes,
            kernel_flops=flops,
            kernel_bytes=kernel_bytes,
            d2h_bytes=vec_bytes,
        )
        self.last_timeline = sched
        obs = self.comm.obs
        obs.incr("gpu.h2d_bytes", vec_bytes)
        obs.incr("gpu.d2h_bytes", vec_bytes)
        obs.incr("gpu.kernel_flops", flops)
        obs.incr("gpu.batches")
        sched.export_events(obs, t_offset=self.comm.vtime)
        return 2.0 * vec_bytes / self._host_rate() + t_pipe

    def _device_sweep(
        self, uf: np.ndarray, vf: np.ndarray, sl: slice, zeroed: bool
    ) -> float:
        """Run one batched EMV on the device; returns modeled duration.
        The numerics are the shared host sweep (device-equivalent): host
        ``bue`` gather (Alg. 3 line 3), kernel, host ``bve`` accumulation
        (line 8)."""
        E = self._gather_emv_add(uf, vf, sl, zeroed)
        nd = self.e2l_dofs.shape[1]
        return self._device_time(E, 1, E * nd * nd * 8)

    def _product(self, un, vn, uf, vf, k, overlap, gemm) -> None:
        """One vector: Algorithm 3 under the configured scheme, or the
        blocking ``"gpu"`` scheme when ``overlap`` is false.

        A multivector: the host numerics of every element kind (the
        resolved oracle is bitwise identical per column to single-RHS,
        the resolved gemm matches to rounding), then one modeled device
        batch.  That is where batching pays: the pipeline streams the
        element-matrix batch from device memory **once** for all ``k``
        columns (``Ke`` bytes amortized k-fold — the MAGMA-style
        batched-kernel headroom the paper's related work points at),
        while H2D/D2H vector traffic and kernel flops scale with ``k``;
        the modeled durations are mode-independent."""
        comm = self.comm
        if uf.ndim == 2:
            super()._product(un, vn, uf, vf, k, overlap, gemm)
            if self.n_local_elements:
                comm.advance(
                    self._device_time(self.n_local_elements, k, self.ke.nbytes),
                    "spmv.gpu.multivector",
                )
            return
        scheme = self.scheme if overlap else "gpu"

        def run(
            part: str, sl: slice, uf: np.ndarray, vf: np.ndarray, zeroed: bool
        ) -> None:
            if part == "all":
                comm.advance(self._device_sweep(uf, vf, sl, zeroed), "spmv.gpu")
            elif part == "dependent" and scheme == "gpu_cpu_overlap":
                # dependent elements on the host CPU
                comm.advance(
                    self._cpu_sweep(uf, vf, sl, zeroed), "spmv.cpu.dependent"
                )
            else:
                comm.advance(
                    self._device_sweep(uf, vf, sl, zeroed), "spmv.gpu." + part
                )

        self._algorithm2(un, vn, uf, vf, 1, scheme != "gpu", run)

    def _cpu_sweep(
        self, uf: np.ndarray, vf: np.ndarray, sl: slice, zeroed: bool
    ) -> float:
        """Host EMV of a subset; returns modeled CPU duration."""
        E = self._gather_emv_add(uf, vf, sl, zeroed)
        r = self.machine.rates
        eff = self.threads * r.omp_efficiency if self.threads > 1 else 1.0
        flops = 2.0 * E * self.e2l_dofs.shape[1] ** 2
        return flops / (r.emv_gflops * 1e9 * eff)


class AssembledGpuOperator(AssembledOperator):
    """PETSc-GPU substitute: CSR SPMV timed by the cuSPARSE model.

    Setup adds the CSR H2D transfer and analysis pass; each SPMV pays the
    device kernel (bandwidth model) plus host-staged halo movement over
    PCIe around the MPI exchange.
    """

    def __init__(
        self,
        comm,
        lmesh,
        operator,
        ranges=None,
        gpu: GpuModel = GPU_NODE,
        elem_scale=None,
    ):
        super().__init__(
            comm, lmesh, operator, ranges=ranges, elem_scale=elem_scale
        )
        self.gpu = gpu
        csr_bytes = self.stored_bytes()
        comm.advance(
            csr_bytes / (gpu.setup_h2d_gbps * 1e9) + self.nnz * 2.0e-9,
            "setup.csr_h2d",
        )

    def update_elements(self, local_elems, coords=None, stiffness_scale=None):
        """The host's fixed-pattern patch plus a re-upload of the whole
        CSR: the device copy is rebuilt outright."""
        super().update_elements(
            local_elems, coords=coords, stiffness_scale=stiffness_scale
        )
        csr_bytes = self.stored_bytes()
        self.comm.advance(
            csr_bytes / (self.gpu.setup_h2d_gbps * 1e9) + self.nnz * 2.0e-9,
            "update.csr_h2d",
        )

    def _apply(self, un, D, k, overlap):
        """The cuSPARSE product over ``k`` columns: the halo is staged
        through the host (D2H of owned boundary values, MPI exchange,
        H2D of received ghosts) before the device kernel, so ``overlap``
        changes nothing; the CSR streams once for all ``k`` columns."""
        comm, gpu = self.comm, self.gpu
        t0 = comm.vtime
        ghost_bytes = sum(s.size for s in self.cmaps.recv_slots) * self.ndpn * 8.0 * k
        comm.advance(ghost_bytes / (gpu.pcie_gbps * 1e9), "spmv.halo.d2h")
        (self._halos.get(k) or self._halo_for(k)).scatter(comm, un)
        comm.advance(ghost_bytes / (gpu.pcie_gbps * 1e9), "spmv.halo.h2d")
        own = self._own
        y = self._block_product(0, D[own])
        if self.A_pre.shape[1]:
            y += self._block_product(1, D[: own.start])
        if self.A_post.shape[1]:
            y += self._block_product(2, D[own.stop:])
        csr_bytes = self.stored_bytes() + y.nbytes * 2
        comm.advance(
            csr_bytes / (gpu.csr_gbps * 1e9) + gpu.kernel_launch_s,
            "spmv.cusparse",
        )
        comm.obs.add("spmv.total", comm.vtime - t0)
        self.spmv_count += k
        return y
