"""The one operator protocol: every kind answers the same calls, and a
kind's product hook is what every width and every schedule runs.

* the assembled-GPU kind charges its cuSPARSE and PCIe model to the
  GEMM product as to the single-RHS and oracle ones;
* ``overlap=False`` completes the ghost exchange before any local work,
  for every CPU kind ``run_bench`` builds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scatter import HaloExchange
from repro.harness.driver import run_bench
from repro.kinds import make_operator
from repro.problems import poisson_problem
from repro.simmpi import run_spmd
from repro.simmpi.communicator import Communicator

_DEVICE = {"spmv.cusparse", "spmv.halo.d2h", "spmv.halo.h2d"}


def test_assembled_gpu_charges_the_device_model_at_every_width():
    spec = poisson_problem(6, n_parts=2)

    def prog(comm, lmesh):
        A = make_operator("assembled_gpu", comm, lmesh, spec.operator)
        X = np.random.default_rng(comm.rank).standard_normal(
            (A.n_dofs_owned, 8)
        )
        out = {}
        for mode in ("oracle", "gemm"):
            comm.obs.reset()
            t0 = comm.vtime
            Y = A.apply_owned_multi(X, mode=mode)
            out[mode] = (comm.vtime - t0, set(comm.obs.phases), Y)
        # one k = 8 CSR kernel on the device: the matrix streams once
        gpu = A.gpu
        out["kernel_s"] = A.stored_bytes() / (gpu.csr_gbps * 1e9) + (
            gpu.kernel_launch_s
        )
        return out

    res, _ = run_spmd(
        2, prog, rank_args=[(spec.partition.local(r),) for r in range(2)],
        compute_scale=0.0,
    )
    for r in res:
        (t_o, ph_o, Y_o), (t_g, ph_g, Y_g) = r["oracle"], r["gemm"]
        for phases in (ph_o, ph_g):
            assert _DEVICE <= phases
            assert not any(p.startswith("spmv.csr.") for p in phases)
        assert t_g >= r["kernel_s"]
        assert t_g < t_o  # one packed exchange and one kernel, not eight
        np.testing.assert_allclose(Y_g, Y_o, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "kind", ["hymv", "matfree", "partial", "assembled", "sellcs"]
)
def test_blocking_spmv_completes_the_ghost_exchange_first(kind, monkeypatch):
    """Rank 0's order of local SPMV work and ghost arrival: overlapped,
    some local work runs before the exchange finishes (Algorithm 2);
    blocking, none does."""
    log: list[str] = []
    compute, finish = Communicator.compute, HaloExchange.finish_scatter

    def spy_compute(self, label="compute"):
        if self.rank == 0 and label.startswith("spmv."):
            log.append(label)
        return compute(self, label)

    def spy_finish(self, comm, data, reqs):
        if comm.rank == 0:
            log.append("ghosts")
        return finish(self, comm, data, reqs)

    monkeypatch.setattr(Communicator, "compute", spy_compute)
    monkeypatch.setattr(HaloExchange, "finish_scatter", spy_finish)
    spec = poisson_problem(6, n_parts=2)
    for overlap in (True, False):
        log.clear()
        run_bench(spec, kind, n_spmv=1, overlap=overlap, compute_scale=0.0)
        assert "ghosts" in log and len(log) > 1
        early = log[: log.index("ghosts")]
        assert bool(early) == overlap, (overlap, log)
