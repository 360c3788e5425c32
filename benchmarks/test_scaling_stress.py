"""Emulated weak scaling at higher rank counts (stress of the runtime).

Pushes the thread-per-rank simulator to 32 ranks with the real HYMV and
assembled pipelines, verifying the key weak-scaling shapes hold in the
emulation itself (not just the model): HYMV setup stays flat while the
assembled setup's communication share grows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.driver import run_bench
from repro.problems import poisson_problem
from repro.util.tables import ResultTable

pytestmark = pytest.mark.slow

P_LIST = [4, 8, 16, 32]

#: runs per table cell; each cell is the minimum over them, as the smoke
#: bench takes it.  A cell is about 1 ms of measured compute on up to 32
#: rank threads, and a single hiccup on any one of them (up to ~27 ms on
#: a shared 2-vCPU host) moves a lone run's max over ranks tenfold.
REPEATS = 3


@pytest.fixture(scope="module")
def table(save_tables):
    t = ResultTable(
        "Emulated runtime stress (Poisson Hex8, z-slabs, up to 32 ranks)",
        ["ranks", "dofs", "method", "setup_s", "spmv10_s", "setup_comm_s"],
    )
    for p in P_LIST:
        spec = poisson_problem(
            (7, 7, max(2 * p // 7 + 1, 2)), p, part_method="slab"
        )
        for method in ("hymv", "assembled"):
            runs = [run_bench(spec, method, n_spmv=10) for _ in range(REPEATS)]
            comm = min(
                b.breakdown.get("setup.comm", 0.0)
                + b.breakdown.get("setup.comm_maps", 0.0)
                for b in runs
            )
            t.add_row(
                p, spec.n_dofs, method, min(b.setup_time for b in runs),
                min(b.spmv_time for b in runs), comm,
            )
    save_tables("scaling_stress", [t])
    return t


def test_hymv_setup_flat_in_emulation(table):
    m = np.array(table.column("method"))
    setup = np.array(table.column("setup_s"))
    h = setup[m == "hymv"]
    # flat within measurement noise on a shared host
    assert h.max() / np.median(h) < 4.0


def test_spmv_completes_at_32_ranks(table):
    m = np.array(table.column("method"))
    spmv = np.array(table.column("spmv10_s"))
    assert (spmv > 0).all()
    assert m.size == 2 * len(P_LIST)


def test_32_rank_collectives(benchmark):
    """allreduce across 32 rank threads (runtime overhead benchmark)."""
    from repro.simmpi import run_spmd

    def prog(comm):
        total = 0.0
        for _ in range(5):
            total = comm.allreduce(float(comm.rank))
        return total

    def run():
        res, _ = run_spmd(32, prog)
        assert res[0] == sum(range(32))

    benchmark.pedantic(run, rounds=3, iterations=1)
