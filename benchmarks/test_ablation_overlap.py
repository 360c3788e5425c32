"""Ablation: Algorithm 2's communication/computation overlap.

DESIGN.md calls out the independent/dependent element split as a design
choice.  On the emulated tier the deterministic observable is the
*exposed communication wait* (virtual time spent blocked in
``HaloExchange.finish_scatter``): overlap lets the independent-element sweep absorb it.
The wall-clock benefit at paper scale is asserted on the model tier
(``tests/test_perfmodel.py::test_overlap_helps_or_is_neutral``).
"""

from __future__ import annotations

import pytest

from repro.harness.driver import run_bench
from repro.mesh import ElementType
from repro.problems import elastic_bar_problem, poisson_problem
from repro.simmpi import NetworkModel
from repro.util.tables import ResultTable

# a slow network makes the exposed wait visible at emulation scale
SLOW_NET = NetworkModel(
    latency_inter=1e-3, bandwidth_inter=0.5e6,
    latency_intra=1e-3, bandwidth_intra=0.5e6, cores_per_node=1,
)


@pytest.fixture(scope="module")
def table(save_tables):
    t = ResultTable(
        "Ablation: overlapped vs blocking HYMV SPMV (deterministic "
        "modeled-compute mode, slow-network model, Hex20 elasticity, "
        "10 SPMV)",
        ["ranks", "overlap", "spmv10_s", "scatter_wait_s"],
    )
    for p in (2, 4, 8):
        # three element layers per slab so each rank has an independent
        # (interior) layer to hide the exchange behind
        spec = elastic_bar_problem((4, 4, 3 * p), p, ElementType.HEX20)
        for overlap in (True, False):
            # compute_scale=0 + modeled sweep rate -> fully deterministic
            # virtual time: the only difference between the modes is
            # whether the independent sweep hides the ghost transfer
            b = run_bench(
                spec, "hymv", n_spmv=10, overlap=overlap,
                network=SLOW_NET, compute_scale=0.0,
                modeled_rate_gflops=0.05,
            )
            t.add_row(
                p, overlap, b.spmv_time,
                b.breakdown.get("spmv.scatter.wait", 0.0),
            )
    save_tables("ablation_overlap", [t])
    return t


def test_overlap_reduces_exposed_wait_and_time(table):
    rows = table.rows
    for p in (2, 4, 8):
        w_ov = next(r[3] for r in rows if r[0] == p and r[1] is True)
        w_bl = next(r[3] for r in rows if r[0] == p and r[1] is False)
        assert w_ov < w_bl
        t_ov = next(r[2] for r in rows if r[0] == p and r[1] is True)
        t_bl = next(r[2] for r in rows if r[0] == p and r[1] is False)
        assert t_ov < t_bl


def test_dependent_fraction_grows_with_parts():
    """The mechanism behind §V-D's GPU/CPU(O) degradation: more ranks ⇒
    larger dependent-element fraction."""

    from repro.core.maps import build_node_maps
    from repro.partition import build_partition

    spec_mesh = poisson_problem(10, 2).mesh
    fracs = []
    for p in (2, 4, 8):
        part = build_partition(spec_mesh, p, method="slab")
        dep = 0
        for r in range(p):
            lm = part.local(r)
            maps = build_node_maps(lm.e2g, lm.n_begin, lm.n_end)
            dep += maps.dependent.size
        fracs.append(dep / spec_mesh.n_elements)
    assert fracs[0] < fracs[1] < fracs[2]


def test_overlap_kernel(benchmark):
    spec = poisson_problem(8, 2)
    benchmark(lambda: run_bench(spec, "hymv", n_spmv=5, overlap=True).spmv_time)
