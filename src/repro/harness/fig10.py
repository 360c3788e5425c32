"""Fig. 10: roofline placement of the SPMV methods (single core,
20-node hex elasticity).

Reports the paper's Advisor measurements, the calibrated model placement,
and the rates *measured on this host* by a single-rank emulated run of
each method (documenting how far a NumPy substrate sits from the paper's
AVX-512 C++ kernels).  The SELL-C-sigma backend rides along as a fourth
column; the paper has no Advisor point for it, so its paper cells render
as em-dashes and its model placement sits on the attainable ceiling.
"""

from __future__ import annotations


from repro.fem.operators import ElasticityOperator
from repro.harness.driver import run_bench
from repro.mesh.element import ElementType
from repro.perfmodel.costs import (
    CaseGeometry,
    assembled_gpu_spmv_time,
    gpu_spmv_time,
    sellcs_gpu_spmv_time,
)
from repro.perfmodel.roofline import PAPER_ROOFLINE, render_ascii, roofline_points
from repro.problems import elastic_bar_problem
from repro.util.tables import ResultTable

__all__ = ["run"]


def run(scale: str = "small") -> list[ResultTable]:
    op = ElasticityOperator()
    nel = 4 if scale == "small" else 6

    # measured single-rank rates on this host
    spec = elastic_bar_problem(nel, 1, ElementType.HEX20)
    measured = {}
    for method in ("hymv", "assembled", "matfree", "sellcs"):
        b = run_bench(spec, method, n_spmv=5)
        measured[method] = b.gflops_rate

    n_nodes = spec.mesh.n_nodes
    n_elem = spec.mesh.n_elements
    pts = roofline_points(ElementType.HEX20, op, n_elem, n_nodes)

    table = ResultTable(
        "Fig 10: roofline — AI (FLOP/byte) and GFLOP/s per method, "
        "single core",
        ["method", "AI_model", "AI_paper", "GFLOPs_model", "GFLOPs_paper",
         "GFLOPs_measured_host", "bound"],
    )
    for p in pts:
        ai_p, gf_p = PAPER_ROOFLINE.get(p.method, ("—", "—"))
        table.add_row(
            p.method, p.arithmetic_intensity, ai_p, p.gflops, gf_p,
            measured[p.method], p.bound,
        )
    table.add_note(
        "paper orderings: assembled has the highest AI but lowest rate; "
        "matrix-free the highest rate (and by far the most work); HYMV "
        "in between with the lowest time-to-solution"
    )
    table.add_note(
        "host-measured rates are NumPy-substrate rates, reported for "
        "transparency; the model column is calibrated to the paper"
    )

    art = ResultTable("Fig 10: ASCII roofline (DRAM ceiling dotted)", ["plot"])
    for line in render_ascii(pts).splitlines():
        art.add_row(line)

    # modeled GPU SPMV per method (Algorithm 3 companion): the streamed
    # HYMV pipeline, the cuSPARSE CSR baseline and the SELL-C-sigma
    # streamed-chunk branch — one representative
    # granularity, the paper's Fig. 8 setting
    geo = CaseGeometry.from_granularity(
        ElementType.HEX20, op, dofs_per_process=1.0e6, n_ranks=2
    )
    gpu_rows = (
        ("hymv_gpu", gpu_spmv_time(geo, op, n_streams=8)),
        ("assembled_gpu", assembled_gpu_spmv_time(geo, op)),
        ("sellcs_gpu", sellcs_gpu_spmv_time(geo, op, n_streams=8)),
        ("sellcs_gpu_C8", sellcs_gpu_spmv_time(geo, op, n_streams=8, C=8)),
    )
    gpu_table = ResultTable(
        "Modeled GPU SPMV per method (1M dofs/process, 2 ranks, Ns=8)",
        ["method", "t_spmv_ms"],
    )
    for name, t in gpu_rows:
        gpu_table.add_row(name, t * 1e3)
    gpu_table.add_note(
        "sellcs_gpu streams padded slices at warp efficiency min(1, C/32): "
        "C=8 chunks leave 3/4 of each warp idle, the cost a narrower "
        "(C, sigma) layout trades against padding"
    )
    return [table, art, gpu_table]
