"""Fig. 10 reproduction: roofline placement of the three SPMV methods."""

from __future__ import annotations

import pytest

from repro.fem.operators import ElasticityOperator
from repro.harness.fig10 import run as run_fig10
from repro.mesh.element import ElementType
from repro.perfmodel.counters import advisor_counters
from repro.perfmodel.roofline import PAPER_ROOFLINE


@pytest.fixture(scope="module")
def tables():
    return run_fig10("small")


def test_fig10_reproduction_values(tables, save_tables):
    save_tables("fig10", tables)
    table, _, _ = tables
    rows = {r[0]: r for r in table.rows}
    for method, (ai_p, gf_p) in PAPER_ROOFLINE.items():
        _, ai_m, ai_paper, gf_m, gf_paper, gf_host, _ = rows[method]
        assert ai_paper == ai_p and gf_paper == gf_p
        # model matches the paper within 10% / 5%
        assert abs(ai_m / ai_p - 1) < 0.10
        assert abs(gf_m / gf_p - 1) < 0.05
        assert gf_host > 0
    # the orderings the paper highlights
    assert rows["assembled"][1] > rows["hymv"][1]  # AI
    assert rows["matfree"][3] > rows["hymv"][3] > rows["assembled"][3]
    # host-measured ordering: matfree achieves the highest NumPy rate too
    assert rows["matfree"][5] > rows["assembled"][5]


def test_fig10_counter_kernel(benchmark):
    op = ElasticityOperator()
    benchmark(
        lambda: advisor_counters(
            "hymv", ElementType.HEX20, op, 1.0e5, 4.0e5
        ).arithmetic_intensity
    )
