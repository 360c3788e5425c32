"""Fig. 11 reproduction: total solve time with preconditioning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.harness.driver import run_solve
from repro.harness.fig11 import run as run_fig11
from repro.mesh import ElementType
from repro.problems import elastic_bar_problem

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def tables():
    return run_fig11("small")


def _by_method(table):
    out = {}
    for row in table.rows:
        out.setdefault(row[2], []).append(row)
    return out


def _column(rows, table, name):
    j = list(table.columns).index(name)
    return np.array([r[j] for r in rows])


def test_fig11a_jacobi_vs_none(tables, save_tables):
    save_tables("fig11", tables)
    a = _by_method(tables[0])
    # identical iteration counts between HYMV and assembled with Jacobi;
    # unpreconditioned CG on the ill-conditioned jittered system is
    # sensitive to the summation order (HYMV/matfree accumulate per
    # element, CSR per row), so only a loose band holds there
    it_h = [r[3] for r in a["hymv/jacobi"]]
    it_a = [r[3] for r in a["assembled/jacobi"]]
    assert all(abs(x - y) <= 2 for x, y in zip(it_h, it_a))
    it_h = np.array([r[3] for r in a["hymv/none"]], dtype=float)
    it_a = np.array([r[3] for r in a["assembled/none"]], dtype=float)
    assert (np.abs(it_h / it_a - 1.0) < 0.6).all()
    # Jacobi reduces iterations vs no preconditioning
    assert np.mean([r[3] for r in a["hymv/jacobi"]]) < np.mean(
        [r[3] for r in a["hymv/none"]]
    )
    # HYMV's measured set-up below assembled's (no assembly)
    s_h = _column(a["hymv/jacobi"], tables[0], "setup_s")
    s_a = _column(a["assembled/jacobi"], tables[0], "setup_s")
    assert (s_h < s_a).all()
    # HYMV total time below assembled's (setup advantage; paper: 1.1-1.2x)
    # on the modeled clock: measured at 648 dofs, the totals weigh NumPy
    # and SciPy dispatch rather than the kernels (harness/fig11.py)
    for pc in ("none", "jacobi"):
        t_h = _column(a[f"hymv/{pc}"], tables[0], "model_total_s")
        t_a = _column(a[f"assembled/{pc}"], tables[0], "model_total_s")
        assert (t_h < t_a).all()


def test_fig11b_block_jacobi(tables):
    b = _by_method(tables[1])
    it_j = np.array([r[3] for r in b["hymv/jacobi"]])
    it_bj = np.array([r[3] for r in b["hymv/bjacobi"]])
    assert (it_bj < it_j).all()  # block Jacobi cuts iterations everywhere
    # both methods converge to the same discrete solution
    err_h = np.array([r[7] for r in b["hymv/bjacobi"]])
    err_a = np.array([r[7] for r in b["assembled/bjacobi"]])
    np.testing.assert_allclose(err_h, err_a, rtol=1e-6)


def test_fig11c_gpu_total_solve(tables):
    c = _by_method(tables[2])
    s_h = _column(c["hymv_gpu/jacobi"], tables[2], "setup_s")
    s_p = _column(c["assembled_gpu/jacobi"], tables[2], "setup_s")
    assert (s_h < s_p).all()
    t_h = _column(c["hymv_gpu/jacobi"], tables[2], "model_total_s")
    t_p = _column(c["assembled_gpu/jacobi"], tables[2], "model_total_s")
    assert (t_h < t_p).all()  # paper: HYMV-GPU 1.8x faster
    it_h = [r[3] for r in c["hymv_gpu/jacobi"]]
    it_p = [r[3] for r in c["assembled_gpu/jacobi"]]
    assert it_h == it_p


def test_fig11_solve_kernel(benchmark):
    spec = elastic_bar_problem(3, 2, ElementType.HEX20)
    benchmark(
        lambda: run_solve(spec, "hymv", precond="bjacobi", rtol=1e-3).iterations
    )
