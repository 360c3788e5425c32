"""Utility layer: arrays, tables, timers, VTK output, traces."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh import ElementType, box_hex_mesh, box_tet_mesh
from repro.util.arrays import (
    as_f64,
    as_index,
    inverse_permutation,
    rows_unique,
    scatter_add,
)
from repro.util.tables import ResultTable, render_many
from repro.util.vtk import write_vtk


def test_scatter_add_matches_np_add_at(rng):
    out1 = np.zeros(20)
    out2 = np.zeros(20)
    idx = rng.integers(0, 20, size=(7, 5))
    vals = rng.standard_normal((7, 5))
    scatter_add(out1, idx, vals)
    np.add.at(out2, idx.reshape(-1), vals.reshape(-1))
    np.testing.assert_allclose(out1, out2, atol=1e-14)


def test_scatter_add_size_mismatch():
    with pytest.raises(ValueError):
        scatter_add(np.zeros(5), np.array([0, 1]), np.array([1.0]))


def test_scatter_add_rejects_negative_indices():
    # both branches must reject a corrupt map (bincount does natively)
    with pytest.raises(ValueError):
        scatter_add(np.zeros(200), np.array([3, -1]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        scatter_add(np.zeros(4), np.array([0, -1]), np.array([1.0, 2.0]))


@given(
    n_dofs=st.integers(min_value=16, max_value=400),
    n_vals=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=50)
def test_scatter_add_small_batch_bitwise_matches_bincount_grouping(
    n_dofs, n_vals, seed
):
    """The small-batch branch must produce the exact bits of the legacy
    ``out += np.bincount(...)`` path on a *nonzero* destination — the
    dependent sweep accumulates onto the independent sweep's partial
    result, so a sequential add.at fold (different rounding) would
    silently change legacy results on large meshes."""
    rng = np.random.default_rng(seed)
    # duplicate-heavy indices confined to a small range: every touched
    # dof is hit repeatedly while n_vals stays below n_dofs // 8
    idx = rng.integers(0, max(1, n_dofs // 16), size=n_vals)
    vals = rng.standard_normal(n_vals)
    base = rng.standard_normal(n_dofs)

    out = base.copy()
    scatter_add(out, idx, vals)
    expect = base + np.bincount(idx, weights=vals, minlength=n_dofs)

    touched = np.unique(idx)
    np.testing.assert_array_equal(out[touched], expect[touched])
    # untouched entries are left alone (bincount's +0.0 on them differs
    # only on -0.0, which standard_normal never produces)
    mask = np.ones(n_dofs, dtype=bool)
    mask[touched] = False
    np.testing.assert_array_equal(out[mask], base[mask])

    if n_vals < n_dofs // 8:  # the regime this test is about
        assert touched.size <= n_vals


@given(st.permutations(list(range(9))))
def test_inverse_permutation_property(perm):
    p = np.array(perm)
    inv = inverse_permutation(p)
    np.testing.assert_array_equal(p[inv], np.arange(9))
    np.testing.assert_array_equal(inv[p], np.arange(9))


def test_rows_unique():
    assert rows_unique(np.array([[1, 2], [2, 1], [3, 4]]))
    assert not rows_unique(np.array([[1, 2], [1, 2]]))
    with pytest.raises(ValueError):
        rows_unique(np.array([1, 2, 3]))


def test_as_helpers_dtypes():
    assert as_f64([1, 2]).dtype == np.float64
    assert as_index([1.0, 2.0]).dtype == np.int64
    a = np.zeros(3)
    assert as_f64(a) is a or as_f64(a).base is a  # no needless copy


def test_result_table_render_and_columns():
    t = ResultTable("demo", ["a", "b"])
    t.add_row(1, 0.5)
    t.add_row(20000, 1e-8)
    t.add_note("a note")
    txt = t.render()
    assert "demo" in txt and "a note" in txt
    assert t.column("a") == [1, 20000]
    with pytest.raises(ValueError):
        t.add_row(1)
    assert "demo" in render_many([t, t])


@pytest.mark.parametrize(
    "mesh_fn",
    [
        lambda: box_hex_mesh(2, 2, 2),
        lambda: box_hex_mesh(1, 1, 1, ElementType.HEX20),
        lambda: box_hex_mesh(1, 1, 1, ElementType.HEX27),
        lambda: box_tet_mesh(1, 1, 1),
        lambda: box_tet_mesh(1, 1, 1, ElementType.TET10, jitter=0.0),
    ],
)
def test_vtk_writer_roundtrip_structure(tmp_path, mesh_fn):
    mesh = mesh_fn()
    u = np.linspace(0, 1, mesh.n_nodes)
    vec = np.tile([1.0, 2.0, 3.0], (mesh.n_nodes, 1))
    cell = np.arange(mesh.n_elements, dtype=float)
    path = write_vtk(
        tmp_path / "out.vtk", mesh,
        point_data={"u": u, "disp": vec}, cell_data={"part": cell},
    )
    text = path.read_text()
    assert f"POINTS {mesh.n_nodes} double" in text
    assert f"CELLS {mesh.n_elements}" in text
    assert "SCALARS u double 1" in text
    assert "VECTORS disp double" in text
    assert "CELL_DATA" in text
    # every node index appears within range
    lines = text.splitlines()
    start = lines.index(f"CELLS {mesh.n_elements} "
                        f"{mesh.n_elements * (mesh.etype.n_nodes + 1)}") + 1
    for line in lines[start: start + mesh.n_elements]:
        vals = [int(v) for v in line.split()]
        assert vals[0] == mesh.etype.n_nodes
        assert all(0 <= v < mesh.n_nodes for v in vals[1:])


def test_vtk_writer_validates_fields(tmp_path):
    mesh = box_hex_mesh(1, 1, 1)
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "x.vtk", mesh, point_data={"u": np.zeros(3)})
    with pytest.raises(ValueError):
        write_vtk(
            tmp_path / "x.vtk", mesh,
            point_data={"u": np.zeros((mesh.n_nodes, 2))},
        )


def test_trace_and_gantt():
    from repro.simmpi import run_spmd
    from repro.simmpi.trace import render_gantt

    def prog(comm):
        comm.advance(0.5, "spmv.emv.independent")
        if comm.rank == 0:
            comm.isend(np.zeros(10), 1)
        else:
            comm.recv(0)
        comm.advance(0.2, "setup.emat_compute")
        return len(comm.trace)

    res, sim = run_spmd(2, prog, trace=True)
    assert all(n >= 2 for n in res)
    txt = render_gantt(sim.comms, width=40)
    assert "rank   0" in txt and "rank   1" in txt
    assert "E" in txt and "S" in txt
    # without tracing: empty
    res2, sim2 = run_spmd(2, prog, trace=False)
    assert render_gantt(sim2.comms).startswith("(no traced intervals")
