"""The central correctness property: HYMV SPMV == matrix-free SPMV ==
assembled SPMV == GPU SPMV == serial dense reference, on any mesh,
partitioner and operator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import AssembledOperator, MatrixFreeOperator, SerialReference
from repro.baselines.partial import PartialAssemblyOperator
from repro.core import HymvOperator
from repro.core.hymv import reference_spmv
from repro.fem import ElasticityOperator, PoissonOperator
from repro.gpu import AssembledGpuOperator, HymvGpuOperator
from repro.mesh import ElementType, box_hex_mesh, box_tet_mesh, jittered_hex_mesh
from repro.partition import build_partition
from repro.simmpi import run_spmd

from .kernel_cases import HYMV_CASES, spec

FACTORIES = {
    "hymv": HymvOperator,
    "matfree": MatrixFreeOperator,
    "assembled": AssembledOperator,
    "hymv_gpu": HymvGpuOperator,
    "assembled_gpu": AssembledGpuOperator,
}


def _reference_product(spec_mesh, op, part, x_new):
    """Serial SPMV mapped into the renumbered dof space."""
    ref = SerialReference(spec_mesh, op)
    ndpn = op.ndpn
    n = spec_mesh.n_nodes
    x_old = np.empty_like(x_new)
    for c in range(ndpn):
        x_old[part.old_of_new * ndpn + c] = x_new[np.arange(n) * ndpn + c]
    y_old = ref.spmv(x_old)
    y_new = np.empty_like(y_old)
    for c in range(ndpn):
        y_new[np.arange(n) * ndpn + c] = y_old[part.old_of_new * ndpn + c]
    return y_new


def _distributed_product(mesh, op, part, x_new, kind, **opts):
    p = part.n_parts
    ndpn = op.ndpn

    def prog(comm, lmesh, x):
        A = FACTORIES[kind](comm, lmesh, op, **opts)
        return A.apply_owned(x)

    args = [
        (
            part.local(r),
            x_new[part.ranges[r, 0] * ndpn: part.ranges[r, 1] * ndpn],
        )
        for r in range(p)
    ]
    res, _ = run_spmd(p, prog, rank_args=args)
    return np.concatenate(res)


CASES = [
    ("hex8-poisson-slab", lambda: box_hex_mesh(4, 4, 6), PoissonOperator(), "slab", 4),
    ("hex20-elastic-rcb", lambda: box_hex_mesh(3, 3, 4, ElementType.HEX20),
     ElasticityOperator(), "rcb", 3),
    ("hex27-elastic-graph",
     lambda: jittered_hex_mesh(3, 3, 3, ElementType.HEX27, jitter=0.15),
     ElasticityOperator(), "graph", 4),
    ("tet4-poisson-graph", lambda: box_tet_mesh(3, 3, 3, jitter=0.25),
     PoissonOperator(), "graph", 5),
    ("tet10-poisson-graph",
     lambda: box_tet_mesh(3, 3, 3, ElementType.TET10, jitter=0.25),
     PoissonOperator(), "graph", 4),
]


@pytest.mark.parametrize("name,mesh_fn,op,method,p", CASES)
@pytest.mark.parametrize("kind", list(FACTORIES))
def test_distributed_spmv_matches_serial(name, mesh_fn, op, method, p, kind):
    mesh = mesh_fn()
    part = build_partition(mesh, p, method=method)
    rng = np.random.default_rng(17)
    x = rng.standard_normal(mesh.n_nodes * op.ndpn)
    y_ref = _reference_product(mesh, op, part, x)
    y = _distributed_product(mesh, op, part, x, kind)
    scale = np.abs(y_ref).max()
    np.testing.assert_allclose(y, y_ref, atol=1e-12 * max(scale, 1.0))


@pytest.mark.parametrize("overlap", [True, False])
def test_overlap_flag_changes_nothing_numerically(overlap):
    mesh = box_tet_mesh(3, 3, 3, jitter=0.2)
    op = PoissonOperator()
    part = build_partition(mesh, 4, method="graph")
    rng = np.random.default_rng(3)
    x = rng.standard_normal(mesh.n_nodes)

    def prog(comm, lmesh, xo):
        A = HymvOperator(comm, lmesh, op)
        u, v = A.new_array(), A.new_array()
        u.set_owned(xo)
        A.spmv(u, v, overlap=overlap)
        return v.owned_flat.copy()

    args = [
        (part.local(r), x[part.ranges[r, 0]: part.ranges[r, 1]])
        for r in range(4)
    ]
    res, _ = run_spmd(4, prog, rank_args=args)
    y_ref = _reference_product(mesh, op, part, x)
    np.testing.assert_allclose(np.concatenate(res), y_ref, atol=1e-12)


@pytest.mark.parametrize("kernel", ["einsum", "columns"])
def test_emv_kernels_agree(kernel):
    mesh = box_hex_mesh(3, 3, 3, ElementType.HEX20)
    op = ElasticityOperator()
    part = build_partition(mesh, 2, method="slab")
    rng = np.random.default_rng(5)
    x = rng.standard_normal(mesh.n_nodes * 3)
    y = _distributed_product(mesh, op, part, x, "hymv", kernel=kernel)
    y_ref = _reference_product(mesh, op, part, x)
    np.testing.assert_allclose(y, y_ref, atol=1e-10)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10))
@settings(max_examples=8)
def test_spmv_property_random_partitions(p, seed):
    """Any partitioning (even unbalanced random ones) gives the same SPMV."""
    from repro.partition.interface import partition_from_elem_part

    mesh = box_hex_mesh(3, 3, 3)
    op = PoissonOperator()
    rng = np.random.default_rng(seed)
    elem_part = rng.integers(0, p, size=mesh.n_elements)
    elem_part[:p] = np.arange(p)  # every rank gets at least one element
    part = partition_from_elem_part(mesh, p, elem_part)
    x = rng.standard_normal(mesh.n_nodes)
    y_ref = _reference_product(mesh, op, part, x)
    y = _distributed_product(mesh, op, part, x, "hymv")
    np.testing.assert_allclose(y, y_ref, atol=1e-11)


def test_spmv_linearity():
    mesh = box_tet_mesh(2, 2, 2, ElementType.TET10, jitter=0.1)
    op = PoissonOperator()
    part = build_partition(mesh, 3, method="rcb")
    rng = np.random.default_rng(9)
    x1 = rng.standard_normal(mesh.n_nodes)
    x2 = rng.standard_normal(mesh.n_nodes)
    y1 = _distributed_product(mesh, op, part, x1, "hymv")
    y2 = _distributed_product(mesh, op, part, x2, "hymv")
    y12 = _distributed_product(mesh, op, part, 2.0 * x1 - 3.0 * x2, "hymv")
    np.testing.assert_allclose(y12, 2.0 * y1 - 3.0 * y2, atol=1e-11)


def test_single_rank_needs_no_communication():
    mesh = box_hex_mesh(3, 3, 3)
    op = PoissonOperator()
    part = build_partition(mesh, 1, method="slab")
    x = np.random.default_rng(0).standard_normal(mesh.n_nodes)
    y = _distributed_product(mesh, op, part, x, "hymv")
    np.testing.assert_allclose(y, _reference_product(mesh, op, part, x), atol=1e-12)


def _jittered_elastic(p):
    mesh = jittered_hex_mesh(3, 3, 4, ElementType.HEX8, jitter=0.1)
    part = build_partition(mesh, p, method="graph" if p > 1 else "slab")
    return ElasticityOperator(), part


def _bench_shape(case):
    return lambda p: (spec(case).operator, spec(case).partition)


REFERENCE_CASES = [
    pytest.param(p, kind, kernel, _jittered_elastic, id=f"{p}-{kernel}-{kind}")
    for p in (1, 4)
    for kind in ("hymv", "matfree", "partial", "hymv_gpu")
    for kernel in ("einsum", "columns")
    if not (kind == "partial" and kernel == "columns")
] + [
    pytest.param(1, "hymv", kernel, _bench_shape(case),
                 id=f"{case}/hymv-{kernel}-workspace")
    for case in HYMV_CASES
    for kernel in ("einsum", "columns")
]


@pytest.mark.parametrize("p,kind,kernel,make", REFERENCE_CASES)
def test_workspace_path_bitwise_identical_to_legacy(p, kind, kernel, make):
    """The Algorithm-2 driver (workspaces, segment scatter, packed halo
    buffers, column-major matrix layout, overlap) must not change a
    single bit of any SPMV product relative to the allocating
    ``reference_spmv``, in steady state."""
    factories = dict(FACTORIES, partial=PartialAssemblyOperator)
    op, part = make(p)
    nd = op.ndpn
    rng = np.random.default_rng(23)
    x = rng.standard_normal(part.ranges[-1, 1] * nd)

    def prog(comm, lmesh, xo):
        A = factories[kind](comm, lmesh, op, kernel=kernel)
        u, v, v_ref = A.new_array(), A.new_array(), A.new_array()
        u.set_owned(xo)
        for _ in range(3):  # steady state: buffers fully reused
            A.spmv(u, v)
        reference_spmv(A, u, v_ref)
        return np.array_equal(v.owned_flat, v_ref.owned_flat)

    args = [
        (part.local(r), x[part.ranges[r, 0] * nd: part.ranges[r, 1] * nd])
        for r in range(p)
    ]
    res, _ = run_spmd(p, prog, rank_args=args)
    assert all(res)


def test_repeated_spmv_is_idempotent_on_inputs():
    """Applying the operator twice to the same DA input gives identical
    results (ghost scratch does not leak between products)."""
    mesh = box_hex_mesh(3, 3, 4)
    op = PoissonOperator()
    part = build_partition(mesh, 3, method="slab")
    x = np.random.default_rng(1).standard_normal(mesh.n_nodes)

    def prog(comm, lmesh, xo):
        A = HymvOperator(comm, lmesh, op)
        # default contract: each call returns a fresh caller-owned copy,
        # so holding two products simultaneously is safe...
        y1 = A.apply_owned(xo)
        y2 = A.apply_owned(xo)
        assert y1 is not y2 and y1.base is None
        # ...while copy=False returns a view into the operator's work
        # buffer, overwritten by the next application (zero-copy opt-in)
        v1 = A.apply_owned(xo, copy=False)
        assert v1.base is not None
        assert np.array_equal(v1, y1)
        return np.abs(y1 - y2).max()

    args = [
        (part.local(r), x[part.ranges[r, 0]: part.ranges[r, 1]])
        for r in range(3)
    ]
    res, _ = run_spmd(3, prog, rank_args=args)
    assert max(res) == 0.0
