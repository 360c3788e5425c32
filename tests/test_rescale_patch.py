"""Scale-only patches rescale a remembered unit-scale element matrix.

A stiffness-scale update leaves ``Ke(coords)`` unchanged, so HYMV's
``update_elements`` stores ``U_e * s_e`` from a remembered ``U_e`` (or
the stored row itself when its scale was exactly 1.0) instead of
re-integrating; only moved elements and rows whose ``U_e`` is unknown
integrate.  Every check compares the patched operator with a fresh
build on the final inputs bit for bit (``.view(np.int64)``) and reads
the ``update.ke_recomputed`` / ``update.ke_rescaled`` counters.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.core.hymv import HymvOperator
from repro.gpu.hymv_gpu import HymvGpuOperator
from repro.mesh import ElementType
from repro.problems import elastic_bar_problem, poisson_problem

from .kernel_cases import one_rank_comm, single_rank
from .test_zero_alloc import ALLOC_FLOOR_BYTES

ETYPES = ("hex8", "hex20", "hex27", "tet4", "tet10")


def _spec(problem: str, etype: str):
    et = ElementType(etype)
    if problem == "poisson":
        return poisson_problem(3, 1, etype=et)
    return elastic_bar_problem((2, 2, 3), 1, etype=et)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _counts(A) -> tuple[int, int]:
    obs = A.comm.obs
    return (
        int(obs.counter("update.ke_recomputed")),
        int(obs.counter("update.ke_rescaled")),
    )


def _patch(A, ids, **update) -> tuple[int, int]:
    """``update_elements(ids, **update)``; returns the rows it
    re-integrated and rescaled."""
    r0, s0 = _counts(A)
    A.update_elements(ids, **update)
    r1, s1 = _counts(A)
    return r1 - r0, s1 - s0


def _assert_fresh(A, cls, spec, scale, coords=None, **options):
    """``A`` is bitwise a fresh ``cls`` build on ``scale`` (and on
    ``coords`` in local mesh order, when given): stored batch, the
    ``columns`` kernel's copy and one product."""
    lmesh = spec.partition.local(0)
    if coords is not None:
        lmesh = replace(lmesh, coords=coords)
    fresh = cls(one_rank_comm(), lmesh, spec.operator, elem_scale=scale,
                **options)
    assert np.array_equal(_bits(A.ke), _bits(fresh.ke))
    if fresh._kcol is not None:
        assert np.array_equal(_bits(A._kcol), _bits(fresh._kcol))
    x = np.random.default_rng(7).standard_normal(A.n_dofs_owned)
    assert np.array_equal(_bits(A.apply_owned(x)), _bits(fresh.apply_owned(x)))


@pytest.mark.parametrize("kernel", ("einsum", "columns"))
@pytest.mark.parametrize("problem", ("poisson", "elasticity"))
@pytest.mark.parametrize("etype", ETYPES)
def test_scale_stream_rescales_and_stays_bitwise(etype, problem, kernel):
    """Soften a band, restore it, re-soften an overlapping band: no row
    integrates, every touched row is rescaled, and the operator equals a
    fresh build on the final scales."""
    spec = _spec(problem, etype)
    A = HymvOperator(one_rank_comm(), spec.partition.local(0), spec.operator,
                     kernel=kernel)
    E = A.n_local_elements
    band_a = np.arange(0, E // 2)
    band_b = np.arange(E // 4, 3 * E // 4)
    for ids, s in ((band_a, 0.05), (band_a, 1.0), (band_b, 0.3)):
        assert _patch(A, ids, stiffness_scale=s) == (0, ids.size)
    scale = np.ones(E)
    scale[band_b] = 0.3
    _assert_fresh(A, HymvOperator, spec, scale, kernel=kernel)


def test_gpu_operator_scale_stream_stays_bitwise():
    spec = _spec("poisson", "hex8")
    A = HymvGpuOperator(one_rank_comm(), spec.partition.local(0), spec.operator)
    ids = np.arange(A.n_local_elements // 2)
    for s in (0.05, 1.0, 0.3):
        assert _patch(A, ids, stiffness_scale=s) == (0, ids.size)
    scale = np.ones(A.n_local_elements)
    scale[ids] = 0.3
    _assert_fresh(A, HymvGpuOperator, spec, scale)


@pytest.mark.parametrize("etype", ETYPES)
def test_scale_after_move_reintegrates_and_stays_bitwise(etype):
    """A coordinate update forgets the remembered matrix: the move
    re-integrates its rows, and the scale patches around it rescale the
    matrix of the geometry current at the time."""
    spec = _spec("elasticity", etype)
    lmesh = spec.partition.local(0)
    A = HymvOperator(one_rank_comm(), lmesh, spec.operator)
    E = A.n_local_elements
    ids = np.arange(E // 2)
    assert _patch(A, ids, stiffness_scale=0.5) == (0, ids.size)
    coords = lmesh.coords.copy()
    coords[ids] += 2e-3 * np.random.default_rng(3).standard_normal(
        coords[ids].shape
    )
    assert _patch(A, ids, coords=coords[ids]) == (ids.size, 0)
    assert _patch(A, ids, stiffness_scale=2.0) == (0, ids.size)
    scale = np.ones(E)
    scale[ids] = 2.0
    _assert_fresh(A, HymvOperator, spec, scale, coords=coords)


def test_fresh_scaled_key_integrates_on_first_rescale_only():
    """Rows built at a scale other than 1.0 hold no unit-scale matrix:
    the first rescale integrates them, the second reuses it."""
    spec = _spec("poisson", "hex20")
    E = spec.partition.local(0).n_local_elements
    scale = np.full(E, 2.0)
    A = HymvOperator(one_rank_comm(), spec.partition.local(0), spec.operator,
                     elem_scale=scale)
    ids = np.arange(E // 2)
    assert _patch(A, ids, stiffness_scale=0.5) == (ids.size, 0)
    assert _patch(A, ids, stiffness_scale=3.0) == (0, ids.size)
    scale[ids] = 3.0
    _assert_fresh(A, HymvOperator, spec, scale)


def test_product_after_patch_allocates_nothing():
    """An in-place patch keeps the per-``k`` GEMM workspace, segment
    scratch and work multivectors: the first k = 8 products after it
    allocate nothing, and the oracle one equals a fresh build bitwise."""
    case = "poisson-hex8-medium"
    A = single_rank(HymvOperator, case)
    k = 8
    X = np.random.default_rng(1234).standard_normal((A.n_dofs_owned, k))

    def products():
        A.apply_owned_multi(X, copy=False, mode="gemm")
        return A.apply_owned_multi(X, copy=False, mode="oracle")

    products()
    ids = np.arange(0, A.n_local_elements, 3)
    tracemalloc.start()
    try:
        products()  # warm tracemalloc's own structures on this path
        A.update_elements(ids, stiffness_scale=0.05)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        Y = products()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= ALLOC_FLOOR_BYTES
    scale = np.ones(A.n_local_elements)
    scale[ids] = 0.05
    fresh = single_rank(HymvOperator, case, elem_scale=scale)
    want = fresh.apply_owned_multi(X, mode="oracle")
    assert np.array_equal(_bits(Y), _bits(want))
