"""Steady-state products allocate nothing.

``tracemalloc`` bounds the peak heap growth over post-warmup calls of
every hot path the serving tier times: the HYMV workspace SPMV (both
EMV kernels), the HYMV GEMM multi-RHS product, and the SELL-C-sigma
slice SPMV and chunk-matmul GEMM.  The per-column oracle paths at
``k > 1`` are exempt: numpy buffers the strided column gather, which is
what the GEMM path exists to avoid.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.baselines.sellcs import SellCSOperator
from repro.core.hymv import HymvOperator

from .kernel_cases import HYMV_CASES, SELL_LAYOUTS, SHAPES, single_rank

#: peak-heap growth (bytes) attributable to interpreter-level object
#: churn (boxed floats and dict entries from the instrumentation layer),
#: measured well under this on every case.  Any numpy buffer allocated in
#: the hot path — the smallest candidate is the n_dofs-sized bincount
#: scratch, ~74 KB on the medium Poisson mesh — lands far above it.
ALLOC_FLOOR_BYTES = 16384


def _hymv_workspace(case, kernel):
    A = single_rank(HymvOperator, case, kernel=kernel)
    u, v = A.new_array(), A.new_array()
    u.set_owned(np.random.default_rng(1234).standard_normal(A.n_dofs_owned))
    return lambda: A.spmv(u, v)


def _hymv_gemm(k):
    A = single_rank(HymvOperator, "poisson-hex8-medium", kernel="einsum")
    U, V = A.new_multivector(k), A.new_multivector(k)
    U.set_owned(
        np.random.default_rng(1234).standard_normal((A.n_dofs_owned, k))
    )
    return lambda: A.spmv_multi(U, V, mode="gemm")


def _sell_spmv(case, C, sigma):
    S = single_rank(SellCSOperator, case, C=C, sigma=sigma)
    x = np.random.default_rng(1234).standard_normal(S.n_dofs_owned)
    return lambda: S.apply_owned(x, copy=False)


def _sell_gemm(case, k):
    S = single_rank(SellCSOperator, case)
    X = np.random.default_rng(1234).standard_normal((S.n_dofs_owned, k))
    return lambda: S.apply_owned_multi(X, copy=False, mode="gemm")


CASES = [
    pytest.param(_hymv_workspace, (case, kernel),
                 id=f"{case}/hymv-{kernel}-workspace")
    for case in HYMV_CASES for kernel in ("einsum", "columns")
] + [
    pytest.param(_hymv_gemm, (k,),
                 id=f"poisson-hex8-medium/hymv-einsum-multirhs-k{k}-gemm")
    for k in (1, 2, 8, 32)
] + [
    pytest.param(_sell_spmv, (case, C, sigma),
                 id=f"{case}/sellcs-C{C}-s{sigma}-spmv")
    for case, C, sigma in SELL_LAYOUTS
] + [
    pytest.param(_sell_gemm, (case, k), id=f"{case}/sellcs-multirhs-k{k}-gemm")
    for case in SHAPES for k in (8, 32)
]


@pytest.mark.parametrize("make,args", CASES)
def test_steady_state_allocates_nothing(make, args):
    call = make(*args)
    call()
    call()  # steady state: every workspace sized and warm
    tracemalloc.start()
    try:
        call()  # warm tracemalloc's own structures on this path
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= ALLOC_FLOOR_BYTES
