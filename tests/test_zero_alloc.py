"""Steady-state products allocate nothing.

``tracemalloc`` bounds the peak heap growth over post-warmup calls of
every hot path the serving tier times: the HYMV workspace SPMV (both
EMV kernels), the copy-free ``apply_owned(copy=False)``, the HYMV
per-column oracle and GEMM multi-RHS products (on the medium mesh the
GEMM sweep runs in 8 element chunks) and the Dirichlet-projected block
matvec built on the GEMM one, and the SELL-C-sigma slice SPMV and
chunk-matmul GEMM.  Scratch is sized for the widest batch seen, so after
warm-up at k = 8 products alternating k = 3 and k = 8 allocate nothing.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.baselines.sellcs import SellCSOperator
from repro.core.hymv import HymvOperator
from repro.serve.cache import _dirichlet_state, _hat_multi

from .kernel_cases import HYMV_CASES, SELL_LAYOUTS, SHAPES, single_rank, spec

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


def _hymv_owned(case):
    A = single_rank(HymvOperator, case)
    x = np.random.default_rng(1234).standard_normal(A.n_dofs_owned)
    return lambda: A.apply_owned(x, copy=False)


def _served_state(case):
    """The per-rank state of a served HYMV operator."""
    A = single_rank(HymvOperator, case, kernel="einsum")
    s = spec(case)
    st = {"A": A, **_dirichlet_state(A.comm, A, A.maps, s.partition.local(0), s)}
    assert st["rows"].size
    return st


def _hat_gemm(k):
    """The projected block matvec ``cg_multi`` drives on a served HYMV
    operator, fed the transposed view ``cg_multi`` hands it."""
    st = _served_state("poisson-hex8-medium")
    X = np.random.default_rng(1234).standard_normal((k, st["A"].n_dofs_owned)).T
    return lambda: _hat_multi(st, X, mode="gemm")


def _hymv_multi(k, mode):
    """HYMV multi-RHS product on HEX8 Poisson: the oracle sweeps the
    rows of a transposed copy of its k > 1 columns through the CSR view
    of the stored batch."""
    A = single_rank(HymvOperator, "poisson-hex8-medium", kernel="einsum")
    U, V = A.new_multivector(k), A.new_multivector(k)
    U.set_owned(
        np.random.default_rng(1234).standard_normal((A.n_dofs_owned, k))
    )
    return lambda: A.spmv_multi(U, V, mode=mode)


def _below_widest(kind):
    """Products at k = 3 and k = 8 on one operator after warm-up at
    k = 8: the narrower width views the widest width's scratch."""
    case = "poisson-hex8-medium"
    if kind == "hat":
        st = _served_state(case)
        n = st["A"].n_dofs_owned
        # cg_multi hands the projected matvec a transposed view
        X = {k: np.random.default_rng(k).standard_normal((k, n)).T
             for k in (3, 8)}
        call = lambda k: _hat_multi(st, X[k], mode="gemm")
    else:
        A = single_rank(
            {"hymv": HymvOperator, "sellcs": SellCSOperator}[kind], case
        )
        X = {k: np.random.default_rng(k).standard_normal((A.n_dofs_owned, k))
             for k in (3, 8)}
        call = lambda k: A.apply_owned_multi(
            X[k], copy=False, mode="gemm"
        )
    call(8)
    return lambda: (call(3), call(8))


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
    pytest.param(_hymv_owned, (case,), id=f"{case}/hymv-apply-owned-view")
    for case in HYMV_CASES
] + [
    pytest.param(_hymv_multi, (k, "gemm"),
                 id=f"poisson-hex8-medium/hymv-einsum-multirhs-k{k}-gemm")
    for k in (1, 2, 8, 32)
] + [
    pytest.param(_hymv_multi, (4, "oracle"),
                 id="poisson-hex8-medium/hymv-einsum-multirhs-k4-oracle")
] + [
    pytest.param(_hat_gemm, (8,),
                 id="poisson-hex8-medium/hymv-dirichlet-hat-k8-gemm")
] + [
    pytest.param(_below_widest, (kind,),
                 id=f"poisson-hex8-medium/{kind}-gemm-k3-after-k8")
    for kind in ("hymv", "sellcs", "hat")
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
