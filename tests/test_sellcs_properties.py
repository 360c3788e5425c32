"""Property-based laws of the SELL-C-sigma layout and kernels: bitwise
identity to CSR for arbitrary (C, sigma) — including sigma=1 (no sort)
and sigma >= n (global sort) — permutation round-trip, multi-RHS
agreement, and the zero-allocation steady state."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.sellcs import SellWorkspace, build_sellcs, sell_spmm, sell_spmv


def _random_csr(n, nc, density, seed):
    """Random CSR with explicit zeros and negative-zero inputs kept —
    the padding argument must survive both."""
    rng = np.random.default_rng(seed)
    A = sparse.random(
        n, nc, density=density, format="csr", random_state=rng,
        data_rvs=lambda size: rng.standard_normal(size),
    )
    if A.nnz:
        # plant an explicit stored zero: padding must stay distinguishable
        A.data[rng.integers(A.nnz)] = 0.0
    return A


@st.composite
def layouts(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    nc = draw(st.integers(min_value=1, max_value=40))
    density = draw(st.sampled_from([0.05, 0.2, 0.6]))
    C = draw(st.integers(min_value=1, max_value=9))
    sigma = draw(
        st.one_of(
            st.just(1),  # no sorting window
            st.integers(min_value=1, max_value=64),
            st.just(10_000),  # sigma >= n: one global sort window
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, nc, density, C, sigma, seed


@given(layouts())
@settings(max_examples=60, deadline=None)
def test_sell_spmv_bitwise_equals_csr(params):
    n, nc, density, C, sigma, seed = params
    A = _random_csr(n, nc, density, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(nc)
    if nc:
        x[rng.integers(nc)] = -0.0  # signed zero must not flip pad sums
    layout = build_sellcs(A, C=C, sigma=sigma)
    ws = SellWorkspace(layout, 1)
    y = sell_spmv(layout, x, ws)
    assert np.array_equal(
        y.view(np.uint64), (A @ x).view(np.uint64)
    ), "SELL product differs in bits from the CSR row-sum"


@given(layouts())
@settings(max_examples=60, deadline=None)
def test_layout_invariants_and_permutation_round_trip(params):
    n, nc, density, C, sigma, seed = params
    A = _random_csr(n, nc, density, seed)
    layout = build_sellcs(A, C=C, sigma=sigma)
    # the permutation is a bijection and inv really inverts it
    assert np.array_equal(np.sort(layout.perm), np.arange(n))
    assert np.array_equal(layout.inv[layout.perm], np.arange(n))
    # chunk widths are globally non-increasing (the prefix property the
    # slice kernels rely on) and the books balance
    assert np.all(np.diff(layout.widths) <= 0) if layout.widths.size else True
    assert layout.nnz == A.nnz
    assert layout.padded_nnz >= layout.nnz
    expect_occ = layout.nnz / layout.padded_nnz if layout.padded_nnz else 1.0
    assert layout.occupancy == pytest.approx(expect_occ)
    # a permuted round trip of any vector is the identity
    v = np.random.default_rng(seed + 2).standard_normal(n)
    assert np.array_equal(v[layout.perm][layout.inv], v)


@given(layouts(), st.integers(min_value=2, max_value=9))
@settings(max_examples=40, deadline=None)
def test_sell_spmm_matches_columnwise_spmv(params, k):
    """The group-major chunk-matmul agrees with k independent slice-major
    products within the dot-order bound (they sum identical terms in a
    different association).  k=1 is out of contract: the operator routes
    single columns through the bitwise slice kernel instead."""
    n, nc, density, C, sigma, seed = params
    A = _random_csr(n, nc, density, seed)
    X = np.random.default_rng(seed + 3).standard_normal((nc, k))
    layout = build_sellcs(A, C=C, sigma=sigma)
    ws1 = SellWorkspace(layout, 1)
    wsk = SellWorkspace(layout, k)
    Y = sell_spmm(layout, X, wsk)
    scale = np.abs(A) @ np.abs(X) if A.nnz else np.zeros((n, k))
    for j in range(k):
        yj = sell_spmv(layout, np.ascontiguousarray(X[:, j]), ws1)
        err = np.abs(Y[:, j] - yj)
        assert np.all(err <= 1e-13 * np.maximum(scale[:, j], 1e-300) + 1e-300)


def test_sigma_one_and_global_sigma_are_both_exact():
    """The documented edge windows: sigma=1 keeps natural row order;
    sigma >= n sorts globally (maximal occupancy)."""
    A = _random_csr(33, 33, 0.3, seed=5)
    x = np.random.default_rng(6).standard_normal(33)
    ref = A @ x
    occ = {}
    for sigma in (1, 10_000):
        layout = build_sellcs(A, C=8, sigma=sigma)
        y = sell_spmv(layout, x, SellWorkspace(layout, 1))
        assert np.array_equal(y, ref)
        occ[sigma] = layout.occupancy
    assert occ[10_000] >= occ[1]  # sorting can only tighten the chunks


def test_steady_state_allocates_nothing():
    """After one warm call, repeated single- and multi-RHS kernels touch
    only workspace buffers (interpreter-level churn excluded by the same
    floor the bench gates on)."""
    from .test_zero_alloc import ALLOC_FLOOR_BYTES

    A = _random_csr(400, 400, 0.1, seed=9)
    layout = build_sellcs(A, C=32, sigma=256)
    x = np.random.default_rng(1).standard_normal(400)
    X = np.random.default_rng(2).standard_normal((400, 8))
    ws1 = SellWorkspace(layout, 1)
    ws8 = SellWorkspace(layout, 8)
    y = np.empty(400)
    Y = np.empty((400, 8))

    def steady():
        sell_spmv(layout, x, ws1, out=y)
        sell_spmm(layout, X, ws8, out=Y)

    steady()
    tracemalloc.start()
    try:
        steady()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            steady()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < ALLOC_FLOOR_BYTES
