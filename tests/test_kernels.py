"""EMV kernels and scatter/gather primitives."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    EMV_KERNELS,
    EmvWorkspace,
    emv_columns,
    emv_einsum,
    gather_element_vectors,
)
from repro.util.arrays import scatter_add


@given(
    e=st.integers(min_value=1, max_value=20),
    nd=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=15)
def test_kernels_agree_any_shape(e, nd, seed):
    rng = np.random.default_rng(seed)
    ke = rng.standard_normal((e, nd, nd))
    ue = rng.standard_normal((e, nd))
    ref = np.stack([ke[i] @ ue[i] for i in range(e)])
    np.testing.assert_allclose(emv_einsum(ke, ue), ref, atol=1e-11)
    np.testing.assert_allclose(emv_columns(ke, ue), ref, atol=1e-11)


def test_kernel_registry():
    assert set(EMV_KERNELS) == {"einsum", "columns"}


def test_gather_accumulate_roundtrip(rng):
    flat = rng.standard_normal(40)
    idx = rng.integers(0, 40, size=(6, 5))
    ue = gather_element_vectors(flat, idx)
    np.testing.assert_array_equal(ue, flat[idx])
    out = np.zeros(40)
    scatter_add(out, idx, ue)
    # accumulating the gathered values equals multiplicity-weighted flat
    counts = np.bincount(idx.reshape(-1), minlength=40)
    np.testing.assert_allclose(out, flat * counts, atol=1e-12)


def test_gather_with_subset(rng):
    flat = rng.standard_normal(30)
    idx = rng.integers(0, 30, size=(8, 4))
    sel = np.array([1, 3, 5])
    np.testing.assert_array_equal(
        gather_element_vectors(flat, idx, sel), flat[idx[sel]]
    )


@given(
    e=st.integers(min_value=1, max_value=20),
    nd=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=15)
def test_out_forms_bitwise_match_allocating_forms(e, nd, seed):
    """The zero-allocation ``out=`` paths must not change a single bit
    relative to the legacy allocating paths (the SPMV equivalence suite
    relies on this at operator level; here it is pinned per kernel)."""
    rng = np.random.default_rng(seed)
    ke = rng.standard_normal((e, nd, nd))
    ue = rng.standard_normal((e, nd))
    ws = EmvWorkspace(e, nd)

    y = emv_einsum(ke, ue)
    assert emv_einsum(ke, ue, out=ws.ve) is ws.ve
    np.testing.assert_array_equal(ws.ve, y)

    y = emv_columns(ke, ue)
    out = np.empty((e, nd))
    np.testing.assert_array_equal(emv_columns(ke, ue, out=out), y)
    # with the per-column scratch (the true hot-path form)
    ws.ve.fill(np.nan)
    emv_columns(ke, ue, out=ws.ve, tmp=ws.tmp)
    np.testing.assert_array_equal(ws.ve, y)
    # with the precomputed column-major matrix layout
    kcol = np.ascontiguousarray(ke.transpose(2, 0, 1))
    ws.ve.fill(np.nan)
    emv_columns(ke, ue, out=ws.ve, tmp=ws.tmp, columns=kcol)
    np.testing.assert_array_equal(ws.ve, y)


def test_workspace_views_alias_storage():
    ws = EmvWorkspace(10, 6)
    ue, ve = ws.views(4)
    assert ue.shape == (4, 6) and ve.shape == (4, 6)
    assert ue.base is ws.ue and ve.base is ws.ve
    assert not ue.flags.owndata  # views, not copies
    # tmp is lazy: only the columns kernel should ever materialise it
    assert ws._tmp is None
    assert ws.tmp.shape == (10, 6)
    assert ws._tmp is not None


def test_gather_out_bitwise_matches_fancy_indexing(rng):
    flat = rng.standard_normal(50)
    idx = rng.integers(0, 50, size=(7, 6))
    out = np.empty((7, 6))
    assert gather_element_vectors(flat, idx, out=out) is out
    np.testing.assert_array_equal(out, flat[idx])


def test_as_scipy_operator_interop():
    import scipy.sparse.linalg as spla

    from repro.core import HymvOperator
    from repro.core.hymv import as_scipy_operator
    from repro.problems import poisson_problem
    from repro.simmpi import run_spmd

    spec = poisson_problem(5, 1)

    def prog(comm):
        A = HymvOperator(comm, spec.partition.local(0), spec.operator)
        L = as_scipy_operator(A)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(A.n_dofs_owned)
        np.testing.assert_allclose(L @ x, A.apply_owned(x), atol=1e-14)
        # scipy CG on a shifted (SPD) version of the operator
        shifted = spla.LinearOperator(
            L.shape, matvec=lambda v: L @ v + v
        )
        b = rng.standard_normal(A.n_dofs_owned)
        sol, info = spla.cg(shifted, b, rtol=1e-10, maxiter=2000)
        assert info == 0
        np.testing.assert_allclose(
            shifted @ sol, b, atol=1e-7 * np.abs(b).max()
        )
        return True

    res, _ = run_spmd(1, prog)
    assert res[0]
