"""``repro.core.csr.CsrBlock`` against ``scipy.sparse.csr_matrix`` on
the same arrays: every product the assembled kinds serve
(``AssembledOperator._block_product``) and every diagonal the same bits
(int64 view), empty blocks included; a malformed structure raises
``ValueError`` before any C kernel reads it."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines.assembled import AssembledOperator
from repro.core.csr import CsrBlock


def _product(A: CsrBlock, x: np.ndarray) -> np.ndarray:
    """The block product an assembled operator serves, on ``A``."""
    return AssembledOperator._block_product(SimpleNamespace(_blocks=(A,)), 0, x)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _arrays(n_rows, n_cols, nnz, seed=0, idx=np.int32):
    """Unsorted columns with duplicates, a ``-0.0`` value, and row 1
    storing no diagonal entry."""
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.integers(0, n_rows, nnz)) if n_rows else np.empty(0, int)
    cols = rng.integers(0, n_cols, nnz) if n_cols else np.empty(0, int)
    if n_rows > 1 and n_cols > 1:
        cols[rows == 1] = np.where(cols[rows == 1] == 1, 0, cols[rows == 1])
    data = rng.standard_normal(nnz)
    data[: min(nnz, 1)] = -0.0
    indptr = np.zeros(n_rows + 1, dtype=idx)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return data, cols.astype(idx), indptr


SHAPES = [(7, 7, 30), (9, 5, 25), (5, 9, 25), (0, 4, 0), (4, 0, 0), (6, 6, 0)]


@pytest.mark.parametrize("idx", [np.int32, np.int64])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_products_and_diagonal_are_scipys_bits(shape, idx):
    n_rows, n_cols, nnz = shape
    data, indices, indptr = _arrays(n_rows, n_cols, nnz, idx=idx)
    A = CsrBlock(data, indices, indptr, (n_rows, n_cols))
    S = sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))
    assert A.nnz == S.nnz and A.shape == S.shape
    rng = np.random.default_rng(1)
    x = rng.standard_normal(n_cols)  # one column takes the 1-D product
    np.testing.assert_array_equal(_bits(_product(A, x)), _bits(S @ x))
    for k in range(2, 9):
        X = rng.standard_normal((n_cols, k))
        got = _product(A, X)
        assert got.shape == (n_rows, k)
        np.testing.assert_array_equal(_bits(got), _bits(S @ X))
    strided = rng.standard_normal((n_cols, 16))[:, ::2]  # not contiguous
    np.testing.assert_array_equal(
        _bits(_product(A, strided)), _bits(S @ strided)
    )
    np.testing.assert_array_equal(_bits(A.diagonal()), _bits(S.diagonal()))


def test_row_without_diagonal_entry_reads_zero():
    data, indices, indptr = _arrays(7, 7, 30)
    row1 = indices[indptr[1]:indptr[2]]
    assert row1.size and (row1 != 1).all()
    d = CsrBlock(data, indices, indptr, (7, 7)).diagonal()
    assert _bits(d)[1] == 0  # +0.0


def test_to_scipy_shares_the_arrays():
    data, indices, indptr = _arrays(7, 7, 30)
    S = CsrBlock(data, indices, indptr, (7, 7)).to_scipy()
    assert isinstance(S, sp.csr_matrix) and S.shape == (7, 7)
    for a, b in ((S.data, data), (S.indices, indices), (S.indptr, indptr)):
        assert np.shares_memory(a, b)


def _malformed():
    data, indices, indptr = _arrays(7, 7, 30)
    col = indices.copy()
    col[3] = 7
    neg = indices.copy()
    neg[0] = -1
    bump = indptr.copy()
    bump[2], bump[3] = bump[3], bump[2] - 1
    return {
        "column-out-of-range": (data, col, indptr, (7, 7)),
        "negative-column": (data, neg, indptr, (7, 7)),
        "non-monotone-indptr": (data, indices, bump, (7, 7)),
        "short-data": (data[:-1], indices, indptr, (7, 7)),
        "short-indptr": (data, indices, indptr[:-1], (7, 7)),
        "indptr-not-from-0": (data, indices, indptr + 1, (7, 7)),
        "two-index-dtypes": (data, indices.astype(np.int64), indptr, (7, 7)),
        "float-indices": (data, indices.astype(float), indptr.astype(float),
                          (7, 7)),
    }


@pytest.mark.parametrize("case", sorted(_malformed()))
def test_malformed_structure_raises(case):
    with pytest.raises(ValueError):
        CsrBlock(*_malformed()[case])
