"""A CSR matrix held without ``scipy.sparse``: three arrays and a shape,
checked once, since SciPy's compiled kernels (which
:mod:`repro.core.segment` loads; read from there at call time) check no
bounds.  ``AssembledOperator._block_product`` makes the product calls
``scipy.sparse.csr_matrix`` makes on them, and :meth:`CsrBlock.diagonal`
its ``csr_diagonal`` call, so the bits are SciPy's."""

from __future__ import annotations

import numpy as np

from repro.core import segment

__all__ = ["CsrBlock"]


class CsrBlock:
    """``data``, ``indices`` and ``indptr`` of an ``(n_rows, n_cols)``
    CSR matrix with ``nnz`` entries, checked once: the C kernels check
    no bounds."""

    __slots__ = ("data", "indices", "indptr", "shape", "nnz")

    def __init__(self, data, indices, indptr, shape):
        m, n = self.shape = tuple(int(s) for s in shape)
        self.data, self.indices, self.indptr = data, indices, indptr
        self.nnz = nnz = data.size
        if (indptr.dtype != indices.dtype or indptr.dtype.kind != "i"
                or (data.ndim, indices.shape, indptr.shape) != (1, data.shape, (m + 1,))
                or min(m, n) < 0 or indptr[0] != 0 or indptr[-1] != nnz
                or (np.diff(indptr) < 0).any()
                or nnz and (indices.min() < 0 or indices.max() >= n)):
            raise ValueError(
                f"malformed CSR arrays for shape {shape}: they need one integer "
                "index dtype, nnz indices, n_rows + 1 indptr entries rising "
                "from 0 to nnz, and columns in [0, n_cols)"
            )

    def diagonal(self) -> np.ndarray:
        """The main diagonal: SciPy's ``csr_diagonal`` call (each
        ``a_ii`` summed from ``0.0``; ``0.0`` where a row stores none)."""
        m, n = self.shape
        d = np.empty(min(m, n))
        segment._csr_diagonal(0, m, n, self.indptr, self.indices, self.data, d)
        return d

    def to_scipy(self):
        """A ``scipy.sparse.csr_matrix`` on the same arrays (no copy)."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr),
                             shape=self.shape)
