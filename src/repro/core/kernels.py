"""Batched dense elemental matrix-vector (EMV) kernels.

The whole point of HYMV: the SPMV inner loop is *dense local linear
algebra* over contiguous element batches instead of irregular CSR
indexing.  Two kernels are provided:

* ``einsum`` — batched dense matvec, the default.
* ``columns`` — the paper's eq. (4): the element matrix is traversed
  column-major and the product formed as a sum of scaled columns (the
  layout the paper vectorizes with AVX512/OpenMP-SIMD).  Kept as an
  ablation to compare kernel formulations.

Both kernels accept ``out=`` (and ``columns`` a preallocated ``tmp=``
and an optional column-major matrix batch ``columns=``) so the operator
hot path can run allocation-free against an :class:`EmvWorkspace`.

CSR view of the stored batch
----------------------------
For linear elements (``nd <= CSR_VIEW_MAX_ND``) the batched
``(nd, nd) @ (nd, 1)`` matmul is slower than the data it reads: each
tiny gemv pays per-element dispatch.  :class:`KeCsrView` instead reads
the stored ``(E, nd, nd)`` batch as the ``data`` array of an
``(E*nd) x n_dofs`` CSR matrix whose column indices are the element's
dofs, so ONE SciPy ``csr_matvec`` call does the gather and the EMV of a
whole sweep in C.  The kernel sums each row sequentially from ``+0.0``
with a separate multiply and add — exactly :func:`emv_columns`' order
(paper eq. 4), so its products equal ``emv_columns`` on the gathered
``ue`` bit for bit (up to the sign of an all-``-0.0`` row, which the
segment sum that follows absorbs).

Multi-RHS execution modes
-------------------------
An operator's multivector product
(:meth:`~repro.core.operator.DistributedOperator.spmv_multi`) runs one
of two ways, selected by ``mode``:

* ``"oracle"`` — the single-RHS product per column: column ``j`` of the
  result is **bitwise identical** to the single-RHS product of column
  ``j``.  This is the verification reference the serve micro-batcher's
  answer-independence contract stands on.
* ``"gemm"`` — the BLAS3 fast path: an element sweep computes its
  ``(E, nd, k)`` block with ONE batched ``np.matmul`` (a dense GEMM per
  element over the ``(nd, k)`` column block — the distributed
  matrix-multivector formulation of Panigrahi et al.,
  arXiv:2208.07129).  BLAS may accumulate each dot in a different order
  than the gemv path, so the result agrees with the oracle only to a
  derived rounding bound (:func:`gemm_equivalence_rtol`), never bitwise.
* ``"auto"`` — ``gemm`` when ``k >= DEFAULT_K_MIN``, else ``oracle``,
  so batches narrower than :data:`DEFAULT_K_MIN` keep the oracle's
  bits.  Resolved by :func:`resolve_mode`.
"""

from __future__ import annotations

import numpy as np

from repro.core.segment import _csr_matvec
from repro.util.arrays import WidestScratch

__all__ = [
    "emv_einsum",
    "emv_columns",
    "EMV_KERNELS",
    "EMV_MODES",
    "DEFAULT_K_MIN",
    "GEMM_CHUNK_BYTES",
    "EmvWorkspace",
    "CSR_VIEW_MAX_ND",
    "KeCsrView",
    "gather_element_vectors",
    "gemm_equivalence_rtol",
    "resolve_mode",
]

#: recognized multi-RHS execution modes
EMV_MODES = ("oracle", "gemm", "auto")

#: the ``mode="auto"`` crossover: GEMM for k >= DEFAULT_K_MIN columns.
#: A constant, not a tuned value: GEMM measured faster from k = 2 on a
#: 2-vCPU host (EXPERIMENTS.md "The GEMM crossover as a constant"), but
#: crossing there would give up the oracle's per-column bits for 2-7-wide
#: batches.
DEFAULT_K_MIN = 8


def resolve_mode(mode: str, k: int) -> str:
    """Resolve an execution mode to ``"oracle"`` or ``"gemm"``.

    ``"auto"`` picks ``"gemm"`` when ``k >= DEFAULT_K_MIN``; explicit
    modes pass through unchanged; any other mode is a ``ValueError``.
    """
    if mode not in EMV_MODES:
        raise ValueError(
            f"unknown EMV mode {mode!r} (expected one of {EMV_MODES})"
        )
    if mode != "auto":
        return mode
    return "gemm" if k >= DEFAULT_K_MIN else "oracle"


def gemm_equivalence_rtol(
    nd: int, k: int = 1, n_accum: int | None = None, dtype=np.float64
) -> float:
    """Derived (not hand-tuned) bound on the GEMM-vs-oracle difference.

    Each output dof is an accumulation of at most ``n_accum`` elemental
    contributions, each a dot product of length ``nd``.  Sequential
    summation of ``L`` terms carries a forward error of at most
    ``gamma_L * sum|terms|`` with ``gamma_L ~= L * eps``; the GEMM and
    gemv paths are two such orderings, so their difference is bounded by
    ``2 * gamma_L`` relative to the *magnitude* sum ``|K| |u|`` (the
    product with all operands replaced by their absolute values).  The
    ``k`` term adds headroom for taking the max over the ``k``
    independent columns.  ``n_accum`` defaults to ``nd`` (the dense
    element-batch case).
    """
    eps = float(np.finfo(dtype).eps)
    length = int(nd) + int(n_accum if n_accum is not None else nd)
    return 2.0 * (length + int(k)) * eps


def emv_einsum(
    ke: np.ndarray, ue: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``ve[e] = Ke[e] @ ue[e]`` over the whole ``(E, nd)`` batch at once
    (batched BLAS gemv via ``matmul``).

    With ``out=`` the product is written into the given ``(E, nd)``
    buffer (viewed as ``(E, nd, 1)``) with no heap allocation; the
    result bits are identical either way.
    """
    if out is None:
        return np.matmul(ke, ue[:, :, None])[:, :, 0]
    np.matmul(ke, ue[:, :, None], out=out[:, :, None])
    return out


def emv_columns(
    ke: np.ndarray,
    ue: np.ndarray,
    out: np.ndarray | None = None,
    tmp: np.ndarray | None = None,
    columns: np.ndarray | None = None,
) -> np.ndarray:
    """Column-major sum-of-scaled-columns EMV (paper eq. 4).

    ``ve = sum_j Ke[:, j] * ue[j]`` — each term is a contiguous column
    streamed through a fused multiply-add, which is how the paper's SIMD
    kernel is written.

    Parameters
    ----------
    out, tmp:
        Optional preallocated ``(E, nd)`` buffers; with both given the
        kernel allocates nothing.
    columns:
        Optional column-major copy of the matrix batch with shape
        ``(nd, E, nd)`` where ``columns[j] == ke[:, :, j]`` contiguous.
        The strided column reads of ``ke`` are this kernel's bandwidth
        bottleneck (a full cache line is fetched per double); streaming
        the precomputed contiguous columns instead is the paper's SIMD
        layout.  The multiply operands and the add order are unchanged,
        so the result is bitwise identical with or without it.
    """
    nd = ke.shape[2]
    col = (lambda j: columns[j]) if columns is not None else (lambda j: ke[:, :, j])
    if out is None:
        ve = col(0) * ue[:, 0, None]
        for j in range(1, nd):
            ve += col(j) * ue[:, j, None]
        return ve
    # einsum instead of a broadcast multiply: a length-1 (0-stride)
    # operand sends the ufunc machinery through its 64 KiB buffered
    # iterator, which would be the hot path's only heap allocation.
    # The per-element arithmetic is the same single multiply — bitwise
    # identical to the broadcast form.
    np.einsum("en,e->en", col(0), ue[:, 0], out=out)
    if tmp is None:
        for j in range(1, nd):
            out += col(j) * ue[:, j, None]
        return out
    for j in range(1, nd):
        np.einsum("en,e->en", col(j), ue[:, j], out=tmp)
        out += tmp
    return out


EMV_KERNELS = {"einsum": emv_einsum, "columns": emv_columns}


#: element-chunk budget of the GEMM multi-RHS sweep: a slice of more
#: than ``C = GEMM_CHUNK_BYTES // (128 nd)`` elements runs gather ->
#: GEMM -> segment-add on chunks of ``C``, whose ``(ue, ve)`` element
#: blocks fill the budget at k = 8 (``2 * C * nd * 8`` doubles) instead
#: of spanning the mesh.  ``C`` depends on ``nd`` alone, so one set of
#: chunk plans serves every k.  Median ms of single-rank k = 8 GEMM
#: ``apply_owned_multi`` calls by budget, 9 interleaved rounds, 2-vCPU
#: x86-64 host (2 MiB L2 per core), NumPy 2.4 ("none" is one block;
#: ``C`` at 1 MiB in brackets):
#:
#:     shape (elements, nd) [C]      none  256K  512K    1M    2M    4M
#:     HEX8 nel=16 (4096, 8) [1024]  1.24  1.31  1.33  1.29  1.30  1.23
#:     HEX8 nel=32 (32768, 8) [1024] 13.5  11.9  11.3  10.9  11.3  10.9
#:     TET4 nel=10 (6000, 4) [2048]  0.78  0.70  0.63  0.71  0.80  0.80
#:     elastic HEX8 (1024, 24) [341] 1.16  1.31  1.22  1.24  1.23  1.12
#:     elastic HEX20 (512, 60) [136] 3.18  2.91  2.80  2.96  2.85  3.02
#:     partial assembly, best of 3 calls per round:
#:     HEX8 nel=16 (4096, 8) [1024]  6.73  2.97  3.26  3.43  3.79  8.69
#:     elast. HEX8 (1024, 24) [341]  7.36  6.25  6.50  6.98  6.99  7.29
#:     elast. HEX20 (1024, 60) [136] 48.1  21.9  22.8  23.9  24.5  35.3
#:
#: Out of cache (``nel=32``) chunks run 0.8x; elsewhere every budget is
#: within the host's noise of one block (each chunk costs ~10 us of
#: Python), while a k = 8 sweep's scratch shrinks from ``16 E nd`` to
#: ``16 C nd`` doubles: a constant, not a tuning knob.  Partial
#: assembly's quadrature-point temporaries are several times its element
#: blocks, so its chunked sweeps take about half the time of one block
#: (the smaller budgets are within ~15% of 1 MiB).
GEMM_CHUNK_BYTES = 1 << 20


class EmvWorkspace:
    """Preallocated scratch for the EMV sweep hot path (Alg. 2).

    One workspace per operator, sized for the *largest* sweep (all local
    elements); each sweep takes a leading-slice view, so the independent
    and dependent sweeps share the same memory.  Holds:

    * ``ue`` — gathered element input vectors, ``(n_elements, nd)``,
      allocated on first use;
    * ``ve`` — elemental products, same shape;
    * ``tmp`` — per-column FMA scratch for the ``columns`` kernel.

    The GEMM multi-RHS path sweeps ``chunk`` elements at a time (from
    :data:`GEMM_CHUNK_BYTES`) through a chunk-sized ``(ue, ve)`` pair
    (:meth:`multi_views`); the oracle path at
    ``k > 1`` sweeps a transposed, row-contiguous copy of the
    multivector (:meth:`column_views`).  Both pairs are sized for the
    widest batch seen, so a steady-state sweep allocates nothing.
    """

    __slots__ = ("n_elements", "nd", "chunk", "ve", "_ue", "_tmp", "_multi",
                 "_cols")

    def __init__(self, n_elements: int, nd: int):
        self.n_elements = int(n_elements)
        self.nd = int(nd)
        self.chunk = max(
            1, min(self.n_elements, GEMM_CHUNK_BYTES // (128 * self.nd))
        )
        self.ve = np.empty((self.n_elements, self.nd))
        self._ue: np.ndarray | None = None  # kernels that gather only
        self._tmp: np.ndarray | None = None  # columns kernel only
        self._multi = WidestScratch(  # GEMM mode only
            (self.chunk * self.nd,) * 2, lambda bufs, k: bufs
        )
        self._cols: np.ndarray | None = None  # oracle k > 1 only

    @property
    def ue(self) -> np.ndarray:
        """Allocated on first use: a CSR-view sweep never gathers into it."""
        if self._ue is None:
            self._ue = np.empty((self.n_elements, self.nd))
        return self._ue

    @property
    def tmp(self) -> np.ndarray:
        """Per-column FMA scratch, allocated on first use (the einsum
        kernel never touches it — keep its cache footprint at zero)."""
        if self._tmp is None:
            self._tmp = np.empty((self.n_elements, self.nd))
        return self._tmp

    def views(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Leading-slice views ``(ue, ve)`` for a sweep of ``n``
        elements."""
        return self.ue[:n], self.ve[:n]

    def multi_views(self, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``(n, nd, k)`` views ``(ue, ve)`` of the GEMM scratch for
        ``n <= chunk`` elements over ``k`` columns."""
        ue, ve = self._multi.get(k) or self._multi(k)
        size, shape = n * self.nd * k, (n, self.nd, k)
        return ue[:size].reshape(shape), ve[:size].reshape(shape)

    def column_views(self, n_dofs: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``(k, n_dofs)`` scratch pair ``(U^T, V^T)`` whose rows are
        contiguous copies of a multivector's strided dof columns (NumPy's
        ``take`` and SciPy's kernels would otherwise copy each strided
        column on every sweep).  One buffer serves every ``k`` up to the
        widest seen; it is reallocated only when a wider batch arrives."""
        cols = self._cols
        if cols is None or cols.shape[1] < k or cols.shape[2] != n_dofs:
            cols = self._cols = np.empty((2, k, n_dofs))
        return cols[0, :k], cols[1, :k]


#: largest element-dof count whose single-RHS (k = 1 and oracle) sweeps
#: run through :class:`KeCsrView` instead of gather + batched matmul.
#: Measured as gather+matmul time over CSR-view time on synthetic
#: ~2 MB Ke batches with banded element maps (2-vCPU x86-64 host, SciPy
#: 1.17, median of 3 runs of 21 interleaved samples):
#:
#:     nd       4     8    10    12    20    24    27    60
#:     speedup  4.36  1.61  1.38  1.10  0.73  0.62  0.63  0.42
#:
#: HEX8/TET4 and TET10 scalar problems take the view; HEX8 elasticity
#: (24), HEX20 and HEX27 keep the matmul.  At nd=12 (TET4 elasticity)
#: the gain is inside the host's run-to-run spread, too small to pay
#: for the view's int32 indices (+50% of Ke bytes).
CSR_VIEW_MAX_ND = 10


class KeCsrView:
    """A stored ``(E, nd, nd)`` element-matrix batch read as the data
    array of an ``(E*nd) x n_dofs`` CSR matrix.

    Row ``e*nd + i`` holds ``ke[e, i, :]`` at columns ``e2l_dofs[e, :]``,
    so ``csr_matvec`` over rows ``[start*nd, stop*nd)`` forms the element
    products ``ke[e] @ uf[e2l_dofs[e]]`` of elements ``start..stop-1``
    — gather and EMV in one C row loop.  ``data`` is a *view* of ``ke``
    (in-place element updates need no refresh); ``indptr`` and
    ``indices`` are built once.  Bits: each row is summed sequentially
    from the zeroed output, multiply then add, which is
    :func:`emv_columns`' order (see the module docstring).
    """

    __slots__ = ("nd", "n_cols", "indptr", "indices", "data")

    def __init__(self, ke: np.ndarray, e2l_dofs: np.ndarray, n_cols: int):
        if not ke.flags.c_contiguous:
            raise ValueError("KeCsrView needs a C-contiguous Ke batch")
        E, nd = e2l_dofs.shape
        self.nd = int(nd)
        self.n_cols = int(n_cols)
        # SciPy's kernel takes one index type for indptr and indices;
        # int32 unless the batch outgrows it
        itype = np.int32 if max(ke.size, self.n_cols) < 2**31 else np.int64
        self.indptr = np.arange(0, ke.size + 1, nd, dtype=itype)
        # row i of element e is e2l_dofs[e]: nd copies side by side
        self.indices = np.tile(e2l_dofs.astype(itype), nd).reshape(E, nd, nd)
        self.data = ke.reshape(-1)

    @property
    def nbytes(self) -> int:
        """Bytes of the index arrays the view adds to the Ke batch."""
        return self.indptr.nbytes + self.indices.nbytes

    def matvec(
        self, start: int, stop: int, uf: np.ndarray, ve: np.ndarray
    ) -> np.ndarray:
        """``ve[e - start] = ke[e] @ uf[e2l_dofs[e]]`` for elements
        ``start..stop-1`` into the C-contiguous ``(stop - start, nd)``
        buffer ``ve``; returns ``ve``.  Allocation-free for a contiguous
        ``uf`` (SciPy would copy a strided one)."""
        flat = ve.reshape(-1)
        flat.fill(0.0)
        nd = self.nd
        _csr_matvec(
            (stop - start) * nd,
            self.n_cols,
            self.indptr[start * nd: stop * nd + 1],
            self.indices,
            self.data,
            uf,
            flat,
        )
        return ve


def gather_element_vectors(
    flat_data: np.ndarray,
    e2l_dofs: np.ndarray,
    elems: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Extract element vectors ``ue`` (Alg. 2 line 4) from a flat local
    dof vector via the dof-level E2L map.

    With ``out=`` the gather lands in the given buffer allocation-free
    (``mode="clip"`` skips the bounds check that would otherwise route
    through a temporary; the maps are validated at construction).

    A 2-D ``flat_data`` of shape ``(n_dofs, k)`` gathers whole dof rows,
    returning ``(E, nd, k)`` element multivectors; row gathers copy bits,
    so column ``j`` of the result equals the 1-D gather of column ``j``.
    """
    idx = e2l_dofs if elems is None else e2l_dofs[elems]
    if flat_data.ndim == 2:
        if out is None:
            return flat_data[idx]
        np.take(flat_data, idx, axis=0, out=out, mode="clip")
        return out
    if out is None:
        return flat_data[idx]
    np.take(flat_data, idx, out=out, mode="clip")
    return out

