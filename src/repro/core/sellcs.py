"""SELL-C-sigma sliced-ELL storage and vectorized slice kernels.

SELL-C-sigma (Kreutzer et al., arXiv:1112.5588) is the unified
SIMD/GPU-friendly sparse format: rows are sorted by descending length
inside windows of ``sigma`` rows, grouped into chunks of ``C`` rows, and
each chunk is padded to its own width — so the padding overhead of plain
ELLPACK is confined to one chunk while the sort perturbation is confined
to one window.

This implementation adds one repo-specific twist: after the windowed
sort, whole chunks are reordered by descending chunk width.  That gives
the *prefix property* — the rows active in lane ``j`` (rows whose chunk
width exceeds ``j``) are exactly a leading prefix of the permuted row
order — which lets the single-RHS kernel run one contiguous
gather/multiply/accumulate per lane with no per-chunk bookkeeping.

Two redundant layouts are stored (reported honestly by
:meth:`SellCS.stored_bytes`):

* **slice-major** (``slices``): per lane ``j``, the column indices and
  values of entry ``j`` of every active row, contiguous.  Drives the
  bitwise single-RHS kernel :func:`sell_spmv` — per row, lane order is
  stored-entry order, so the accumulation sequence is identical to the
  CSR reference row sum and the result is bitwise-equal.
* **group-major** (``groups``): runs of equal-width chunks, each with a
  dense ``(rows, width)`` value block.  Drives the multi-RHS
  chunk-batched-matmul kernel :func:`sell_spmm` (BLAS3 semantics:
  equal to the oracle to rounding, not bitwise).

Padding uses a *sentinel column*: padded lanes store column ``n_cols``
and value ``0.0``, and the workspace keeps an ``n_cols + 1``-long padded
input whose last slot is pinned to ``+0.0``.  A padded term is therefore
exactly ``0.0 * 0.0 == +0.0`` — never ``-0.0`` and never NaN, even when
fault injection leaves non-finite values in ghost slots — and adding
``+0.0`` to a partial sum that started from ``+0.0`` cannot change its
bits (a partial sum seeded with ``+0.0`` is never ``-0.0``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.util.arrays import INDEX_DTYPE

if TYPE_CHECKING:
    from repro.core.csr import CsrBlock

__all__ = [
    "DEFAULT_C",
    "DEFAULT_SIGMA_FACTOR",
    "SellCS",
    "SellSlice",
    "SellGroup",
    "SellWorkspace",
    "build_sellcs",
    "sell_spmv",
    "sell_spmm",
]

#: Hand-picked (C, sigma) defaults: chunk height 32 (one GPU warp / a
#: full AVX-512 lane tier) with an 8C sorting window — the layout the
#: sellcs bench measured at 0.94-0.97 occupancy across the harness
#: problems.  Kreutzer et al. show these are machine-dependent; a caller
#: picks another layout with ``SellCSOperator(C=, sigma=)``.  Served
#: ``sellcs`` keys carry no layout and always build this one.
DEFAULT_C = 32
DEFAULT_SIGMA_FACTOR = 8


@dataclass(frozen=True)
class SellSlice:
    """Lane ``j`` of the slice-major layout.

    ``m`` active rows (a prefix of the permuted row order); ``cols`` and
    ``vals`` hold entry ``j`` of each, with sentinel column ``n_cols``
    and value ``0.0`` in padded positions.
    """

    m: int
    cols: np.ndarray
    vals: np.ndarray


@dataclass(frozen=True)
class SellGroup:
    """A run of equal-width chunks: permuted rows ``[r0, r1)`` all padded
    to width ``w``.  ``cols_flat`` is the row-major ``(r1 - r0) * w``
    flattened column block (sentinel-padded); ``vals`` is the dense
    ``(r1 - r0, w)`` value block (zero-padded)."""

    r0: int
    r1: int
    w: int
    cols_flat: np.ndarray
    vals: np.ndarray


@dataclass(frozen=True)
class SellCS:
    """An immutable SELL-C-sigma layout built from one CSR matrix."""

    n_rows: int
    n_cols: int
    C: int
    sigma: int
    nnz: int
    padded_nnz: int
    occupancy: float
    perm: np.ndarray  # (n_rows,) permuted position -> original row
    inv: np.ndarray  # (n_rows,) original row -> permuted position
    widths: np.ndarray  # (n_chunks,) chunk widths, non-increasing
    chunk_sizes: np.ndarray  # (n_chunks,) chunk heights (<= C)
    slices: tuple  # of SellSlice, lane-major
    groups: tuple  # of SellGroup, equal-width runs (w > 0 only)
    active_rows: int  # permuted rows covered by the w > 0 groups

    def stored_bytes(self) -> int:
        """Bytes held by both redundant layouts plus metadata — the
        honest memory cost of the format (padding included twice, once
        per layout)."""
        total = (
            self.perm.nbytes
            + self.inv.nbytes
            + self.widths.nbytes
            + self.chunk_sizes.nbytes
        )
        for s in self.slices:
            total += s.cols.nbytes + s.vals.nbytes
        for g in self.groups:
            total += g.cols_flat.nbytes + g.vals.nbytes
        return total


class SellWorkspace:
    """Per-layout preallocated buffers for zero-allocation steady-state
    kernels (the ``EmvWorkspace`` convention).

    ``k == 1`` carries the single-RHS buffers.  ``k > 1`` carries the
    multi-RHS ones as flat arrays sized for ``k`` columns, which serve
    every width up to ``k``: :func:`sell_spmm` views their leading part.
    The padded input slot ``[n_cols]`` is ``+0.0``: pinned here for the
    single-RHS buffer, written on every multi-RHS call (a narrower
    width's slot lies where a wider one keeps input values).
    """

    def __init__(self, layout: SellCS, k: int = 1):
        if k < 1:
            raise ValueError(f"need at least one column, got k={k}")
        self.k = int(k)
        n, nc = layout.n_rows, layout.n_cols
        m0 = layout.slices[0].m if layout.slices else 0
        if k == 1:
            self.xpad = np.zeros(nc + 1)
            self.g = np.empty(m0)
            self.t = np.empty(m0)
            self.yp = np.empty(n)
            self.y = np.empty(n)
        else:
            gmax = 0
            for g in layout.groups:
                gmax = max(gmax, (g.r1 - g.r0) * g.w)
            self.Xpad = np.zeros((nc + 1) * k)
            self.Gbuf = np.empty(gmax * k)
            self.Yp = np.empty(n * k)
            self.Y = np.empty(n * k)


def build_sellcs(A: CsrBlock, C: int, sigma: int) -> SellCS:
    """Convert a CSR matrix (its ``indptr``, ``indices``, ``data``,
    ``shape`` and ``nnz``: a :class:`~repro.core.csr.CsrBlock` or a SciPy
    CSR matrix) to a :class:`SellCS` layout.

    The stored entry order of ``A`` is preserved per row (no column
    re-sort), which is what makes :func:`sell_spmv` bitwise-equal to
    ``A @ x``: lane ``j`` of a row is its ``j``-th *stored* entry, so
    the per-row accumulation order is identical to scipy's row sum.
    """
    if C < 1:
        raise ValueError(f"chunk height C must be >= 1, got {C}")
    if sigma < 1:
        raise ValueError(f"sorting window sigma must be >= 1, got {sigma}")
    n_rows, n_cols = A.shape
    indptr = A.indptr
    indices = A.indices
    data = A.data
    lens = np.diff(indptr).astype(INDEX_DTYPE)

    # sigma-window stable sort by descending row length: reordering is
    # confined to each window, so sigma=1 is the unsorted identity and
    # sigma >= n_rows is the fully sorted layout
    perm = np.arange(n_rows, dtype=INDEX_DTYPE)
    for s0 in range(0, n_rows, sigma):
        s1 = min(s0 + sigma, n_rows)
        win = perm[s0:s1]
        perm[s0:s1] = win[np.argsort(-lens[win], kind="stable")]

    # chunk the sorted order, then reorder whole chunks by descending
    # width (stable) for the prefix property; the ragged last chunk (if
    # n_rows % C != 0) travels with its width like any other
    chunk_rows = [perm[c0 : c0 + C] for c0 in range(0, n_rows, C)]
    cw = np.array(
        [int(lens[r].max()) if r.size else 0 for r in chunk_rows],
        dtype=INDEX_DTYPE,
    )
    order = np.argsort(-cw, kind="stable")
    chunk_rows = [chunk_rows[int(i)] for i in order]
    widths = cw[order]
    chunk_sizes = np.array([r.size for r in chunk_rows], dtype=INDEX_DTYPE)
    if chunk_rows:
        perm = np.concatenate(chunk_rows)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n_rows, dtype=INDEX_DTYPE)

    plens = lens[perm] if n_rows else lens
    # chunk width seen by each permuted row (rows are padded to it)
    row_w = (
        np.repeat(widths, chunk_sizes)
        if len(chunk_sizes)
        else np.empty(0, dtype=INDEX_DTYPE)
    )

    wmax = int(widths[0]) if len(widths) else 0
    slices = []
    padded_nnz = 0
    for j in range(wmax):
        # prefix property: rows active in lane j are permuted rows [0, m)
        m = int(np.count_nonzero(row_w > j))
        rows_j = perm[:m]
        has = plens[:m] > j
        cols = np.full(m, n_cols, dtype=INDEX_DTYPE)
        vals = np.zeros(m)
        src = indptr[rows_j[has]] + j
        cols[has] = indices[src]
        vals[has] = data[src]
        slices.append(SellSlice(m=m, cols=cols, vals=vals))
        padded_nnz += m

    groups = []
    r0 = 0
    i = 0
    n_chunks = len(widths)
    active_rows = 0
    while i < n_chunks:
        w = int(widths[i])
        r1 = r0
        while i < n_chunks and int(widths[i]) == w:
            r1 += int(chunk_sizes[i])
            i += 1
        if w > 0:
            rows_g = perm[r0:r1]
            lane = np.arange(w, dtype=INDEX_DTYPE)
            idx = indptr[rows_g][:, None] + lane[None, :]
            valid = lane[None, :] < lens[rows_g][:, None]
            safe = np.where(valid, idx, 0)
            cols2d = np.where(valid, indices[safe], n_cols)
            vals2d = np.where(valid, data[safe], 0.0)
            groups.append(
                SellGroup(
                    r0=r0,
                    r1=r1,
                    w=w,
                    cols_flat=np.ascontiguousarray(
                        cols2d.reshape(-1), dtype=INDEX_DTYPE
                    ),
                    vals=np.ascontiguousarray(vals2d),
                )
            )
            active_rows = r1
        r0 = r1

    nnz = int(A.nnz)
    return SellCS(
        n_rows=n_rows,
        n_cols=n_cols,
        C=int(C),
        sigma=int(sigma),
        nnz=nnz,
        padded_nnz=int(padded_nnz),
        occupancy=(nnz / padded_nnz) if padded_nnz else 1.0,
        perm=perm,
        inv=inv,
        widths=widths,
        chunk_sizes=chunk_sizes,
        slices=tuple(slices),
        groups=tuple(groups),
        active_rows=int(active_rows),
    )


def sell_spmv(
    layout: SellCS,
    x: np.ndarray,
    ws: SellWorkspace,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``y = A @ x`` through the slice-major layout — bitwise-equal to
    the CSR reference product, in original row order.

    Allocation-free given a ``k == 1`` workspace; the result lands in
    ``out`` (or the workspace ``y`` buffer, overwritten per call).
    """
    xpad = ws.xpad
    xpad[: layout.n_cols] = x
    yp = ws.yp
    yp[:] = 0.0
    for s in layout.slices:
        m = s.m
        g = ws.g[:m]
        t = ws.t[:m]
        np.take(xpad, s.cols, out=g, mode="clip")
        np.multiply(s.vals, g, out=t)
        np.add(yp[:m], t, out=yp[:m])
    y = ws.y if out is None else out
    np.take(yp, layout.inv, out=y, mode="clip")
    return y


def sell_spmm(
    layout: SellCS,
    X: np.ndarray,
    ws: SellWorkspace,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``Y = A @ X`` through the group-major layout: one dense
    ``(rows, 1, w) @ (rows, w, k)`` batched matmul per equal-width chunk
    run.  BLAS3 semantics — equal to the per-column oracle to rounding
    (each row contracts its ``w`` lanes in one fused reduction), not
    bitwise.  Allocation-free given a ``k > 1`` workspace at least as
    wide as ``X``; the result lands in ``out`` or a view of the
    workspace, overwritten by its next call of any width.
    """
    k = X.shape[1]
    if k > ws.k:
        raise ValueError(f"X has {k} columns, the workspace serves {ws.k}")
    n, nc = layout.n_rows, layout.n_cols
    Xpad = ws.Xpad[: (nc + 1) * k].reshape(nc + 1, k)
    Xpad[:nc] = X
    Xpad[nc] = 0.0
    Yp = ws.Yp[: n * k].reshape(n, k)
    # rows past the last w > 0 group live in zero-width chunks: empty
    # rows, whose product is identically zero
    Yp[layout.active_rows :] = 0.0
    for grp in layout.groups:
        mg = grp.r1 - grp.r0
        G = ws.Gbuf[: mg * grp.w * k].reshape(mg * grp.w, k)
        np.take(Xpad, grp.cols_flat, axis=0, out=G, mode="clip")
        np.matmul(
            grp.vals[:, None, :],
            G.reshape(mg, grp.w, k),
            out=Yp[grp.r0 : grp.r1].reshape(mg, 1, k),
        )
    Y = ws.Y[: n * k].reshape(n, k) if out is None else out
    np.take(Yp, layout.inv, axis=0, out=Y, mode="clip")
    return Y
