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

Multi-RHS execution modes
-------------------------
A multivector batch ``ue`` of shape ``(E, nd, k)`` can be processed two
ways, selected by ``mode``:

* ``"oracle"`` — per-column single-RHS kernel calls: column ``j`` of the
  result is **bitwise identical** to the single-RHS product of column
  ``j``.  This is the verification reference the serve micro-batcher's
  answer-independence contract stands on.
* ``"gemm"`` — the BLAS3 fast path: the whole ``(E, nd, k)`` block is
  computed with ONE batched ``np.matmul`` (a dense GEMM per element over
  the ``(nd, k)`` column block — the distributed matrix-multivector
  formulation of Panigrahi et al., arXiv:2208.07129).  BLAS may
  accumulate each dot in a different order than the gemv path, so the
  result agrees with the oracle only to a derived rounding bound
  (:func:`gemm_equivalence_rtol`), never bitwise.
* ``"auto"`` — ``gemm`` when ``k >= k_min`` (default
  :data:`DEFAULT_K_MIN`; ``python -m repro.harness tune`` measures
  it), else ``oracle``.  Resolved by :func:`resolve_mode`.
"""

from __future__ import annotations

import numpy as np

from repro.util.arrays import scatter_add

__all__ = [
    "emv_einsum",
    "emv_columns",
    "EMV_KERNELS",
    "EMV_MODES",
    "DEFAULT_K_MIN",
    "EmvWorkspace",
    "gather_element_vectors",
    "accumulate_element_vectors",
    "gemm_equivalence_rtol",
    "resolve_mode",
]

#: recognized multi-RHS execution modes
EMV_MODES = ("oracle", "gemm", "auto")

#: conservative default crossover for ``mode="auto"``: GEMM is selected
#: for k >= DEFAULT_K_MIN columns.  ``python -m repro.harness tune``
#: measures the real crossover on the current machine and carries it to
#: the serve tier as :attr:`repro.serve.plan.ExecutionPlan.k_min`.
DEFAULT_K_MIN = 8


def resolve_mode(mode: str, k: int, k_min: int | None = None) -> str:
    """Resolve an execution mode to ``"oracle"`` or ``"gemm"``.

    ``"auto"`` picks ``"gemm"`` when ``k >= k_min`` (``k_min`` defaults
    to :data:`DEFAULT_K_MIN`); explicit modes pass through unchanged.
    """
    if mode not in EMV_MODES:
        raise ValueError(
            f"unknown EMV mode {mode!r} (expected one of {EMV_MODES})"
        )
    if mode != "auto":
        return mode
    threshold = DEFAULT_K_MIN if k_min is None else int(k_min)
    return "gemm" if k >= threshold else "oracle"


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
    ke: np.ndarray,
    ue: np.ndarray,
    out: np.ndarray | None = None,
    mode: str = "oracle",
) -> np.ndarray:
    """``ve[e] = Ke[e] @ ue[e]`` over the whole batch at once (batched
    BLAS gemv via ``matmul``).

    With ``out=`` the product is written into the given ``(E, nd)``
    buffer (viewed as ``(E, nd, 1)``) with no heap allocation; the
    result bits are identical either way.

    A multivector batch ``ue`` of shape ``(E, nd, k)`` is accepted and
    produces the ``(E, nd, k)`` products.  Under ``mode="oracle"`` (the
    default) each column is computed by the exact single-RHS kernel call
    on a contiguous copy, so ``emv_einsum(ke, ue)[:, :, j]`` is bitwise
    identical to ``emv_einsum(ke, ue[:, :, j])``.  Under ``mode="gemm"``
    the whole block is ONE batched ``np.matmul`` — a dense
    ``(nd, nd) @ (nd, k)`` GEMM per element — which reuses each loaded
    ``Ke`` row across all k columns (BLAS3 arithmetic intensity) but
    agrees with the oracle only to :func:`gemm_equivalence_rtol`.
    ``mode`` is ignored for 2-D ``ue`` (single RHS has one ordering).
    """
    if ue.ndim == 3:
        if resolve_mode(mode, ue.shape[2]) == "gemm":
            return np.matmul(ke, ue, out=out)
        return _emv_multi(emv_einsum, ke, ue, out)
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
    mode: str = "oracle",
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
    mode:
        Multi-RHS execution mode (see module docstring).  ``"gemm"``
        computes the 3-D batch with one batched ``np.matmul`` — the
        column formulation degenerates to a GEMM when the right operand
        is a block, so there is no separate column-major BLAS3 variant.
    """
    if ue.ndim == 3:
        if resolve_mode(mode, ue.shape[2]) == "gemm":
            return np.matmul(ke, ue, out=out)

        # per-column single-RHS calls (see emv_einsum): bitwise identity
        # per column is the contract the serve micro-batcher relies on
        def _single(ke_, ue_, out_=None):
            return emv_columns(ke_, ue_, out=out_, tmp=tmp, columns=columns)

        return _emv_multi(_single, ke, ue, out)
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


def _emv_multi(single, ke, ue, out):
    """Apply a single-RHS EMV kernel column by column over an
    ``(E, nd, k)`` multivector batch.

    Each column is copied contiguous before the kernel call so the
    arithmetic runs on exactly the operands the single-RHS path sees
    (bitwise contract); the strided write-back is a pure copy.
    """
    if out is None:
        out = np.empty_like(ue)
    for j in range(ue.shape[2]):
        out[:, :, j] = single(ke, np.ascontiguousarray(ue[:, :, j]))
    return out


EMV_KERNELS = {"einsum": emv_einsum, "columns": emv_columns}


class EmvWorkspace:
    """Preallocated scratch for the EMV sweep hot path (Alg. 2).

    One workspace per operator, sized for the *largest* sweep (all local
    elements); each sweep takes a leading-slice view, so the independent
    and dependent sweeps share the same memory.  Holds:

    * ``ue`` — gathered element input vectors, ``(n_elements, nd)``;
    * ``ve`` — elemental products, same shape;
    * ``tmp`` — per-column FMA scratch for the ``columns`` kernel.

    The GEMM multi-RHS path widens the scratch to ``(n_elements, nd, k)``
    pairs, cached per ``k`` on first use (:meth:`multi_views`) so a
    steady-state sweep over a repeating batch width allocates nothing.
    """

    __slots__ = ("n_elements", "nd", "ue", "ve", "_tmp", "_multi")

    def __init__(self, n_elements: int, nd: int):
        self.n_elements = int(n_elements)
        self.nd = int(nd)
        self.ue = np.empty((self.n_elements, self.nd))
        self.ve = np.empty((self.n_elements, self.nd))
        self._tmp: np.ndarray | None = None  # columns kernel only
        self._multi: dict[int, tuple[np.ndarray, np.ndarray]] = {}

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
        """Leading-slice views ``(ue, ve)`` of ``(n, nd, k)`` multivector
        scratch for a GEMM sweep of ``n`` elements over ``k`` columns.

        The full-size ``(n_elements, nd, k)`` buffers are allocated on
        the first call for a given ``k`` and reused afterwards.
        """
        if k not in self._multi:
            self._multi[k] = (
                np.empty((self.n_elements, self.nd, k)),
                np.empty((self.n_elements, self.nd, k)),
            )
        ue, ve = self._multi[k]
        return ue[:n], ve[:n]

    def clear_multi(self) -> None:
        """Drop the per-``k`` multivector scratch (after an in-place
        operator update, so no stale view outlives the element batch it
        was sized against)."""
        self._multi.clear()


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


def accumulate_element_vectors(
    flat_data: np.ndarray,
    e2l_dofs: np.ndarray,
    ve: np.ndarray,
    elems: np.ndarray | None = None,
) -> None:
    """Accumulate element vectors ``ve`` (Alg. 2 line 6) into a flat
    local dof vector.

    A ``(n_dofs, k)`` destination with ``(E, nd, k)`` products is
    accumulated column by column through the same ``scatter_add``, so
    each column's additions happen in the single-RHS order (bitwise
    contract of the multi-RHS path).
    """
    idx = e2l_dofs if elems is None else e2l_dofs[elems]
    if flat_data.ndim == 2:
        for j in range(flat_data.shape[1]):
            scatter_add(flat_data[:, j], idx, np.ascontiguousarray(ve[:, :, j]))
        return
    scatter_add(flat_data, idx, ve)
