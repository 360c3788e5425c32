"""Precomputed segment-sum scatter: zero-allocation EMV accumulation.

Accumulating element vectors into the local dof vector is the irregular
half of the SPMV hot path (Alg. 2 line 6).  The legacy
:func:`repro.util.arrays.scatter_add` re-derives the reduction structure
on every call — ``np.bincount`` walks the whole index set *and* allocates
an ``n_dofs``-sized scratch per sweep.  A :class:`SegmentScatter` instead
sorts the sweep's dof indices **once** at operator setup and stores:

* the stable permutation that groups equal dofs together (so each dof's
  contributions stay in original occurrence order),
* the segment boundaries of the sorted index array (CSR ``indptr``),
* the list of *touched* dofs (one per segment).

Every subsequent accumulation is then a fixed-structure segmented sum at
``O(batch)`` cost that writes only touched dofs and performs **zero heap
allocations** — all scratch is owned by the object.

Bitwise contract
----------------
The result is bit-for-bit identical to the legacy bincount path (and to
the ``np.add.at`` reference on a zero-initialised destination): each
segment is reduced sequentially in occurrence order starting from 0.0,
and the per-dof totals are added to the destination with a single
rounding — exactly the grouping ``out += np.bincount(...)`` produces.
``np.add.reduceat`` is deliberately *not* used: its inner reduction
order differs from sequential summation in the last ulp.

Zeroed destinations
-------------------
Algorithm 2 zeroes ``vn`` and then runs its first sweep into it.  For
that sweep ``add_into``/``add_into_multi`` take ``zeroed=True``: the
caller promises every touched entry of ``out`` is ``+0.0``, and one CSR
kernel call over a *full-height* row pointer (rows ``0..touched[-1]``,
empty rows for untouched dofs, built at construction) sums each dof's
segment straight into ``out`` — no scratch, no gather/add/scatter.  The
bits are the grouped path's: the kernel starts each row's sequential sum
from ``out[t] = +0.0`` exactly as the grouped path starts it from its
zeroed scratch, and the grouped path's extra ``0.0 + s`` is ``s`` for
every ``s`` it can produce: a segment summed sequentially from ``+0.0``
is never ``-0.0`` (in round-to-nearest ``+0.0 + -0.0`` and ``x + -x``
are both ``+0.0``), and a NaN passes through the addition with its
payload.  Untouched rows below ``touched[-1]`` are read and written back
unchanged.  A non-C-contiguous destination takes the grouped path, with
the same bits.

A GEMM multi-RHS sweep hands its element values over chunk by chunk
(:meth:`SegmentScatter.add_chunks_multi`), with the same bits.

Both paths drive SciPy's CSR matvec kernel (a tight C loop summing
each row sequentially; the stored unit coefficients contribute each
value exactly, since ``1.0 * x`` is exact in IEEE-754), loaded from
SciPy's compiled ``_sparsetools`` extension without the ``scipy.sparse``
package (:func:`_load_csr_kernels`).  SciPy is a requirement: without
it this module does not import.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from repro.util.arrays import INDEX_DTYPE, WidestScratch

__all__ = ["SegmentScatter"]

_SPARSETOOLS = "scipy.sparse._sparsetools"

#: largest dof whose scatter map sorts as 16-bit keys
_RADIX_MAX = np.iinfo(np.uint16).max


def _load_csr_kernels():
    """SciPy's compiled ``csr_matvec`` / ``csr_matvecs`` /
    ``csr_diagonal``; an ``ImportError`` naming SciPy without them.

    ``scipy.sparse``'s package ``__init__`` holds ~22 MB resident for
    the sparse-matrix classes; the C kernels live in its
    ``_sparsetools`` extension, which needs only NumPy.  So the extension
    is loaded from its file: ``find_spec("scipy")`` locates SciPy without
    running its ``__init__``.  If that fails for any reason (another file
    layout, a frozen install) the ordinary package import takes over, so
    the kernels never depend on where SciPy keeps them.  The module is
    registered under its own name, so a later ``import scipy.sparse``
    binds the same kernels.
    """
    try:
        mod = _load_extension()
        return mod.csr_matvec, mod.csr_matvecs, mod.csr_diagonal
    except Exception:
        pass
    try:  # SciPy >= 1.8 (private but stable; used by scipy.sparse itself)
        from scipy.sparse._sparsetools import (
            csr_diagonal,
            csr_matvec,
            csr_matvecs,
        )
    except ImportError as exc:
        raise ImportError(
            "repro needs SciPy's compiled CSR kernels "
            f"({_SPARSETOOLS}); install scipy>=1.10"
        ) from exc
    return csr_matvec, csr_matvecs, csr_diagonal


def _load_extension():
    """The ``_sparsetools`` extension module: the one already imported
    (``scipy.sparse`` loaded first), else loaded from its file."""
    mod = sys.modules.get(_SPARSETOOLS)
    if mod is not None:
        return mod
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(root, "sparse", "_sparsetools" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"no {_SPARSETOOLS} extension under {root}")
    loader = importlib.machinery.ExtensionFileLoader(_SPARSETOOLS, path)
    spec = importlib.util.spec_from_file_location(
        _SPARSETOOLS, path, loader=loader
    )
    mod = importlib.util.module_from_spec(spec)
    loader.exec_module(mod)
    return sys.modules.setdefault(_SPARSETOOLS, mod)


_csr_matvec, _csr_matvecs, _csr_diagonal = _load_csr_kernels()


class SegmentScatter:
    """Reusable ``out[idx] += vals`` with precomputed reduction structure.

    Parameters
    ----------
    idx:
        Integer dof indices (any shape; flattened in C order).  The
        duplicate structure of this array is frozen at construction.

    Attributes
    ----------
    touched:
        Sorted unique dof indices this scatter writes (``int64``).
    """

    __slots__ = (
        "m",
        "touched",
        "indptr",
        "indices",
        "_full_indptr",
        "_data",
        "_seg",
        "_acc",
        "_multi",
        "_plans",
        "_plan_width",
    )

    def __init__(self, idx: np.ndarray):
        flat = np.ascontiguousarray(idx, dtype=INDEX_DTYPE).reshape(-1)
        self.m = int(flat.size)
        self._plans: tuple = ()  # of one chunk width
        self._plan_width = 0
        self._full_indptr = None
        if self.m == 0:
            self.touched = np.empty(0, dtype=INDEX_DTYPE)
            self.indptr = np.zeros(1, dtype=np.int32)
            self.indices = np.empty(0, dtype=np.int32)
            self._data = np.empty(0)
            self._seg = np.empty(0)
            self._acc = np.empty(0)
            return
        lowest = int(flat.min())
        if lowest < 0:
            raise IndexError(
                f"SegmentScatter: negative dof index {lowest} "
                "in the scatter map"
            )
        # stable sort keeps each dof's duplicates in occurrence order; a
        # stable permutation is unique, so keys that fit 16 bits sort as
        # a uint16 copy (NumPy's radix sort, not int64 timsort)
        keys = flat.astype(np.uint16) if flat.max() <= _RADIX_MAX else flat
        perm = np.argsort(keys, kind="stable")
        sorted_dofs = flat[perm]
        starts = np.flatnonzero(np.diff(sorted_dofs)) + 1
        self.touched = sorted_dofs[np.concatenate([[0], starts])]
        k = self.touched.size
        # CSR structure of the (k x m) unit incidence: row t sums the
        # occurrences of touched[t]; int32 indices keep the C kernel on
        # its narrow fast path (m < 2^31 always holds for local batches)
        self.indptr = np.concatenate([[0], starts, [self.m]]).astype(np.int32)
        self.indices = perm.astype(np.int32)
        self._data = np.ones(self.m)
        self._seg = np.empty(k)
        self._acc = np.empty(k)
        # rows 0..touched[-1] of the same incidence, untouched dofs as
        # empty rows: the zeroed-destination path's row pointer
        self._full_indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(flat))]
        ).astype(np.int32)
        # the multi-RHS grouped path's (seg, acc) scratch
        self._multi = WidestScratch(
            (k, k),
            lambda bufs, n: tuple(b[: k * n].reshape(k, n) for b in bufs),
        )

    @property
    def n_touched(self) -> int:
        return int(self.touched.size)

    def _direct(self, out: np.ndarray, zeroed: bool) -> bool:
        """Whether a ``zeroed`` destination takes the one-call path."""
        return zeroed and out.flags.c_contiguous

    def add_into(
        self, out: np.ndarray, vals: np.ndarray, zeroed: bool = False
    ) -> np.ndarray:
        """Accumulate ``vals`` (flattened) into ``out`` at the frozen
        index structure; returns ``out``.

        Allocation-free after construction.  Untouched entries of ``out``
        are not read or written (matching ``np.add.at``; the legacy
        bincount path also adds ``+0.0`` to untouched entries, which is
        only observable on ``-0.0``).  ``zeroed=True`` promises every
        touched entry of ``out`` is ``+0.0`` and sums straight into it
        (same bits; see the module docstring).
        """
        if self.m == 0:
            return out
        flat_vals = vals.reshape(-1)
        if flat_vals.size != self.m:
            raise ValueError(
                f"value size mismatch: got {flat_vals.size}, expected {self.m}"
            )
        # one comparison guards every clipped access below: ``touched``
        # is sorted and non-negative (checked at construction), so an
        # in-range maximum makes mode="clip" unable to mask a bad index
        if self.touched[-1] >= out.shape[0]:
            raise IndexError(
                f"SegmentScatter: destination too small (max touched dof "
                f"{int(self.touched[-1])}, out has {out.shape[0]} entries)"
            )
        if self._direct(out, zeroed):
            _csr_matvec(
                self._full_indptr.size - 1,
                self.m,
                self._full_indptr,
                self.indices,
                self._data,
                flat_vals,
                out,
            )
            return out
        self._seg.fill(0.0)
        _csr_matvec(
            self.n_touched,
            self.m,
            self.indptr,
            self.indices,
            self._data,
            flat_vals,
            self._seg,
        )
        # single-rounding add per touched dof (bincount's grouping), via
        # gather / add / scatter on preallocated scratch; mode="clip"
        # skips the bounds check that would otherwise buffer the gather
        np.take(out, self.touched, out=self._acc, mode="clip")
        np.add(self._acc, self._seg, out=self._acc)
        out[self.touched] = self._acc
        return out

    def add_into_multi(
        self, out: np.ndarray, vals: np.ndarray, zeroed: bool = False
    ) -> np.ndarray:
        """Accumulate a k-column value batch into a ``(n_dofs, k)``
        destination at the frozen index structure; returns ``out``.

        ``vals`` may have any shape whose C-order flattening of all but
        the trailing axis yields ``(m, k)`` rows aligned with the 1-D
        flatten (e.g. ``(E, nd, k)`` element products).  All k columns go
        through ONE CSR matvecs call — no per-column Python loop — and
        each column's arithmetic is the same occurrence-order segmented
        sum as :meth:`add_into` on that column alone (the C kernel sums
        each row's terms sequentially per column), so the result is
        bitwise identical per column to the 1-D path.

        ``zeroed=True`` on a C-contiguous destination sums straight into
        it with the same bits, as in :meth:`add_into`, and needs no
        scratch; otherwise the grouped path's ``(n_touched, k)`` scratch
        is sized for the widest ``k`` seen, so every narrower batch
        reuses it and a steady-state call allocates nothing.
        """
        return self.add_chunks_multi(out, (vals,), self.m, zeroed)

    def add_chunks_multi(
        self, out: np.ndarray, chunks, width: int, zeroed: bool = False
    ) -> np.ndarray:
        """:meth:`add_into_multi` of a value batch that arrives in
        consecutive chunks of ``width`` entries (the last may be
        shorter): ``chunks`` yields each chunk's ``(entries, k)`` rows
        (any shape flattening to them), each consumed before the next is
        requested, so one chunk-sized buffer can carry them all.

        Same bits as one call: SciPy's ``csr_matvecs`` adds into its
        destination and a chunk's plan lists its entries in (dof,
        occurrence) order, so each chunk continues every row's
        sequential sum — in ``out`` (zeroed) or in the segment scratch
        added to ``out`` once per touched dof (grouped).
        """
        if out.ndim != 2:
            raise ValueError(f"expected an (n_dofs, k) out, got {out.shape}")
        if self.m == 0:
            return out
        if self.touched[-1] >= out.shape[0]:
            raise IndexError(
                f"SegmentScatter: destination too small (max touched dof "
                f"{int(self.touched[-1])}, out has {out.shape[0]} entries)"
            )
        k = out.shape[1]
        direct = self._direct(out, zeroed)
        if not direct:
            seg, acc = self._multi.get(k) or self._multi(k)
            seg.fill(0.0)
        if width >= self.m:  # one chunk: the plan is the structure itself
            plans = ((0, self._full_indptr, 0, self.indptr, self.indices),)
        else:
            plans = self._chunk_plans(width)
        for (lo, full, r_lo, indptr, idx), vals in zip(plans, chunks):
            flat = vals.reshape(idx.size, k)
            if not flat.flags.c_contiguous:
                flat = np.ascontiguousarray(flat)
            if direct:
                _csr_matvecs(full.size - 1, idx.size, k, full, idx,
                             self._data, flat, out[lo:])
            else:
                _csr_matvecs(indptr.size - 1, idx.size, k, indptr, idx,
                             self._data, flat, seg[r_lo:])
        if not direct:
            np.take(out, self.touched, axis=0, out=acc, mode="clip")
            np.add(acc, seg, out=acc)
            out[self.touched] = acc
        return out

    def _chunk_plans(self, width: int) -> tuple:
        """``(lo, full_indptr, r_lo, indptr, indices)`` per chunk of
        ``width`` entries: its entries in (dof, occurrence) order as
        positions within the chunk, with CSR row pointers over
        destination rows ``lo..`` (untouched dofs as empty rows) and
        over segment rows ``r_lo..``.  Built once per width; a chunk's
        plan costs its entries plus its dof span."""
        if self._plan_width != width:
            rows = np.repeat(np.arange(self.n_touched), np.diff(self.indptr))
            chunk = self.indices // width
            order = np.argsort(chunk, kind="stable")
            bounds = np.cumsum(np.bincount(chunk))
            plans = []
            for c, sel in enumerate(np.split(order, bounds[:-1])):
                r = rows[sel]
                dofs = self.touched[r]
                plans.append((
                    int(dofs[0]), _row_pointer(dofs - dofs[0]),
                    int(r[0]), _row_pointer(r - r[0]),
                    (self.indices[sel] - c * width).astype(np.int32),
                ))
            self._plans, self._plan_width = tuple(plans), width
        return self._plans


def _row_pointer(rows: np.ndarray) -> np.ndarray:
    """int32 CSR row pointer of the sorted, non-negative row ids
    ``rows`` (rows without entries are empty)."""
    ptr = np.zeros(int(rows[-1]) + 2, dtype=np.int32)
    np.cumsum(np.bincount(rows), out=ptr[1:])
    return ptr
