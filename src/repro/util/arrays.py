"""Array helpers shared across the library.

All index arrays in the library use a single dtype (``INDEX_DTYPE``) so that
connectivity maps, scatter maps and CSR structures interoperate without
silent copies.
"""

from __future__ import annotations

import numpy as np

#: Integer dtype used for every connectivity / index array in the library.
INDEX_DTYPE = np.int64


def as_f64(a) -> np.ndarray:
    """Return ``a`` as a C-contiguous float64 array (no copy when possible)."""
    return np.ascontiguousarray(a, dtype=np.float64)


def as_index(a) -> np.ndarray:
    """Return ``a`` as a C-contiguous ``INDEX_DTYPE`` array."""
    return np.ascontiguousarray(a, dtype=INDEX_DTYPE)


def scatter_add(out: np.ndarray, idx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Accumulate ``vals`` into ``out`` at (possibly repeated) indices ``idx``.

    Equivalent to ``np.add.at(out, idx, vals)`` up to summation order,
    but implemented with ``np.bincount`` which is substantially faster
    for the large, highly duplicated index sets produced by
    element-vector accumulation (each mesh node is shared by up to 8
    hexes / ~24 tets).

    Small batches (``idx.size < out.size // 8`` — adaptive
    ``update_elements``-style accumulations, thin dependent sweeps)
    skip the ``O(n_dofs)`` bincount scratch and reduce over the touched
    range only.  **Grouping contract:** both branches produce the exact
    bits of the legacy ``out += np.bincount(...)`` path on every touched
    entry — duplicates are folded into a per-dof total sequentially in
    occurrence order starting from 0.0, and each total is added to
    ``out`` with a single rounding — even when ``out`` is already
    nonzero (the dependent sweep accumulates onto the independent
    sweep's partial result).  The only divergence is that the small
    branch never writes untouched entries, while the bincount branch
    adds ``+0.0`` to them (observable only on ``-0.0``).

    For sweeps whose index structure repeats across calls, prefer
    :class:`repro.core.segment.SegmentScatter`, which precomputes the
    reduction once and accumulates allocation-free (same grouping).

    Parameters
    ----------
    out:
        1-D float64 destination, modified in place and returned.
    idx:
        Integer indices into ``out`` (any shape; flattened).
    vals:
        Values to accumulate, same number of entries as ``idx``.
    """
    flat_idx = idx.reshape(-1)
    flat_vals = vals.reshape(-1)
    if flat_idx.size != flat_vals.size:
        raise ValueError(
            f"index/value size mismatch: {flat_idx.size} vs {flat_vals.size}"
        )
    if flat_idx.size and flat_idx.size < out.shape[0] // 8:
        # A bare np.add.at(out, ...) would fold every duplicate into
        # ``out`` sequentially — different rounding than the bincount
        # grouping once ``out`` is nonzero.  Reduce each dof's
        # duplicates into a zeroed per-group scratch first (np.add.at
        # over compacted group ids accumulates in occurrence order from
        # 0.0, exactly like bincount), then add the totals with one
        # rounding per touched dof.
        touched, group = np.unique(flat_idx, return_inverse=True)
        if touched[0] < 0:
            # mirror bincount, which rejects negative indices
            raise ValueError("scatter_add: negative index")
        sums = np.zeros(touched.size)
        np.add.at(sums, group, flat_vals)
        out[touched] += sums
    else:
        out += np.bincount(flat_idx, weights=flat_vals, minlength=out.shape[0])
    return out


def inverse_permutation(perm: np.ndarray) -> np.ndarray:
    """Return the inverse of a permutation array."""
    perm = as_index(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=INDEX_DTYPE)
    return inv


def unique_index(a) -> np.ndarray:
    """``np.unique`` of integer ids as ``INDEX_DTYPE`` by a sort and a
    neighbour compare: several times faster than NumPy 2's hash-based
    ``unique`` at set-up sizes."""
    s = np.sort(as_index(a).reshape(-1))
    return s[np.diff(s, prepend=s[:1] - 1) != 0]


class WidestScratch:
    """Flat float64 scratch, one zeroed buffer of ``sizes[i] * k``
    doubles per role ``i`` for the widest batch width ``k`` seen, and
    per-width views of it: ``scratch(k)`` returns (and caches)
    ``views(bufs, k)``; the hot path reads ``scratch.get(k) or
    scratch(k)``.  A wider ``k`` reallocates every role and drops every
    cached view, so no superseded buffer stays alive.  All widths alias
    one another: a view is overwritten by the next use of *any* width.
    """

    __slots__ = ("_sizes", "_views", "_bufs", "_cache", "k", "get")

    def __init__(self, sizes, views):
        self._sizes = tuple(int(s) for s in sizes)
        self._views = views
        self._bufs: tuple = ()
        self._cache: dict = {}
        self.k = 0  # the widest width the buffers hold
        self.get = self._cache.get

    def __call__(self, k: int):
        v = self._cache.get(k)
        if v is None:
            if k > self.k:
                self._cache.clear()
                self._bufs = ()  # free the narrower buffers first
                self._bufs = tuple(np.zeros(s * k) for s in self._sizes)
                self.k = k
            v = self._cache[k] = self._views(self._bufs, k)
        return v
