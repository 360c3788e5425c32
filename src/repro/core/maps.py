"""Algorithm 1: E2L map construction and ghost classification.

Given the partition-agnostic inputs the paper requires (§IV-A) — the E2G
map and the owned range ``[N_begin, N_end)`` — this derives:

* the sorted pre-ghost (ids below the range) and post-ghost (ids above)
  node lists,
* the E2L map into the ``[pre | owned | post]`` local layout (Fig. 2),
* the independent / dependent element split used for overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.arrays import INDEX_DTYPE, as_index, unique_index

__all__ = ["NodeMaps", "build_node_maps"]


@dataclass
class NodeMaps:
    """Local node numbering of one partition.

    Local slot layout: ``[0, n_pre)`` pre-ghosts, ``[n_pre,
    n_pre + n_owned)`` owned nodes (in global order), then post-ghosts.
    Nothing mutates a ``NodeMaps`` after construction, so ``n_owned``,
    ``n_pre``, ``n_post``, ``n_total`` and ``owned_slice`` are attributes
    bound once, not properties the SPMV hot path re-derives per read.
    """

    n_begin: int
    n_end: int
    ghost_pre: np.ndarray  # sorted global ids < n_begin
    ghost_post: np.ndarray  # sorted global ids >= n_end
    e2l: np.ndarray  # (E, n) local slots
    independent: np.ndarray  # local element indices, all-owned nodes
    dependent: np.ndarray  # local element indices touching ghosts

    def __post_init__(self) -> None:
        self.n_owned = self.n_end - self.n_begin
        self.n_pre = int(self.ghost_pre.size)
        self.n_post = int(self.ghost_post.size)
        self.n_total = self.n_pre + self.n_owned + self.n_post
        self.owned_slice = slice(self.n_pre, self.n_pre + self.n_owned)

    def local_to_global(self) -> np.ndarray:
        """Global id of every local slot."""
        return np.concatenate(
            [
                self.ghost_pre,
                np.arange(self.n_begin, self.n_end, dtype=INDEX_DTYPE),
                self.ghost_post,
            ]
        )

    def global_to_local(self, gids: np.ndarray) -> np.ndarray:
        """Local slots of global ids (must be owned or ghost here)."""
        gids = as_index(gids)
        out = np.empty(gids.shape, dtype=INDEX_DTYPE)
        pre = gids < self.n_begin
        post = gids >= self.n_end
        owned = ~(pre | post)
        out[owned] = self.n_pre + gids[owned] - self.n_begin
        if pre.any():
            idx = np.searchsorted(self.ghost_pre, gids[pre])
            if (idx >= self.n_pre).any() or (
                self.ghost_pre[idx] != gids[pre]
            ).any():
                raise KeyError("global id is not a pre-ghost of this rank")
            out[pre] = idx
        if post.any():
            idx = np.searchsorted(self.ghost_post, gids[post])
            if (idx >= self.n_post).any() or (
                self.ghost_post[idx] != gids[post]
            ).any():
                raise KeyError("global id is not a post-ghost of this rank")
            out[post] = self.n_pre + self.n_owned + idx
        return out


def build_node_maps(e2g: np.ndarray, n_begin: int, n_end: int) -> NodeMaps:
    """Algorithm 1 (vectorized): construct the E2L map.

    Parameters
    ----------
    e2g:
        ``(E_local, n_nodes_per_elem)`` global node ids.
    n_begin, n_end:
        Half-open owned global node range of this rank.
    """
    e2g = as_index(e2g)
    flat = e2g.reshape(-1)
    pre_mask = flat < n_begin
    post_mask = flat >= n_end
    ghost_pre = unique_index(flat[pre_mask])
    ghost_post = unique_index(flat[post_mask])

    n_pre = ghost_pre.size
    n_owned = n_end - n_begin

    e2l_flat = np.empty_like(flat)
    owned_mask = ~(pre_mask | post_mask)
    e2l_flat[owned_mask] = n_pre + flat[owned_mask] - n_begin
    e2l_flat[pre_mask] = np.searchsorted(ghost_pre, flat[pre_mask])
    e2l_flat[post_mask] = (
        n_pre + n_owned + np.searchsorted(ghost_post, flat[post_mask])
    )
    e2l = e2l_flat.reshape(e2g.shape)

    ghost_any = (pre_mask | post_mask).reshape(e2g.shape).any(axis=1)
    dependent = np.flatnonzero(ghost_any).astype(INDEX_DTYPE)
    independent = np.flatnonzero(~ghost_any).astype(INDEX_DTYPE)

    return NodeMaps(
        n_begin=int(n_begin),
        n_end=int(n_end),
        ghost_pre=ghost_pre,
        ghost_post=ghost_post,
        e2l=e2l,
        independent=independent,
        dependent=dependent,
    )
