"""Communication maps (LNSM / GNGM) and ghost exchange operations.

* **LNSM** (local node scatter map): for each neighbouring rank, which of
  my *owned* local slots must be sent so the neighbour can fill its ghost
  copies before an SPMV.
* **GNGM** (ghost node gather map): the inverse pattern — after the
  elemental products, my ghost slots hold partial sums belonging to their
  owners and are shipped back to be accumulated.

Both maps are built once at setup time from a single ``alltoall`` of ghost
id lists (paper §IV-D) and then drive nonblocking ``isend``/``irecv``
pairs whose completion the SPMV overlaps with independent-element compute.

The builder takes an arbitrary ghost id list, so the matrix-assembled
baseline reuses it for its (larger) matrix halo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.maps import NodeMaps
from repro.simmpi.communicator import Communicator, Request
from repro.util.arrays import INDEX_DTYPE, unique_index

__all__ = [
    "SCATTER_TAG",
    "GATHER_TAG",
    "CommMaps",
    "HaloExchange",
    "build_comm_maps",
    "scatter",
    "gather",
]

#: message tags of the two halo-exchange directions (public so fault
#: plans can target the ghost scatter / gather selectively)
SCATTER_TAG = 101
GATHER_TAG = 102


@dataclass
class CommMaps:
    """Per-rank communication schedule.

    ``send_ranks[k]`` needs my owned slots ``send_slots[k]`` (LNSM);
    ``recv_ranks[k]`` owns my ghost slots ``recv_slots[k]`` (GNGM).
    Slot arrays index into the local ``[pre | owned | post]`` layout.
    """

    send_ranks: list[int] = field(default_factory=list)
    send_slots: list[np.ndarray] = field(default_factory=list)
    recv_ranks: list[int] = field(default_factory=list)
    recv_slots: list[np.ndarray] = field(default_factory=list)

    @property
    def n_neighbors(self) -> int:
        return len(set(self.send_ranks) | set(self.recv_ranks))

    def send_volume(self, ndpn: int = 1, itemsize: int = 8) -> int:
        """Bytes sent per scatter (== bytes received per gather)."""
        return sum(s.size for s in self.send_slots) * ndpn * itemsize


def build_comm_maps(
    comm: Communicator,
    maps: NodeMaps,
    ghost_ids: np.ndarray | None = None,
    ranges: np.ndarray | None = None,
) -> CommMaps:
    """Construct LNSM/GNGM with one alltoall of ghost id lists.

    Parameters
    ----------
    comm:
        The rank's communicator (all ranks must call this collectively).
    maps:
        Node maps of this rank (provides the default ghost list and the
        global→local slot translation).
    ghost_ids:
        Override the ghost id list (the assembled baseline passes its
        matrix halo here).  Defaults to the union of pre- and post-ghosts.
    ranges:
        ``(p, 2)`` owned ranges of all ranks; gathered if not given.
    """
    if ghost_ids is None:
        ghost_ids = np.concatenate([maps.ghost_pre, maps.ghost_post])
    ghost_ids = unique_index(ghost_ids)

    if ranges is None:
        ranges = np.asarray(
            comm.allgather((maps.n_begin, maps.n_end)), dtype=INDEX_DTYPE
        )
    ends = ranges[:, 1]
    owners = np.searchsorted(ends, ghost_ids, side="right")

    # ship each owner the (sorted) list of its nodes I need
    wanted: list[np.ndarray | None] = [None] * comm.size
    for r in np.unique(owners):
        wanted[int(r)] = ghost_ids[owners == r]
    requests = comm.alltoall(wanted)

    out = CommMaps()
    for r, ids in enumerate(requests):
        if r == comm.rank or ids is None or ids.size == 0:
            continue
        out.send_ranks.append(r)
        out.send_slots.append(maps.global_to_local(ids))
    for r in np.unique(owners):
        ids = ghost_ids[owners == r]
        out.recv_ranks.append(int(r))
        out.recv_slots.append(maps.global_to_local(ids))
    return out


class HaloExchange:
    """Packed-buffer halo exchange, built once and reused across SPMVs.

    The blocking module-level :func:`scatter` / :func:`gather` fancy-index
    a fresh per-neighbor copy out of ``data`` for every message; a
    ``HaloExchange`` instead concatenates each direction's slot arrays at
    setup and packs all outgoing values with a single ``np.take(...,
    out=)`` into a preallocated contiguous buffer, then sends per-neighbor
    slices of it.  The gather accumulation likewise runs through a
    preallocated gather/add/scatter scratch instead of an allocating
    fancy ``+=``.  Message partners, ordering, payload bytes and the
    accumulation arithmetic are the same, so results are bitwise
    identical to the blocking functions.

    One instance per (operator, ndpn); not thread-safe, and at most one
    exchange per direction may be in flight at a time (the pack buffers
    are reused — fine under simmpi, whose ``isend`` copies payloads).

    An exchange with no neighbour ranks (every one-rank run) is idle:
    its scatter and gather return at once, as the full path would.
    """

    __slots__ = (
        "cmaps",
        "ndpn",
        "send_all",
        "send_offsets",
        "recv_all",
        "recv_offsets",
        "_max_slot",
        "_idle",
        "_sbuf",
        "_gbuf",
        "_acc",
    )

    def __init__(self, cmaps: CommMaps, ndpn: int):
        self.cmaps = cmaps
        self.ndpn = int(ndpn)

        def _concat(slot_lists: list[np.ndarray]):
            sizes = [s.size for s in slot_lists]
            offsets = np.zeros(len(sizes) + 1, dtype=INDEX_DTYPE)
            np.cumsum(sizes, out=offsets[1:])
            if slot_lists:
                flat = np.concatenate(slot_lists).astype(INDEX_DTYPE)
            else:
                flat = np.empty(0, dtype=INDEX_DTYPE)
            return flat, offsets

        self.send_all, self.send_offsets = _concat(cmaps.send_slots)
        self.recv_all, self.recv_offsets = _concat(cmaps.recv_slots)
        # the packs below use mode="clip"; validate the frozen slot maps
        # once here and the data length once per exchange, so a corrupt
        # map raises instead of silently clipping to wrong slots
        for name, flat in (("send", self.send_all), ("recv", self.recv_all)):
            if flat.size and int(flat.min()) < 0:
                raise IndexError(f"HaloExchange: negative {name} slot")
        self._max_slot = max(
            int(self.send_all.max()) if self.send_all.size else -1,
            int(self.recv_all.max()) if self.recv_all.size else -1,
        )
        self._idle = not (cmaps.send_ranks or cmaps.recv_ranks)
        self._sbuf = np.empty((self.send_all.size, self.ndpn))
        self._gbuf = np.empty((self.recv_all.size, self.ndpn))
        self._acc = np.empty((self.send_all.size, self.ndpn))

    def _check_len(self, data: np.ndarray) -> None:
        if self._max_slot >= data.shape[0]:
            raise IndexError(
                f"HaloExchange: data has {data.shape[0]} slots, "
                f"map references slot {self._max_slot}"
            )

    # -- scatter: owner values -> ghost copies -----------------------------

    def start_scatter(self, comm: Communicator, data: np.ndarray) -> list[Request]:
        """Pack all owned send values and post the ghost-fill exchange."""
        if self._idle:
            return []
        self._check_len(data)
        if self.send_all.size:
            np.take(data, self.send_all, axis=0, out=self._sbuf, mode="clip")
        off = self.send_offsets
        for k, rank in enumerate(self.cmaps.send_ranks):
            comm.isend(self._sbuf[off[k]:off[k + 1]], rank, tag=SCATTER_TAG)
        return [comm.irecv(rank, tag=SCATTER_TAG) for rank in self.cmaps.recv_ranks]

    def finish_scatter(
        self, comm: Communicator, data: np.ndarray, reqs: list[Request]
    ) -> None:
        """Complete the ghost fill: copy received owner values into ghosts."""
        for slots, req in zip(self.cmaps.recv_slots, reqs):
            data[slots] = comm.wait(req)

    def scatter(self, comm: Communicator, data: np.ndarray) -> None:
        self.finish_scatter(comm, data, self.start_scatter(comm, data))

    # -- gather: ghost partial sums -> owner accumulation ------------------

    def gather(self, comm: Communicator, data: np.ndarray) -> None:
        """Ship all ghost partial sums to their owners and accumulate the
        received contributions into my owned slots."""
        if self._idle:
            return
        self._check_len(data)
        if self.recv_all.size:
            np.take(data, self.recv_all, axis=0, out=self._gbuf, mode="clip")
        off = self.recv_offsets
        for k, rank in enumerate(self.cmaps.recv_ranks):
            comm.isend(self._gbuf[off[k]:off[k + 1]], rank, tag=GATHER_TAG)
        reqs = [comm.irecv(rank, tag=GATHER_TAG) for rank in self.cmaps.send_ranks]
        off = self.send_offsets
        for k, (slots, req) in enumerate(zip(self.cmaps.send_slots, reqs)):
            recv = comm.wait(req)
            acc = self._acc[off[k]:off[k + 1]]
            np.take(data, slots, axis=0, out=acc, mode="clip")
            np.add(acc, recv, out=acc)
            data[slots] = acc


# ----------------------------------------------------------------------------
# blocking, allocating exchanges (setup-time use and the SPMV reference)
# ----------------------------------------------------------------------------

def scatter(comm: Communicator, data: np.ndarray, cmaps: CommMaps) -> None:
    """Ghost fill: copy owner values into my ghost copies of ``data``
    (``(n_total, ndpn)``)."""
    for rank, slots in zip(cmaps.send_ranks, cmaps.send_slots):
        comm.isend(data[slots], rank, tag=SCATTER_TAG)
    reqs = [comm.irecv(rank, tag=SCATTER_TAG) for rank in cmaps.recv_ranks]
    for slots, req in zip(cmaps.recv_slots, reqs):
        data[slots] = comm.wait(req)


def gather(comm: Communicator, data: np.ndarray, cmaps: CommMaps) -> None:
    """Ship my ghost partial sums to their owners and accumulate the
    received contributions into my owned slots."""
    for rank, slots in zip(cmaps.recv_ranks, cmaps.recv_slots):
        comm.isend(data[slots], rank, tag=GATHER_TAG)
    reqs = [comm.irecv(rank, tag=GATHER_TAG) for rank in cmaps.send_ranks]
    for slots, req in zip(cmaps.send_slots, reqs):
        data[slots] += comm.wait(req)
