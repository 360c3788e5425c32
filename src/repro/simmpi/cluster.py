"""Multi-service simulation wiring: a registry of named simulators.

One :class:`~repro.simmpi.engine.Simulator` models one machine.  The
sharded serving tier (:mod:`repro.serve.shard`) runs *many* persistent
simulators side by side — one per warm
:class:`~repro.serve.cache.SolverContext` on every shard — and needs an
aggregate view per logical node: how much virtual compute time did shard
``s2`` burn across all the contexts it ever held, including ones the LRU
cache has since evicted?

:class:`VirtualCluster` is that view.  It is deliberately passive: parts
of the system that create simulators :meth:`register` them under a node
name, and reporting code reads back summed busy time and communicator
counters.  Registration keeps a strong reference, so an evicted context's
history stays visible — the same whole-history convention
:class:`~repro.serve.cache.OperatorCache` uses for its retired counters.

Because every simulator advances its own virtual clock only while it
runs, the sum of ``max_vtime`` over a node's simulators *is* that node's
busy time under the serial-dispatch model the shard balancer enforces
(one in-flight batch per shard), which is what the per-shard utilization
numbers in ``SHARD_report.json`` are built from.
"""

from __future__ import annotations

from repro.simmpi.engine import Simulator

__all__ = ["VirtualCluster"]


class VirtualCluster:
    """Registry of named simulators for multi-service simulations."""

    def __init__(self) -> None:
        self._sims: dict[str, list[Simulator]] = {}

    def register(self, name: str, sim: Simulator) -> None:
        """Attach ``sim`` to logical node ``name`` (keeps a reference)."""
        self._sims.setdefault(name, []).append(sim)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._sims))

    def busy_vtime(self, name: str) -> float:
        """Total virtual compute seconds burned on node ``name`` (summed
        final clocks of every simulator ever registered under it)."""
        return sum(s.max_vtime for s in self._sims.get(name, ()))

    def counters(self, name: str) -> dict[str, float]:
        """Summed per-rank communicator counters of node ``name``."""
        out: dict[str, float] = {}
        for sim in self._sims.get(name, ()):
            for comm in sim.comms:
                for cname, val in comm.obs.counters.items():
                    out[cname] = out.get(cname, 0) + val
        return out
