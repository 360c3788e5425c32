"""The sharded solver tier: consistent-hash routing, replication, SLO
balancing.

This is the paper's setup-amortization argument taken to fleet scale.  A
single :class:`~repro.serve.service.SolverService` amortizes operator
setup across requests on *one* node; :class:`ShardCluster` fronts N such
services and amortizes it across a fleet:

* **routing** — :class:`ShardRouter` consistent-hashes every
  :class:`~repro.serve.cache.ProblemKey` fingerprint onto a virtual-node
  ring (:class:`HashRing`), so each operator has one *primary* shard and
  shard membership changes move only ~K/N keys (the property the
  Hypothesis suite pins down);
* **replication** — keys whose request count crosses a hotness threshold
  are served by ``1 + max_replicas`` consecutive distinct ring nodes;
  replicas warm lazily (first routed request pays the build) and are kept
  coherent by an invalidation hook: when any replica's context is
  poisoned and dropped, the cluster invalidates the key on every other
  replica too, so no shard keeps serving from a suspect epoch;
* **SLO-aware balancing** — cluster admission enforces a per-tenant
  outstanding-work quota (fair-share admission control), each shard
  dispatches by earliest deadline first
  (:class:`~repro.serve.batcher.DeadlineBatcher`), and a request whose
  least-loaded eligible shard has a full queue *spills* to the next
  replica — or is shed when every eligible queue is full;
* **failover** — a :class:`~repro.faults.shard.ShardKill` removes a
  shard at a fixed virtual time: its ring segment is taken over, queued
  requests are re-routed to survivors (counted as failovers), and its
  cached operators rebuild on reroute.  The single-node never-wrong-
  answers policy is untouched — a failover changes *where* a request
  runs, never *what* it computes.

Each shard's service executes one batch at a time on its own virtual
timeline (``SolverService.free_at``); the cluster offers the same
``pending`` / ``step`` / ``next_wakeup`` protocol as a single service, so
the one event loop (:func:`repro.serve.loadgen.drive`) advances it event
by event and every latency is deterministic modeled time, comparable
across machines like the rest of the serve stack.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass

from repro.faults.shard import ShardFaultPlan
from repro.obs.instrumentation import Instrumentation
from repro.serve.queue import ServeRequest
from repro.serve.service import DispatchOutcome, SolverService

__all__ = ["HashRing", "ShardRouter", "ShardCluster"]


def _hash_point(s: str) -> int:
    """Stable 64-bit ring coordinate of a string (SHA-1 prefix)."""
    return int.from_bytes(hashlib.sha1(s.encode()).digest()[:8], "big")


def _key_str(key) -> str:
    """Canonical string identity of an operator key."""
    fp = getattr(key, "fingerprint", None)
    return fp() if callable(fp) else str(key)


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each node owns ``vnodes`` points on a 64-bit ring; a key maps to the
    first point at or after its own hash (wrapping).  Removing a node
    deletes only that node's points, so exactly the keys it owned move —
    everyone else's mapping is untouched.
    """

    def __init__(self, nodes=(), vnodes: int = 64):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        self._points: list[tuple[int, str]] = []  # sorted (hash, node)
        for n in nodes:
            self.add(n)

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for v in range(self.vnodes):
            bisect.insort(self._points, (_hash_point(f"{node}#{v}"), node))

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise KeyError(f"node {node!r} not on the ring")
        self._nodes.discard(node)
        self._points = [(h, n) for h, n in self._points if n != node]

    def lookup(self, key_str: str) -> str:
        """The node owning ``key_str`` (its primary)."""
        return self.preference(key_str, 1)[0]

    def preference(self, key_str: str, n: int) -> list[str]:
        """The first ``n`` *distinct* nodes at/after the key's ring point
        — the canonical replica placement order."""
        if not self._points:
            raise LookupError("empty hash ring")
        n = min(n, len(self._nodes))
        h = _hash_point(key_str)
        i = bisect.bisect_left(self._points, (h, ""))
        out: list[str] = []
        for step in range(len(self._points)):
            node = self._points[(i + step) % len(self._points)][1]
            if node not in out:
                out.append(node)
                if len(out) == n:
                    break
        return out


class ShardRouter:
    """Key → shard-set routing with hotness-triggered replication.

    The router is a pure function of the shard membership and the
    sequence of :meth:`record` calls — no wall clock, no randomness — so
    two routers fed the same history agree on every decision (the
    determinism property the tests pin down).
    """

    def __init__(
        self,
        shards,
        vnodes: int = 64,
        hot_threshold: int = 16,
        max_replicas: int = 1,
    ):
        if hot_threshold < 1:
            raise ValueError(f"hot_threshold must be >= 1, got {hot_threshold}")
        if max_replicas < 0:
            raise ValueError(f"max_replicas must be >= 0, got {max_replicas}")
        self.ring = HashRing(shards, vnodes=vnodes)
        self.hot_threshold = hot_threshold
        self.max_replicas = max_replicas
        self._heat: dict[str, int] = {}  # fingerprint -> request count

    @property
    def shards(self) -> tuple[str, ...]:
        return self.ring.nodes

    def record(self, key) -> bool:
        """Account one request against ``key``'s hotness; returns True
        exactly when the key crosses the replication threshold."""
        fp = _key_str(key)
        self._heat[fp] = self._heat.get(fp, 0) + 1
        return self._heat[fp] == self.hot_threshold

    def is_hot(self, key) -> bool:
        return self._heat.get(_key_str(key), 0) >= self.hot_threshold

    def primary(self, key) -> str:
        return self.ring.lookup(_key_str(key))

    def targets(self, key) -> tuple[str, ...]:
        """Primary-first preference list of shards serving ``key``: just
        the primary for cold keys, the whole replica set for hot ones.
        Recomputed from the live ring, so membership changes (failover)
        are reflected immediately."""
        n = 1 + (self.max_replicas if self.is_hot(key) else 0)
        return tuple(self.ring.preference(_key_str(key), n))

    def remove_shard(self, shard: str) -> None:
        self.ring.remove(shard)

    def add_shard(self, shard: str) -> None:
        self.ring.add(shard)

    def replication_report(self) -> dict[str, float]:
        """Summary of the replication state over every key ever routed."""
        seen = len(self._heat)
        hot = sum(1 for c in self._heat.values() if c >= self.hot_threshold)
        factor = (
            sum(len(self.targets(_Raw(fp))) for fp in self._heat) / seen
            if seen
            else 0.0
        )
        return {
            "keys_seen": seen,
            "replicated_keys": hot,
            "replication_factor": factor,
        }


class _Raw:
    """Wrap an already-computed fingerprint for router lookups."""

    def __init__(self, fp: str):
        self._fp = fp

    def fingerprint(self) -> str:
        return self._fp


@dataclass
class _Shard:
    """Balancer-side state of one shard service."""

    service: SolverService
    alive: bool = True


class ShardCluster:
    """N shard services behind a router and an SLO-aware balancer."""

    def __init__(
        self,
        router: ShardRouter,
        services: dict[str, SolverService],
        obs: Instrumentation | None = None,
        tenant_quota: int | None = None,
        shard_faults: ShardFaultPlan | None = None,
    ):
        if set(services) != set(router.shards):
            raise ValueError(
                f"router shards {sorted(router.shards)} != "
                f"services {sorted(services)}"
            )
        self.router = router
        self.obs = obs if obs is not None else Instrumentation(rank=-1)
        self.tenant_quota = tenant_quota
        self._shards = {sid: _Shard(svc) for sid, svc in services.items()}
        self._faults = shard_faults.bind() if shard_faults is not None else None
        self._outstanding: dict[str, int] = {}  # tenant -> queued+admitted
        self._in_coherence = False
        for sid, sh in self._shards.items():
            sh.service.cache.on_invalidate = self._make_coherence_hook(sid)

    # ------------------------------------------------------------------
    # cache coherence
    # ------------------------------------------------------------------

    def _make_coherence_hook(self, origin: str):
        def hook(key) -> None:
            if self._in_coherence:
                return  # propagation in progress: don't re-fan-out
            self._in_coherence = True
            try:
                for sid in self.router.targets(key):
                    if sid == origin or sid not in self._shards:
                        continue
                    if self._shards[sid].service.cache.invalidate(key):
                        self.obs.incr("shard.coherent_invalidations")
            finally:
                self._in_coherence = False

        return hook

    # ------------------------------------------------------------------
    # admission (route + spill + tenant quota)
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests queued across alive shards."""
        return sum(
            sh.service.pending for sh in self._shards.values() if sh.alive
        )

    def shard_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._shards))

    def shard_state(self, sid: str) -> _Shard:
        return self._shards[sid]

    def submit(self, req: ServeRequest, now: float) -> bool:
        """Admit one request; returns False when shed (quota or overload).

        Admission order: per-tenant quota first (fair-share admission
        control), then hotness accounting, then placement on the
        least-loaded eligible shard with queue room (primary-or-replica;
        landing off-primary counts as a spill).
        """
        self.advance(now)
        self.obs.incr("shard.submitted")
        tenant = req.tenant or "-"
        if (
            self.tenant_quota is not None
            and self._outstanding.get(tenant, 0) >= self.tenant_quota
        ):
            self.obs.incr("shard.shed_tenant")
            return False
        self.router.record(req.key)
        if self._place(req):
            self._outstanding[tenant] = self._outstanding.get(tenant, 0) + 1
            return True
        self.obs.incr("shard.shed_full")
        return False

    def _place(self, req: ServeRequest) -> bool:
        """Put ``req`` on the least-loaded eligible live shard; returns
        False when every eligible queue is full."""
        targets = [
            sid
            for sid in self.router.targets(req.key)
            if sid in self._shards and self._shards[sid].alive
        ]
        if not targets:
            return False
        primary = targets[0]
        order = sorted(
            targets,
            key=lambda s: (
                self._shards[s].service.pending,
                self._shards[s].service.free_at,
                s,
            ),
        )
        for sid in order:
            if self._shards[sid].service.submit(req):
                if sid != primary:
                    self.obs.incr("shard.spills")
                return True
        return False

    def _release(self, req: ServeRequest) -> None:
        tenant = req.tenant or "-"
        left = self._outstanding.get(tenant, 0) - 1
        self._outstanding[tenant] = max(left, 0)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def step(self, now: float) -> list[DispatchOutcome]:
        """One balancer round: every idle live shard with queued work
        dispatches its next deadline-ordered batch.  Dispatch is atomic
        on a shard's timeline — the shard is busy until ``end`` and a
        kill landing mid-batch takes effect at the next round."""
        self.advance(now)
        out: list[DispatchOutcome] = []
        for sid in sorted(self._shards):
            sh = self._shards[sid]
            if not sh.alive:
                continue
            for outcome in sh.service.step(now):
                for r in outcome.expired:
                    self._release(r)
                for c in outcome.completions:
                    self._release(c.request)
                out.append(outcome)
        return out

    def next_wakeup(self, now: float) -> float:
        """Earliest future virtual time at which the cluster can make
        progress (a busy shard frees up, or a fault event fires);
        ``inf`` when nothing is due."""
        times = [
            sh.service.next_wakeup(now)
            for sh in self._shards.values()
            if sh.alive
        ]
        if self._faults is not None:
            times.append(self._faults.next_event())
        return min(times, default=float("inf"))

    # ------------------------------------------------------------------
    # shard failures
    # ------------------------------------------------------------------

    def advance(self, now: float) -> None:
        """Apply every shard-fault event due at or before ``now``."""
        if self._faults is None:
            return
        for kill in self._faults.due_kills(now):
            self._kill(kill.shard)
        for sid in self._faults.due_revives(now):
            self._revive(sid, now)

    def _kill(self, sid: str) -> None:
        sh = self._shards.get(sid)
        if sh is None or not sh.alive:
            return
        sh.alive = False
        self.obs.incr("shard.kills")
        self.router.remove_shard(sid)
        # fail queued work over to the survivors: re-route each request
        # through the (now smaller) ring; its operator rebuilds on the
        # new owner if no warm replica exists.  The killed shard's cached
        # contexts die with it.
        drained = sh.service.queue.take(
            r.rid for r in list(sh.service.queue.fifo())
        )
        for req in drained:
            self.obs.incr("shard.failovers")
            if not self._place(req):
                self._release(req)
                self.obs.incr("shard.failover_shed")

    def _revive(self, sid: str, now: float) -> None:
        sh = self._shards.get(sid)
        if sh is None or sh.alive:
            return
        sh.alive = True
        sh.service.free_at = max(sh.service.free_at, now)
        self.router.add_shard(sid)
        self.obs.incr("shard.revives")

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def utilization(self, makespan: float) -> dict[str, float]:
        """Per-shard utilization: busy virtual seconds / makespan."""
        if makespan <= 0:
            return {sid: 0.0 for sid in self._shards}
        return {
            sid: sh.service.busy_s / makespan
            for sid, sh in sorted(self._shards.items())
        }

    def utilization_summary(self, makespan: float) -> dict[str, float]:
        """Mean/min/max utilization and the peak-to-mean skew the CI
        gate bounds (1.0 = perfectly balanced)."""
        util = list(self.utilization(makespan).values())
        mean = sum(util) / len(util) if util else 0.0
        return {
            "mean": mean,
            "min": min(util, default=0.0),
            "max": max(util, default=0.0),
            "peak_to_mean": (max(util) / mean) if mean > 0 else 0.0,
        }

    def merged_histograms(self) -> tuple[dict[int, int], dict[str, int]]:
        """Cluster-wide batch-size and execution-mode histograms."""
        batches: dict[int, int] = {}
        modes: dict[str, int] = {}
        for sh in self._shards.values():
            for k, v in sh.service.batch_histogram.items():
                batches[k] = batches.get(k, 0) + v
            for m, v in sh.service.mode_histogram.items():
                modes[m] = modes.get(m, 0) + v
        return batches, modes

    def request_counters(self) -> dict[str, int]:
        """Summed per-shard service counters (serve.*) + cluster counters
        (shard.*)."""
        out: dict[str, float] = {}
        for sh in self._shards.values():
            for name, val in sh.service.obs.counters.items():
                out[name] = out.get(name, 0) + val
        for name, val in self.obs.counters.items():
            out[name] = out.get(name, 0) + val
        return {k: int(v) for k, v in sorted(out.items())}

    def tenant_cache_stats(self) -> dict[str, dict[str, float]]:
        """Per-tenant hit/miss stats aggregated across every shard cache."""
        agg: dict[str, list[float]] = {}
        for sh in self._shards.values():
            for t, st in sh.service.cache.tenant_stats().items():
                cur = agg.setdefault(t, [0, 0])
                cur[0] += st["hits"]
                cur[1] += st["misses"]
        return {
            t: {
                "hits": h,
                "misses": m,
                "hit_rate": h / (h + m) if h + m else 0.0,
            }
            for t, (h, m) in sorted(agg.items())
        }
