"""Sharded solver tier: ring/router, SLO balancer, failover, harness."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.faults.shard import ShardFaultPlan, ShardKill
from repro.obs.instrumentation import Instrumentation
from repro.obs.schema import BENCH_SCHEMA, SERVE_SCHEMA, validate_report
from repro.serve import (
    BatchPolicy,
    DeadlineBatcher,
    OperatorCache,
    ProblemKey,
    RequestQueue,
    ServeRequest,
    ShardCluster,
    ShardRouter,
    SolverService,
)
from repro.serve.loadgen import (
    Workload,
    build_cluster,
    run_suite,
    run_workload,
    suite_workloads,
    zipf_weights,
)
from repro.serve.shard import HashRing

KEY_A = ProblemKey(problem="poisson", nel=3, n_parts=2, etype="hex8", seed=0)
KEY_B = ProblemKey(problem="poisson", nel=4, n_parts=2, etype="tet4", seed=1)


def _keys(n):
    return [f"key-{i}" for i in range(n)]


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------


def test_ring_lookup_deterministic_and_valid():
    ring = HashRing(["s0", "s1", "s2"], vnodes=32)
    again = HashRing(["s2", "s0", "s1"], vnodes=32)  # order-independent
    for k in _keys(100):
        assert ring.lookup(k) == again.lookup(k)
        assert ring.lookup(k) in ("s0", "s1", "s2")


def test_ring_preference_distinct_and_prefix_stable():
    ring = HashRing(["s0", "s1", "s2", "s3"], vnodes=16)
    for k in _keys(50):
        pref = ring.preference(k, 3)
        assert len(pref) == len(set(pref)) == 3
        assert pref[0] == ring.lookup(k)
        # asking for fewer replicas yields a prefix of the same order
        assert ring.preference(k, 2) == pref[:2]


def test_ring_preference_clamps_to_membership():
    ring = HashRing(["s0", "s1"], vnodes=8)
    assert sorted(ring.preference("k", 10)) == ["s0", "s1"]


def test_ring_remove_remaps_only_victims_keys():
    ring = HashRing(["s0", "s1", "s2", "s3"], vnodes=64)
    keys = _keys(300)
    before = {k: ring.lookup(k) for k in keys}
    ring.remove("s2")
    moved = 0
    for k in keys:
        after = ring.lookup(k)
        if before[k] == "s2":
            assert after != "s2"
            moved += 1
        else:
            assert after == before[k]  # survivors' keys never move
    assert 0 < moved < len(keys)  # roughly K/N, never everything


def test_ring_add_moves_keys_only_to_new_node():
    ring = HashRing(["s0", "s1", "s2"], vnodes=64)
    keys = _keys(300)
    before = {k: ring.lookup(k) for k in keys}
    ring.add("s3")
    for k in keys:
        after = ring.lookup(k)
        assert after == before[k] or after == "s3"


def test_ring_membership_errors():
    ring = HashRing(["s0"], vnodes=4)
    with pytest.raises(ValueError):
        ring.add("s0")
    with pytest.raises(KeyError):
        ring.remove("nope")
    with pytest.raises(ValueError):
        HashRing(vnodes=0)
    empty = HashRing()
    with pytest.raises(LookupError):
        empty.lookup("k")


# ----------------------------------------------------------------------
# router: hotness-triggered replication
# ----------------------------------------------------------------------


def test_router_replicates_hot_keys_only():
    r = ShardRouter(["s0", "s1", "s2", "s3"], hot_threshold=3, max_replicas=2)
    assert len(r.targets(KEY_A)) == 1  # cold: primary only
    assert r.record(KEY_A) is False
    assert r.record(KEY_A) is False
    assert r.record(KEY_A) is True  # crosses threshold exactly once
    assert r.record(KEY_A) is False
    assert r.is_hot(KEY_A)
    hot = r.targets(KEY_A)
    assert len(hot) == 3 and len(set(hot)) == 3
    assert hot[0] == r.primary(KEY_A)
    # an unrelated key is untouched by KEY_A's heat
    assert len(r.targets(KEY_B)) == 1


def test_router_replication_report():
    r = ShardRouter(["s0", "s1", "s2"], hot_threshold=2, max_replicas=1)
    for _ in range(3):
        r.record(KEY_A)  # hot -> 2 targets
    r.record(KEY_B)  # cold -> 1 target
    rep = r.replication_report()
    assert rep["keys_seen"] == 2
    assert rep["replicated_keys"] == 1
    assert rep["replication_factor"] == pytest.approx(1.5)


def test_router_validation():
    with pytest.raises(ValueError):
        ShardRouter(["s0"], hot_threshold=0)
    with pytest.raises(ValueError):
        ShardRouter(["s0"], max_replicas=-1)


# ----------------------------------------------------------------------
# deadline-ordered batching
# ----------------------------------------------------------------------


def _req(rid, key=KEY_A, deadline=None, kind="spmv", tenant=None):
    return ServeRequest(
        rid=rid, key=key, kind=kind, seed=rid, arrival=float(rid) * 1e-6,
        deadline=deadline, tenant=tenant,
    )


def test_deadline_batcher_most_urgent_seeds_batch():
    q = RequestQueue(capacity=8)
    for r in (_req(0, deadline=None), _req(1, deadline=9.0),
              _req(2, deadline=1.0), _req(3, key=KEY_B, deadline=0.5)):
        assert q.submit(r)
    batch = DeadlineBatcher(BatchPolicy(max_batch=4)).next_batch(q)
    # rid 3 is the most urgent; only its key-group joins
    assert [r.rid for r in batch] == [3]
    # remaining requests kept FIFO order
    assert [r.rid for r in q.fifo()] == [0, 1, 2]


def test_deadline_batcher_degenerates_to_fifo_without_deadlines():
    q = RequestQueue(capacity=8)
    for rid in range(4):
        assert q.submit(_req(rid))
    batch = DeadlineBatcher(BatchPolicy(max_batch=8)).next_batch(q)
    assert [r.rid for r in batch] == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# operator-cache tenant accounting
# ----------------------------------------------------------------------


def test_cache_tenant_hit_rates():
    cache = OperatorCache(capacity=2, obs=Instrumentation(rank=0))
    cache.get(KEY_A, tenants=["t0", "t1"])  # both miss (cold build)
    cache.get(KEY_A, tenants=["t0"])  # t0 hits the warm context
    stats = cache.tenant_stats()
    assert stats["t0"] == {"hits": 1, "misses": 1, "hit_rate": 0.5}
    assert stats["t1"] == {"hits": 0, "misses": 1, "hit_rate": 0.0}
    assert cache.obs.counters["serve.cache.tenant.t0.hits"] == 1
    assert cache.obs.counters["serve.cache.tenant.t1.misses"] == 1


# ----------------------------------------------------------------------
# cluster: quota, spill/shed, coherence, failover
# ----------------------------------------------------------------------


def _mini_cluster(n_shards=2, *, tenant_quota=None, queue_capacity=8,
                  hot_threshold=2, max_replicas=1, shard_faults=None):
    w = Workload(
        name="mini",
        keys=(KEY_A, KEY_B),
        n_shards=n_shards,
        queue_capacity=queue_capacity,
        cache_capacity=3,
        tenant_quota=tenant_quota,
        hot_threshold=hot_threshold,
        max_replicas=max_replicas,
        shard_faults=shard_faults,
    )
    cluster = build_cluster(w)
    return cluster, cluster.obs


def test_tenant_quota_sheds_over_limit():
    cluster, obs = _mini_cluster(tenant_quota=2)
    assert cluster.submit(_req(0, tenant="t0"), now=0.0)
    assert cluster.submit(_req(1, tenant="t0"), now=0.0)
    assert not cluster.submit(_req(2, tenant="t0"), now=0.0)  # over quota
    assert cluster.submit(_req(3, tenant="t1"), now=0.0)  # others unaffected
    assert obs.counters["shard.shed_tenant"] == 1
    # completing the work releases the quota
    disp = cluster.step(0.0)
    assert sum(d.batch_size for d in disp) > 0
    assert cluster.submit(_req(4, tenant="t0"), now=0.0)


def test_quota_released_on_deadline_expiry():
    cluster, obs = _mini_cluster(tenant_quota=1)
    assert cluster.submit(_req(0, tenant="t0", deadline=1e-9), now=0.0)
    assert not cluster.submit(_req(1, tenant="t0"), now=0.0)
    cluster.step(1.0)  # rid 0 expires -> quota slot frees
    assert cluster.submit(_req(2, tenant="t0"), now=1.0)
    assert obs.counters["shard.shed_tenant"] == 1



def test_cancel_releases_the_tenant_quota_slot():
    cluster, _ = _mini_cluster(tenant_quota=1)
    assert cluster.submit(_req(0, tenant="t0"), now=0.0)
    assert not cluster.submit(_req(1, tenant="t0"), now=0.0)  # over quota
    assert cluster.cancel(0)
    assert cluster.submit(_req(2, tenant="t0"), now=0.0)  # admitted now
    n = cluster.request_counters()
    assert n["serve.cancelled"] == 1
    assert n["shard.shed_tenant"] == 1
    assert cluster.pending == 1


def test_cancel_of_unknown_or_dispatched_rid_is_a_no_op():
    cluster, _ = _mini_cluster(tenant_quota=1)
    assert cluster.submit(_req(0, tenant="t0"), now=0.0)
    before = cluster.request_counters()
    assert not cluster.cancel(99)  # never submitted
    assert cluster.request_counters() == before
    (out,) = cluster.step(0.0)  # rid 0 dispatched and answered
    assert out.batch_size == 1
    after = cluster.request_counters()
    assert not cluster.cancel(0)
    assert cluster.request_counters() == after
    assert "serve.cancelled" not in after
    # the completion released the one slot: one more is admitted, then shed
    assert cluster.submit(_req(1, tenant="t0"), now=out.end)
    assert not cluster.submit(_req(2, tenant="t0"), now=out.end)

def test_full_queues_shed_and_count():
    cluster, obs = _mini_cluster(n_shards=1, queue_capacity=1)
    assert cluster.submit(_req(0), now=0.0)
    assert not cluster.submit(_req(1), now=0.0)  # single queue full
    assert obs.counters["shard.shed_full"] == 1
    assert obs.counters["shard.submitted"] == 2


def test_hot_key_spills_to_replica():
    cluster, obs = _mini_cluster(
        n_shards=2, queue_capacity=1, hot_threshold=1, max_replicas=1
    )
    # KEY_A is hot from its first request: both shards are eligible, so
    # the second submission lands on the other (off-primary) shard.
    assert cluster.submit(_req(0), now=0.0)
    assert cluster.submit(_req(1), now=0.0)
    assert obs.counters.get("shard.spills", 0) >= 1
    assert cluster.pending == 2


def test_coherent_invalidation_fans_out():
    cluster, obs = _mini_cluster(n_shards=2, hot_threshold=1,
                                    max_replicas=1)
    for _ in range(2):
        cluster.router.record(KEY_A)  # hot -> replicated on both shards
    shards = cluster.router.targets(KEY_A)
    assert len(shards) == 2
    caches = [cluster.shard_state(s).service.cache for s in shards]
    for c in caches:
        c.get(KEY_A)  # warm both replicas
        assert KEY_A in c
    caches[0].invalidate(KEY_A)
    # the drop propagated to the peer replica exactly once
    assert KEY_A not in caches[0]
    assert KEY_A not in caches[1]
    assert obs.counters["shard.coherent_invalidations"] == 1


def test_kill_fails_queued_work_over():
    plan = ShardFaultPlan(kills=(ShardKill("s0", at=0.5),))
    cluster, obs = _mini_cluster(n_shards=2, shard_faults=plan,
                                    hot_threshold=100)
    # string keys route fine (never dispatched here); pick some whose
    # primary is the victim and some owned by the survivor
    pool = [f"op-{i}" for i in range(64)]
    on_s0 = [k for k in pool if cluster.router.primary(k) == "s0"][:3]
    on_s1 = [k for k in pool if cluster.router.primary(k) == "s1"][:3]
    assert on_s0 and on_s1  # 64 keys always straddle both shards
    placed = 0
    for rid, key in enumerate(on_s0 + on_s1):
        assert cluster.submit(_req(rid, key=key), now=0.0)
        placed += 1
    queued_on_s0 = cluster.shard_state("s0").service.pending
    assert queued_on_s0 == len(on_s0)
    cluster.advance(1.0)  # kill fires
    assert not cluster.shard_state("s0").alive
    assert obs.counters["shard.kills"] == 1
    assert obs.counters["shard.failovers"] == queued_on_s0
    # every failed-over request is now queued on the survivor (roomy queue)
    assert cluster.shard_state("s1").service.pending == placed
    # the dead shard no longer owns any key
    assert cluster.router.shards == ("s1",)


def test_unbuildable_key_fails_each_request_once_on_a_cluster():
    """Requests for a key no shard can build each get one failed
    Completion; the cluster's request count balances."""
    cluster, _ = _mini_cluster(n_shards=2)
    bad = dataclasses.replace(KEY_A, method="bogus")
    for rid in range(5):
        assert cluster.submit(_req(rid, key=bad if rid % 2 == 0 else KEY_A),
                              now=0.0)
    completions, now = [], 0.0
    while cluster.pending:
        for outcome in cluster.step(now):
            completions += outcome.completions
        now = cluster.next_wakeup(now)
    status = {c.request.rid: c.status for c in completions}
    assert len(completions) == 5
    assert status == {0: "failed", 1: "ok", 2: "failed", 3: "ok", 4: "failed"}
    n = cluster.request_counters()
    assert n["shard.submitted"] == 5 == (
        n.get("serve.completed", 0) + n.get("serve.failed", 0)
        + n.get("serve.rejected", 0) + n.get("shard.shed_tenant", 0)
        + n.get("shard.shed_full", 0)
    )


def test_revive_restores_membership():
    plan = ShardFaultPlan(kills=(ShardKill("s0", at=0.5, revive_at=2.0),))
    cluster, obs = _mini_cluster(n_shards=2, shard_faults=plan)
    cluster.advance(1.0)
    assert cluster.router.shards == ("s1",)
    cluster.advance(3.0)
    assert cluster.shard_state("s0").alive
    assert cluster.router.shards == ("s0", "s1")
    assert obs.counters["shard.revives"] == 1


def test_shard_fault_plan_validation():
    with pytest.raises(ValueError):
        ShardKill("s0", at=-1.0)
    with pytest.raises(ValueError):
        ShardKill("s0", at=1.0, revive_at=0.5)
    with pytest.raises(ValueError):
        ShardFaultPlan(kills=(ShardKill("s0", at=0.1),
                              ShardKill("s0", at=0.2)))


def test_cluster_rejects_mismatched_services():
    router = ShardRouter(["s0", "s1"])
    cache = OperatorCache(capacity=2, obs=Instrumentation(rank=0))
    svc = SolverService(cache)
    with pytest.raises(ValueError):
        ShardCluster(router, {"s0": svc})


# ----------------------------------------------------------------------
# busy-time accounting
# ----------------------------------------------------------------------


def test_virtual_cluster_tracks_busy_time():
    """A shard's busy virtual time is its cache's: the final clocks of
    every context it built, live or evicted, summed in build order, next
    to the summed counters of both."""
    cache = OperatorCache(capacity=1, obs=Instrumentation(rank=0))
    a, _ = cache.get(KEY_A)
    a.apply_multi(np.ones((a.n_dofs, 1)))
    busy_a = a.sim.max_vtime
    assert busy_a > 0.0 and cache.busy_vtime() == busy_a
    b, _ = cache.get(KEY_B)  # evicts a
    b.apply_multi(np.ones((b.n_dofs, 1)))
    assert cache.stats()["evictions"] == 1
    assert cache.busy_vtime() == busy_a + b.sim.max_vtime
    assert cache.counters()  # live and retired comm counters


def test_evicted_context_simulator_is_freed():
    """A shard's cache keeps an evicted context's final clock, not its
    simulator: once evicted, nothing keeps the simulator alive, and the
    shard's busy time still counts it."""
    cluster, _ = _mini_cluster(n_shards=1)
    cache = cluster.shard_state("s0").service.cache
    first, _ = cache.get(KEY_A)
    first.apply_multi(np.ones((first.n_dofs, 1)))
    clocks = [first.sim.max_vtime]
    sim = weakref.ref(first.sim)
    del first
    for seed in range(1, cache.capacity + 1):  # the last get evicts KEY_A
        ctx, _ = cache.get(dataclasses.replace(KEY_A, seed=seed))
        clocks.append(ctx.sim.max_vtime)
    del ctx
    gc.collect()
    assert cache.stats()["evictions"] == 1
    assert sim() is None
    assert cache.busy_vtime() == sum(clocks)


# ----------------------------------------------------------------------
# harness: zipf weights, scenario runs, schema, determinism
# ----------------------------------------------------------------------


def test_zipf_weights_shape():
    w = zipf_weights(5, 1.2)
    assert w.shape == (5,)
    assert w.sum() == pytest.approx(1.0)
    assert all(a > b for a, b in zip(w, w[1:]))  # strictly rank-decreasing
    with pytest.raises(ValueError):
        zipf_weights(0, 1.0)


def _tiny_workload(**over):
    base = dict(
        name="tiny",
        keys=(KEY_A, KEY_B),
        arrival="zipf",
        n_shards=2,
        n_tenants=3,
        n_requests=24,
        rate_rps=200000.0,
        solve_frac=0.25,
        max_batch=4,
        queue_capacity=24,
        cache_capacity=2,
        hot_threshold=3,
        max_replicas=1,
    )
    base.update(over)
    return Workload(**base)


def test_tiny_workload_scenario_is_valid_and_conserves_requests():
    sc = run_workload(_tiny_workload(), seed=7)
    req = sc["requests"]
    assert req["wrong_answers"] == 0
    assert req["submitted"] == 24
    assert req["submitted"] == (
        req["completed"] + req["rejected"] + req["shed_tenant"]
        + req["shed_deadline"] + req["failed"]
    )
    assert set(sc["shards"]) == {"s0", "s1"}
    assert sc["utilization"]["peak_to_mean"] >= 1.0
    assert sc["makespan_s"] > 0
    assert sum(sc["batch_histogram"].values()) > 0


def test_tiny_workload_deterministic():
    a = run_workload(_tiny_workload(), seed=11)
    b = run_workload(_tiny_workload(), seed=11)
    assert a == b
    c = run_workload(_tiny_workload(), seed=12)
    assert c["latency_s"] != a["latency_s"]  # the seed actually matters


@pytest.fixture(scope="module")
def suite():
    """One smoke-suite run (the CI scenario set) shared by the e2e
    assertions below — the slow part happens once per module."""
    return run_suite("shard", seed=1234, smoke=True, verbose=False)


def test_workload_rejects_unknown_verify():
    with pytest.raises(ValueError, match="verify"):
        Workload(name="typo", keys=(KEY_A,), verify="bitwse")
    with pytest.raises(ValueError, match="arrival"):
        Workload(name="typo", keys=(KEY_A,), arrival="poisson")


def test_kill_scenario_bitwise_and_failover(suite):
    """The acceptance scenario: a mid-run shard kill fails queued work
    over and every delivered answer stays bitwise-equal to the fault-free
    single-node reference (verified inside run_workload)."""
    w = [w for w in suite_workloads("shard", seed=1234, smoke=True)
         if w.name == "shard-kill"][0]
    assert w.verify == "bitwise" and w.mode == "oracle"
    shard_doc, _ = suite
    sc = [s for s in shard_doc["scenarios"]
          if s["scenario"] == "shard-kill"][0]
    req = sc["requests"]
    assert req["wrong_answers"] == 0
    assert req["failovers"] > 0  # the kill hit live queued work
    assert req["completed"] == req["submitted"]  # nothing lost to the kill
    assert sc["shards"]["s1"]["alive"] is False
    assert sc["counters"]["shard.kills"] == 1


def test_suite_docs_validate(suite):
    shard_doc, bench_doc = suite
    validate_report(shard_doc, SERVE_SCHEMA)
    validate_report(bench_doc, BENCH_SCHEMA)
    names = [s["scenario"] for s in shard_doc["scenarios"]]
    assert names == ["zipf-hot", "tenant-storm", "shard-kill"]
    for sc in shard_doc["scenarios"]:
        assert sc["n_shards"] >= 4
        assert sc["requests"]["wrong_answers"] == 0
        assert sc["tenants"]  # per-tenant rows present
    # the bench projection carries the gated phases and counters
    cases = {c["case"] for c in bench_doc["results"]}
    assert cases == {"shard-zipf-hot", "shard-tenant-storm",
                     "shard-shard-kill"}
    for case in bench_doc["results"]:
        phases = set(case["phases"])
        assert "shard.latency.all" in phases
        assert "shard.latency.all.p99" in phases
        assert "shard.wrong_answers" in case["counters"]
        assert "shard.util_peak_to_mean_pct" in case["counters"]


def test_tenant_storm_clips_heavy_tenant(suite):
    shard_doc, _ = suite
    sc = [s for s in shard_doc["scenarios"]
          if s["scenario"] == "tenant-storm"][0]
    assert sc["requests"]["shed_tenant"] > 0  # admission control engaged
    # the heavy tenant is the one clipped; light tenants complete fully
    tenants = sc["tenants"]
    heavy = max(tenants, key=lambda t: tenants[t]["submitted"])
    assert tenants[heavy]["completed"] < tenants[heavy]["submitted"]
    assert any(
        t != heavy and tenants[t]["completed"] == tenants[t]["submitted"]
        for t in tenants
    )
    assert any("hit_rate" in row for row in tenants.values())


# ----------------------------------------------------------------------
# incremental (delta) updates on the serve/shard path
# ----------------------------------------------------------------------


def _small_delta():
    from repro.adapt import MeshDelta

    return MeshDelta(scale_elements=[0, 1], scale_values=[0.5, 0.5])


def test_cache_update_rekeys_in_place_preserving_lru():
    """OperatorCache.update re-fingerprints the live context instead of
    invalidate+rebuild: same object, new key, LRU position and tenant
    accounting untouched (an update is not a use)."""
    cache = OperatorCache(capacity=2, obs=Instrumentation(rank=0))
    ctx_a, _ = cache.get(KEY_A, tenants=["t0"])
    cache.get(KEY_B)  # B most recent; A is the LRU victim
    new_key, info = cache.update(KEY_A, _small_delta())
    assert info is not None and info["path"] == "patch"
    assert cache.peek(new_key) is ctx_a  # re-keyed, not rebuilt
    assert ctx_a.delta_version == 1
    assert KEY_A not in cache and cache.peek(KEY_A) is None
    assert cache.tenant_stats()["t0"] == {
        "hits": 0, "misses": 1, "hit_rate": 0.0,
    }
    assert cache.obs.counters["serve.cache.delta_updates"] == 1
    assert cache.obs.counters["serve.cache.delta_patches"] == 1
    # LRU position preserved: one more distinct key evicts the updated
    # context, not B
    key_c = ProblemKey(problem="poisson", nel=4, n_parts=2, etype="hex8",
                       seed=2)
    cache.get(key_c)
    assert new_key not in cache and KEY_B in cache and key_c in cache


def test_cache_update_miss_rekeys_without_building():
    cache = OperatorCache(capacity=2, obs=Instrumentation(rank=0))
    dropped = []
    cache.on_invalidate = dropped.append
    new_key, info = cache.update(KEY_A, _small_delta())
    assert info is None and len(cache) == 0  # nothing was built
    assert new_key.deltas and new_key.fingerprint() != KEY_A.fingerprint()
    assert cache.obs.counters["serve.cache.delta_misses"] == 1
    assert dropped == [KEY_A]  # replicas still told the old key is stale


def test_delta_update_invalidates_replicas_then_routes_fresh():
    """Delta-then-route: an update on one replica drops the stale peer
    via the coherence hook, the updated context serves the new key
    bitwise-identically to a fresh build, and a routed request for the
    new key completes — zero wrong answers."""
    from repro.serve.cache import SolverContext

    cluster, obs = _mini_cluster(n_shards=2, hot_threshold=1,
                                    max_replicas=1)
    for _ in range(2):
        cluster.router.record(KEY_A)  # hot -> replicated on both shards
    shards = cluster.router.targets(KEY_A)
    assert len(shards) == 2
    caches = [cluster.shard_state(s).service.cache for s in shards]
    for c in caches:
        c.get(KEY_A)  # warm both replicas

    new_key, info = caches[0].update(KEY_A, _small_delta())
    assert info is not None
    # the origin kept its (updated) context; the stale peer was dropped
    assert caches[0].peek(new_key) is not None
    assert KEY_A not in caches[0] and KEY_A not in caches[1]
    assert obs.counters["shard.coherent_invalidations"] == 1

    # the updated replica is bitwise the fresh post-update operator
    ctx = caches[0].peek(new_key)
    fresh = SolverContext(new_key)
    rng = np.random.default_rng(11)
    X = rng.standard_normal((ctx.n_dofs, 2))
    assert np.array_equal(
        ctx.apply_multi(X, mode="oracle")[0],
        fresh.apply_multi(X, mode="oracle")[0],
    )

    # routed serving continues on the new key with no failures
    assert cluster.submit(_req(0, key=new_key), now=0.0)
    disp = cluster.step(0.0)
    done = [c for d in disp for c in d.completions]
    assert [c.status for c in done] == ["ok"]
