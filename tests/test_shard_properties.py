"""Property-based tests of the sharded tier: consistent-hash stability
under membership changes, and failover that never loses or duplicates a
request.  Pure-Python stand-ins (no numpy solves) keep Hypothesis fast."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.shard import ShardFaultPlan, ShardKill
from repro.serve.batcher import BatchPolicy, DeadlineBatcher, MicroBatcher
from repro.serve.queue import RequestQueue, ServeRequest
from repro.serve.shard import HashRing, ShardCluster, ShardRouter

# ----------------------------------------------------------------------
# consistent-hash membership properties
# ----------------------------------------------------------------------

_nodes = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    min_size=2, max_size=6, unique=True,
)
_keys = st.lists(st.integers(min_value=0, max_value=10_000),
                 min_size=1, max_size=80, unique=True)


@given(nodes=_nodes, keys=_keys, vnodes=st.integers(2, 32),
       victim_idx=st.integers(0, 5))
@settings(max_examples=40)
def test_remove_remaps_only_the_victims_keys(nodes, keys, vnodes,
                                             victim_idx):
    """Removing one node moves exactly the keys it owned; every other
    key's placement is untouched (the ~K/N movement property)."""
    ring = HashRing(nodes, vnodes=vnodes)
    victim = nodes[victim_idx % len(nodes)]
    before = {k: ring.lookup(f"k{k}") for k in keys}
    ring.remove(victim)
    for k in keys:
        after = ring.lookup(f"k{k}")
        if before[k] == victim:
            assert after != victim
        else:
            assert after == before[k]


@given(nodes=_nodes, keys=_keys, vnodes=st.integers(2, 32),
       newcomer=st.text(alphabet="xyz", min_size=5, max_size=8))
@settings(max_examples=40)
def test_add_moves_keys_only_to_the_new_node(nodes, keys, vnodes, newcomer):
    """Adding a node only *steals* keys for itself — it never shuffles a
    key between two pre-existing nodes."""
    ring = HashRing(nodes, vnodes=vnodes)
    before = {k: ring.lookup(f"k{k}") for k in keys}
    ring.add(newcomer)
    for k in keys:
        after = ring.lookup(f"k{k}")
        assert after == before[k] or after == newcomer


@given(nodes=_nodes, keys=_keys, vnodes=st.integers(2, 16),
       n=st.integers(1, 4))
@settings(max_examples=25)
def test_preference_lists_are_distinct_prefix_consistent(nodes, keys,
                                                         vnodes, n):
    ring = HashRing(nodes, vnodes=vnodes)
    for k in keys:
        pref = ring.preference(f"k{k}", n)
        assert len(pref) == len(set(pref)) == min(n, len(nodes))
        for m in range(1, len(pref)):
            assert ring.preference(f"k{k}", m) == pref[:m]


# ----------------------------------------------------------------------
# failover conservation: never lost, never duplicated
# ----------------------------------------------------------------------


class _StubCache:
    """Just enough cache surface for ShardCluster wiring."""

    def __init__(self):
        self.on_invalidate = None

    def invalidate(self, key):
        return False

    def tenant_stats(self):
        return {}


class _StubService:
    """Queue-only service: requests park until the test drains them."""

    free_at = 0.0  # never dispatches, so never busy

    def __init__(self, capacity=64):
        self.queue = RequestQueue(capacity)
        self.batcher = DeadlineBatcher(BatchPolicy(8))
        self.cache = _StubCache()

    @property
    def pending(self):
        return len(self.queue)

    def submit(self, req):
        return self.queue.submit(req)


@given(
    n_shards=st.integers(2, 5),
    n_reqs=st.integers(1, 40),
    kill_idx=st.integers(0, 4),
    key_span=st.integers(1, 6),
)
@settings(max_examples=40)
def test_failover_never_loses_or_duplicates_requests(n_shards, n_reqs,
                                                     kill_idx, key_span):
    """Admit a batch of requests, kill one shard: every admitted request
    is afterwards queued on exactly one *live* shard, or accounted as
    failover-shed — never dropped silently, never cloned."""
    shards = [f"s{i}" for i in range(n_shards)]
    router = ShardRouter(shards, vnodes=8, hot_threshold=3, max_replicas=1)
    services = {s: _StubService(capacity=max(2, n_reqs)) for s in shards}
    victim = shards[kill_idx % n_shards]
    plan = ShardFaultPlan(kills=(ShardKill(victim, at=1.0),))
    cluster = ShardCluster(router, services, shard_faults=plan)

    admitted = set()
    for rid in range(n_reqs):
        req = ServeRequest(rid=rid, key=f"op-{rid % key_span}", seed=rid)
        if cluster.submit(req, now=0.0):
            admitted.add(rid)

    cluster.advance(2.0)  # the kill fires; queued work re-routes

    assert not cluster.shard_state(victim).alive
    survivors = [s for s in shards if s != victim]
    located: list[int] = []
    for s in survivors:
        located.extend(r.rid for r in services[s].queue.fifo())
    assert len(services[victim].queue) == 0  # dead shard fully drained
    assert len(located) == len(set(located))  # no duplicates anywhere
    shed = int(cluster.obs.counters.get("shard.failover_shed", 0))
    assert len(set(located)) + shed == len(admitted)  # nothing lost


@given(
    rids=st.lists(st.integers(0, 1000), min_size=1, max_size=20,
                  unique=True),
    deadlines=st.lists(
        st.one_of(st.none(), st.floats(0.0, 10.0, allow_nan=False)),
        min_size=1, max_size=20,
    ),
)
@settings(max_examples=40)
def test_deadline_batcher_conserves_queue(rids, deadlines):
    """DeadlineBatcher removes exactly the batch it returns; everything
    else stays queued in FIFO order."""
    q = RequestQueue(capacity=len(rids))
    before = []
    for i, rid in enumerate(rids):
        d = deadlines[i % len(deadlines)]
        req = ServeRequest(rid=rid, key=f"k{rid % 3}", seed=rid,
                           arrival=float(i), deadline=d)
        assert q.submit(req)
        before.append(rid)
    batch = DeadlineBatcher(BatchPolicy(4)).next_batch(q)
    taken = [r.rid for r in batch]
    left = [r.rid for r in q.fifo()]
    assert set(taken) | set(left) == set(before)
    assert set(taken) & set(left) == set()
    # the survivors keep their original relative order
    assert left == [rid for rid in before if rid not in set(taken)]
    # every batch member shares the seed's key (compatibility)
    assert len({r.key for r in batch}) == 1


@given(
    gaps=st.lists(st.sampled_from([0.0, 1e-6, 0.5, 3.0]), min_size=1,
                  max_size=24),
    marks=st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                   min_size=1, max_size=24),
    c=st.one_of(st.none(), st.floats(0.0, 10.0, allow_nan=False)),
    max_batch=st.integers(1, 6),
)
@settings(max_examples=60)
def test_deadline_batcher_is_fifo_when_deadlines_follow_arrivals(
    gaps, marks, c, max_batch
):
    """When every deadline is None, or every one is ``arrival + c``, and
    requests queue in arrival and rid order (as the load harness submits
    them), earliest deadline first seeds each batch with the FIFO head:
    DeadlineBatcher forms exactly MicroBatcher's batches."""
    queues = [RequestQueue(capacity=len(gaps)) for _ in range(2)]
    t = 0.0
    for rid, gap in enumerate(gaps):
        t += gap
        key, solve = marks[rid % len(marks)]
        req = ServeRequest(
            rid=rid, key=f"k{key}", kind="solve" if solve else "spmv",
            seed=rid, arrival=t, deadline=None if c is None else t + c,
        )
        for q in queues:
            assert q.submit(req)
    edf, fifo = DeadlineBatcher(BatchPolicy(max_batch)), MicroBatcher(
        BatchPolicy(max_batch)
    )
    while queues[0]:
        assert ([r.rid for r in edf.next_batch(queues[0])]
                == [r.rid for r in fifo.next_batch(queues[1])])
    assert not queues[1]
