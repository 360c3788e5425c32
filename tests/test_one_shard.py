"""A single server is a one-shard cluster.

The load harness serves its single-server scenarios through a
:class:`~repro.serve.shard.ShardCluster` with one shard, which is sound
only if that cluster dispatches exactly what a bare
:class:`~repro.serve.service.SolverService` (FIFO micro-batcher) would.
Both are driven here on the same request stream, for the serve suite's
three scenario shapes: deadlines, cancellations, the closed loop and the
communication fault plan.
"""

from __future__ import annotations

import heapq
import itertools
from functools import partial

import numpy as np
import pytest

from repro.obs.instrumentation import Instrumentation
from repro.serve.cache import OperatorCache
from repro.serve.loadgen import (
    build_cluster,
    drive,
    make_request,
    suite_workloads,
)
from repro.serve.service import SolverService


def _bare(w):
    """A lone service as the single-server harness used to build it."""
    cache = OperatorCache(
        capacity=w.cache_capacity, obs=Instrumentation(rank=-1),
        faults=w.faults,
    )
    service = SolverService(
        cache, max_batch=w.max_batch, queue_capacity=w.queue_capacity,
        mode=w.mode,
    )
    return service, service, service.submit, service.cancel


def _one_shard(w):
    cluster = build_cluster(w)
    assert cluster.shard_ids() == ("s0",)
    return (
        cluster,
        cluster.shard_state("s0").service,
        lambda req: cluster.submit(req, req.arrival),
        cluster.cancel,
    )


def _serve(make, w, seed):
    """Drive ``w``'s open or closed request stream through the target
    ``make(w)`` builds; returns every dispatch as ``(end, batch size,
    expired rids, completions)``, each cancel's result and the serving
    service."""
    target, service, submit, cancel = make(w)
    rng = np.random.default_rng(seed)
    events: list = []
    order = itertools.count()
    issued = 0
    cancels: list[bool] = []

    def push(t, fn):
        heapq.heappush(events, (t, next(order), fn))

    def request(t, **extra):
        nonlocal issued
        issued += 1
        key = w.keys[int(rng.integers(len(w.keys)))]
        return make_request(w, rng, issued - 1, t, seed, key, **extra)

    def arrive(t):
        req = request(t)
        if submit(req) and w.cancel_frac and rng.random() < w.cancel_frac:
            push(t + float(rng.exponential(0.2 / w.rate_rps)),
                 lambda _t: cancels.append(cancel(req.rid)))

    def client(c, t):
        if issued < w.n_requests and not submit(
            request(t, meta={"client": c})
        ):
            push(t + w.think_s, partial(client, c))

    if w.arrival == "open":
        t = 0.0
        for _ in range(w.n_requests):
            t += float(rng.exponential(1.0 / w.rate_rps))
            push(t, arrive)
    else:
        for c in range(w.n_clients):
            push(float(rng.exponential(w.think_s)), partial(client, c))

    dispatches = []

    def on_dispatch(out):
        dispatches.append((
            out.end,
            out.batch_size,
            [r.rid for r in out.expired],
            [(c.request.rid, c.status, c.value, c.info)
             for c in out.completions],
        ))
        for r in [*out.expired, *(c.request for c in out.completions)]:
            if "client" in r.meta:
                push(out.end + w.think_s, partial(client, r.meta["client"]))

    drive(target, events, on_dispatch)
    return dispatches, cancels, service


@pytest.mark.parametrize("seed", [1234, 7])
@pytest.mark.parametrize("name", ["open-clean", "open-gemm",
                                  "closed-faulted"])
def test_single_server_is_a_one_shard_cluster(name, seed):
    (w,) = [w for w in suite_workloads("serve", seed) if w.name == name]
    bare, bare_cancels, bare_svc = _serve(_bare, w, seed)
    shard, shard_cancels, shard_svc = _serve(_one_shard, w, seed)

    assert len(shard) == len(bare) > 0
    for (end_a, k_a, exp_a, done_a), (end_b, k_b, exp_b, done_b) in zip(
        bare, shard
    ):
        assert (end_a, k_a, exp_a) == (end_b, k_b, exp_b)
        assert len(done_a) == len(done_b)
        for (rid_a, st_a, val_a, info_a), (rid_b, st_b, val_b, info_b) in (
            zip(done_a, done_b)
        ):
            assert (rid_a, st_a, info_a) == (rid_b, st_b, info_b)
            assert (val_a is None and val_b is None) or np.array_equal(
                val_a, val_b
            )
    assert shard_cancels == bare_cancels
    assert shard_svc.batch_histogram == bare_svc.batch_histogram
    assert shard_svc.mode_histogram == bare_svc.mode_histogram
    assert shard_svc.obs.counters == bare_svc.obs.counters
    assert shard_svc.cache.counters() == bare_svc.cache.counters()

    # the stream exercised what the scenario is there for
    counters = bare_svc.obs.counters
    if w.cancel_frac:
        assert any(bare_cancels) and counters["serve.cancelled"] > 0
    if w.deadline_s is not None:
        assert counters["serve.shed_deadline"] > 0
    if w.faults is not None:
        assert counters["serve.degraded"] > 0
