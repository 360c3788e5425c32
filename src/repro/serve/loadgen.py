"""The serving load harness: ``python -m repro.harness serve`` and
``python -m repro.harness shard``.

Every scenario is a :class:`Workload` served by one :class:`ShardCluster`:
the ``serve`` suite on one shard, the ``shard`` suite on four, with
consistent-hash routing, replication, tenant quotas and a mid-run shard
kill.  Requests arrive open-loop (Poisson, with cancellations), from a
closed-loop client population, or open-loop with Zipf key and tenant
popularity, the shape of multi-tenant traffic.  Everything runs in
*virtual* time, so a report is a deterministic function of the seed and
the code path, comparable across machines like the smoke bench.

One event loop, :func:`drive`, advances the cluster, and one
:class:`Oracle` re-checks every delivered answer against a fresh,
fault-free single-node reference cache.  Any miss counts as a
``wrong_answer``, which the CI gates require to be exactly zero, fault
plan or not.  Each suite writes a ``repro.serve/3`` report and a
``BENCH_<suite>.json`` projection for the ``repro.obs.compare`` gate.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import pathlib
import sys
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.core.scatter import SCATTER_TAG
from repro.faults.plan import Corrupt, Delay, Drop, FaultPlan, Straggler
from repro.faults.shard import ShardFaultPlan, ShardKill
from repro.obs.instrumentation import Instrumentation, percentile_summary
from repro.obs.schema import (
    BENCH_SCHEMA,
    SERVE_SCHEMA,
    new_report,
    point_phase,
    validate_report,
    write_report,
)
from repro.serve.batcher import BatchPolicy, DeadlineBatcher
from repro.serve.cache import OperatorCache, ProblemKey
from repro.serve.plan import ExecutionPlan, add_tuned_from_argument
from repro.serve.queue import ServeRequest
from repro.serve.service import Completion, DispatchOutcome, SolverService
from repro.serve.shard import ShardCluster, ShardRouter

__all__ = [
    "Oracle",
    "Workload",
    "bench_projection",
    "build_cluster",
    "drive",
    "run_suite",
    "run_workload",
    "suite_workloads",
    "main",
]

#: SPMV answers must match the fault-free reference this tightly (the
#: batched path is bitwise-identical per column, so anything above noise
#: means corruption leaked through)
SPMV_REL_TOL = 1e-9


def drive(target, events: list, on_dispatch: Callable) -> float:
    """Run ``target`` and the ``events`` heap of ``(t, order, fn)`` to
    quiescence in virtual time; returns the makespan.  Each round calls
    ``fn(t)`` for every event due, lets ``target.step(now)`` dispatch,
    hands each outcome to ``on_dispatch`` (which may push events), then
    jumps to the next event or the target's next wakeup."""
    now = 0.0
    makespan = 0.0
    while events or target.pending:
        while events and events[0][0] <= now:
            t, _, fn = heapq.heappop(events)
            fn(t)
        for out in target.step(now):
            on_dispatch(out)
            makespan = max(makespan, out.end)
        wake = min(
            target.next_wakeup(now), events[0][0] if events else float("inf")
        )
        if wake == float("inf"):
            if target.pending:
                continue  # an idle server can still drain work at `now`
            break
        now = max(now, wake)
    return makespan


class Oracle:
    """Fault-free single-node reference cache of the served operators."""

    def __init__(self, n_keys: int):
        self.ref = OperatorCache(
            capacity=max(n_keys, 1), obs=Instrumentation(rank=-1)
        )

    def context(self, key: ProblemKey):
        """The reference context a request for ``key`` is served by."""
        ctx, _ = self.ref.get(key)
        return ctx

    def check(self, c: Completion, exact: bool) -> bool:
        """Whether ``c`` is right: bitwise equal to the reference SPMV or
        solve when ``exact`` (oracle-mode answers are bitwise per column
        however they were batched or routed), else SPMV within
        ``SPMV_REL_TOL`` and a solve residual within ``max(10 rtol,
        1e-8)``."""
        ctx = self.context(c.request.key)
        x = SolverService.input_vector(ctx, c.request.seed)
        if c.request.kind == "spmv":
            y_ref, _ = ctx.apply_multi(x[:, None])
            y_ref = y_ref[:, 0]
            if exact:
                return bool(np.array_equal(c.value, y_ref))
            scale = float(np.linalg.norm(y_ref)) or 1.0
            err = float(np.linalg.norm(c.value - y_ref))
            return bool(np.isfinite(err) and err <= SPMV_REL_TOL * scale)
        if exact:
            out, _ = ctx.solve_multi(x[:, None], rtol=c.request.rtol)
            return bool(np.array_equal(c.value, out["x"][:, 0]))
        rel = float(ctx.residuals(x[:, None], c.value[:, None])[0])
        return bool(np.isfinite(rel) and rel <= max(10 * c.request.rtol, 1e-8))


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized finite Zipf pmf over ranks ``1..n`` with exponent ``s``."""
    if n < 1:
        raise ValueError(f"zipf_weights: n must be >= 1, got {n}")
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return w / w.sum()


def make_request(
    w, rng: np.random.Generator, rid: int, t: float, seed: int, key, **extra
) -> ServeRequest:
    """Request ``rid`` of workload ``w`` for ``key`` arriving at ``t``;
    draws its kind from ``rng``."""
    kind = "solve" if rng.random() < w.solve_frac else "spmv"
    return ServeRequest(
        rid=rid,
        key=key,
        kind=kind,
        seed=int(seed * 100003 + rid),
        arrival=t,
        deadline=(t + w.deadline_s) if w.deadline_s is not None else None,
        rtol=w.rtol,
        **extra,
    )


@dataclass(frozen=True)
class Workload:
    """One seeded serving scenario on a cluster of ``n_shards`` shards.

    ``arrival`` picks the request stream: ``"open"`` (Poisson arrivals,
    each drawing its key uniformly when it arrives; a ``cancel_frac``
    share is cancelled after submission), ``"closed"`` (``n_clients``
    clients that think ``think_s`` between requests) or ``"zipf"``
    (Poisson arrivals with pre-drawn Zipf key and tenant marks).
    ``verify`` is how every answer is checked against the reference:
    ``"bitwise"`` or within ``"tolerance"``."""

    name: str
    keys: tuple[ProblemKey, ...]
    arrival: str = "open"  # "open" | "closed" | "zipf"
    n_requests: int = 40
    rate_rps: float = 1000.0  # open/zipf mean arrival rate (virtual req/s)
    n_clients: int = 4  # closed-loop client population
    think_s: float = 0.002  # closed-loop think time
    n_tenants: int = 8  # zipf tenant labels t0 .. t{n-1}
    zipf_s: float = 1.1  # zipf key-popularity skew exponent
    tenant_zipf_s: float = 1.0  # zipf tenant-traffic skew exponent
    solve_frac: float = 0.3
    rtol: float = 1e-6
    deadline_s: float | None = None  # relative per-request deadline
    cancel_frac: float = 0.0  # open loop: fraction cancelled post-submit
    max_batch: int = 8
    queue_capacity: int = 32  # per shard
    cache_capacity: int = 2  # per shard
    n_shards: int = 1
    tenant_quota: int | None = None  # per-tenant outstanding-work cap
    hot_threshold: int = 12
    max_replicas: int = 1
    vnodes: int = 64
    faults: FaultPlan | None = None  # communication faults on every shard
    shard_faults: ShardFaultPlan | None = None
    plan: ExecutionPlan = ExecutionPlan()
    verify: str = "tolerance"  # "tolerance" | "bitwise"

    def __post_init__(self) -> None:
        if self.arrival not in ("open", "closed", "zipf"):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        if self.verify not in ("tolerance", "bitwise"):
            raise ValueError(
                f"verify must be 'tolerance' or 'bitwise', got {self.verify!r}"
            )

    def describe(self) -> dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        del out["plan"]
        out.update(
            mode=self.plan.mode,
            k_min=self.plan.k_min,
            keys=[k.fingerprint() for k in self.keys],
            faults=self.faults.describe() if self.faults else None,
            shard_faults=(
                self.shard_faults.describe() if self.shard_faults else None
            ),
        )
        return out


def build_cluster(w: Workload) -> ShardCluster:
    """Materialize the cluster a workload describes: one
    :class:`SolverService` (own cache under the workload's fault plan,
    own instrumentation, deadline batcher, the workload's plan) per
    shard, wired through a :class:`ShardRouter`."""
    shard_ids = [f"s{i}" for i in range(w.n_shards)]
    router = ShardRouter(
        shard_ids,
        vnodes=w.vnodes,
        hot_threshold=w.hot_threshold,
        max_replicas=w.max_replicas,
    )
    services = {}
    for sid in shard_ids:
        cache = OperatorCache(
            capacity=w.cache_capacity,
            obs=Instrumentation(rank=-1),
            faults=w.faults,
        )
        # with every deadline None or arrival + deadline_s, earliest
        # deadline first is the FIFO order, so a one-shard cluster
        # batches exactly as a lone MicroBatcher service
        services[sid] = SolverService(
            cache,
            queue_capacity=w.queue_capacity,
            batcher=DeadlineBatcher(BatchPolicy(w.max_batch)),
            plan=w.plan,
        )
    return ShardCluster(
        router,
        services,
        tenant_quota=w.tenant_quota,
        shard_faults=w.shard_faults,
    )


#: a scenario's request tally: field -> the cluster counters it sums
_REQUESTS = {
    "submitted": ("shard.submitted",),
    "completed": ("serve.completed",),
    "rejected": ("shard.shed_full", "shard.failover_shed"),
    "shed_tenant": ("shard.shed_tenant",),
    "shed_deadline": ("serve.shed_deadline",),
    "cancelled": ("serve.cancelled",),
    "spilled": ("shard.spills",),
    "failed": ("serve.failed",),
    "failovers": ("shard.failovers",),
    "wrong_answers": ("serve.wrong_answers",),
}


def run_workload(w: Workload, seed: int = 1234) -> dict[str, Any]:
    """Simulate one scenario; returns a schema-conforming scenario dict."""
    cluster = build_cluster(w)
    rng = np.random.default_rng(seed)
    events: list = []
    order = itertools.count()
    tenant_counts: dict[str, dict[str, int]] = {}

    def push(t: float, fn: Callable[[float], Any]) -> None:
        heapq.heappush(events, (t, next(order), fn))

    def tally(req: ServeRequest, field: str) -> None:
        rec = tenant_counts.setdefault(
            req.tenant or "-", {"submitted": 0, "completed": 0}
        )
        rec[field] += 1

    def submit(req: ServeRequest, t: float) -> bool:
        tally(req, "submitted")
        return cluster.submit(req, t)

    issued = 0

    def request(t: float, **extra) -> ServeRequest:
        nonlocal issued
        issued += 1
        key = w.keys[int(rng.integers(len(w.keys)))]
        return make_request(w, rng, issued - 1, t, seed, key, **extra)

    def arrive(t: float) -> None:
        req = request(t)
        if submit(req, t) and w.cancel_frac and (
            rng.random() < w.cancel_frac
        ):
            push(t + float(rng.exponential(0.2 / w.rate_rps)),
                 lambda _t: cluster.cancel(req.rid))

    def client(c: int, t: float) -> None:
        if issued >= w.n_requests:
            return
        if not submit(request(t, meta={"client": c}), t):
            push(t + w.think_s, partial(client, c))  # shed: back off, retry

    if w.arrival == "open":
        # pre-drawn Poisson arrival process (+ optional cancellations)
        t = 0.0
        for _ in range(w.n_requests):
            t += float(rng.exponential(1.0 / w.rate_rps))
            push(t, arrive)
    elif w.arrival == "closed":
        for c in range(w.n_clients):
            push(float(rng.exponential(w.think_s)), partial(client, c))
    else:
        # pre-drawn Poisson arrival process with Zipf key/tenant marks
        key_p = zipf_weights(len(w.keys), w.zipf_s)
        tenant_p = zipf_weights(w.n_tenants, w.tenant_zipf_s)
        t = 0.0
        for rid in range(w.n_requests):
            t += float(rng.exponential(1.0 / w.rate_rps))
            key = w.keys[int(rng.choice(len(w.keys), p=key_p))]
            tenant = f"t{int(rng.choice(w.n_tenants, p=tenant_p))}"
            req = make_request(w, rng, rid, t, seed, key, tenant=tenant)
            push(t, partial(submit, req))

    latency: dict[str, list[float]] = {"all": [], "spmv": [], "solve": []}
    done: list[Completion] = []

    def on_dispatch(out: DispatchOutcome) -> None:
        for c in out.completions:
            if c.status == "ok":
                done.append(c)
                lat = out.end - c.request.arrival
                latency["all"].append(lat)
                latency[c.request.kind].append(lat)
                tally(c.request, "completed")
        # a closed-loop client thinks, then issues its next request
        for r in [*out.expired, *(c.request for c in out.completions)]:
            if "client" in r.meta:
                push(out.end + w.think_s, partial(client, r.meta["client"]))

    makespan = drive(cluster, events, on_dispatch)
    cluster.advance(makespan)  # late-scheduled fault events still apply

    oracle = Oracle(len(w.keys))
    exact = w.verify == "bitwise"
    wrong = sum(not oracle.check(c, exact) for c in done)
    ctx0 = oracle.context(w.keys[0])

    counters = cluster.request_counters()
    for sid in cluster.shard_ids():
        sims = cluster.shard_state(sid).service.cache.counters()
        for name, val in sims.items():
            counters[name] = counters.get(name, 0) + val
    # readers of either suite's report find the tally under its prefix
    counters["serve.wrong_answers"] = counters["shard.wrong_answers"] = wrong
    req_counts = {
        field: sum(counters.get(name, 0) for name in names)
        for field, names in _REQUESTS.items()
    }

    util = cluster.utilization(makespan)
    shards = {}
    for sid in cluster.shard_ids():
        sh = cluster.shard_state(sid)
        shards[sid] = {
            "utilization": util[sid],
            "busy_s": sh.service.busy_s,
            "sim_busy_s": sh.service.cache.busy_vtime(),
            "dispatches": sh.service.dispatches,
            "alive": sh.alive,
            "cache": sh.service.cache.stats(),
        }
    cache = {
        k: sum(sh["cache"][k] for sh in shards.values())
        for k in ("hits", "misses", "evictions", "size", "capacity")
    }
    lookups = cache["hits"] + cache["misses"]
    cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
    batches, modes = cluster.merged_histograms()
    hits = cluster.tenant_cache_stats()
    tenants = {t: dict(tenant_counts[t]) for t in sorted(tenant_counts)}
    for t, rec in tenants.items():
        if t in hits:
            rec["hit_rate"] = hits[t]["hit_rate"]
    return {
        "scenario": w.name,
        "workload": w.describe(),
        "n_shards": w.n_shards,
        "n_parts": ctx0.n_parts,
        "n_dofs": ctx0.n_dofs,
        "requests": req_counts,
        "latency_s": {
            k: percentile_summary(v) for k, v in latency.items() if v
        },
        "throughput_rps": (
            req_counts["completed"] / makespan if makespan > 0 else 0.0
        ),
        "makespan_s": makespan,
        "shards": shards,
        "utilization": cluster.utilization_summary(makespan),
        "replication": cluster.router.replication_report(),
        "tenants": tenants,
        "batch_histogram": {str(k): v for k, v in sorted(batches.items())},
        "modes": dict(sorted(modes.items())),
        "cache": cache,
        "counters": counters,
    }


# ----------------------------------------------------------------------------
# the standard suites
# ----------------------------------------------------------------------------

def _catalog(n: int) -> tuple[ProblemKey, ...]:
    """``n`` small distinct operators (2-rank contexts keep builds cheap)."""
    keys = []
    for i in range(n):
        if i % 2:
            keys.append(ProblemKey(
                problem="poisson", nel=3 + (i % 3), n_parts=2, etype="tet4",
                seed=i,
            ))
        else:
            keys.append(ProblemKey(
                problem="poisson", nel=3 + (i // 2) % 2, n_parts=2,
                etype="hex8", seed=i,
            ))
    return tuple(keys)


def suite_workloads(
    suite: str,
    seed: int,
    smoke: bool = True,
    plan: ExecutionPlan = ExecutionPlan(),
) -> tuple[Workload, ...]:
    """The three scenarios of ``suite``, all executed under ``plan``.

    ``serve`` (one shard): ``open-clean``, an open-loop burst with cache
    churn and cancellations; ``open-gemm``, batches wide enough for
    ``auto`` to cross into the BLAS3 GEMM mode; ``closed-faulted``, a
    fault-injected closed loop (degradation, retries, deadline shedding).

    ``shard`` (four shards): ``zipf-hot``, skewed key popularity whose hot
    head keys replicate and spill, within the gated utilization skew;
    ``tenant-storm``, skewed tenant traffic clipped by a per-tenant
    quota while light tenants keep completing; ``shard-kill``, a shard
    dies mid-run and its queued work fails over, every answer bitwise
    equal to the single-node reference (so its mode is pinned to the
    oracle).
    """
    scale = 1 if smoke else 3
    if suite == "serve":
        serve = partial(Workload, cache_capacity=2, plan=plan)
        keys = (
            ProblemKey(problem="poisson", nel=4, n_parts=4, etype="tet4",
                       seed=1),
            ProblemKey(problem="poisson", nel=5, n_parts=4, etype="tet4",
                       seed=2),
        )
        # a third key over-subscribes the capacity-2 cache (LRU churn)
        keys_churn = keys + (
            ProblemKey(problem="poisson", nel=4, n_parts=4, etype="hex8"),
        )
        clean = serve(
            name="open-clean",
            keys=keys_churn,
            arrival="open",
            n_requests=40 * scale,
            rate_rps=20000.0,
            solve_frac=0.3,
            cancel_frac=0.08,
            max_batch=6,
        )
        # wide batches: one hot key, arrivals far faster than service, so
        # the queue backs up and the batcher forms (close to)
        # max_batch-wide batches — k >= DEFAULT_K_MIN lands on the GEMM
        # path, which the post-run verification still checks against the
        # fault-free oracle reference (SPMV_REL_TOL has ~6 decades of
        # headroom over the gemm-vs-oracle rounding difference)
        gemm = serve(
            name="open-gemm",
            keys=keys[:1],
            arrival="open",
            n_requests=48 * scale,
            rate_rps=100000.0,
            solve_frac=0.25,
            max_batch=16,
            queue_capacity=64,
        )
        faults = FaultPlan(
            rules=(
                Delay(2e-4, tag=SCATTER_TAG, jitter=1e-4),
                Drop(src=0, dst=1, tag=SCATTER_TAG, times=1),
                Corrupt("nan", src=1, dst=2, tag=SCATTER_TAG, skip=3,
                        times=2),
                Straggler(2, 2.0),
            ),
            seed=seed + 7,
            checksums=True,
        )
        faulted = serve(
            name="closed-faulted",
            keys=keys,
            arrival="closed",
            n_requests=24 * scale,
            n_clients=6,
            think_s=0.002,
            solve_frac=0.3,
            deadline_s=0.01,
            max_batch=4,
            faults=faults,
        )
        return (clean, gemm, faulted)
    if suite != "shard":
        raise ValueError(f"unknown suite {suite!r}")
    shard = partial(Workload, arrival="zipf", n_shards=4, plan=plan)
    zipf = shard(
        name="zipf-hot",
        keys=_catalog(8),
        n_tenants=8,
        zipf_s=1.4,
        tenant_zipf_s=1.0,
        n_requests=96 * scale,
        rate_rps=30000.0,
        solve_frac=0.25,
        max_batch=8,
        queue_capacity=12,
        cache_capacity=3,
        hot_threshold=10,
        max_replicas=2,
    )
    storm = shard(
        name="tenant-storm",
        keys=_catalog(6),
        n_tenants=6,
        zipf_s=1.1,
        tenant_zipf_s=1.6,
        n_requests=72 * scale,
        rate_rps=150000.0,
        solve_frac=0.2,
        deadline_s=0.02,
        max_batch=6,
        queue_capacity=10,
        cache_capacity=3,
        tenant_quota=3,
        hot_threshold=12,
        max_replicas=1,
    )
    kill = shard(
        name="shard-kill",
        keys=_catalog(4),
        n_tenants=4,
        zipf_s=1.2,
        tenant_zipf_s=1.0,
        n_requests=64 * scale,
        rate_rps=400000.0,
        solve_frac=0.3,
        max_batch=6,
        queue_capacity=32 * scale,  # backlog grows with the request count
        cache_capacity=4,
        hot_threshold=4,  # replicate early so the kill has warm failover
        max_replicas=2,
        plan=replace(plan, mode="oracle"),
        verify="bitwise",
        # arrivals outpace service (2.5 us inter-arrival vs tens-of-us
        # dispatches) so every shard holds a backlog; the kill lands mid
        # arrival window and s1's queued work must fail over.
        shard_faults=ShardFaultPlan(kills=(ShardKill("s1", at=1.0e-4),)),
    )
    return (zipf, storm, kill)


def run_suite(
    suite: str,
    seed: int = 1234,
    smoke: bool = True,
    verbose: bool = True,
    plan: ExecutionPlan = ExecutionPlan(),
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run ``suite``'s scenarios under ``plan``; returns
    ``(report, bench_doc)``."""
    doc = new_report(
        SERVE_SCHEMA,
        {"seed": seed, "smoke": smoke, "k_min": plan.k_min},
        scenarios=[],
    )
    for w in suite_workloads(suite, seed, smoke=smoke, plan=plan):
        if verbose:
            print(f"[{suite}] scenario {w.name} ...", flush=True)
        sc = run_workload(w, seed=seed)
        doc["scenarios"].append(sc)
        if verbose:
            lat = sc["latency_s"].get("all", {})
            req = sc["requests"]
            modes = ", ".join(
                f"{m}:{v}" for m, v in sc["modes"].items()
            ) or "-"
            print(
                f"[{suite}]   {req['completed']}/{req['submitted']} ok over "
                f"{sc['n_shards']} shard(s), "
                f"p50 {lat.get('p50', 0) * 1e3:.3f} ms, "
                f"p99 {lat.get('p99', 0) * 1e3:.3f} ms, "
                f"hit rate {sc['cache']['hit_rate']:.2f}, "
                f"modes [{modes}], "
                f"skew {sc['utilization']['peak_to_mean']:.2f}, "
                f"failovers {req['failovers']}, "
                f"wrong {req['wrong_answers']}"
            )
    return validate_report(doc, SERVE_SCHEMA), bench_projection(doc, suite)


#: request counters exported to the bench doc — the deterministic ones
#: (per-split queueing counters shift when one latency moves by one CG
#: iteration across numpy versions; these stay put or are gated hard)
_BENCH_COUNTERS = ("submitted", "completed", "failed", "wrong_answers",
                   "failovers")


def bench_projection(doc: dict[str, Any], suite: str) -> dict[str, Any]:
    """Project a report onto the standard bench schema so the existing
    ``repro.obs.compare`` gate applies unchanged.  Per scenario, as
    phases: every latency summary (p50 is the gated median, p95/p99 ride
    along), the p99 tail as its own phase (``…latency.<kind>.p99``) whose
    median is the p99 value, which puts the tail directly under the
    phase budget, and the makespan; as counters: the robust request
    counts and the utilization skew in integer percent."""
    bench = new_report(
        BENCH_SCHEMA, doc["config"], suite=suite, repeats=1, results=[]
    )
    for sc in doc["scenarios"]:
        phases = {}
        for kind, summ in sc["latency_s"].items():
            phases[f"{suite}.latency.{kind}"] = {
                "median": summ["p50"],
                "min": summ["min"],
                "max": summ["max"],
                "repeats": summ["n"],
                "p95": summ["p95"],
                "p99": summ["p99"],
            }
            phases[f"{suite}.latency.{kind}.p99"] = point_phase(
                summ["p99"], summ["n"]
            )
        phases[f"{suite}.makespan"] = point_phase(sc["makespan_s"])
        counters = {
            f"{suite}.{name}": sc["requests"][name]
            for name in _BENCH_COUNTERS
        }
        counters[f"{suite}.util_peak_to_mean_pct"] = int(
            round(100 * sc["utilization"]["peak_to_mean"])
        )
        bench["results"].append({
            "case": f"{suite}-{sc['scenario']}",
            "method": suite,
            "n_parts": sc["n_parts"],
            "n_dofs": sc["n_dofs"],
            "phases": phases,
            "counters": counters,
        })
    return validate_report(bench, BENCH_SCHEMA)


def main(argv: list[str] | None = None, suite: str = "serve") -> int:
    report = pathlib.Path(f"{suite.upper()}_report.json")
    bench_out = pathlib.Path(f"BENCH_{suite}.json")
    ap = argparse.ArgumentParser(
        prog=f"python -m repro.harness {suite}",
        description=f"Load harness, {suite} suite: emits {report} (+ "
        f"{bench_out} for the compare gate)",
    )
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized scenarios (fewer requests; same structure)",
    )
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument(
        "--out",
        type=pathlib.Path,
        default=report,
        help=f"report path (default: ./{report})",
    )
    ap.add_argument(
        "--bench-out",
        type=pathlib.Path,
        default=bench_out,
        help=f"bench-schema projection path (default: ./{bench_out})",
    )
    ap.add_argument(
        "--max-skew",
        type=float,
        default=None,
        metavar="PEAK_TO_MEAN",
        help="fail when any scenario's per-shard utilization peak-to-mean "
        "ratio exceeds this bound (1.0 = perfectly balanced)",
    )
    add_tuned_from_argument(ap)
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    if not args.quiet:
        print(f"[{suite}] {args.plan}")
    doc, bench = run_suite(
        suite, seed=args.seed, smoke=args.smoke, verbose=not args.quiet,
        plan=args.plan,
    )
    write_report(args.out, doc)
    write_report(args.bench_out, bench)
    if not args.quiet:
        print(f"\n[{suite}] wrote {args.out} and {args.bench_out}")

    status = 0
    wrong = sum(sc["requests"]["wrong_answers"] for sc in doc["scenarios"])
    if wrong:
        print(f"[{suite}] FAIL: {wrong} wrong answer(s)", file=sys.stderr)
        status = 1
    if args.max_skew is not None:
        for sc in doc["scenarios"]:
            skew = sc["utilization"]["peak_to_mean"]
            if skew > args.max_skew:
                print(
                    f"[{suite}] FAIL: {sc['scenario']} utilization "
                    f"peak-to-mean {skew:.2f} > bound {args.max_skew:.2f}",
                    file=sys.stderr,
                )
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
