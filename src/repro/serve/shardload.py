"""Zipf multi-tenant load harness: ``python -m repro.harness shard``.

Drives a :class:`~repro.serve.shard.ShardCluster` with a seeded open-loop
workload whose *key* and *tenant* popularity both follow (finite) Zipf
distributions — the classic shape of multi-tenant traffic, where a few
hot operators and a few heavy tenants dominate.  Everything runs in
virtual time, so "millions of users" compress into a deterministic
discrete-event simulation: latencies, utilization and failover counts are
pure functions of the seed and the code path, comparable across machines.

The run uses the serve harness's event loop
(:func:`~repro.serve.loadgen.drive`) and answer oracle
(:class:`~repro.serve.loadgen.Oracle`): every delivered answer is
re-checked against a fresh, fault-free **single-node** reference cache.
``verify="bitwise"`` scenarios (oracle mode) check spmv *and* solve
results exactly — sharding must be invisible down to the last bit, even
across a shard kill; the others use the serve tolerance contract.  Any
miss counts as a ``wrong_answer`` — gated to exactly zero in CI.

Alongside ``SHARD_report.json`` (schema ``repro.shard/1``) the harness
writes a ``BENCH_shard.json`` projection for the ``repro.obs.compare``
gate: p50 and p99 latency as gated phases, plus robust request counters
and the per-shard utilization peak-to-mean skew.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Any

import numpy as np

from repro.faults.shard import ShardFaultPlan, ShardKill
from repro.obs.instrumentation import Instrumentation
from repro.obs.schema import (
    SHARD_SCHEMA,
    new_report,
    point_phase,
    validate_report,
    write_report,
)
from repro.serve.batcher import BatchPolicy, DeadlineBatcher
from repro.serve.cache import OperatorCache, ProblemKey
from repro.serve.loadgen import (
    Oracle,
    bench_projection,
    collect,
    drive,
    make_request,
    timing_fields,
)
from repro.serve.plan import ExecutionPlan, add_tuned_from_argument
from repro.serve.queue import ServeRequest
from repro.serve.service import SolverService
from repro.serve.shard import ShardCluster, ShardRouter
from repro.simmpi.cluster import VirtualCluster

__all__ = [
    "ShardWorkload",
    "build_cluster",
    "run_shard_workload",
    "run_shard_suite",
    "shard_suite_workloads",
    "main",
]


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized finite Zipf pmf over ranks ``1..n`` with exponent ``s``."""
    if n < 1:
        raise ValueError(f"zipf_weights: n must be >= 1, got {n}")
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return w / w.sum()


@dataclass(frozen=True)
class ShardWorkload:
    """One seeded sharded-serving scenario."""

    name: str
    keys: tuple[ProblemKey, ...]
    n_shards: int = 4
    n_tenants: int = 8
    zipf_s: float = 1.1  # key-popularity skew exponent
    tenant_zipf_s: float = 1.0  # tenant-traffic skew exponent
    n_requests: int = 96
    rate_rps: float = 20000.0  # open-loop mean arrival rate (virtual req/s)
    solve_frac: float = 0.25
    rtol: float = 1e-6
    deadline_s: float | None = None
    max_batch: int = 8
    queue_capacity: int = 16
    cache_capacity: int = 3
    tenant_quota: int | None = None  # per-tenant outstanding-work cap
    hot_threshold: int = 12
    max_replicas: int = 1
    vnodes: int = 64
    plan: ExecutionPlan = ExecutionPlan()
    shard_faults: ShardFaultPlan | None = None
    verify: str = "tolerance"  # "tolerance" | "bitwise"

    def __post_init__(self) -> None:
        if self.verify not in ("tolerance", "bitwise"):
            raise ValueError(
                f"verify must be 'tolerance' or 'bitwise', got {self.verify!r}"
            )

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "n_shards": self.n_shards,
            "n_tenants": self.n_tenants,
            "zipf_s": self.zipf_s,
            "tenant_zipf_s": self.tenant_zipf_s,
            "n_requests": self.n_requests,
            "rate_rps": self.rate_rps,
            "solve_frac": self.solve_frac,
            "rtol": self.rtol,
            "deadline_s": self.deadline_s,
            "max_batch": self.max_batch,
            "queue_capacity": self.queue_capacity,
            "cache_capacity": self.cache_capacity,
            "tenant_quota": self.tenant_quota,
            "hot_threshold": self.hot_threshold,
            "max_replicas": self.max_replicas,
            "vnodes": self.vnodes,
            "mode": self.plan.mode,
            "k_min": self.plan.k_min,
            "verify": self.verify,
            "keys": [k.fingerprint() for k in self.keys],
            "shard_faults": (
                self.shard_faults.describe() if self.shard_faults else None
            ),
        }


def build_cluster(
    w: ShardWorkload,
) -> tuple[ShardCluster, VirtualCluster, Instrumentation]:
    """Materialize the cluster a workload describes: one
    :class:`SolverService` (own cache, own instrumentation, deadline
    batcher, the workload's plan) per shard, wired through a
    :class:`ShardRouter` and registered on a :class:`VirtualCluster` for
    per-shard busy-time accounting."""
    obs = Instrumentation(rank=-1)
    vcluster = VirtualCluster()
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
            cluster=vcluster,
            cluster_name=sid,
        )
        services[sid] = SolverService(
            cache,
            queue_capacity=w.queue_capacity,
            batcher=DeadlineBatcher(BatchPolicy(w.max_batch)),
            plan=w.plan,
        )
    cluster = ShardCluster(
        router,
        services,
        obs=obs,
        tenant_quota=w.tenant_quota,
        shard_faults=w.shard_faults,
    )
    return cluster, vcluster, obs


def run_shard_workload(w: ShardWorkload, seed: int = 1234) -> dict[str, Any]:
    """Simulate one scenario; returns a schema-conforming scenario dict."""
    cluster, vcluster, obs = build_cluster(w)
    rng = np.random.default_rng(seed)
    key_p = zipf_weights(len(w.keys), w.zipf_s)
    tenant_p = zipf_weights(w.n_tenants, w.tenant_zipf_s)
    tenant_counts: dict[str, dict[str, int]] = {}

    def tcount(tenant: str, field: str) -> None:
        rec = tenant_counts.setdefault(
            tenant, {"submitted": 0, "completed": 0}
        )
        rec[field] += 1

    def arrive(req: ServeRequest, t: float) -> None:
        tcount(req.tenant, "submitted")
        cluster.submit(req, t)

    # pre-drawn Poisson arrival process with Zipf key/tenant marks
    events = []
    t = 0.0
    for rid in range(w.n_requests):
        t += float(rng.exponential(1.0 / w.rate_rps))
        key = w.keys[int(rng.choice(len(w.keys), p=key_p))]
        tenant = f"t{int(rng.choice(w.n_tenants, p=tenant_p))}"
        req = make_request(w, rng, rid, t, seed, key, tenant=tenant)
        events.append((t, rid, partial(arrive, req)))
    # drawn in time order, so the list is already a heap

    done: list = []

    def on_dispatch(out) -> None:
        for c in collect(out, done):
            tcount(c.request.tenant, "completed")

    makespan = drive(cluster, events, on_dispatch)
    cluster.advance(makespan)  # late-scheduled fault events still apply

    oracle = Oracle(len(w.keys))
    exact = w.verify == "bitwise"
    wrong = sum(not oracle.check(c, exact) for _, c in done)
    ctx0 = oracle.context(w.keys[0])
    obs.incr("shard.wrong_answers", wrong)  # materialize even when 0

    counters = cluster.request_counters()
    counters["shard.wrong_answers"] = int(wrong)
    req_counts = {
        "submitted": counters.get("shard.submitted", 0),
        "completed": counters.get("serve.completed", 0),
        "rejected": (
            counters.get("shard.shed_full", 0)
            + counters.get("shard.failover_shed", 0)
        ),
        "shed_tenant": counters.get("shard.shed_tenant", 0),
        "shed_deadline": counters.get("serve.shed_deadline", 0),
        "spilled": counters.get("shard.spills", 0),
        "failed": counters.get("serve.failed", 0),
        "failovers": counters.get("shard.failovers", 0),
        "wrong_answers": int(wrong),
    }

    util = cluster.utilization(makespan)
    shards = {}
    for sid in cluster.shard_ids():
        sh = cluster.shard_state(sid)
        shards[sid] = {
            "utilization": util[sid],
            "busy_s": sh.service.busy_s,
            "sim_busy_s": vcluster.busy_vtime(sid),
            "dispatches": sh.service.dispatches,
            "alive": sh.alive,
            "cache": sh.service.cache.stats(),
        }
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
        **timing_fields(done, req_counts["completed"], makespan),
        "shards": shards,
        "utilization": cluster.utilization_summary(makespan),
        "replication": cluster.router.replication_report(),
        "tenants": tenants,
        "batch_histogram": {str(k): v for k, v in sorted(batches.items())},
        "modes": dict(sorted(modes.items())),
        "counters": counters,
    }


# ----------------------------------------------------------------------------
# the standard suite
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


def shard_suite_workloads(
    seed: int, smoke: bool = True, plan: ExecutionPlan = ExecutionPlan()
) -> tuple[ShardWorkload, ...]:
    """The three standard sharded scenarios, executed under ``plan``
    (``shard-kill`` pins its mode to the oracle its bitwise check needs).

    * ``zipf-hot`` — skewed key popularity over a 4-shard ring: the hot
      head keys cross the replication threshold, spill balances them
      across replicas, and per-shard utilization stays within the gated
      peak-to-mean skew bound;
    * ``tenant-storm`` — heavily skewed tenant traffic against a
      per-tenant quota: the storm tenant is clipped by admission control
      (fair queueing), light tenants keep completing, per-tenant hit
      rates come from the new cache tenant labels;
    * ``shard-kill`` — a shard dies mid-run under the bitwise oracle
      mode: queued work fails over, its keys rebuild (or hit a warm
      replica) on the survivors, and every delivered answer — spmv *and*
      solve — is ``np.array_equal`` to the fault-free single-node
      reference.
    """
    scale = 1 if smoke else 3
    zipf = ShardWorkload(
        name="zipf-hot",
        keys=_catalog(8),
        n_shards=4,
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
        plan=plan,
    )
    storm = ShardWorkload(
        name="tenant-storm",
        keys=_catalog(6),
        n_shards=4,
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
        plan=plan,
    )
    kill = ShardWorkload(
        name="shard-kill",
        keys=_catalog(4),
        n_shards=4,
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


def run_shard_suite(
    seed: int = 1234,
    smoke: bool = True,
    verbose: bool = True,
    plan: ExecutionPlan = ExecutionPlan(),
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run the standard scenarios under ``plan``; returns
    ``(shard_doc, bench_doc)``."""
    doc = new_report(
        SHARD_SCHEMA,
        {"seed": seed, "smoke": smoke, "k_min": plan.k_min},
        scenarios=[],
    )
    for w in shard_suite_workloads(seed, smoke=smoke, plan=plan):
        if verbose:
            print(f"[shard] scenario {w.name} ...", flush=True)
        sc = run_shard_workload(w, seed=seed)
        doc["scenarios"].append(sc)
        if verbose:
            lat = sc["latency_s"].get("all", {})
            print(
                f"[shard]   {sc['requests']['completed']}/"
                f"{sc['requests']['submitted']} ok over "
                f"{sc['n_shards']} shards, "
                f"p50 {lat.get('p50', 0) * 1e3:.3f} ms, "
                f"p99 {lat.get('p99', 0) * 1e3:.3f} ms, "
                f"skew {sc['utilization']['peak_to_mean']:.2f}, "
                f"repl x{sc['replication']['replication_factor']:.2f}, "
                f"failovers {sc['requests']['failovers']}, "
                f"wrong {sc['requests']['wrong_answers']}"
            )
    return validate_report(doc, SHARD_SCHEMA), _bench_doc(doc)


#: request counters exported to the bench doc — the deterministic ones
#: (per-split queueing counters shift when one latency moves by one CG
#: iteration across numpy versions; these stay put or are gated hard)
_BENCH_COUNTERS = ("submitted", "completed", "failed", "wrong_answers",
                   "failovers")


def _bench_doc(shard_doc: dict[str, Any]) -> dict[str, Any]:
    """The serve projection (:func:`repro.serve.loadgen.bench_projection`)
    plus the p99 tail as its own phase (``…latency.all.p99``) whose
    *median* is the p99 value, which puts the tail directly under the
    phase budget, and the utilization skew as an integer-percent
    counter."""
    bench = bench_projection(shard_doc, "shard", _BENCH_COUNTERS)
    for res, sc in zip(bench["results"], shard_doc["scenarios"]):
        for kind, summ in sc["latency_s"].items():
            res["phases"][f"shard.latency.{kind}.p99"] = point_phase(
                summ["p99"], summ["n"]
            )
        res["counters"]["shard.util_peak_to_mean_pct"] = int(
            round(100 * sc["utilization"]["peak_to_mean"])
        )
    return bench


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.harness shard",
        description="Zipf multi-tenant load harness for the sharded "
        "solver tier; emits SHARD_report.json (+ BENCH_shard.json for "
        "the compare gate)",
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
        default=pathlib.Path("SHARD_report.json"),
        help="shard report path (default: ./SHARD_report.json)",
    )
    ap.add_argument(
        "--bench-out",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_shard.json"),
        help="bench-schema projection path (default: ./BENCH_shard.json)",
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
        print(f"[shard] {args.plan}")
    doc, bench = run_shard_suite(
        seed=args.seed, smoke=args.smoke, verbose=not args.quiet,
        plan=args.plan,
    )
    write_report(args.out, doc)
    write_report(args.bench_out, bench)
    if not args.quiet:
        print(f"\n[shard] wrote {args.out} and {args.bench_out}")

    status = 0
    wrong = sum(sc["requests"]["wrong_answers"] for sc in doc["scenarios"])
    if wrong:
        print(f"[shard] FAIL: {wrong} wrong answer(s)", file=sys.stderr)
        status = 1
    if args.max_skew is not None:
        for sc in doc["scenarios"]:
            skew = sc["utilization"]["peak_to_mean"]
            if skew > args.max_skew:
                print(
                    f"[shard] FAIL: {sc['scenario']} utilization "
                    f"peak-to-mean {skew:.2f} > bound {args.max_skew:.2f}",
                    file=sys.stderr,
                )
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
