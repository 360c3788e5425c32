"""Closed-loop load harness: ``python -m repro.harness serve``.

Drives a :class:`~repro.serve.service.SolverService` with a seeded
open-loop (Poisson arrivals) or closed-loop (fixed client population with
think time) workload, entirely in *virtual* time: request latencies are
modeled simulator seconds, so the emitted ``SERVE_report.json`` is a
deterministic function of the seed and the code path — comparable across
machines, like the smoke bench.

Every completed answer is re-checked after the run against a fresh,
fault-free reference cache (SPMV results must match the reference to
~machine precision; solves must satisfy the constrained-system residual
tolerance), and any miss counts as a ``wrong_answer`` — the number the CI
gate requires to be exactly zero, fault plan or not.

Alongside the serve report, the harness writes a ``BENCH_serve.json`` in
the standard bench schema so the existing ``repro.obs.compare`` gate can
diff latency percentiles and request counters against a checked-in
baseline.
"""

from __future__ import annotations

import argparse
import heapq
import pathlib
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.scatter import SCATTER_TAG
from repro.faults.plan import Corrupt, Delay, Drop, FaultPlan, Straggler
from repro.obs.instrumentation import Instrumentation, percentile_summary
from repro.obs.schema import (
    BENCH_SCHEMA,
    SERVE_SCHEMA,
    new_report,
    point_phase,
    validate_report,
    write_report,
)
from repro.serve.cache import OperatorCache, ProblemKey
from repro.serve.plan import ExecutionPlan, add_tuned_from_argument
from repro.serve.queue import ServeRequest
from repro.serve.service import SolverService

__all__ = [
    "Workload",
    "run_workload",
    "run_serve_suite",
    "main",
]

#: SPMV answers must match the fault-free reference this tightly (the
#: batched path is bitwise-identical per column, so anything above noise
#: means corruption leaked through)
SPMV_REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One seeded serving scenario."""

    name: str
    keys: tuple[ProblemKey, ...]
    arrival: str = "open"  # "open" | "closed"
    n_requests: int = 40
    rate_rps: float = 1000.0  # open-loop mean arrival rate (virtual req/s)
    n_clients: int = 4  # closed-loop client population
    think_s: float = 0.002  # closed-loop think time
    solve_frac: float = 0.3
    rtol: float = 1e-6
    deadline_s: float | None = None  # relative per-request deadline
    cancel_frac: float = 0.0  # open loop: fraction cancelled post-submit
    max_batch: int = 8
    queue_capacity: int = 32
    cache_capacity: int = 2
    faults: FaultPlan | None = None
    plan: ExecutionPlan = ExecutionPlan()

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "arrival": self.arrival,
            "n_requests": self.n_requests,
            "rate_rps": self.rate_rps,
            "n_clients": self.n_clients,
            "think_s": self.think_s,
            "solve_frac": self.solve_frac,
            "rtol": self.rtol,
            "deadline_s": self.deadline_s,
            "cancel_frac": self.cancel_frac,
            "max_batch": self.max_batch,
            "queue_capacity": self.queue_capacity,
            "cache_capacity": self.cache_capacity,
            "mode": self.plan.mode,
            "k_min": self.plan.k_min,
            "backend": self.plan.backend,
            "sellcs_crossover_dofs": self.plan.sellcs_crossover_dofs,
            "verify": True,  # every run re-checks its answers post-run
            "keys": [k.fingerprint() for k in self.keys],
            "faults": self.faults.describe() if self.faults else None,
        }


def run_workload(w: Workload, seed: int = 1234) -> dict[str, Any]:
    """Simulate one scenario; returns a schema-conforming scenario dict."""
    obs = Instrumentation(rank=-1)
    cache = OperatorCache(capacity=w.cache_capacity, obs=obs, faults=w.faults)
    service = SolverService(
        cache, max_batch=w.max_batch, queue_capacity=w.queue_capacity,
        plan=w.plan,
    )
    rng = np.random.default_rng(seed)

    # discrete events: (time, tiebreak, kind, payload)
    events: list[tuple[float, int, str, Any]] = []
    order = 0

    def push(t: float, kind: str, payload: Any) -> None:
        nonlocal order
        heapq.heappush(events, (t, order, kind, payload))
        order += 1

    issued = 0

    def make_request(t: float, client: int | None = None) -> ServeRequest:
        nonlocal issued
        rid = issued
        issued += 1
        key = w.keys[int(rng.integers(len(w.keys)))]
        kind = "solve" if rng.random() < w.solve_frac else "spmv"
        return ServeRequest(
            rid=rid,
            key=key,
            kind=kind,
            seed=int(seed * 100003 + rid),
            arrival=t,
            deadline=(t + w.deadline_s) if w.deadline_s is not None else None,
            rtol=w.rtol,
            meta={} if client is None else {"client": client},
        )

    if w.arrival == "open":
        # pre-drawn Poisson arrival process (+ optional cancellations)
        t = 0.0
        for _ in range(w.n_requests):
            t += float(rng.exponential(1.0 / w.rate_rps))
            push(t, "submit", None)
    elif w.arrival == "closed":
        for c in range(w.n_clients):
            push(float(rng.exponential(w.think_s)), "client", c)
    else:
        raise ValueError(f"unknown arrival process {w.arrival!r}")

    completions: list = []
    latency: dict[str, list[float]] = {"all": [], "spmv": [], "solve": []}
    now = 0.0
    makespan = 0.0

    def deliver(ev: tuple) -> None:
        t, _, kind, payload = ev
        if kind == "submit":
            req = make_request(t)
            if service.submit(req) and w.cancel_frac and (
                rng.random() < w.cancel_frac
            ):
                push(t + float(rng.exponential(0.2 / w.rate_rps)),
                     "cancel", req.rid)
        elif kind == "cancel":
            service.cancel(payload)
        elif kind == "client":
            if issued >= w.n_requests:
                return
            req = make_request(t, client=payload)
            if not service.submit(req):  # shed: client backs off and retries
                push(t + w.think_s, "client", payload)

    while events or service.pending:
        while events and events[0][0] <= now:
            deliver(heapq.heappop(events))
        if not service.pending:
            if not events:
                break
            now = events[0][0]
            continue
        out = service.dispatch(now)
        t_end = now + out.duration
        for r in out.expired:
            if "client" in r.meta:
                push(t_end + w.think_s, "client", r.meta["client"])
        for c in out.completions:
            if c.status == "ok":
                lat = t_end - c.request.arrival
                latency["all"].append(lat)
                latency[c.request.kind].append(lat)
                completions.append(c)
            if "client" in c.request.meta:
                push(t_end + w.think_s, "client", c.request.meta["client"])
        now = t_end
        makespan = max(makespan, now)

    wrong, ref = _verify(w, completions)
    ctx0, _ = ref.get(w.keys[0])
    n_parts, n_dofs = ctx0.n_parts, ctx0.n_dofs
    obs.incr("serve.wrong_answers", wrong)  # materialize even when 0

    req_counts = {
        "submitted": int(obs.counter("serve.submitted")),
        "completed": int(obs.counter("serve.completed")),
        "rejected": int(obs.counter("serve.rejected")),
        "shed_deadline": int(obs.counter("serve.shed_deadline")),
        "cancelled": int(obs.counter("serve.cancelled")),
        "failed": int(obs.counter("serve.failed")),
        "wrong_answers": int(wrong),
    }
    counters = dict(sorted(obs.counters.items()))
    for name, val in sorted(cache.counters().items()):
        counters[name] = counters.get(name, 0) + val
    return {
        "scenario": w.name,
        "workload": w.describe(),
        "n_parts": n_parts,
        "n_dofs": n_dofs,
        "requests": req_counts,
        "latency_s": {
            k: percentile_summary(v) for k, v in latency.items() if v
        },
        "throughput_rps": (
            req_counts["completed"] / makespan if makespan > 0 else 0.0
        ),
        "makespan_s": makespan,
        "batch_histogram": {
            str(k): v for k, v in sorted(service.batch_histogram.items())
        },
        "modes": {
            m: v for m, v in sorted(service.mode_histogram.items())
        },
        "cache": cache.stats(),
        "counters": counters,
    }


def _verify(w: Workload, completions: list) -> tuple[int, OperatorCache]:
    """Re-check every delivered answer on a fault-free reference cache
    holding the operators the plan binds the requests to."""
    ref = OperatorCache(
        capacity=max(len(w.keys), 1), obs=Instrumentation(rank=-1)
    )
    wrong = 0
    for c in completions:
        ctx, _ = ref.get(w.plan.bind(c.request.key))
        x = SolverService.input_vector(ctx, c.request.seed)
        if c.request.kind == "spmv":
            y_ref, _ = ctx.apply_multi(x[:, None])
            y_ref = y_ref[:, 0]
            scale = float(np.linalg.norm(y_ref)) or 1.0
            err = float(np.linalg.norm(c.value - y_ref))
            if not np.isfinite(err) or err > SPMV_REL_TOL * scale:
                wrong += 1
        else:
            rel = float(ctx.residuals(x[:, None], c.value[:, None])[0])
            if not np.isfinite(rel) or rel > max(10 * c.request.rtol, 1e-8):
                wrong += 1
    return wrong, ref


# ----------------------------------------------------------------------------
# the standard suite
# ----------------------------------------------------------------------------

def suite_workloads(
    seed: int, smoke: bool = True, plan: ExecutionPlan = ExecutionPlan()
) -> tuple[Workload, ...]:
    """The three standard scenarios, all executed under ``plan``: a clean
    open-loop burst (batching + cache churn + cancellations), a
    wide-batch open-loop burst (``max_batch=16`` so ``auto`` crosses into
    the BLAS3 GEMM mode — and its answers still verify against the oracle
    reference), and a fault-injected closed loop (degradation, retries,
    deadline shedding — and still zero wrong answers)."""
    scale = 1 if smoke else 3
    keys = (
        ProblemKey(problem="poisson", nel=4, n_parts=4, etype="tet4", seed=1),
        ProblemKey(problem="poisson", nel=5, n_parts=4, etype="tet4", seed=2),
    )
    # a third key over-subscribes the capacity-2 cache (LRU churn)
    keys_churn = keys + (
        ProblemKey(problem="poisson", nel=4, n_parts=4, etype="hex8"),
    )
    clean = Workload(
        name="open-clean",
        keys=keys_churn,
        arrival="open",
        n_requests=40 * scale,
        rate_rps=20000.0,
        solve_frac=0.3,
        cancel_frac=0.08,
        max_batch=6,
        cache_capacity=2,
        plan=plan,
    )
    # wide batches: one hot key, arrivals far faster than service, so the
    # queue backs up and the batcher forms (close to) max_batch-wide
    # batches — k >= DEFAULT_K_MIN lands on the GEMM path, which the
    # post-run verification still checks against the fault-free oracle
    # reference (SPMV_REL_TOL has ~6 decades of headroom over the
    # gemm-vs-oracle rounding difference)
    gemm = Workload(
        name="open-gemm",
        keys=keys[:1],
        arrival="open",
        n_requests=48 * scale,
        rate_rps=100000.0,
        solve_frac=0.25,
        max_batch=16,
        queue_capacity=64,
        cache_capacity=2,
        plan=plan,
    )
    faults = FaultPlan(
        rules=(
            Delay(2e-4, tag=SCATTER_TAG, jitter=1e-4),
            Drop(src=0, dst=1, tag=SCATTER_TAG, times=1),
            Corrupt("nan", src=1, dst=2, tag=SCATTER_TAG, skip=3, times=2),
            Straggler(2, 2.0),
        ),
        seed=seed + 7,
        checksums=True,
    )
    faulted = Workload(
        name="closed-faulted",
        keys=keys,
        arrival="closed",
        n_requests=24 * scale,
        n_clients=6,
        think_s=0.002,
        solve_frac=0.3,
        deadline_s=0.01,
        max_batch=4,
        cache_capacity=2,
        faults=faults,
        plan=plan,
    )
    return (clean, gemm, faulted)


def run_serve_suite(
    seed: int = 1234,
    smoke: bool = True,
    verbose: bool = True,
    plan: ExecutionPlan = ExecutionPlan(),
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run the standard scenarios under ``plan``; returns
    ``(serve_doc, bench_doc)``."""
    doc = new_report(
        SERVE_SCHEMA,
        {"seed": seed, "smoke": smoke, "k_min": plan.k_min},
        scenarios=[],
    )
    for w in suite_workloads(seed, smoke=smoke, plan=plan):
        if verbose:
            print(f"[serve] scenario {w.name} ...", flush=True)
        sc = run_workload(w, seed=seed)
        doc["scenarios"].append(sc)
        if verbose:
            lat = sc["latency_s"].get("all", {})
            modes = ", ".join(
                f"{m}:{v}" for m, v in sorted(sc["modes"].items())
            ) or "-"
            print(
                f"[serve]   {sc['requests']['completed']}/"
                f"{sc['requests']['submitted']} ok, "
                f"p50 {lat.get('p50', 0) * 1e3:.3f} ms, "
                f"p99 {lat.get('p99', 0) * 1e3:.3f} ms, "
                f"hit rate {sc['cache']['hit_rate']:.2f}, "
                f"modes [{modes}], "
                f"wrong {sc['requests']['wrong_answers']}"
            )
    bench = bench_projection(doc, "serve", _BENCH_COUNTERS)
    return validate_report(doc, SERVE_SCHEMA), bench


#: request counters exported to the bench doc — only ones that are robust
#: to cross-version numeric drift (per-split queueing counters can shift
#: when a latency moves by one CG iteration)
_BENCH_COUNTERS = ("submitted", "completed", "failed", "wrong_answers")


def bench_projection(
    doc: dict[str, Any], suite: str, counters: tuple[str, ...]
) -> dict[str, Any]:
    """Project a serve or shard report onto the standard bench schema so
    the existing ``repro.obs.compare`` gate applies unchanged.  Per
    scenario: every latency summary (p50 is the gated median, p95/p99
    ride along) and the makespan as phases, plus the named request
    counters."""
    bench = new_report(
        BENCH_SCHEMA, doc["config"], suite=suite, repeats=1, results=[]
    )
    for sc in doc["scenarios"]:
        phases = {
            f"{suite}.latency.{kind}": {
                "median": summ["p50"],
                "min": summ["min"],
                "max": summ["max"],
                "repeats": summ["n"],
                "p95": summ["p95"],
                "p99": summ["p99"],
            }
            for kind, summ in sc["latency_s"].items()
        }
        phases[f"{suite}.makespan"] = point_phase(sc["makespan_s"])
        bench["results"].append({
            "case": f"{suite}-{sc['scenario']}",
            "method": suite,
            "n_parts": sc["n_parts"],
            "n_dofs": sc["n_dofs"],
            "phases": phases,
            "counters": {
                f"{suite}.{name}": sc["requests"][name] for name in counters
            },
        })
    return validate_report(bench, BENCH_SCHEMA)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.harness serve",
        description="Closed-loop load harness for the batched solver "
        "service; emits SERVE_report.json (+ BENCH_serve.json for the "
        "compare gate)",
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
        default=pathlib.Path("SERVE_report.json"),
        help="serve report path (default: ./SERVE_report.json)",
    )
    ap.add_argument(
        "--bench-out",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_serve.json"),
        help="bench-schema projection path (default: ./BENCH_serve.json)",
    )
    add_tuned_from_argument(ap)
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    if not args.quiet:
        print(f"[serve] {args.plan}")
    doc, bench = run_serve_suite(
        seed=args.seed, smoke=args.smoke, verbose=not args.quiet,
        plan=args.plan,
    )
    write_report(args.out, doc)
    write_report(args.bench_out, bench)
    wrong = sum(sc["requests"]["wrong_answers"] for sc in doc["scenarios"])
    if not args.quiet:
        print(f"\n[serve] wrote {args.out} and {args.bench_out}")
    if wrong:
        print(f"[serve] FAIL: {wrong} wrong answer(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
