"""Runs one workload inside the pinned child process.

The protocol, in order: ``1 + N`` cold set-ups (the first never timed,
``gc.collect()`` and released contexts before each), untimed warm-up ops,
then the blocks — ``gc.collect()``, a fixed pure-Python loop (the
disturbance probe) and the workload's own untimed per-block work before
each, answer checks after each — the peak RSS, and last the end-of-run
answer checks.  Everything is ``time.perf_counter`` wall clock; the
simulator's virtual time is ignored.

Every time the benchmark reports is a *quiet* time: the fastest of the
samples that did the same work (:func:`e2ebench.protocol.quiet_replay`).

The end-to-end pass never creates a tracer.  The ``--trace`` pass runs
half the ops, alternating untraced and traced blocks (so a quarter of the
ops are traced and the same run yields the tracing overhead), then the
layer probes.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, replace

from e2ebench import probes
from e2ebench.envinfo import environment, load_average, pyloop_seconds
from e2ebench.protocol import (
    NOMINAL_SECONDS,
    load_registry,
    midmean,
    quiet_replay,
    tail_percentile,
)
from e2ebench.tracing import Seams, Tracer
from e2ebench.workloads import WORKLOAD_CLASSES, Workload
from repro.obs import percentile

__all__ = ["run_workload"]

#: a run whose pure-Python loop times spread wider than this is flagged
DISTURBED_SPREAD = 0.25


@dataclass
class Timed:
    steps: list  # (class, seconds) of every timed step, in order
    ops: list  # (first step, end step, seconds as measured) of every op


@dataclass
class Block(Timed):
    attempted: int
    failed: int
    wall: float
    cpu: float
    pyloop: float
    traced: bool

    @property
    def latencies(self) -> list[float]:
        """Op latencies as measured, neighbours included."""
        return [seconds for _, _, seconds in self.ops]


def _measure(wl: Workload, tracer: Tracer | None, n_builds: int, n_blocks: int):
    """The timed protocol; returns ``(setups, blocks, peak_rss_mb, mark)``
    where ``mark`` is the index of the first span recorded by a block."""
    setups = []
    if tracer:
        tracer.enabled = True  # cold builds are spans of the trace pass
    for i in range(1 + n_builds):
        wl.release()
        gc.collect()
        steps = wl.cold_setup()
        if i:
            # a set-up is one op made of its steps
            total = sum(seconds for _, seconds in steps)
            setups.append(Timed(steps, [(0, len(steps), total)]))
    if tracer:
        tracer.enabled = False
    wl.warm_up()
    mark = len(tracer.spans) if tracer else 0
    blocks = []
    for b in range(n_blocks):
        wl.before_block(b)
        gc.collect()
        pyloop = pyloop_seconds()
        traced = tracer is not None and b % 2 == 1
        if tracer:
            tracer.enabled = traced
        cpu0, t0 = time.process_time(), time.perf_counter()
        steps, ops, failed = wl.run_block(b)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        if tracer:
            tracer.enabled = False
        failed += wl.after_block(b)
        blocks.append(
            Block(steps, ops, wl.ops_per_block, failed, wall, cpu, pyloop, traced)
        )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return setups, blocks, rss_mb, mark


def _latencies(blocks: list[Block]) -> list[float]:
    return [x for blk in blocks for x in blk.latencies]


def _op_ms(blocks: list[Block]) -> float:
    """``op_ms_mid``: the central op latency of the quiet replay."""
    return 1e3 * midmean(quiet_replay(blocks)[0])


def _end_to_end(setups, blocks, rss_mb, attempted, failed) -> dict[str, float]:
    latencies, busy = quiet_replay(blocks)
    return {
        "setup_s": quiet_replay(setups)[0][0],
        "op_ms_mid": 1e3 * midmean(latencies),
        "throughput_ops_s": len(latencies) / busy,
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - failed / attempted,
    }


# ----------------------------------------------------------------------
# per-layer metrics of the trace pass
# ----------------------------------------------------------------------


def _ms(spans) -> float:
    """Quiet duration of ``spans`` (calls doing the same work) in ms.  A
    layer the workload is meant to exercise that recorded no span fails
    the run: it must not read as a layer that took no time."""
    if not spans:
        raise RuntimeError("a traced layer recorded no span")
    return 1e3 * min(s.seconds for s in spans)


def _median_ms(spans) -> float:
    """Median duration in ms of ``spans`` that did *different* work (the
    dispatches of ``serve-mixed``: seven operators, batches of 1-8), where
    a fastest sample would only name the cheapest case.  Neighbours
    included."""
    if not spans:
        raise RuntimeError("a traced layer recorded no span")
    return 1e3 * statistics.median(s.seconds for s in spans)


def _total(spans) -> float:
    return sum(s.seconds for s in spans)


def _common_layers(wl, tracer, reps: int) -> dict[str, float]:
    """Set-up, apply, simulated-MPI and machine rows every workload
    reports, measured on its primary context."""
    ctx = wl.primary_context()
    m = {}
    m.update(probes.setup_probes(ctx, min(reps, 2)))
    m.update(probes.apply_probes(ctx, 10 * reps))
    m.update(probes.comm_probes(10 * reps))
    m.update(probes.machine_probes(ctx, reps, wl.smoke))
    m["core.kernels.emv_bw_frac"] = (
        m["core.kernels.emv_gbs"] / m["env.triad_gbs"]
    )
    m["simmpi.run_overhead_ms"] = (
        m.pop("apply_multi_k1_ms") - m["core.hymv.apply_owned_ms"]
    )
    base = replace(ctx.key, deltas=())
    builds = [
        s for s in tracer.named("serve.cache.get_miss") if s.meta == base
    ][1:]  # the first set-up is never timed
    m["serve.cache.build_ms"] = _ms(builds)
    m["serve.cache.build_other_ms"] = (
        m["serve.cache.build_ms"]
        - m["problems.build_spec_ms"]
        - m["core.hymv.setup_ms"]
    )
    return m


# Each ``_<workload>_layers(wl, tracer, mark, m, reps, traced)`` adds the
# workload's own rows to ``m`` and returns ``(rows, op_ms)``: the ms of one
# op that each layer accounts for, and the op time they are shares of.


def _apply_hymv_layers(wl, tracer, mark, m, reps, traced):
    m["serve.cache.apply_multi_ms"] = _ms(
        tracer.named("serve.cache.apply_multi", mark)
    )
    rows = {
        name: m[name]
        for name in (
            "simmpi.run_overhead_ms",
            "core.kernels.gather_ms",
            "core.kernels.emv_ms",
            "core.segment.scatter_ms",
            "core.scatter.halo_ms",
        )
    }
    return rows, _op_ms(traced)


def _solve_rows(m, solve_ms, iterations, overhead_ms) -> float:
    """``solvers.cg.*`` rows from the time of a solve and per-op per-column
    iteration counts; returns the lock-step iterations of a mean op."""
    m["serve.cache.solve_multi_ms"] = solve_ms
    m["solvers.cg.iters_per_col"] = statistics.fmean(
        i for op in iterations for i in op
    )
    lockstep = statistics.fmean(max(op) for op in iterations)
    m["solvers.cg.iter_ms"] = m["serve.cache.solve_multi_ms"] / lockstep
    m["solvers.cg.overhead_iter_ms"] = overhead_ms
    m["solvers.cg.spmv_share"] = 1.0 - overhead_ms / m["solvers.cg.iter_ms"]
    return lockstep


def _solve_batch_layers(wl, tracer, mark, m, reps, traced):
    iters = _solve_rows(
        m,
        _ms(tracer.named("serve.cache.solve_multi", mark)),
        wl.iterations,
        probes.cg_overhead_ms(wl.primary_context(), wl.k, 10 * reps),
    )
    rows = {
        "core.hymv.apply_k8 (x iters)": iters * m["core.hymv.apply_k8_ms"],
        "solvers.cg.overhead_iter (x iters)": (
            iters * m["solvers.cg.overhead_iter_ms"]
        ),
        "simmpi.run_noop": 1e-3 * m["simmpi.run_noop_us"],
    }
    return rows, _op_ms(traced)


def _serve_mixed_layers(wl, tracer, mark, m, reps, traced):
    wall = sum(b.wall for b in traced)
    n_ops = sum(len(b.latencies) for b in traced)
    spans = {
        name: tracer.named(name, mark)
        for name in (
            "serve.queue.submit",
            "serve.batcher.next_batch",
            "serve.cache.get_hit",
            "serve.cache.get_miss",
            "serve.cache.apply_multi",
            "serve.cache.solve_multi",
            "serve.service.input_vector",
            "serve.service.dispatch",
        )
    }
    m["serve.queue.submit_us"] = 1e3 * _median_ms(spans["serve.queue.submit"])
    m["serve.batcher.next_batch_us"] = 1e3 * _median_ms(
        spans["serve.batcher.next_batch"]
    )
    m["serve.cache.get_hit_us"] = 1e3 * _median_ms(spans["serve.cache.get_hit"])
    m["serve.cache.get_miss_ms"] = _median_ms(spans["serve.cache.get_miss"])
    m["serve.service.input_vector_us"] = 1e3 * _median_ms(
        spans["serve.service.input_vector"]
    )
    m["serve.service.dispatch_ms"] = _median_ms(spans["serve.service.dispatch"])
    # dispatch minus cache and context calls: input_vector, column_stack
    # and the completion objects stay in
    own = {id(s): s.self_seconds for s in spans["serve.service.dispatch"]}
    for s in spans["serve.service.input_vector"]:
        own[id(s.parent)] += s.seconds
    m["serve.service.dispatch_self_ms"] = 1e3 * statistics.median(own.values())
    m["serve.cache.apply_multi_ms"] = _median_ms(spans["serve.cache.apply_multi"])
    for kind in ("hymv", "assembled", "sellcs"):
        m[f"serve.cache.apply_ms.{kind}"] = _median_ms(
            tracer.named(f"serve.cache.apply_multi.{kind}", mark)
        )
    m["serve.cache.solve_ms"] = _median_ms(spans["serve.cache.solve_multi"])
    stats = wl.cache.stats()
    m["serve.cache.hit_rate"] = stats["hit_rate"]
    m["serve.cache.builds"] = float(stats["misses"])
    m["serve.cache.miss_wall_frac"] = _total(spans["serve.cache.get_miss"]) / wall
    m["serve.cache.fingerprint_us"] = 1e6 * min(
        probes.main_reps(wl.catalog[0].fingerprint, 10 * reps)
    )
    batches = wl.svc.batch_histogram
    m["serve.service.batch_size_mean"] = sum(
        k * n for k, n in batches.items()
    ) / sum(batches.values())
    modes = wl.svc.mode_histogram
    m["serve.service.gemm_batch_frac"] = modes.get("gemm", 0) / sum(modes.values())
    m.update(probes.sellcs_probes(wl.context_of(4), reps))
    m.update(probes.assembled_probes(wl.context_of(3), reps))
    _solve_rows(
        m,
        m["serve.cache.solve_ms"],
        [[i] for i in wl.solve_iterations],
        probes.cg_overhead_ms(wl.primary_context(), 1, 10 * reps),
    )
    rows = {
        name: 1e3 * _total(spans[name]) / n_ops
        for name in (
            "serve.queue.submit",
            "serve.batcher.next_batch",
            "serve.cache.get_hit",
            "serve.cache.get_miss",
            "serve.cache.apply_multi",
            "serve.cache.solve_multi",
        )
    }
    rows["serve.service.dispatch_self"] = 1e3 * sum(own.values()) / n_ops
    # per request, the dispatcher's time rather than the request's latency
    return rows, 1e3 * wall / n_ops


def _adapt_crack_layers(wl, tracer, mark, m, reps, traced):
    updates = tracer.named("serve.cache.update", mark)
    hits = tracer.named("serve.cache.get_hit", mark)
    applies = tracer.named("serve.cache.apply_multi", mark)
    n = wl.ops_per_block
    edge = min(16, n // 2)
    episodes = [updates[i : i + n] for i in range(0, len(updates), n)]
    m["serve.cache.update_ms"] = _ms(updates)
    m["serve.cache.update_first16_ms"] = _ms(
        [s for ep in episodes for s in ep[:edge]]
    )
    m["serve.cache.update_last16_ms"] = _ms(
        [s for ep in episodes for s in ep[-edge:]]
    )
    m["serve.cache.get_hit_us"] = 1e3 * _ms(hits)
    m["serve.cache.apply_multi_ms"] = _ms(applies)
    # each op reads twice: the first read follows a write, the second is steady
    m["serve.cache.read_after_write_ms"] = _ms(applies[0::2]) - _ms(applies[1::2])
    m["adapt.touched_per_step"] = statistics.fmean(
        info.get("touched", 0) for info in wl.infos
    )
    m["adapt.patch_frac"] = statistics.fmean(
        info.get("path") == "patch" for info in wl.infos
    )
    m.update(probes.adapt_probes(wl.key0, wl.deltas, reps))
    n_ops = len(updates)
    rows = {
        "serve.cache.update": 1e3 * _total(updates) / n_ops,
        "serve.cache.get_hit": 1e3 * _total(hits) / n_ops,
        "serve.cache.apply_multi": 1e3 * _total(applies) / n_ops,
    }
    # rows are means per op here, so the op time must be a mean too
    return rows, 1e3 * statistics.fmean(_latencies(traced))


_WORKLOAD_LAYERS = {
    "apply-hymv": _apply_hymv_layers,
    "solve-batch": _solve_batch_layers,
    "serve-mixed": _serve_mixed_layers,
    "adapt-crack": _adapt_crack_layers,
}


def _per_layer(wl, tracer, blocks, mark, attempted, failed):
    """Every per-layer metric of ``wl`` plus each layer row's share of an
    op."""
    reps = 3 if wl.smoke else 40
    traced = [b for b in blocks if b.traced]
    untraced = [b for b in blocks if not b.traced]
    m = _common_layers(wl, tracer, reps)
    rows, op_ms = _WORKLOAD_LAYERS[wl.name](wl, tracer, mark, m, reps, traced)
    n_ops = sum(len(b.latencies) for b in blocks)
    cpu, wall = sum(b.cpu for b in blocks), sum(b.wall for b in blocks)
    plain = _latencies(untraced)
    m["proc.cpu_ms_per_op"] = 1e3 * cpu / n_ops
    m["proc.cpu_wall_ratio"] = cpu / wall
    m["bench.op_ms_tail"] = 1e3 * percentile(plain, tail_percentile(len(plain)))
    m["bench.unattributed_frac"] = 1.0 - sum(rows.values()) / op_ms
    m["bench.trace_overhead_frac"] = _op_ms(traced) / _op_ms(untraced) - 1.0
    m["bench.fail_frac"] = failed / attempted
    m["env.pyloop_ms"] = 1e3 * statistics.median(b.pyloop for b in blocks)
    shares = {name: ms / op_ms for name, ms in rows.items()}
    return m, shares


# ----------------------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    """Run workload ``name`` and return the result document (metrics by
    registry name with units, counts of ops attempted/failed, and the
    details the human-readable report prints)."""
    registry = load_registry()
    t_start, load_start = time.perf_counter(), load_average()
    scale = seconds / NOMINAL_SECONDS
    tracer = Tracer() if trace else None
    cls = WORKLOAD_CLASSES[name]
    wl = cls(seed, scale / 2 if trace else scale, smoke, Seams(tracer))
    n_builds = 2 if trace or smoke else wl.cold_builds
    n_blocks = wl.trace_blocks if trace else wl.n_blocks
    setups, blocks, rss_mb, mark = _measure(wl, tracer, n_builds, n_blocks)
    attempted = sum(b.attempted for b in blocks)
    failed = sum(b.failed for b in blocks) + wl.verify()

    shares = {}
    if trace:
        values, shares = _per_layer(wl, tracer, blocks, mark, attempted, failed)
        declared = registry["per_layer"]
    else:
        values = _end_to_end(setups, blocks, rss_mb, attempted, failed)
        declared = registry["end_to_end"]
    # the result line must carry every declared name: a layer this
    # workload does not exercise is padded with 0 and listed by name, so
    # that it cannot be mistaken for a layer that ran and took no time
    not_exercised = [d["name"] for d in declared if d["name"] not in values]
    metrics = {
        d["name"]: {"value": float(values.get(d["name"], 0.0)), "unit": d["unit"]}
        for d in declared
    }
    undeclared = sorted(set(values) - set(metrics))
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")

    plain = [b for b in blocks if not b.traced]
    lat = _latencies(plain)
    tail_q = tail_percentile(len(lat))
    pyloops = [b.pyloop for b in blocks]
    pyloop_spread = (max(pyloops) - min(pyloops)) / statistics.median(pyloops)
    block_p50 = [1e3 * statistics.median(b.latencies) for b in plain]
    env = environment()
    env.update(
        seed=seed,
        load_start=load_start,
        load_end=load_average(),
        pyloop_spread=pyloop_spread,
        disturbed=pyloop_spread > DISTURBED_SPREAD,
        wall_s=time.perf_counter() - t_start,
    )
    return {
        "workload": name,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "not_exercised": not_exercised,
        "samples": {
            "setup_s": len(setups),
            "op_ms_mid": len(lat),
            "throughput_ops_s": sum(len(b.steps) for b in plain),
        },
        "step_classes": len({cls for b in plain for cls, _ in b.steps}),
        "tail": {"percentile": tail_q, "ms": 1e3 * percentile(lat, tail_q)},
        "all_ops_p50_ms": 1e3 * statistics.median(lat),
        "block_p50_ms": block_p50,
        "stream_digest": wl.stream_digest(),
        "layer_shares": shares,
        "env": env,
    }
