"""The observability core: phase timers, counters, events, rank merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import (
    Instrumentation,
    get_instrumentation,
    merge_snapshots,
    percentile,
    percentile_summary,
    reset_instrumentation,
)
from repro.simmpi import run_spmd


# ----------------------------------------------------------------------------
# phase timers
# ----------------------------------------------------------------------------

def test_phase_nesting_builds_dotted_paths():
    obs = Instrumentation()
    with obs.phase("spmv"):
        with obs.phase("emv"):
            with obs.phase("independent"):
                pass
        with obs.phase("scatter"):
            pass
    assert sorted(obs.phases) == [
        "spmv", "spmv.emv", "spmv.emv.independent", "spmv.scatter",
    ]
    assert obs.current_path == ""


def test_phase_stack_unwinds_on_exception():
    obs = Instrumentation()
    with pytest.raises(RuntimeError):
        with obs.phase("outer"):
            with obs.phase("inner"):
                raise RuntimeError("boom")
    # both phases were still recorded and the stack is clean
    assert set(obs.phases) == {"outer", "outer.inner"}
    assert obs.current_path == ""


def test_phase_records_virtual_time_from_clock():
    t = {"now": 0.0}
    obs = Instrumentation(clock=lambda: t["now"])
    with obs.phase("modeled"):
        t["now"] += 2.5
    assert obs.phases["modeled"].vtime == pytest.approx(2.5)
    assert obs.phases["modeled"].count == 1


def test_record_accumulates_samples():
    obs = Instrumentation()
    obs.record("spmv.total", vtime=1.0, wall=0.5)
    obs.record("spmv.total", vtime=2.0, wall=0.25)
    s = obs.phases["spmv.total"]
    assert s.vtime == pytest.approx(3.0)
    assert s.wall == pytest.approx(0.75)
    assert s.count == 2


def test_legacy_timing_record_api():
    # the add/total/as_dict virtual-time shorthands
    obs = Instrumentation()
    obs.add("setup", 1.0)
    obs.add("setup", 0.5)
    assert obs.total("setup") == pytest.approx(1.5)
    assert obs.total("missing") == 0.0
    assert obs.as_dict() == {"setup": pytest.approx(1.5)}
    assert obs.phases["setup"].count == 2


# ----------------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------------

def test_counters_accumulate_and_reject_negative():
    obs = Instrumentation()
    obs.incr("bytes", 100)
    obs.incr("bytes", 28)
    obs.incr("msgs")
    assert obs.counter("bytes") == 128
    assert obs.counter("msgs") == 1
    assert obs.counter("absent") == 0
    with pytest.raises(ValueError):
        obs.incr("bytes", -1)


# ----------------------------------------------------------------------------
# trace events
# ----------------------------------------------------------------------------

def test_events_dropped_unless_tracing():
    off = Instrumentation(trace=False)
    off.event("spmv.emv", 0.0, 1.0)
    assert off.events == []

    on = Instrumentation(trace=True)
    on.event("spmv.emv", 0.0, 1.0, kind="compute", n=4)
    on.event("empty", 1.0, 1.0)  # zero-length intervals are dropped
    assert len(on.events) == 1
    ev = on.events[0]
    assert (ev.label, ev.kind, ev.duration) == ("spmv.emv", "compute", 1.0)
    assert ev.meta == {"n": 4}
    assert ev.as_dict()["meta"] == {"n": 4}


# ----------------------------------------------------------------------------
# snapshots and cross-rank merging
# ----------------------------------------------------------------------------

def test_snapshot_round_trips_through_json():
    import json

    obs = Instrumentation(rank=3, trace=True)
    obs.record("spmv.total", vtime=1.0, wall=0.1)
    obs.incr("spmv.flops", 1e6)
    obs.event("spmv.emv", 0.0, 0.5)
    snap = json.loads(json.dumps(obs.snapshot(events=True)))
    assert snap["rank"] == 3
    assert snap["phases"]["spmv.total"]["vtime"] == pytest.approx(1.0)
    assert snap["counters"]["spmv.flops"] == pytest.approx(1e6)
    assert snap["events"][0]["label"] == "spmv.emv"


def test_merge_snapshots_max_times_sum_counters():
    a = Instrumentation(rank=0)
    a.record("spmv.total", vtime=1.0, wall=0.5)
    a.incr("bytes", 10)
    b = Instrumentation(rank=1)
    b.record("spmv.total", vtime=3.0, wall=0.25)
    b.record("spmv.wait", vtime=0.5)
    b.incr("bytes", 32)

    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["ranks"] == 2
    assert merged["phases"]["spmv.total"]["vtime"] == pytest.approx(3.0)
    assert merged["phases"]["spmv.wait"]["vtime"] == pytest.approx(0.5)
    assert merged["counters"]["bytes"] == 42

    summed = merge_snapshots([a.snapshot(), b.snapshot()], time_reduce="sum")
    assert summed["phases"]["spmv.total"]["vtime"] == pytest.approx(4.0)

    with pytest.raises(ValueError):
        merge_snapshots([], time_reduce="mean")


def test_merge_across_simulated_ranks():
    """Per-rank comm instrumentation merges the way the driver does."""

    def prog(comm):
        payload = np.full(1000, float(comm.rank))
        nxt = (comm.rank + 1) % comm.size
        prv = (comm.rank - 1) % comm.size
        req = comm.irecv(prv, tag=1)
        comm.isend(payload, nxt, tag=1)
        comm.wait(req)
        comm.advance(1e-3 * (comm.rank + 1), label="spmv.emv.modeled")
        return comm.obs.snapshot()

    snaps, _ = run_spmd(4, prog)
    merged = merge_snapshots(snaps)
    assert merged["ranks"] == 4
    # times reduce by max: the slowest rank's modeled sweep wins
    assert merged["phases"]["spmv.emv.modeled"]["vtime"] == pytest.approx(4e-3)
    # counters sum: every rank sent and received one 8 kB message
    assert merged["counters"]["comm.msgs_sent"] == 4
    assert merged["counters"]["comm.msgs_recv"] == 4
    assert merged["counters"]["comm.bytes_sent"] == 4 * 8000
    assert merged["counters"]["comm.bytes_recv"] == 4 * 8000


def test_communicator_wait_time_is_instrumented():
    def prog(comm):
        if comm.rank == 1:
            comm.advance(5e-3, label="busy")  # delay the send
            comm.isend(np.ones(4), 0)
            return 0.0
        got = comm.recv(1)
        assert got.sum() == 4.0
        return comm.obs.total("comm.wait")

    res, _ = run_spmd(2, prog)
    assert res[0] > 1e-3  # rank 0 demonstrably blocked on rank 1


# ----------------------------------------------------------------------------
# process-wide registry
# ----------------------------------------------------------------------------

def test_process_registry_is_stable_until_reset():
    first = get_instrumentation()
    assert get_instrumentation() is first
    fresh = reset_instrumentation()
    assert fresh is not first
    assert get_instrumentation() is fresh


# ----------------------------------------------------------------------------
# percentile helpers (shared by the bench suites and the serve report)
# ----------------------------------------------------------------------------

def test_percentile_matches_numpy_linear_interpolation():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 10, 101):
        xs = rng.standard_normal(n).tolist()
        for q in (0, 1, 25, 50, 75, 95, 99, 100):
            assert percentile(xs, q) == pytest.approx(
                float(np.percentile(xs, q)), rel=0, abs=1e-12
            )


def test_percentile_is_order_invariant_and_median():
    xs = [5.0, 1.0, 3.0]
    assert percentile(xs, 50) == 3.0
    assert percentile(sorted(xs), 50) == percentile(xs, 50)
    assert percentile([2.0], 99) == 2.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], -1)
    with pytest.raises(ValueError):
        percentile([1.0], 100.5)


def test_percentile_summary_shape():
    xs = list(range(1, 101))
    summ = percentile_summary(xs)
    assert set(summ) == {"p50", "p95", "p99", "mean", "min", "max", "n"}
    assert summ["n"] == 100
    assert summ["min"] == 1 and summ["max"] == 100
    assert summ["mean"] == pytest.approx(50.5)
    assert summ["p50"] == pytest.approx(float(np.percentile(xs, 50)))
    assert summ["p95"] == pytest.approx(float(np.percentile(xs, 95)))
    with pytest.raises(ValueError):
        percentile_summary([])


def test_percentile_summary_custom_quantiles():
    summ = percentile_summary([1.0, 2.0, 3.0], qs=(10, 99.9))
    assert "p10" in summ and "p99_9" in summ
