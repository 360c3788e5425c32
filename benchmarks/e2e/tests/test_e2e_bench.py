"""Contract tests of the end-to-end benchmark, at ``--smoke`` size.

Run with ``pytest benchmarks/e2e -q`` (well under a minute).
"""

from __future__ import annotations

import collections
import json
import math
import re
import subprocess
import sys

import pytest
from aa_check import verdict
from e2ebench.protocol import (
    BENCH_DIR,
    NOMINAL_SECONDS,
    REPO_ROOT,
    WORKLOADS,
    load_registry,
    midmean,
    quartile_spread,
    quiet_replay,
    tail_percentile,
    worsening,
)
from e2ebench.runner import run_workload
from e2ebench.tracing import Seams
from e2ebench.workloads import AdaptCrack, ServeMixed, apportion, zipf_weights

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: metrics that are counts of what the program did, not times: they must
#: repeat exactly for a seed
COUNT_METRICS = (
    "solvers.cg.iters_per_col",
    "serve.cache.builds",
    "serve.cache.hit_rate",
    "serve.service.batch_size_mean",
    "serve.service.gemm_batch_frac",
    "adapt.touched_per_step",
    "adapt.patch_frac",
    "core.scatter.halo_bytes",
    "core.sellcs.occupancy",
    "bench.fail_frac",
)




def _layers(*prefixes: str) -> set[str]:
    return {
        d["name"]
        for d in load_registry()["per_layer"]
        if d["name"].startswith(prefixes)
    }


_SOLVE = _layers("serve.cache.solve_multi_ms", "solvers.cg.")
_SERVE = _layers(
    "serve.queue.", "serve.batcher.", "serve.service.", "serve.cache.get_miss_ms",
    "serve.cache.hit_rate", "serve.cache.builds", "serve.cache.miss_wall_frac",
    "serve.cache.fingerprint_us", "serve.cache.apply_ms.", "serve.cache.solve_ms",
    "core.sellcs.", "baselines.assembled.",
)
_ADAPT = _layers(
    "serve.cache.update", "serve.cache.key_fingerprint", "adapt.",
    "serve.cache.read_after_write", "core.hymv.update_elements",
)
#: the per-layer rows a workload does *not* produce (the README's layer ->
#: workload map); they are padded with 0 in the result line, every other
#: row must come out of the run
NOT_EXERCISED = {
    "apply-hymv": _SOLVE | _SERVE | _ADAPT | {"serve.cache.get_hit_us"},
    "solve-batch": _SERVE | _ADAPT
    | {"serve.cache.get_hit_us", "serve.cache.apply_multi_ms"},
    "serve-mixed": _ADAPT,
    "adapt-crack": _SOLVE | _SERVE,
}


@pytest.fixture(scope="module")
def registry():
    return load_registry()


def test_registry_is_within_the_contract(registry):
    assert set(registry) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert registry["paths"] == [str(BENCH_DIR.relative_to(REPO_ROOT))]
    assert registry["command"][-1] == f"{registry['paths'][0]}/run.py"
    assert registry["run_seconds"] == NOMINAL_SECONDS
    assert [w["name"] for w in registry["workloads"]] == list(WORKLOADS)
    for w in registry["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    e2e, layers = registry["end_to_end"], registry["per_layer"]
    names = [d["name"] for d in e2e + layers + registry["workloads"]]
    assert len(names) == len(set(names))
    for d in e2e + layers:
        assert NAME.fullmatch(d["name"]), d
        assert UNIT.fullmatch(d["unit"]), d
        assert d["better"] in ("lower", "higher"), d
    for d in e2e:
        assert set(d) == {"name", "unit", "better", "bound"}
        assert 0 < d["bound"] <= 0.25, d
    for d in layers:
        assert set(d) == {"name", "unit", "better"}
    setup = next(d for d in e2e if d["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(d["bound"] for d in e2e)
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_command_prints_every_declared_metric_once(registry, workload, trace):
    """The registered command, as the driver calls it: the last line holds
    exactly the declared names, each once, with its unit."""
    proc = subprocess.run(
        [
            sys.executable, *registry["command"][1:], "--workload", workload,
            "--seed", "3", "--seconds", str(registry["run_seconds"]),
            "--trace", str(trace), "--smoke",
        ],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0
    pairs = json.loads(
        proc.stdout.splitlines()[-1], object_pairs_hook=lambda kv: kv
    )
    assert [k for k, _ in pairs] == ["correct", "attempted", "failed", "metrics"]
    result = dict(pairs)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = registry["per_layer" if trace else "end_to_end"]
    emitted = collections.Counter(name for name, _ in result["metrics"])
    assert emitted == collections.Counter(d["name"] for d in declared)
    units = {d["name"]: d["unit"] for d in declared}
    for name, metric in result["metrics"]:
        metric = dict(metric)
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(dict(m)["value"] != 0 for _, m in result["metrics"])


def _stream(wl: ServeMixed):
    return [
        (r.rid, r.key.fingerprint(), r.kind, r.seed)
        for block in [wl.warmup_requests, *wl.blocks]
        for r in block
    ]


def test_request_stream_is_a_function_of_the_seed():
    a, b, c = (ServeMixed(seed, 1.0, True, Seams()) for seed in (7, 7, 8))
    assert _stream(a) == _stream(b)
    assert a.stream_digest() == b.stream_digest()
    assert a.samples.keys() == b.samples.keys()
    assert _stream(a) != _stream(c)
    assert a.stream_digest() != c.stream_digest()


def test_block_composition_does_not_depend_on_seed_or_block():
    """Only the order is seeded: every block of every seed holds the same
    requests per (key, kind), so the metrics do not depend on the seed."""
    compositions = {
        tuple(sorted(collections.Counter(
            (r.key.fingerprint(), r.kind) for r in block
        ).items()))
        for seed in (1, 2)
        for block in ServeMixed(seed, 1.0, True, Seams()).blocks
    }
    assert len(compositions) == 1
    wl = ServeMixed(1, 1.0, True, Seams())
    kinds = collections.Counter(r.kind for r in wl.blocks[0])
    assert kinds["solve"] == round(wl.solve_share * wl.block_size)
    assert len(wl.blocks[0]) == wl.block_size
    cold = {k.fingerprint() for k in wl.catalog[wl.n_hot:]}
    per_block = [
        [r.key.fingerprint() for r in block if r.key.fingerprint() in cold]
        for block in wl.blocks
    ]
    flat = [fp for block in per_block for fp in block]
    # cold keys go A B B A A B B A ...: half of them repeat their predecessor
    repeats = [x == y for x, y in zip(flat, flat[1:])]
    assert repeats == [i % 2 == 1 for i in range(len(repeats))]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_ops_and_counts_exactly(workload):
    first, second, other = (
        run_workload(workload, seed, NOMINAL_SECONDS, trace=True, smoke=True)
        for seed in (5, 5, 6)
    )
    assert first["stream_digest"] == second["stream_digest"]
    assert first["stream_digest"] != other["stream_digest"]
    assert first["attempted"] == second["attempted"] == other["attempted"]
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["failed"] == second["failed"] == 0
    assert set(first["not_exercised"]) == NOT_EXERCISED[workload]


def test_serve_conservation_holds():
    wl = ServeMixed(11, 1.0, True, Seams())
    wl.cold_setup()
    wl.warm_up()
    completed = 0
    for b in range(2):
        steps, ops, failed = wl.run_block(b)
        assert failed == 0 and len(ops) == wl.block_size
        completed += len(ops)
        # an op waits for a run of whole steps, and those steps account
        # for its latency as measured (up to the submit loop it sits in)
        assert all(0 <= first < end <= len(steps) for first, end, _ in ops)
        assert sum(k for (_, _, k, _), _ in steps) == wl.block_size
        seconds = [dt for _, dt in steps]
        waited = sum(sum(seconds[first:end]) for first, end, _ in ops)
        assert waited == pytest.approx(sum(dt for _, _, dt in ops), rel=0.05)
    obs = wl.svc.obs
    submitted = obs.counter("serve.submitted")
    assert submitted == len(wl.warmup_requests) + completed
    assert submitted == obs.counter("serve.completed") + obs.counter("serve.failed")
    assert obs.counter("serve.rejected") == 0
    assert wl.svc.pending == 0
    assert wl.verify() == 0


def test_adapt_episodes_have_identical_composition():
    wl = AdaptCrack(1, 1.0, True, Seams())
    wl.cold_setup()
    episodes = []
    for b in range(2):
        wl.before_block(b)
        assert wl.key == wl.key0  # every episode starts from the base key
        steps, ops, failed = wl.run_block(b)
        assert failed == 0 and len(ops) == wl.ops_per_block
        assert len(steps) == 4 * len(ops)  # update, get, two reads
        history = [d.fingerprint() for d in wl.key.deltas]
        touched = [i["touched"] for i in wl.infos[-wl.ops_per_block:]]
        episodes.append((history, touched))
    assert episodes[0] == episodes[1]
    assert len(episodes[0][0]) == wl.ops_per_block == 2 * wl.n_steps
    assert len(set(episodes[0][0])) == wl.ops_per_block  # all deltas distinct
    assert wl.verify() == 0  # patched operator == fresh build, bitwise


def test_estimators():
    assert apportion(12, zipf_weights(5)) == [6, 2, 2, 1, 1]
    assert sum(apportion(226, zipf_weights(5))) == 226
    assert tail_percentile(1500) == pytest.approx(99.3333, abs=1e-3)
    assert tail_percentile(18) == 50.0
    assert quartile_spread([10, 10, 10, 10]) == 0
    assert midmean([1, 2, 3]) == 2 and midmean([5]) == 5
    # two peaks with the 50 % point in the gap: the middle half, not a jump
    assert midmean([10] * 49 + [60] * 51) == pytest.approx(36.0)
    assert worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)


def test_quiet_replay_takes_the_fastest_sample_of_every_class():
    class Block:
        def __init__(self, steps, ops):
            self.steps, self.ops = steps, ops

    # class "a" ran in 2, 1 and 3 s, class "b" in 5 and 4 s
    first = Block([("a", 2.0), ("b", 5.0), ("a", 1.0)], [(0, 2, 7.0), (1, 3, 6.0)])
    second = Block([("a", 3.0), ("b", 4.0)], [(0, 2, 7.0)])
    latencies, busy = quiet_replay([first, second])
    assert latencies == [5.0, 5.0, 5.0]  # a + b, b + a, a + b at 1 s and 4 s
    assert busy == 11.0  # (1 + 4 + 1) + (1 + 4)
    # a slower sample anywhere changes nothing, a faster one everything
    second.steps[0] = ("a", 30.0)
    assert quiet_replay([first, second]) == (latencies, busy)
    second.steps[1] = ("b", 2.0)
    assert quiet_replay([first, second]) == ([3.0, 3.0, 3.0], 7.0)


def test_aa_verdict_is_two_sided_and_flags_noise():
    steady, worse = [100.0, 101.0, 99.0, 100.0], [130.0, 131.0, 129.0, 130.0]
    assert verdict(steady, steady, "lower", 0.10)[-1] == "ok"
    assert verdict(steady, worse, "lower", 0.10)[-1] == "BREACH"
    # same code on both sides: A worse than B is a disagreement too
    assert verdict(worse, steady, "lower", 0.10)[-1] == "BREACH"
    assert verdict(steady, worse, "higher", 0.10)[-1] == "BREACH"
    noisy = [80.0, 100.0, 100.0, 125.0]
    assert verdict(noisy, steady, "lower", 0.10)[-1] == "noisy"
