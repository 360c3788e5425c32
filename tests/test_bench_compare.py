"""Report schemas (the table, the validator, the reader) and the
perf-gate compare tool."""

from __future__ import annotations

import copy
import json
import pathlib
import re

import pytest

from repro.obs.bench import SmokeCase, run_smoke_suite
from repro.obs.compare import compare_docs, main as compare_main
from repro.obs.schema import (
    ADAPT_SCHEMA,
    BENCH_SCHEMA,
    CHAOS_SCHEMA,
    SERVE_SCHEMA,
    SHARD_SCHEMA,
    SchemaError,
    new_report,
    read_json,
    result_key,
    validate_report,
)

BASELINES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "baseline")
    .glob("BENCH_*.json")
)


def _tiny_case():
    from repro.problems import poisson_problem

    return SmokeCase(
        name="poisson-tiny",
        make_spec=lambda: poisson_problem(4, n_parts=2),
        methods=("hymv",),
        n_spmv=2,
    )


@pytest.fixture(scope="module")
def tiny_doc():
    return run_smoke_suite(
        repeats=2, modeled=True, cases=(_tiny_case(),), verbose=False
    )


# ----------------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------------

def test_new_doc_validates_and_round_trips():
    doc = new_report(
        BENCH_SCHEMA, {"modeled": True}, suite="smoke", repeats=3, results=[]
    )
    assert doc["schema"] == BENCH_SCHEMA
    round_tripped = json.loads(json.dumps(doc))
    assert validate_report(round_tripped, BENCH_SCHEMA) == round_tripped


# one malformed document per validation rule: the smallest valid document
# of each kind, with one value replaced (or deleted, ``_DEL``) at a path

_DEL = object()
_CACHE = {"hits": 1, "misses": 1, "evictions": 0, "hit_rate": 0.5}
_LATENCY = {
    "p50": 1.0, "p95": 1.0, "p99": 1.0, "mean": 1.0, "min": 1.0, "max": 1.0,
    "n": 1,
}
_ENVELOPE = {"created_unix": 0.0, "machine": {}, "config": {}}
MINIMAL = {
    BENCH_SCHEMA: {
        **_ENVELOPE, "suite": "smoke", "repeats": 1,
        "results": [{
            "case": "c", "method": "m", "n_parts": 1, "n_dofs": 1,
            "phases": {
                "p": {"median": 1.0, "min": 1.0, "max": 1.0, "repeats": 1},
            },
            "counters": {},
        }],
    },
    CHAOS_SCHEMA: {
        **_ENVELOPE,
        "scenarios": [{
            "scenario": "s", "ok": True, "failures": [], "plan": {},
            "counters": {}, "iterations": 1, "restarts": 0, "rel_err": 0.0,
        }],
    },
    SERVE_SCHEMA: {
        **_ENVELOPE,
        "scenarios": [{
            "scenario": "s", "workload": {},
            "requests": {
                "submitted": 1, "completed": 1, "rejected": 0,
                "shed_deadline": 0, "cancelled": 0, "failed": 0,
                "wrong_answers": 0,
            },
            "latency_s": {"all": _LATENCY}, "throughput_rps": 1.0,
            "makespan_s": 1.0, "batch_histogram": {}, "cache": _CACHE,
            "counters": {}, "modes": {},
        }],
    },
    SHARD_SCHEMA: {
        **_ENVELOPE,
        "scenarios": [{
            "scenario": "s", "workload": {}, "n_shards": 1,
            "requests": {
                "submitted": 1, "completed": 1, "rejected": 0,
                "shed_tenant": 0, "shed_deadline": 0, "spilled": 0,
                "failed": 0, "failovers": 0, "wrong_answers": 0,
            },
            "latency_s": {"all": _LATENCY}, "throughput_rps": 1.0,
            "makespan_s": 1.0,
            "shards": {"s0": {
                "utilization": 1.0, "busy_s": 1.0, "dispatches": 1,
                "alive": True, "cache": _CACHE,
            }},
            "utilization": {"mean": 1.0, "min": 1.0, "max": 1.0,
                            "peak_to_mean": 1.0},
            "replication": {"keys_seen": 1, "replicated_keys": 0,
                            "replication_factor": 1.0},
            "tenants": {}, "batch_histogram": {}, "modes": {}, "counters": {},
        }],
    },
    ADAPT_SCHEMA: {
        **_ENVELOPE,
        "scenarios": [{
            "scenario": "s", "method": "hymv", "n_parts": 1, "n_dofs": 1,
            "steps": 1,
            "deltas": {"applied": 1, "patches": 1, "rebuilds": 0,
                       "touched_total": 1, "max_fraction": 0.1},
            "verify": {"checks": 1, "bitwise": 1, "wrong_answers": 0},
            "costs": {"delta_s": 1.0, "rebuild_s": 2.0,
                      "assembled_patch_s": 1.5, "reassembly_s": 3.0,
                      "speedup_vs_rebuild": 2.0,
                      "speedup_vs_assembled_patch": 1.5,
                      "wall_s": {"delta": 1.0, "assembled_patch": 1.5,
                                 "reassembly": 3.0}},
            "cache": _CACHE, "steps_detail": [], "counters": {},
        }],
    },
}
for _schema, _doc in MINIMAL.items():
    _doc["schema"] = _schema

#: ``(id, schema, path, value, message)``: replacing the value at ``path``
#: (``()`` is the whole document) must raise ``SchemaError(message)``
REJECTION_CORPUS = [
    *(
        (f"{s.removeprefix('repro.').split('/')[0]}-{name}", s, path, value, msg)
        for s in MINIMAL
        for name, path, value, msg in (
            ("not-an-object", (), [], "report must be an object, got list"),
            ("unknown-schema", ("schema",), "repro.bench/999",
             "unsupported schema 'repro.bench/999'"),
            ("no-machine", ("machine",), _DEL, "missing key 'machine'"),
        )
    ),
    # bench
    ("bench-no-suite", BENCH_SCHEMA, ("suite",), _DEL,
     "report missing key 'suite'"),
    ("bench-results-not-list", BENCH_SCHEMA, ("results",), {},
     "results must be a list"),
    ("bench-result-not-object", BENCH_SCHEMA, ("results", 0), "x",
     "results[0] must be an object"),
    ("bench-result-no-method", BENCH_SCHEMA, ("results", 0, "method"), _DEL,
     "results[0] missing key 'method'"),
    ("bench-phases-not-object", BENCH_SCHEMA, ("results", 0, "phases"), [],
     "results[0].phases must be an object"),
    ("bench-phase-not-object", BENCH_SCHEMA, ("results", 0, "phases", "p"),
     1.0, "results[0].phases['p'] must be an object"),
    ("bench-phase-no-min", BENCH_SCHEMA,
     ("results", 0, "phases", "p", "min"), _DEL,
     "results[0].phases['p'] missing key 'min'"),
    ("bench-counters-not-object", BENCH_SCHEMA, ("results", 0, "counters"),
     [], "results[0].counters must be an object"),
    # chaos
    ("chaos-no-config", CHAOS_SCHEMA, ("config",), _DEL,
     "report missing key 'config'"),
    ("chaos-scenarios-not-list", CHAOS_SCHEMA, ("scenarios",), {},
     "scenarios must be a list"),
    ("chaos-scenario-not-object", CHAOS_SCHEMA, ("scenarios", 0), 3,
     "scenarios[0] must be an object"),
    ("chaos-scenario-no-rel-err", CHAOS_SCHEMA, ("scenarios", 0, "rel_err"),
     _DEL, "scenarios[0] missing key 'rel_err'"),
    ("chaos-failures-not-list", CHAOS_SCHEMA, ("scenarios", 0, "failures"),
     "boom", "scenarios[0].failures must be a list"),
    ("chaos-counters-not-object", CHAOS_SCHEMA,
     ("scenarios", 0, "counters"), [],
     "scenarios[0].counters must be an object"),
    # serve
    ("serve-scenarios-not-list", SERVE_SCHEMA, ("scenarios",), None,
     "scenarios must be a list"),
    ("serve-scenario-not-object", SERVE_SCHEMA, ("scenarios", 0), [],
     "scenarios[0] must be an object"),
    ("serve-no-modes", SERVE_SCHEMA, ("scenarios", 0, "modes"), _DEL,
     "scenarios[0] missing key 'modes'"),
    ("serve-modes-not-object", SERVE_SCHEMA, ("scenarios", 0, "modes"), [],
     "scenarios[0].modes must be an object"),
    ("serve-requests-int", SERVE_SCHEMA, ("scenarios", 0, "requests"), 5,
     "scenarios[0].requests must be an object"),
    ("serve-requests-no-failed", SERVE_SCHEMA,
     ("scenarios", 0, "requests", "failed"), _DEL,
     "scenarios[0].requests missing key 'failed'"),
    ("serve-latency-not-object", SERVE_SCHEMA,
     ("scenarios", 0, "latency_s"), [],
     "scenarios[0].latency_s must be an object"),
    ("serve-latency-no-all", SERVE_SCHEMA,
     ("scenarios", 0, "latency_s", "all"), _DEL,
     "scenarios[0].latency_s missing the 'all' summary"),
    ("serve-latency-no-p99", SERVE_SCHEMA,
     ("scenarios", 0, "latency_s", "all", "p99"), _DEL,
     "scenarios[0].latency_s['all'] missing key 'p99'"),
    ("serve-histogram-not-object", SERVE_SCHEMA,
     ("scenarios", 0, "batch_histogram"), [],
     "scenarios[0].batch_histogram must be an object"),
    ("serve-cache-no-hit-rate", SERVE_SCHEMA,
     ("scenarios", 0, "cache", "hit_rate"), _DEL,
     "scenarios[0].cache missing key 'hit_rate'"),
    ("serve-counters-not-object", SERVE_SCHEMA,
     ("scenarios", 0, "counters"), 0,
     "scenarios[0].counters must be an object"),
    ("serve-v1", SERVE_SCHEMA, ("schema",), "repro.serve/1",
     "unsupported schema 'repro.serve/1'"),
    # shard
    ("shard-no-scenarios", SHARD_SCHEMA, ("scenarios",), _DEL,
     "report missing key 'scenarios'"),
    ("shard-scenarios-not-list", SHARD_SCHEMA, ("scenarios",), {},
     "scenarios must be a list"),
    ("shard-scenario-not-object", SHARD_SCHEMA, ("scenarios", 0), None,
     "scenarios[0] must be an object"),
    ("shard-scenario-no-tenants", SHARD_SCHEMA, ("scenarios", 0, "tenants"),
     _DEL, "scenarios[0] missing key 'tenants'"),
    ("shard-requests-no-failovers", SHARD_SCHEMA,
     ("scenarios", 0, "requests", "failovers"), _DEL,
     "scenarios[0].requests missing key 'failovers'"),
    ("shard-latency-not-object", SHARD_SCHEMA,
     ("scenarios", 0, "latency_s"), "fast",
     "scenarios[0].latency_s must be an object"),
    ("shard-latency-no-all", SHARD_SCHEMA,
     ("scenarios", 0, "latency_s", "all"), _DEL,
     "scenarios[0].latency_s missing the 'all' summary"),
    ("shard-latency-no-n", SHARD_SCHEMA,
     ("scenarios", 0, "latency_s", "all", "n"), _DEL,
     "scenarios[0].latency_s['all'] missing key 'n'"),
    ("shard-shards-empty", SHARD_SCHEMA, ("scenarios", 0, "shards"), {},
     "scenarios[0].shards must be a non-empty object"),
    ("shard-shards-not-object", SHARD_SCHEMA, ("scenarios", 0, "shards"),
     ["s0"], "scenarios[0].shards must be a non-empty object"),
    ("shard-shard-no-busy", SHARD_SCHEMA,
     ("scenarios", 0, "shards", "s0", "busy_s"), _DEL,
     "scenarios[0].shards['s0'] missing key 'busy_s'"),
    ("shard-shard-cache-no-misses", SHARD_SCHEMA,
     ("scenarios", 0, "shards", "s0", "cache", "misses"), _DEL,
     "scenarios[0].shards['s0'].cache missing key 'misses'"),
    ("shard-utilization-no-peak", SHARD_SCHEMA,
     ("scenarios", 0, "utilization", "peak_to_mean"), _DEL,
     "scenarios[0].utilization missing key 'peak_to_mean'"),
    ("shard-replication-no-factor", SHARD_SCHEMA,
     ("scenarios", 0, "replication", "replication_factor"), _DEL,
     "scenarios[0].replication missing key 'replication_factor'"),
    ("shard-tenants-not-object", SHARD_SCHEMA,
     ("scenarios", 0, "tenants"), [],
     "scenarios[0].tenants must be an object"),
    ("shard-counters-not-object", SHARD_SCHEMA,
     ("scenarios", 0, "counters"), [],
     "scenarios[0].counters must be an object"),
    # adapt
    ("adapt-no-config", ADAPT_SCHEMA, ("config",), _DEL,
     "report missing key 'config'"),
    ("adapt-scenarios-not-list", ADAPT_SCHEMA, ("scenarios",), "x",
     "scenarios must be a list"),
    ("adapt-scenario-not-object", ADAPT_SCHEMA, ("scenarios", 0), 1,
     "scenarios[0] must be an object"),
    ("adapt-scenario-no-steps-detail", ADAPT_SCHEMA,
     ("scenarios", 0, "steps_detail"), _DEL,
     "scenarios[0] missing key 'steps_detail'"),
    ("adapt-deltas-none", ADAPT_SCHEMA, ("scenarios", 0, "deltas"), None,
     "scenarios[0].deltas must be an object"),
    ("adapt-deltas-no-patches", ADAPT_SCHEMA,
     ("scenarios", 0, "deltas", "patches"), _DEL,
     "scenarios[0].deltas missing key 'patches'"),
    ("adapt-verify-no-bitwise", ADAPT_SCHEMA,
     ("scenarios", 0, "verify", "bitwise"), _DEL,
     "scenarios[0].verify missing key 'bitwise'"),
    ("adapt-costs-no-speedup", ADAPT_SCHEMA,
     ("scenarios", 0, "costs", "speedup_vs_rebuild"), _DEL,
     "scenarios[0].costs missing key 'speedup_vs_rebuild'"),
    ("adapt-cache-no-hits", ADAPT_SCHEMA,
     ("scenarios", 0, "cache", "hits"), _DEL,
     "scenarios[0].cache missing key 'hits'"),
    ("adapt-steps-detail-not-list", ADAPT_SCHEMA,
     ("scenarios", 0, "steps_detail"), {},
     "scenarios[0].steps_detail must be a list"),
    ("adapt-counters-not-object", ADAPT_SCHEMA,
     ("scenarios", 0, "counters"), [],
     "scenarios[0].counters must be an object"),
]


def malformed(schema, path, value):
    """A copy of ``MINIMAL[schema]`` with the value at ``path`` replaced
    (or deleted when ``value`` is ``_DEL``)."""
    if not path:
        return value
    doc = json.loads(json.dumps(MINIMAL[schema]))  # unshare nested dicts
    *parents, last = path
    node = doc
    for step in parents:
        node = node[step]
    if value is _DEL:
        del node[last]
    else:
        node[last] = value
    return doc


def assert_rejected(case_id):
    """Run one corpus case: the unmutated document validates, the
    mutated one raises ``SchemaError`` with the case's message."""
    _, schema, path, value, message = next(
        c for c in REJECTION_CORPUS if c[0] == case_id
    )
    base = copy.deepcopy(MINIMAL[schema])
    assert validate_report(base, schema) == MINIMAL[schema]
    with pytest.raises(SchemaError, match=re.escape(message)):
        validate_report(malformed(schema, path, value), schema)


@pytest.mark.parametrize("case_id", [c[0] for c in REJECTION_CORPUS])
def test_rejection_corpus(case_id):
    assert_rejected(case_id)


def test_validate_rejects_malformed_docs():
    for case_id, schema, *_ in REJECTION_CORPUS:
        if schema == BENCH_SCHEMA:
            assert_rejected(case_id)


@pytest.mark.parametrize("schema", [SERVE_SCHEMA, SHARD_SCHEMA])
def test_idle_scenario_needs_no_all_latency(schema):
    idle = malformed(schema, ("scenarios", 0, "latency_s"), {})
    idle["scenarios"][0]["requests"]["completed"] = 0
    assert validate_report(idle, schema) is idle


def test_wrong_report_kind_names_both_ids():
    with pytest.raises(SchemaError) as exc:
        validate_report(copy.deepcopy(MINIMAL[SERVE_SCHEMA]), BENCH_SCHEMA)
    assert SERVE_SCHEMA in str(exc.value) and BENCH_SCHEMA in str(exc.value)


@pytest.mark.parametrize("path", BASELINES, ids=lambda p: p.name)
def test_checked_in_baselines_validate(path):
    doc = read_json(path)
    assert validate_report(doc, BENCH_SCHEMA) is doc


def test_read_json_rejects_missing_and_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for path in (bad, tmp_path / "absent.json", tmp_path):
        with pytest.raises(SchemaError, match=re.escape(str(path))):
            read_json(path)


def test_smoke_suite_produces_valid_deterministic_doc(tiny_doc):
    assert validate_report(tiny_doc, BENCH_SCHEMA) is tiny_doc
    (res,) = tiny_doc["results"]
    assert result_key(res) == "poisson-tiny/hymv"
    # modeled mode: every repeat produces identical virtual times
    for stats in res["phases"].values():
        assert stats["min"] == stats["max"] == stats["median"]
        assert stats["repeats"] == 2
    assert res["phases"]["spmv.total"]["median"] > 0
    assert res["counters"]["spmv.elements"] > 0
    # the whole document survives a JSON round trip
    assert validate_report(json.loads(json.dumps(tiny_doc)), BENCH_SCHEMA)


# ----------------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------------

def test_compare_doc_with_itself_passes(tiny_doc):
    ok, findings = compare_docs(tiny_doc, tiny_doc)
    assert ok
    assert not findings


def test_compare_flags_synthetic_regression(tiny_doc):
    worse = copy.deepcopy(tiny_doc)
    worse["results"][0]["phases"]["spmv.total"]["median"] *= 2.0
    ok, findings = compare_docs(tiny_doc, worse, budget=0.25)
    assert not ok
    fails = [f for f in findings if f.severity == "fail"]
    assert any("spmv.total" in f.where for f in fails)
    # the same diff inside a generous budget passes
    ok, _ = compare_docs(tiny_doc, worse, budget=1.5)
    assert ok


def test_compare_flags_counter_increase(tiny_doc):
    worse = copy.deepcopy(tiny_doc)
    worse["results"][0]["counters"]["spmv.elements"] *= 1.10
    ok, findings = compare_docs(tiny_doc, worse, counter_budget=0.05)
    assert not ok
    assert any(
        f.severity == "fail" and "spmv.elements" in f.where for f in findings
    )


def test_compare_flags_missing_result(tiny_doc):
    empty = copy.deepcopy(tiny_doc)
    empty["results"] = []
    ok, findings = compare_docs(tiny_doc, empty)
    assert not ok
    assert findings[0].severity == "fail"
    # extra candidate results are fine; missing baseline rows are not checked
    ok, _ = compare_docs(empty, tiny_doc)
    assert ok


def test_compare_fails_on_missing_gated_phase(tiny_doc):
    """A gated phase that vanishes from the candidate must FAIL loudly
    (historically it was a warn, so deleting the instrumented hot path —
    e.g. renaming ``spmv.sell.diag`` — read as a pass)."""
    gutted = copy.deepcopy(tiny_doc)
    # simulate the sellcs hazard: the gated phase row loses its phase
    gutted["results"][0]["phases"] = {
        "spmv.sell.diag": {"median": 1.0, "min": 1.0, "max": 1.0,
                           "repeats": 2},
    }
    ok, findings = compare_docs(tiny_doc, gutted)
    assert not ok
    fails = [f for f in findings if f.severity == "fail"]
    assert any(
        "spmv.total" in f.where and "gated phase missing" in f.message
        for f in fails
    )
    # the message says what to do about it, not just that it happened
    assert any("regenerate the baseline" in f.message for f in fails)


def test_compare_fails_on_missing_gated_counter(tiny_doc):
    gutted = copy.deepcopy(tiny_doc)
    del gutted["results"][0]["counters"]["spmv.elements"]
    ok, findings = compare_docs(tiny_doc, gutted)
    assert not ok
    assert any(
        f.severity == "fail"
        and "spmv.elements" in f.where
        and "gated counter missing" in f.message
        for f in findings
    )


def test_compare_tolerates_subfloor_phase_disappearing(tiny_doc):
    """Phases at or under the absolute floor were never gated, so their
    disappearance stays a warning, not a failure."""
    from repro.obs.compare import ABS_FLOOR_S

    base = copy.deepcopy(tiny_doc)
    base["results"][0]["phases"]["spmv.negligible"] = {
        "median": ABS_FLOOR_S / 2, "min": 0.0, "max": ABS_FLOOR_S,
        "repeats": 2,
    }
    ok, findings = compare_docs(base, tiny_doc)
    assert ok
    assert any(
        f.severity == "warn" and "spmv.negligible" in f.where
        for f in findings
    )


def test_compare_cli_exit_codes(tiny_doc, tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(tiny_doc))
    worse_doc = copy.deepcopy(tiny_doc)
    worse_doc["results"][0]["phases"]["spmv.total"]["median"] *= 3.0
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(worse_doc))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")

    assert compare_main([str(base), str(base)]) == 0
    assert compare_main([str(base), str(worse)]) == 1
    assert compare_main([str(base), str(bad)]) == 2
    assert compare_main([str(base), str(tmp_path / "absent.json")]) == 2


def test_markdown_summary_written_to_step_summary(tiny_doc, tmp_path,
                                                  monkeypatch):
    """Under GitHub Actions the compare CLI appends a markdown digest to
    $GITHUB_STEP_SUMMARY; the table carries every gated phase and the
    verdict heading reflects pass/fail."""
    from repro.obs.compare import markdown_summary

    base = tmp_path / "base.json"
    base.write_text(json.dumps(tiny_doc))
    summary = tmp_path / "step_summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    assert compare_main([str(base), str(base)]) == 0
    text = summary.read_text()
    assert "**PASS**" in text
    assert "| result | phase |" in text
    for res in tiny_doc["results"]:
        assert result_key(res) in text

    worse_doc = copy.deepcopy(tiny_doc)
    worse_doc["results"][0]["phases"]["spmv.total"]["median"] *= 3.0
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(worse_doc))
    summary.write_text("")  # fresh file for the failing run
    assert compare_main([str(base), str(worse)]) == 1
    text = summary.read_text()
    assert "**FAIL**" in text
    assert "#### Findings" in text

    # without the env var the writer is a no-op and the CLI still works
    monkeypatch.delenv("GITHUB_STEP_SUMMARY")
    assert compare_main([str(base), str(base)]) == 0

    # the pure function renders a table even for an empty finding list
    md = markdown_summary(tiny_doc, tiny_doc, [], True, 0.25)
    assert md.startswith("### Perf gate")
