"""Bench-document schema: versioning, machine fingerprint, validation.

``BENCH_smoke.json`` is the machine-readable artifact the CI perf gate
exchanges between runs, so its shape is versioned and validated on both
the write path (:mod:`repro.obs.bench`) and the read path
(:mod:`repro.obs.compare`).  The schema is deliberately flat: a list of
``(case, method)`` results, each with per-phase statistics over repeats
and summed counters.
"""

from __future__ import annotations

import os
import platform
import socket
import time
from typing import Any

__all__ = [
    "ADAPT_SCHEMA",
    "BENCH_SCHEMA",
    "CHAOS_SCHEMA",
    "SERVE_SCHEMA",
    "SHARD_SCHEMA",
    "TUNE_CONFIG_SCHEMA",
    "TUNE_SCHEMA",
    "SchemaError",
    "machine_fingerprint",
    "new_adapt_doc",
    "new_bench_doc",
    "new_chaos_doc",
    "new_serve_doc",
    "new_shard_doc",
    "new_tune_doc",
    "validate_adapt_doc",
    "validate_bench_doc",
    "validate_chaos_doc",
    "validate_serve_doc",
    "validate_shard_doc",
    "validate_tune_doc",
]

#: Schema identifier; bump the trailing integer on breaking changes.
BENCH_SCHEMA = "repro.bench/1"

#: Chaos-report schema (``CHAOS_report.json`` written by
#: ``python -m repro.harness chaos``).
CHAOS_SCHEMA = "repro.chaos/1"

#: Serve-report schema (``SERVE_report.json`` written by
#: ``python -m repro.harness serve``).  v2 adds the per-scenario
#: ``modes`` histogram (execution mode each dispatched batch ran under:
#: oracle / gemm / degraded).
SERVE_SCHEMA = "repro.serve/2"

#: Shard-report schema (``SHARD_report.json`` written by
#: ``python -m repro.harness shard``): the sharded-tier counterpart of
#: the serve report, adding per-shard utilization, replication state,
#: per-tenant stats and failover counts.
SHARD_SCHEMA = "repro.shard/1"

#: Tune-report schema (``TUNE_report.json`` written by
#: ``python -m repro.harness tune``): the autotuner's full record —
#: declarative search space, seeded search trajectory, Pareto set over
#: (throughput, p99, memory), calibrated machine constants, and the
#: winning config for the machine profile.  Bit-reproducible given the
#: seed and the calibration inputs (modulo ``created_unix``/``machine``).
TUNE_SCHEMA = "repro.tune/1"

#: Tuned-config artifact schema (``tuned_config.json``): the small
#: loadable distillation of a tune run — the winner's flat knob→value
#: config — which :func:`repro.serve.plan.load_tuned_config` turns into
#: an execution plan.
TUNE_CONFIG_SCHEMA = "repro.tune-config/1"

#: Adapt-report schema (``ADAPT_report.json`` written by
#: ``python -m repro.harness adapt``): incremental-update scenarios —
#: per-scenario delta accounting (patches vs rebuilds), differential
#: verification tallies (delta-updated vs freshly built, bitwise) and the
#: modeled cost comparison delta / full rebuild / CSR reassembly.
ADAPT_SCHEMA = "repro.adapt/1"

_PHASE_STAT_KEYS = ("median", "min", "max", "repeats")
_RESULT_REQUIRED = ("case", "method", "n_parts", "n_dofs", "phases", "counters")


class SchemaError(ValueError):
    """A bench document does not conform to :data:`BENCH_SCHEMA`."""


def machine_fingerprint() -> dict[str, Any]:
    """Identify the machine a bench document was produced on."""
    import numpy
    import scipy

    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def new_bench_doc(
    suite: str,
    repeats: int,
    config: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """An empty, schema-conforming bench document."""
    return {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "repeats": int(repeats),
        "created_unix": time.time(),
        "machine": machine_fingerprint(),
        "config": dict(config or {}),
        "results": [],
    }


def validate_bench_doc(doc: Any) -> dict[str, Any]:
    """Validate a parsed bench document; returns it on success.

    Raises :class:`SchemaError` with a pin-pointed message otherwise.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"bench doc must be an object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != BENCH_SCHEMA:
        raise SchemaError(
            f"unsupported schema {schema!r} (expected {BENCH_SCHEMA!r})"
        )
    for key in ("suite", "repeats", "machine", "results"):
        if key not in doc:
            raise SchemaError(f"bench doc missing key {key!r}")
    if not isinstance(doc["results"], list):
        raise SchemaError("'results' must be a list")
    for i, res in enumerate(doc["results"]):
        where = f"results[{i}]"
        if not isinstance(res, dict):
            raise SchemaError(f"{where} must be an object")
        for key in _RESULT_REQUIRED:
            if key not in res:
                raise SchemaError(f"{where} missing key {key!r}")
        if not isinstance(res["phases"], dict):
            raise SchemaError(f"{where}.phases must be an object")
        for label, stats in res["phases"].items():
            if not isinstance(stats, dict):
                raise SchemaError(f"{where}.phases[{label!r}] must be an object")
            for key in _PHASE_STAT_KEYS:
                if key not in stats:
                    raise SchemaError(
                        f"{where}.phases[{label!r}] missing key {key!r}"
                    )
        if not isinstance(res["counters"], dict):
            raise SchemaError(f"{where}.counters must be an object")
    return doc


def result_key(res: dict[str, Any]) -> str:
    """Stable identity of one result row: ``case/method``."""
    return f"{res['case']}/{res['method']}"


# ----------------------------------------------------------------------------
# chaos report
# ----------------------------------------------------------------------------

_SCENARIO_REQUIRED = (
    "scenario", "ok", "failures", "plan", "counters", "iterations",
    "restarts", "rel_err",
)


def new_chaos_doc(config: dict[str, Any] | None = None) -> dict[str, Any]:
    """An empty, schema-conforming chaos report."""
    return {
        "schema": CHAOS_SCHEMA,
        "created_unix": time.time(),
        "machine": machine_fingerprint(),
        "config": dict(config or {}),
        "scenarios": [],
    }


def validate_chaos_doc(doc: Any) -> dict[str, Any]:
    """Validate a parsed chaos report; returns it on success."""
    if not isinstance(doc, dict):
        raise SchemaError(f"chaos doc must be an object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != CHAOS_SCHEMA:
        raise SchemaError(
            f"unsupported schema {schema!r} (expected {CHAOS_SCHEMA!r})"
        )
    for key in ("machine", "config", "scenarios"):
        if key not in doc:
            raise SchemaError(f"chaos doc missing key {key!r}")
    if not isinstance(doc["scenarios"], list):
        raise SchemaError("'scenarios' must be a list")
    for i, sc in enumerate(doc["scenarios"]):
        where = f"scenarios[{i}]"
        if not isinstance(sc, dict):
            raise SchemaError(f"{where} must be an object")
        for key in _SCENARIO_REQUIRED:
            if key not in sc:
                raise SchemaError(f"{where} missing key {key!r}")
        if not isinstance(sc["counters"], dict):
            raise SchemaError(f"{where}.counters must be an object")
        if not isinstance(sc["failures"], list):
            raise SchemaError(f"{where}.failures must be a list")
    return doc


# ----------------------------------------------------------------------------
# serve report
# ----------------------------------------------------------------------------

_SERVE_SCENARIO_REQUIRED = (
    "scenario", "workload", "requests", "latency_s", "throughput_rps",
    "makespan_s", "batch_histogram", "cache", "counters", "modes",
)
_SERVE_REQUEST_KEYS = (
    "submitted", "completed", "rejected", "shed_deadline", "cancelled",
    "failed", "wrong_answers",
)
_SERVE_LATENCY_KEYS = ("p50", "p95", "p99", "mean", "min", "max", "n")


def new_serve_doc(config: dict[str, Any] | None = None) -> dict[str, Any]:
    """An empty, schema-conforming serve report."""
    return {
        "schema": SERVE_SCHEMA,
        "created_unix": time.time(),
        "machine": machine_fingerprint(),
        "config": dict(config or {}),
        "scenarios": [],
    }


def validate_serve_doc(doc: Any) -> dict[str, Any]:
    """Validate a parsed serve report; returns it on success."""
    if not isinstance(doc, dict):
        raise SchemaError(f"serve doc must be an object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != SERVE_SCHEMA:
        raise SchemaError(
            f"unsupported schema {schema!r} (expected {SERVE_SCHEMA!r})"
        )
    for key in ("machine", "config", "scenarios"):
        if key not in doc:
            raise SchemaError(f"serve doc missing key {key!r}")
    if not isinstance(doc["scenarios"], list):
        raise SchemaError("'scenarios' must be a list")
    for i, sc in enumerate(doc["scenarios"]):
        where = f"scenarios[{i}]"
        if not isinstance(sc, dict):
            raise SchemaError(f"{where} must be an object")
        for key in _SERVE_SCENARIO_REQUIRED:
            if key not in sc:
                raise SchemaError(f"{where} missing key {key!r}")
        if not isinstance(sc["modes"], dict):
            raise SchemaError(f"{where}.modes must be an object")
        for key in _SERVE_REQUEST_KEYS:
            if key not in sc["requests"]:
                raise SchemaError(f"{where}.requests missing key {key!r}")
        if not isinstance(sc["latency_s"], dict):
            raise SchemaError(f"{where}.latency_s must be an object")
        if sc["requests"]["completed"] and "all" not in sc["latency_s"]:
            raise SchemaError(f"{where}.latency_s missing the 'all' summary")
        for kind, summ in sc["latency_s"].items():
            for key in _SERVE_LATENCY_KEYS:
                if key not in summ:
                    raise SchemaError(
                        f"{where}.latency_s[{kind!r}] missing key {key!r}"
                    )
        if not isinstance(sc["batch_histogram"], dict):
            raise SchemaError(f"{where}.batch_histogram must be an object")
        for key in ("hits", "misses", "evictions", "hit_rate"):
            if key not in sc["cache"]:
                raise SchemaError(f"{where}.cache missing key {key!r}")
        if not isinstance(sc["counters"], dict):
            raise SchemaError(f"{where}.counters must be an object")
    return doc


# ----------------------------------------------------------------------------
# shard report
# ----------------------------------------------------------------------------

_SHARD_SCENARIO_REQUIRED = (
    "scenario", "workload", "n_shards", "requests", "latency_s",
    "throughput_rps", "makespan_s", "shards", "utilization", "replication",
    "tenants", "batch_histogram", "modes", "counters",
)
_SHARD_REQUEST_KEYS = (
    "submitted", "completed", "rejected", "shed_tenant", "shed_deadline",
    "spilled", "failed", "failovers", "wrong_answers",
)
_SHARD_UTIL_KEYS = ("mean", "min", "max", "peak_to_mean")
_SHARD_REPL_KEYS = ("keys_seen", "replicated_keys", "replication_factor")
_SHARD_PER_SHARD_KEYS = ("utilization", "busy_s", "dispatches", "alive", "cache")


def new_shard_doc(config: dict[str, Any] | None = None) -> dict[str, Any]:
    """An empty, schema-conforming shard report."""
    return {
        "schema": SHARD_SCHEMA,
        "created_unix": time.time(),
        "machine": machine_fingerprint(),
        "config": dict(config or {}),
        "scenarios": [],
    }


def validate_shard_doc(doc: Any) -> dict[str, Any]:
    """Validate a parsed shard report; returns it on success."""
    if not isinstance(doc, dict):
        raise SchemaError(f"shard doc must be an object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != SHARD_SCHEMA:
        raise SchemaError(
            f"unsupported schema {schema!r} (expected {SHARD_SCHEMA!r})"
        )
    for key in ("machine", "config", "scenarios"):
        if key not in doc:
            raise SchemaError(f"shard doc missing key {key!r}")
    if not isinstance(doc["scenarios"], list):
        raise SchemaError("'scenarios' must be a list")
    for i, sc in enumerate(doc["scenarios"]):
        where = f"scenarios[{i}]"
        if not isinstance(sc, dict):
            raise SchemaError(f"{where} must be an object")
        for key in _SHARD_SCENARIO_REQUIRED:
            if key not in sc:
                raise SchemaError(f"{where} missing key {key!r}")
        for key in _SHARD_REQUEST_KEYS:
            if key not in sc["requests"]:
                raise SchemaError(f"{where}.requests missing key {key!r}")
        if not isinstance(sc["latency_s"], dict):
            raise SchemaError(f"{where}.latency_s must be an object")
        if sc["requests"]["completed"] and "all" not in sc["latency_s"]:
            raise SchemaError(f"{where}.latency_s missing the 'all' summary")
        for kind, summ in sc["latency_s"].items():
            for key in _SERVE_LATENCY_KEYS:
                if key not in summ:
                    raise SchemaError(
                        f"{where}.latency_s[{kind!r}] missing key {key!r}"
                    )
        if not isinstance(sc["shards"], dict) or not sc["shards"]:
            raise SchemaError(f"{where}.shards must be a non-empty object")
        for sid, ssum in sc["shards"].items():
            for key in _SHARD_PER_SHARD_KEYS:
                if key not in ssum:
                    raise SchemaError(
                        f"{where}.shards[{sid!r}] missing key {key!r}"
                    )
            for key in ("hits", "misses", "evictions", "hit_rate"):
                if key not in ssum["cache"]:
                    raise SchemaError(
                        f"{where}.shards[{sid!r}].cache missing key {key!r}"
                    )
        for key in _SHARD_UTIL_KEYS:
            if key not in sc["utilization"]:
                raise SchemaError(f"{where}.utilization missing key {key!r}")
        for key in _SHARD_REPL_KEYS:
            if key not in sc["replication"]:
                raise SchemaError(f"{where}.replication missing key {key!r}")
        for label in ("tenants", "batch_histogram", "modes", "counters"):
            if not isinstance(sc[label], dict):
                raise SchemaError(f"{where}.{label} must be an object")
    return doc


# ----------------------------------------------------------------------------
# adapt report
# ----------------------------------------------------------------------------

_ADAPT_SCENARIO_REQUIRED = (
    "scenario", "method", "n_parts", "n_dofs", "steps", "deltas", "verify",
    "costs", "cache", "steps_detail", "counters",
)
_ADAPT_DELTA_KEYS = (
    "applied", "patches", "rebuilds", "touched_total", "max_fraction",
)
_ADAPT_VERIFY_KEYS = ("checks", "bitwise", "wrong_answers")
_ADAPT_COST_KEYS = (
    "delta_s", "rebuild_s", "reassembly_s", "speedup_vs_rebuild",
)


def new_adapt_doc(config: dict[str, Any] | None = None) -> dict[str, Any]:
    """An empty, schema-conforming adapt report."""
    return {
        "schema": ADAPT_SCHEMA,
        "created_unix": time.time(),
        "machine": machine_fingerprint(),
        "config": dict(config or {}),
        "scenarios": [],
    }


def validate_adapt_doc(doc: Any) -> dict[str, Any]:
    """Validate a parsed adapt report; returns it on success."""
    if not isinstance(doc, dict):
        raise SchemaError(f"adapt doc must be an object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != ADAPT_SCHEMA:
        raise SchemaError(
            f"unsupported schema {schema!r} (expected {ADAPT_SCHEMA!r})"
        )
    for key in ("machine", "config", "scenarios"):
        if key not in doc:
            raise SchemaError(f"adapt doc missing key {key!r}")
    if not isinstance(doc["scenarios"], list):
        raise SchemaError("'scenarios' must be a list")
    for i, sc in enumerate(doc["scenarios"]):
        where = f"scenarios[{i}]"
        if not isinstance(sc, dict):
            raise SchemaError(f"{where} must be an object")
        for key in _ADAPT_SCENARIO_REQUIRED:
            if key not in sc:
                raise SchemaError(f"{where} missing key {key!r}")
        for key in _ADAPT_DELTA_KEYS:
            if key not in sc["deltas"]:
                raise SchemaError(f"{where}.deltas missing key {key!r}")
        for key in _ADAPT_VERIFY_KEYS:
            if key not in sc["verify"]:
                raise SchemaError(f"{where}.verify missing key {key!r}")
        for key in _ADAPT_COST_KEYS:
            if key not in sc["costs"]:
                raise SchemaError(f"{where}.costs missing key {key!r}")
        for key in ("hits", "misses", "evictions", "hit_rate"):
            if key not in sc["cache"]:
                raise SchemaError(f"{where}.cache missing key {key!r}")
        if not isinstance(sc["steps_detail"], list):
            raise SchemaError(f"{where}.steps_detail must be a list")
        if not isinstance(sc["counters"], dict):
            raise SchemaError(f"{where}.counters must be an object")
    return doc


# ----------------------------------------------------------------------------
# tune report
# ----------------------------------------------------------------------------

_TUNE_REQUIRED = (
    "config", "space", "calibrated", "trajectory", "evaluations",
    "cache_hits", "pareto", "default", "winner", "machine_profile",
)
_TUNE_TRIAL_KEYS = (
    "step", "strategy", "fingerprint", "config", "objectives", "score",
    "cached",
)
_TUNE_OBJECTIVE_KEYS = ("throughput_rps", "p99_s", "mem_bytes")
_TUNE_WINNER_KEYS = ("fingerprint", "config", "objectives", "metrics", "score")


def new_tune_doc(config: dict[str, Any] | None = None) -> dict[str, Any]:
    """An empty, schema-conforming tune report."""
    return {
        "schema": TUNE_SCHEMA,
        "created_unix": time.time(),
        "machine": machine_fingerprint(),
        "config": dict(config or {}),
        "space": [],
        "calibrated": None,
        "trajectory": [],
        "evaluations": 0,
        "cache_hits": 0,
        "pareto": [],
        "default": None,
        "winner": None,
        "machine_profile": "",
    }


def validate_tune_doc(doc: Any) -> dict[str, Any]:
    """Validate a parsed tune report; returns it on success."""
    if not isinstance(doc, dict):
        raise SchemaError(f"tune doc must be an object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema != TUNE_SCHEMA:
        raise SchemaError(
            f"unsupported schema {schema!r} (expected {TUNE_SCHEMA!r})"
        )
    for key in ("machine",) + _TUNE_REQUIRED:
        if key not in doc:
            raise SchemaError(f"tune doc missing key {key!r}")
    if not isinstance(doc["space"], list) or not doc["space"]:
        raise SchemaError("'space' must be a non-empty list of knob specs")
    for i, knob in enumerate(doc["space"]):
        for key in ("name", "values", "default"):
            if key not in knob:
                raise SchemaError(f"space[{i}] missing key {key!r}")
    if not isinstance(doc["trajectory"], list) or not doc["trajectory"]:
        raise SchemaError("'trajectory' must be a non-empty list of trials")
    for i, tr in enumerate(doc["trajectory"]):
        where = f"trajectory[{i}]"
        for key in _TUNE_TRIAL_KEYS:
            if key not in tr:
                raise SchemaError(f"{where} missing key {key!r}")
        for key in _TUNE_OBJECTIVE_KEYS:
            if key not in tr["objectives"]:
                raise SchemaError(f"{where}.objectives missing key {key!r}")
    if not isinstance(doc["pareto"], list) or not doc["pareto"]:
        raise SchemaError("'pareto' must be a non-empty list")
    for i, pt in enumerate(doc["pareto"]):
        where = f"pareto[{i}]"
        for key in ("fingerprint", "config", "objectives"):
            if key not in pt:
                raise SchemaError(f"{where} missing key {key!r}")
        for key in _TUNE_OBJECTIVE_KEYS:
            if key not in pt["objectives"]:
                raise SchemaError(f"{where}.objectives missing key {key!r}")
    for label in ("default", "winner"):
        entry = doc[label]
        if not isinstance(entry, dict):
            raise SchemaError(f"'{label}' must be an object")
        for key in _TUNE_WINNER_KEYS:
            if key not in entry:
                raise SchemaError(f"'{label}' missing key {key!r}")
    if doc["calibrated"] is not None and not isinstance(doc["calibrated"], dict):
        raise SchemaError("'calibrated' must be an object or null")
    return doc
