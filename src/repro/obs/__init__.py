"""Unified observability: phase timers, counters, traces, bench gating.

* :mod:`repro.obs.instrumentation` — the per-rank/process registry.
* :mod:`repro.obs.schema` — the versioned JSON reports: the table
  declaring every report's shape and :func:`validate_report`, which
  checks a parsed report against it.
* :mod:`repro.obs.bench` — the CI smoke-bench suite (``python -m
  repro.harness bench``).
* :mod:`repro.obs.compare` — the perf gate (``python -m repro.obs.compare
  baseline.json candidate.json``).
"""

from repro.obs.instrumentation import (
    Instrumentation,
    PhaseStats,
    TraceEvent,
    get_instrumentation,
    merge_snapshots,
    percentile,
    percentile_summary,
    reset_instrumentation,
)
from repro.obs.schema import (
    BENCH_SCHEMA,
    CHAOS_SCHEMA,
    SERVE_SCHEMA,
    SchemaError,
    machine_fingerprint,
    validate_report,
)

__all__ = [
    "Instrumentation",
    "PhaseStats",
    "TraceEvent",
    "get_instrumentation",
    "merge_snapshots",
    "percentile",
    "percentile_summary",
    "reset_instrumentation",
    "BENCH_SCHEMA",
    "CHAOS_SCHEMA",
    "SERVE_SCHEMA",
    "SchemaError",
    "machine_fingerprint",
    "validate_report",
]
