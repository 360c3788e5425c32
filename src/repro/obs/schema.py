"""Versioned JSON reports: one schema table, one validator, one reader.

:data:`REPORTS` is the one place a report's shape is declared, as plain
data (the spec language is documented on :func:`validate_report`).  Bump
a schema id's trailing integer on every breaking change to a shape;
readers reject ids they do not know.  :func:`new_report` builds the
envelope every report shares, :func:`read_json` and :func:`write_report`
are the one way a report enters and leaves the program, and bench rows
(flat ``(case, method)`` results with per-phase statistics and summed
counters) are built from :func:`phase_stats` and :func:`point_phase`.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import time
from pathlib import Path
from typing import Any

from repro.obs.instrumentation import percentile

__all__ = [
    "ADAPT_SCHEMA",
    "BENCH_SCHEMA",
    "CHAOS_SCHEMA",
    "REPORTS",
    "SERVE_SCHEMA",
    "TUNE_CONFIG_SCHEMA",
    "SchemaError",
    "machine_fingerprint",
    "new_report",
    "phase_stats",
    "point_phase",
    "read_json",
    "result_key",
    "validate_report",
    "write_report",
]

BENCH_SCHEMA = "repro.bench/1"
CHAOS_SCHEMA = "repro.chaos/1"
SERVE_SCHEMA = "repro.serve/3"
TUNE_CONFIG_SCHEMA = "repro.tune-config/1"
ADAPT_SCHEMA = "repro.adapt/1"


class SchemaError(ValueError):
    """A report is missing, unreadable, not JSON, or does not conform to
    its :data:`REPORTS` entry."""


def _keys(*names: str) -> dict:
    """Spec of an object that must carry ``names`` (values unchecked)."""
    return dict.fromkeys(names)


def _latency_all(doc: dict) -> None:
    """A scenario that completed requests carries the 'all' summary."""
    for i, sc in enumerate(doc["scenarios"]):
        if sc["requests"]["completed"] and "all" not in sc["latency_s"]:
            raise SchemaError(
                f"scenarios[{i}].latency_s missing the 'all' summary"
            )


#: the :func:`new_report` envelope (``created_unix`` is informational)
_ENVELOPE = {"machine": {}, "config": {}}
_CACHE = _keys("hits", "misses", "evictions", "hit_rate")

#: every report the program writes: schema id -> shape
REPORTS: dict[str, dict] = {
    # BENCH_<suite>.json: `python -m repro.harness bench` and the
    # serve/shard/adapt projections; what every compare gate reads
    BENCH_SCHEMA: {
        **_ENVELOPE,
        **_keys("suite", "repeats"),
        "results": [{
            **_keys("case", "method", "n_parts", "n_dofs"),
            "phases": {"*": _keys("median", "min", "max", "repeats")},
            "counters": {},
        }],
    },
    # CHAOS_report.json: `python -m repro.harness chaos`
    CHAOS_SCHEMA: {
        **_ENVELOPE,
        "scenarios": [{
            **_keys("scenario", "ok", "plan", "iterations", "restarts",
                    "rel_err"),
            "failures": [None],
            "counters": {},
        }],
    },
    # SERVE_report.json / SHARD_report.json: `python -m repro.harness
    # serve` and `shard`, one load harness whose every scenario runs on a
    # shard cluster (one shard for the serve suite).  Per scenario: the
    # request tally, latency summaries, per-shard utilization,
    # replication state, per-tenant stats, the batch and execution-mode
    # (oracle / gemm / degraded) histograms and the summed cache stats.
    # v3 merged the single-server v2 and the sharded repro.shard/1 shapes
    SERVE_SCHEMA: {
        **_ENVELOPE,
        "scenarios": [{
            **_keys("scenario", "workload", "throughput_rps", "makespan_s",
                    "n_shards"),
            "latency_s": {
                "*": _keys("p50", "p95", "p99", "mean", "min", "max", "n"),
            },
            "requests": _keys(
                "submitted", "completed", "rejected", "shed_tenant",
                "shed_deadline", "cancelled", "spilled", "failed",
                "failovers", "wrong_answers",
            ),
            "shards": ("non-empty", {"*": {
                **_keys("utilization", "busy_s", "dispatches", "alive"),
                "cache": _CACHE,
            }}),
            "utilization": _keys("mean", "min", "max", "peak_to_mean"),
            "replication": _keys(
                "keys_seen", "replicated_keys", "replication_factor"
            ),
            "tenants": {},
            "batch_histogram": {},
            "modes": {},
            "cache": _CACHE,
            "counters": {},
        }],
    },
    # ADAPT_report.json: `python -m repro.harness adapt`.  Per scenario:
    # delta accounting (patches vs rebuilds), differential verification
    # tallies (delta-updated vs freshly built, bitwise) and the modeled
    # costs of delta / full rebuild / assembled patch / CSR reassembly
    # (wall seconds of the three update paths under ``wall_s``)
    ADAPT_SCHEMA: {
        **_ENVELOPE,
        "scenarios": [{
            **_keys("scenario", "method", "n_parts", "n_dofs", "steps"),
            "deltas": _keys(
                "applied", "patches", "rebuilds", "touched_total",
                "max_fraction",
            ),
            "verify": _keys("checks", "bitwise", "wrong_answers"),
            "costs": {
                **_keys("delta_s", "rebuild_s", "assembled_patch_s",
                        "reassembly_s", "speedup_vs_rebuild",
                        "speedup_vs_assembled_patch"),
                "wall_s": _keys("delta", "assembled_patch", "reassembly"),
            },
            "cache": _CACHE,
            "steps_detail": [None],
            "counters": {},
        }],
    },
    # tuned_config.json: `python -m repro.harness tune`, the measured
    # GEMM crossover as a flat key -> value config;
    # repro.serve.plan.load_tuned_config turns it into an execution plan
    TUNE_CONFIG_SCHEMA: {"config": {}, "source": None},
}

#: the rules a shape cannot express, checked once the shape validated
_CHECKS = {SERVE_SCHEMA: _latency_all}


def machine_fingerprint() -> dict[str, Any]:
    """Identify the machine a report was produced on."""
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


def new_report(
    schema: str, config: dict[str, Any] | None = None, **fields: Any
) -> dict[str, Any]:
    """The envelope every report shares, plus the kind's ``fields``."""
    return {
        "schema": schema,
        "created_unix": time.time(),
        "machine": machine_fingerprint(),
        "config": dict(config or {}),
        **fields,
    }


def _walk(value: Any, spec: Any, where: str) -> None:
    non_empty = isinstance(spec, tuple)
    if non_empty:
        _, spec = spec
    if spec is None:
        return
    is_list = isinstance(spec, list)
    if not isinstance(value, list if is_list else dict) or (
        non_empty and not value
    ):
        what = "a list" if is_list else "an object"
        if non_empty:
            what = "a non-empty " + what.split()[-1]
        raise SchemaError(f"{where or 'report'} must be {what}")
    if is_list:
        for i, item in enumerate(value):
            _walk(item, spec[0], f"{where}[{i}]")
    elif "*" in spec:
        for label, item in value.items():
            _walk(item, spec["*"], f"{where}[{label!r}]")
    else:
        for key, sub in spec.items():
            if key not in value:
                raise SchemaError(f"{where or 'report'} missing key {key!r}")
            _walk(value[key], sub, f"{where}.{key}" if where else key)


def validate_report(doc: Any, *schemas: str) -> dict[str, Any]:
    """Validate a parsed report whose id must be one of ``schemas``;
    returns it on success.

    The :data:`REPORTS` spec language: ``None`` accepts any value; a
    dict is an object carrying every key, each value checked against the
    key's spec; ``{"*": spec}`` is an object whose every value matches
    ``spec``; ``[spec]`` is a list whose every item matches ``spec``;
    ``("non-empty", spec)`` is a list or object that must not be empty.
    Extra keys are allowed everywhere.  Raises :class:`SchemaError`
    naming the path of the first violation.
    """
    if not isinstance(doc, dict):
        raise SchemaError(f"report must be an object, got {type(doc).__name__}")
    schema = doc.get("schema")
    if schema not in schemas:
        raise SchemaError(
            f"unsupported schema {schema!r} (expected "
            f"{' or '.join(map(repr, schemas))})"
        )
    _walk(doc, REPORTS[schema], "")
    if schema in _CHECKS:
        _CHECKS[schema](doc)
    return doc


def read_json(path) -> Any:
    """Parse the JSON file at ``path``.  Raises :class:`SchemaError` for a
    missing or unreadable file and for invalid JSON."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # invalid JSON, or bytes that are not text
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None


def write_report(path, doc: dict[str, Any]) -> None:
    """Write ``doc`` as stable, diffable JSON, creating parent dirs."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def result_key(res: dict[str, Any]) -> str:
    """Stable identity of one bench result row: ``case/method``."""
    return f"{res['case']}/{res['method']}"


def phase_stats(samples: list[float]) -> dict[str, float]:
    """A bench phase row summarizing repeated samples."""
    # percentile(·, 50) is the shared first-class summary helper (also
    # used by the serve report); for the bench suites' repeat counts it
    # agrees with statistics.median to the last ulp or better
    return {
        "median": percentile(samples, 50),
        "min": min(samples),
        "max": max(samples),
        "repeats": len(samples),
    }


def point_phase(value: float, repeats: int = 1) -> dict[str, float]:
    """A bench phase row for one value (median = min = max)."""
    return {"median": value, "min": value, "max": value, "repeats": repeats}
