"""The unified observability core: phases, counters, trace events.

One :class:`Instrumentation` instance per rank (owned by its
:class:`~repro.simmpi.communicator.Communicator`) plus an optional
process-wide instance for harness-level phases.  It records the three
things the paper's analysis needs:

* **hierarchical phase timers** — dotted paths (``spmv.emv.independent``)
  accumulating both *wall* seconds and *virtual* (modeled) seconds, with
  nesting via :meth:`Instrumentation.phase`;
* **monotonic counters** — elements swept, bytes exchanged, flops;
* **structured trace events** — ``(label, t0, t1, kind, meta)`` intervals
  on the virtual timeline, consumed by
  :func:`repro.simmpi.trace.render_gantt` and the GPU stream export.

Snapshots (:meth:`Instrumentation.snapshot`) are plain JSON-able dicts;
:func:`merge_snapshots` reduces them across ranks the way every figure in
the paper does (max over ranks for times, sum for counters).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

__all__ = [
    "PhaseStats",
    "TraceEvent",
    "Instrumentation",
    "merge_snapshots",
    "percentile",
    "percentile_summary",
    "get_instrumentation",
    "reset_instrumentation",
]


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``samples`` (linear interpolation
    between closest ranks — numpy's default method, implemented in pure
    Python so the observability core keeps its zero-dependency rule).

    ``percentile(xs, 50)`` is the median; tail percentiles (p95/p99) are
    the latency numbers the serve harness reports.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    xs = sorted(float(s) for s in samples)
    if not xs:
        raise ValueError("percentile of an empty sample set")
    pos = (len(xs) - 1) * (q / 100.0)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def percentile_summary(
    samples: Sequence[float], qs: Sequence[float] = (50, 95, 99)
) -> dict[str, float]:
    """Latency-style summary of a sample set: one ``p<q>`` entry per
    requested percentile plus ``mean``/``min``/``max``/``n``."""
    xs = [float(s) for s in samples]
    if not xs:
        raise ValueError("percentile_summary of an empty sample set")
    out: dict[str, float] = {}
    for q in qs:
        key = f"p{q:g}".replace(".", "_")
        out[key] = percentile(xs, q)
    out["mean"] = sum(xs) / len(xs)
    out["min"] = min(xs)
    out["max"] = max(xs)
    out["n"] = len(xs)
    return out


@dataclass
class PhaseStats:
    """Accumulated statistics of one dotted phase path."""

    vtime: float = 0.0  # virtual (modeled) seconds
    wall: float = 0.0  # measured wall seconds
    count: int = 0

    def as_dict(self) -> dict[str, float]:
        return {"vtime": self.vtime, "wall": self.wall, "count": self.count}


@dataclass(frozen=True)
class TraceEvent:
    """One interval on a rank's virtual timeline."""

    label: str
    t0: float
    t1: float
    kind: str = "compute"  # "compute" | "wait" | "modeled" | "gpu" | "fault"
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict[str, Any]:
        d = {"label": self.label, "t0": self.t0, "t1": self.t1, "kind": self.kind}
        if self.meta:
            d["meta"] = dict(self.meta)
        return d


class Instrumentation:
    """Process- or rank-wide registry of phases, counters and events.

    Parameters
    ----------
    rank:
        Owning rank (``-1`` for the process-wide registry).
    clock:
        Optional virtual-time source; when set, :meth:`phase` records the
        virtual-time delta of the enclosed block in addition to wall time.
    trace:
        When true, :meth:`event` appends to :attr:`events`; otherwise
        events are dropped (matching the old ``Simulator(trace=...)``
        behaviour, which keeps the hot path allocation-free).
    """

    def __init__(
        self,
        rank: int = -1,
        clock: Callable[[], float] | None = None,
        trace: bool = False,
    ):
        self.rank = rank
        self.clock = clock
        self.trace_enabled = trace
        self.phases: dict[str, PhaseStats] = {}
        self.counters: dict[str, float] = {}
        self.events: list[TraceEvent] = []
        self._stack: list[str] = []

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def record(
        self, label: str, vtime: float = 0.0, wall: float = 0.0, count: int = 1
    ) -> None:
        """Accumulate one phase sample under a dotted ``label`` (in place:
        this runs several times per SPMV)."""
        stats = self.phases.get(label)
        if stats is None:
            stats = self.phases[label] = PhaseStats()
        stats.vtime += float(vtime)
        stats.wall += float(wall)
        stats.count += int(count)

    @contextmanager
    def phase(self, name: str) -> Iterator["Instrumentation"]:
        """Hierarchical phase context: nested names join into dotted paths.

        >>> obs = Instrumentation()
        >>> with obs.phase("spmv"):
        ...     with obs.phase("emv"):
        ...         pass
        >>> sorted(obs.phases)
        ['spmv', 'spmv.emv']
        """
        self._stack.append(name)
        path = ".".join(self._stack)
        w0 = time.perf_counter()
        v0 = self.clock() if self.clock is not None else 0.0
        try:
            yield self
        finally:
            wall = time.perf_counter() - w0
            vtime = (self.clock() - v0) if self.clock is not None else 0.0
            self._stack.pop()
            self.record(path, vtime=vtime, wall=wall)

    @property
    def current_path(self) -> str:
        return ".".join(self._stack)

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------

    def incr(self, name: str, amount: float = 1) -> None:
        """Increment a monotonic counter (negative increments are bugs)."""
        if amount < 0:
            raise ValueError(f"counter {name!r}: negative increment {amount}")
        self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    # ------------------------------------------------------------------
    # trace events
    # ------------------------------------------------------------------

    def event(
        self,
        label: str,
        t0: float,
        t1: float,
        kind: str = "compute",
        **meta: Any,
    ) -> None:
        """Append an interval to the event stream (no-op unless tracing)."""
        if self.trace_enabled and t1 > t0:
            self.events.append(TraceEvent(label, t0, t1, kind, meta))

    # ------------------------------------------------------------------
    # virtual-time shorthands
    # ------------------------------------------------------------------

    def add(self, label: str, seconds: float) -> None:
        """Accumulate virtual seconds under ``label``."""
        self.record(label, vtime=seconds)

    def total(self, label: str) -> float:
        """Accumulated virtual seconds of ``label`` (0 when unseen)."""
        s = self.phases.get(label)
        return s.vtime if s is not None else 0.0

    def as_dict(self) -> dict[str, float]:
        """Virtual-time totals keyed by label."""
        return {label: s.vtime for label, s in self.phases.items()}

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def snapshot(self, events: bool = False) -> dict[str, Any]:
        """JSON-able view of this rank's phases and counters."""
        doc: dict[str, Any] = {
            "rank": self.rank,
            "phases": {k: s.as_dict() for k, s in self.phases.items()},
            "counters": dict(self.counters),
        }
        if events:
            doc["events"] = [e.as_dict() for e in self.events]
        return doc

    def reset(self) -> None:
        self.phases.clear()
        self.counters.clear()
        self.events.clear()
        self._stack.clear()


def merge_snapshots(
    snapshots: Sequence[dict[str, Any]],
    time_reduce: str = "max",
) -> dict[str, Any]:
    """Reduce per-rank snapshots into one aggregate view.

    Phase times reduce by ``time_reduce`` (``"max"`` — the critical-path
    convention every figure uses — or ``"sum"``); counters always sum;
    counts take the max (per-rank call counts should agree on SPMD code).
    """
    if time_reduce not in ("max", "sum"):
        raise ValueError(f"unknown time_reduce {time_reduce!r}")
    phases: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for snap in snapshots:
        for label, s in snap.get("phases", {}).items():
            agg = phases.setdefault(
                label, {"vtime": 0.0, "wall": 0.0, "count": 0}
            )
            for key in ("vtime", "wall"):
                if time_reduce == "max":
                    agg[key] = max(agg[key], s[key])
                else:
                    agg[key] += s[key]
            agg["count"] = max(agg["count"], s["count"])
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    return {
        "ranks": len(snapshots),
        "time_reduce": time_reduce,
        "phases": phases,
        "counters": counters,
    }


# ----------------------------------------------------------------------------
# process-wide registry
# ----------------------------------------------------------------------------

_PROCESS: Instrumentation | None = None


def get_instrumentation() -> Instrumentation:
    """The process-wide registry (created on first use)."""
    global _PROCESS
    if _PROCESS is None:
        _PROCESS = Instrumentation(rank=-1)
    return _PROCESS


def reset_instrumentation() -> Instrumentation:
    """Replace the process-wide registry with a fresh one."""
    global _PROCESS
    _PROCESS = Instrumentation(rank=-1)
    return _PROCESS
