"""Seam wrappers of the ``--trace`` pass.

Spans are recorded from the benchmark's own files, around the calls into
each layer's public functions; nothing inside ``src/repro`` is touched.
A :class:`Tracer` keeps ``(name, start, end, parent)`` spans in memory;
the wrappers below open a span around one public call each:

* :class:`TracedCache` — ``OperatorCache.get`` / ``update`` and the
  returned context's ``apply_multi`` / ``solve_multi``;
* :class:`TracedBatcher` — ``MicroBatcher.next_batch``;
* :func:`trace_method` — any other bound method (``queue.submit``,
  ``SolverService.input_vector``, ``SolverService.dispatch``).

Only the dispatching (main) thread opens spans; rank threads are timed by
the probes in :mod:`e2ebench.probes`.  A disabled tracer makes every
wrapper a pass-through, which is how the trace pass interleaves untraced
blocks to measure its own overhead.
"""

from __future__ import annotations

import time

from repro.serve import BatchPolicy, MicroBatcher, OperatorCache
from repro.serve.service import SolverService

__all__ = ["Tracer", "TracedCache", "TracedBatcher", "Seams", "trace_method"]


class _Span:
    __slots__ = ("tracer", "name", "t0", "t1", "parent", "child_s", "meta")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.child_s = 0.0
        self.meta = None

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack
        self.parent = stack[-1] if stack else None
        stack.append(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.t1 = time.perf_counter()
        self.tracer._stack.pop()
        if self.parent is not None:
            self.parent.child_s += self.t1 - self.t0
        self.tracer.spans.append(self)

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    @property
    def self_seconds(self) -> float:
        """Duration minus the part covered by child spans."""
        return self.seconds - self.child_s


class _NullSpan:
    """What a disabled tracer hands out: accepts a rename, records nothing."""

    name = ""
    meta = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


class Tracer:
    """In-memory span recorder (main thread only)."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []
        self._null = _NullSpan()

    def span(self, name: str):
        return _Span(self, name) if self.enabled else self._null

    def named(self, prefix: str, start: int = 0) -> list[_Span]:
        """Spans recorded from index ``start`` on whose name is ``prefix``
        or ``prefix.<suffix>``, in recording order."""
        return [
            s
            for s in self.spans[start:]
            if s.name == prefix or s.name.startswith(prefix + ".")
        ]


def trace_method(tracer: Tracer, obj, attr: str, name: str) -> None:
    """Replace ``obj.attr`` with a span-opening wrapper (instance-level, so
    other instances and the class stay untouched)."""
    inner = getattr(obj, attr)

    def traced(*args, **kwargs):
        with tracer.span(name):
            return inner(*args, **kwargs)

    setattr(obj, attr, traced)


class TracedCache(OperatorCache):
    """``OperatorCache`` whose lookups, updates and context calls are spans.

    Lookup spans are named after the outcome (``serve.cache.get_hit`` /
    ``serve.cache.get_miss``); context calls carry the operator kind
    (``serve.cache.apply_multi.hymv``, ``serve.cache.solve_multi.sellcs``).
    """

    def __init__(self, tracer: Tracer, **kwargs):
        super().__init__(**kwargs)
        self.tracer = tracer

    def get(self, key, tenants=None):
        misses = self.obs.counter("serve.cache.misses")
        with self.tracer.span("serve.cache.get_hit") as span:
            span.meta = key
            ctx, build_vtime = super().get(key, tenants=tenants)
            if self.obs.counter("serve.cache.misses") > misses:
                span.name = "serve.cache.get_miss"
                for call in ("apply_multi", "solve_multi"):
                    trace_method(
                        self.tracer, ctx, call,
                        f"serve.cache.{call}.{key.method}",
                    )
        return ctx, build_vtime

    def update(self, key, delta, threshold: float = 0.10):
        with self.tracer.span("serve.cache.update"):
            return super().update(key, delta, threshold=threshold)


class TracedBatcher(MicroBatcher):
    """``MicroBatcher`` whose ``next_batch`` is a span."""

    def __init__(self, tracer: Tracer, policy=None):
        super().__init__(policy)
        self.tracer = tracer

    def next_batch(self, queue):
        with self.tracer.span("serve.batcher.next_batch"):
            return super().next_batch(queue)


class Seams:
    """Factory of the public objects a workload drives.

    Without a tracer it returns the program's own classes untouched (the
    end-to-end pass); with one, the traced subclasses and wrapped methods
    (the ``--trace`` pass).  Workloads never see the difference.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer

    def cache(self, capacity: int) -> OperatorCache:
        if self.tracer is None:
            return OperatorCache(capacity=capacity)
        return TracedCache(self.tracer, capacity=capacity)

    def service(
        self, cache: OperatorCache, max_batch: int, queue_capacity: int
    ) -> SolverService:
        if self.tracer is None:
            return SolverService(
                cache, max_batch=max_batch, queue_capacity=queue_capacity
            )
        svc = SolverService(
            cache,
            queue_capacity=queue_capacity,
            batcher=TracedBatcher(self.tracer, BatchPolicy(max_batch)),
        )
        trace_method(self.tracer, svc.queue, "submit", "serve.queue.submit")
        trace_method(
            self.tracer, svc, "input_vector", "serve.service.input_vector"
        )
        trace_method(self.tracer, svc, "dispatch", "serve.service.dispatch")
        return svc
