"""The solver service: admission, batching, execution, fault handling.

:class:`SolverService` is the public single-server API: admit (or shed)
requests into the bounded queue, expire deadlines, form a micro-batch of
compatible requests, and execute it as one multi-RHS operation against
the cached operator.  :meth:`step` runs one batch at a time on the
server's own timeline (``free_at``).  Each shard of a
:class:`~repro.serve.shard.ShardCluster` is one service; the load harness
(:mod:`repro.serve.loadgen`) drives every scenario through a cluster, its
single-server ones on one shard.

Fault policy — the service may be slow or reject work, but it never
returns a wrong answer:

* a batch whose execution raised the detected-corruption signal
  (``faults.checksum_fail`` / ``spmv.ghost_nonfinite``) is discarded and
  retried; persisting corruption fails the requests cleanly;
* an exception escaping the simulated run (a poisoned simulator) drops
  the cached context entirely — the next attempt rebuilds it;
* solve batches under an active fault plan degrade from the lock-step
  multi-RHS CG to sequential single-RHS *resilient* CG (breakdown
  detection + restart), trading throughput for safety.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.kernels import resolve_mode
from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.cache import OperatorCache
from repro.serve.queue import RequestQueue, ServeRequest

__all__ = ["Completion", "DispatchOutcome", "SolverService"]

#: attempts after the first before a corrupt or aborted batch fails
RETRY_LIMIT = 2
#: CG iteration cap of every solve batch
MAXITER = 2000


class _CorruptBatch(Exception):
    """Execution finished but the corruption signal moved: retry."""


@dataclass
class Completion:
    """Terminal record of one request."""

    request: ServeRequest
    status: str  # "ok" | "failed"
    value: np.ndarray | None = None  # owned result column (global order)
    info: dict = field(default_factory=dict)


@dataclass
class DispatchOutcome:
    """Result of one :meth:`SolverService.dispatch` call."""

    completions: list[Completion]
    duration: float  # virtual seconds consumed by this dispatch
    expired: list[ServeRequest]
    batch_size: int
    end: float  # virtual time the dispatch finishes: now + duration


class SolverService:
    """Batched solver frontend over an :class:`OperatorCache`."""

    def __init__(
        self,
        cache: OperatorCache,
        max_batch: int = 8,
        queue_capacity: int = 64,
        batcher: MicroBatcher | None = None,
        mode: str = "auto",
    ):
        """``mode`` is the multi-RHS execution mode every batch runs
        under (one of :data:`~repro.core.kernels.EMV_MODES`, else
        ``ValueError``): ``"auto"`` crosses to GEMM at
        :data:`~repro.core.kernels.DEFAULT_K_MIN` columns, ``"oracle"``
        keeps every answer bitwise equal to its single-RHS product.
        Every batch is served by the operator kind its key names.

        ``max_batch`` / ``queue_capacity`` size the batcher and the
        admission queue; ``batcher`` swaps the batch-forming policy (the
        shard tier passes a :class:`~repro.serve.batcher.DeadlineBatcher`),
        and when given it carries its own policy and ``max_batch`` is
        ignored.
        """
        self.cache = cache
        self.obs = cache.obs
        self.queue = RequestQueue(queue_capacity)
        self.batcher = (
            batcher if batcher is not None else MicroBatcher(BatchPolicy(max_batch))
        )
        resolve_mode(mode, 1)  # a ValueError on an unknown mode
        self.mode = mode
        # the single-server timeline: busy until `free_at`
        self.free_at = 0.0
        self.busy_s = 0.0
        self.dispatches = 0
        self.batch_histogram: dict[int, int] = {}
        # what each dispatched batch actually ran under: "oracle" /
        # "gemm" / "degraded" (fault-degraded solves bypass the batched
        # path entirely) -> batch count
        self.mode_histogram: dict[str, int] = {}

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def submit(self, req: ServeRequest) -> bool:
        """Admit a request; returns False when shed (queue full)."""
        self.obs.incr("serve.submitted")
        if not self.queue.submit(req):
            self.obs.incr("serve.rejected")
            return False
        return True

    def cancel(self, rid: int) -> bool:
        """Cancel a still-queued request (in-flight work is not torn down)."""
        if self.queue.cancel(rid) is None:
            return False
        self.obs.incr("serve.cancelled")
        return True

    @property
    def pending(self) -> int:
        return len(self.queue)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def step(self, now: float) -> list[DispatchOutcome]:
        """Dispatch once if the server is idle at ``now`` and has queued
        work; a batch keeps it busy until the outcome's ``end``."""
        if self.free_at > now or not self.pending:
            return []
        out = self.dispatch(now)
        if out.batch_size:
            self.free_at = out.end
            self.busy_s += out.duration
            self.dispatches += 1
        return [out]

    def next_wakeup(self, now: float) -> float:
        """When a busy server with queued work frees up; ``inf`` when
        nothing is due after ``now``."""
        due = self.pending and self.free_at > now
        return self.free_at if due else float("inf")

    def dispatch(self, now: float) -> DispatchOutcome:
        """Shed expired requests, then execute the next micro-batch."""
        expired = self.queue.expire(now)
        if expired:
            self.obs.incr("serve.shed_deadline", len(expired))
        batch = self.batcher.next_batch(self.queue)
        if not batch:
            return DispatchOutcome([], 0.0, expired, 0, now)
        k = len(batch)
        self.batch_histogram[k] = self.batch_histogram.get(k, 0) + 1
        self.obs.incr("serve.batches")
        self.obs.incr("serve.batched_requests", k)
        completions, duration = self._execute(batch)
        for c in completions:
            self.obs.incr(f"serve.{'completed' if c.status == 'ok' else 'failed'}")
        return DispatchOutcome(completions, duration, expired, k, now + duration)

    def _execute(self, batch: list[ServeRequest]) -> tuple[list[Completion], float]:
        key, kind = batch[0].key, batch[0].kind
        duration = 0.0
        attempts = 0
        # attribute the (single) cache lookup to every batched request's
        # tenant; tenant-less batches keep the plain call so lightweight
        # cache stand-ins (tests) need not grow the keyword
        tenants = [r.tenant for r in batch if r.tenant is not None]
        while True:
            try:
                try:
                    if tenants:
                        ctx, build_dt = self.cache.get(key, tenants=tenants)
                    else:
                        ctx, build_dt = self.cache.get(key)
                except ValueError as exc:  # an unbuildable key: no retry helps
                    return self._fail(batch, f"build failed: {exc}"), duration
                duration += build_dt
                sig0 = ctx.fault_signal()
                completions, dt = self._run_batch(ctx, batch, kind)
                duration += dt
                if ctx.fault_signal() > sig0:
                    # value-affecting fault detected during the batch:
                    # the results cannot be trusted — discard them
                    raise _CorruptBatch()
                return completions, duration
            except _CorruptBatch:
                self.obs.incr("serve.corrupt_batches")
            except RuntimeError as exc:
                # the aborted run poisons the simulator; rebuild the
                # context from scratch on the next attempt
                self.cache.invalidate(key)
                self.obs.incr("serve.rebuilds")
                if attempts >= RETRY_LIMIT:
                    return self._fail(batch, f"execution failed: {exc}"), duration
            attempts += 1
            if attempts > RETRY_LIMIT:
                return self._fail(batch, "corruption persisted"), duration
            self.obs.incr("serve.retries")

    def _run_batch(self, ctx, batch, kind):
        X = np.column_stack(
            [self.input_vector(ctx, r.seed) for r in batch]
        )
        mode = resolve_mode(self.mode, len(batch))
        if kind == "spmv":
            self._record_mode(mode)
            Y, dt = ctx.apply_multi(X, mode=mode)
            return [
                Completion(r, "ok", np.ascontiguousarray(Y[:, j]))
                for j, r in enumerate(batch)
            ], dt
        degraded = ctx.faulted
        if degraded:
            self.obs.incr("serve.degraded", len(batch))
        self._record_mode("degraded" if degraded else mode)
        out, dt = ctx.solve_multi(
            X, rtol=batch[0].rtol, maxiter=MAXITER, degraded=degraded,
            mode=mode,
        )
        comps = []
        for j, r in enumerate(batch):
            conv = bool(out["converged"][j])
            comps.append(Completion(
                r,
                "ok" if conv else "failed",
                np.ascontiguousarray(out["x"][:, j]) if conv else None,
                {
                    "iterations": int(out["iterations"][j]),
                    "restarts": int(out["restarts"][j]),
                    "degraded": degraded,
                },
            ))
        return comps, dt

    def _record_mode(self, mode: str) -> None:
        self.mode_histogram[mode] = self.mode_histogram.get(mode, 0) + 1
        self.obs.incr(f"serve.mode.{mode}")

    @staticmethod
    def input_vector(ctx, seed: int) -> np.ndarray:
        """The request's deterministic input/RHS vector (replayable by
        the verifier from the seed alone)."""
        return np.random.default_rng(seed).standard_normal(ctx.n_dofs)

    @staticmethod
    def _fail(batch, reason):
        return [Completion(r, "failed", None, {"reason": reason}) for r in batch]
