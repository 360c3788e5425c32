"""The solver service: admission, batching, execution, fault handling.

:class:`SolverService` is the single-server dispatch loop the load
harness drives in virtual time: admit (or shed) requests into the bounded
queue, expire deadlines, form a micro-batch of compatible requests, and
execute it as one multi-RHS operation against the cached operator.

Fault policy — the service may be slow or reject work, but it never
returns a wrong answer:

* a batch whose execution raised the detected-corruption signal
  (``faults.checksum_fail`` / ``spmv.ghost_nonfinite``) is discarded and
  retried; persisting corruption fails the requests cleanly;
* an exception escaping the simulated run (a poisoned simulator) drops
  the cached context entirely — the next attempt rebuilds it;
* solve batches under an active fault plan degrade from the lock-step
  fused multi-RHS CG to sequential single-RHS *resilient* CG (breakdown
  detection + restart), trading throughput for safety.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.kernels import EMV_MODES, resolve_mode
from repro.obs.instrumentation import Instrumentation
from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.cache import OperatorCache
from repro.serve.queue import RequestQueue, ServeRequest

__all__ = ["Completion", "DispatchOutcome", "SolverService"]


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


class SolverService:
    """Batched solver frontend over an :class:`OperatorCache`."""

    def __init__(
        self,
        cache: OperatorCache,
        max_batch: int = 8,
        queue_capacity: int = 64,
        retry_limit: int = 2,
        maxiter: int = 2000,
        obs: Instrumentation | None = None,
        mode: str = "auto",
        k_min: int | None = None,
        batcher: MicroBatcher | None = None,
        backend: str | None = None,
        sellcs_crossover_dofs: int | None = None,
        tuned=None,
    ):
        """``mode`` is the multi-RHS execution mode every batch runs
        under (``"auto"`` resolves per batch: GEMM when the batch width
        reaches ``k_min``, the bitwise per-column oracle below it);
        ``k_min=None`` uses :data:`repro.core.kernels.DEFAULT_K_MIN` —
        pass the calibrated ``config.gemm_k_min_crossover`` from a
        kernels-bench document to use the measured crossover instead.
        ``batcher`` swaps the batch-forming policy (the shard tier passes
        a :class:`~repro.serve.batcher.DeadlineBatcher`); when given, it
        carries its own policy and ``max_batch`` is ignored.

        ``backend`` is the per-problem-shape operator policy: ``None``
        serves every request under the method its key asks for (the
        historical behavior); ``"hymv"`` / ``"sellcs"`` force that
        operator kind for every batch; ``"auto"`` picks per shape from
        the calibrated crossover — SELL-C-sigma for problems with at
        most ``sellcs_crossover_dofs`` dofs (where the sellcs bench
        measured it winning the batched apply), HYMV above it.  Pass the
        sellcs-bench report's ``config.sellcs_crossover_dofs`` (read by
        :func:`repro.tune.calibration.load_tuned_config`, or passed
        through ``tuned``); with no calibration, ``"auto"``
        keeps every shape on HYMV.  Routed batches are counted in
        ``backend_histogram`` and the ``serve.backend.*`` counters.

        ``tuned`` is an autotuner artifact — anything with a
        ``get(name, default)`` (a ``repro.tune.calibration.TunedConfig``
        loaded from ``tuned_config.json``, or a plain dict-like).  Its
        values fill every knob the caller left at the built-in default:
        ``max_batch``, ``queue_capacity``, ``gemm_k_min`` (→ ``k_min``)
        and ``sellcs_crossover_dofs`` (a positive value also switches an
        unset ``backend`` to ``"auto"`` so the routing takes effect).
        Explicitly passed knobs win over the artifact.
        """
        if tuned is not None:
            if max_batch == 8 and tuned.get("max_batch") is not None:
                max_batch = int(tuned.get("max_batch"))
            if queue_capacity == 64 and tuned.get("queue_capacity") is not None:
                queue_capacity = int(tuned.get("queue_capacity"))
            if k_min is None and tuned.get("gemm_k_min") is not None:
                k_min = int(tuned.get("gemm_k_min"))
            if sellcs_crossover_dofs is None:
                crossover = tuned.get("sellcs_crossover_dofs")
                if crossover:
                    sellcs_crossover_dofs = int(crossover)
                    if backend is None:
                        backend = "auto"
        if mode not in EMV_MODES:
            raise ValueError(
                f"unknown execution mode {mode!r} (expected one of {EMV_MODES})"
            )
        if backend not in (None, "auto", "hymv", "sellcs"):
            raise ValueError(
                f"unknown backend policy {backend!r} "
                "(expected None, 'auto', 'hymv' or 'sellcs')"
            )
        self.cache = cache
        self.obs = obs if obs is not None else cache.obs
        self.queue = RequestQueue(queue_capacity)
        self.batcher = (
            batcher if batcher is not None else MicroBatcher(BatchPolicy(max_batch))
        )
        self.retry_limit = retry_limit
        self.maxiter = maxiter
        self.mode = mode
        self.k_min = k_min
        self.backend = backend
        self.sellcs_crossover_dofs = sellcs_crossover_dofs
        # backend the routing policy actually dispatched to -> batch count
        self.backend_histogram: dict[str, int] = {}
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

    def dispatch(self, now: float) -> DispatchOutcome:
        """Shed expired requests, then execute the next micro-batch."""
        expired = self.queue.expire(now)
        if expired:
            self.obs.incr("serve.shed_deadline", len(expired))
        batch = self.batcher.next_batch(self.queue)
        if not batch:
            return DispatchOutcome([], 0.0, expired, 0)
        k = len(batch)
        self.batch_histogram[k] = self.batch_histogram.get(k, 0) + 1
        self.obs.incr("serve.batches")
        self.obs.incr("serve.batched_requests", k)
        completions, duration = self._execute(batch)
        for c in completions:
            self.obs.incr(f"serve.{'completed' if c.status == 'ok' else 'failed'}")
        return DispatchOutcome(completions, duration, expired, k)

    def _route_key(self, key):
        """Apply the backend policy: rewrite the key's operator kind (the
        rest of the identity — problem, shape, deltas — is untouched, so
        the cached context is still the right operator)."""
        if self.backend is None:
            return key
        if self.backend == "auto":
            method = (
                "sellcs"
                if (
                    self.sellcs_crossover_dofs is not None
                    and key.n_dofs_estimate() <= self.sellcs_crossover_dofs
                )
                else "hymv"
            )
        else:
            method = self.backend
        self.backend_histogram[method] = (
            self.backend_histogram.get(method, 0) + 1
        )
        self.obs.incr(f"serve.backend.{method}")
        if method == key.method:
            return key
        from dataclasses import replace

        self.obs.incr("serve.backend.rerouted")
        return replace(key, method=method)

    def _execute(self, batch: list[ServeRequest]) -> tuple[list[Completion], float]:
        key, kind = self._route_key(batch[0].key), batch[0].kind
        duration = 0.0
        attempts = 0
        # attribute the (single) cache lookup to every batched request's
        # tenant; tenant-less batches keep the plain call so lightweight
        # cache stand-ins (tests) need not grow the keyword
        tenants = [r.tenant for r in batch if r.tenant is not None]
        while True:
            try:
                if tenants:
                    ctx, build_dt = self.cache.get(key, tenants=tenants)
                else:
                    ctx, build_dt = self.cache.get(key)
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
                if attempts >= self.retry_limit:
                    return self._fail(batch, f"execution failed: {exc}"), duration
            attempts += 1
            if attempts > self.retry_limit:
                return self._fail(batch, "corruption persisted"), duration
            self.obs.incr("serve.retries")

    def _run_batch(self, ctx, batch, kind):
        X = np.column_stack(
            [self.input_vector(ctx, r.seed) for r in batch]
        )
        mode = resolve_mode(self.mode, len(batch), self.k_min)
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
            X, rtol=batch[0].rtol, maxiter=self.maxiter, degraded=degraded,
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
