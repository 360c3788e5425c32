"""Batched solver service: operator cache, multi-RHS micro-batching,
deadlines, a sharded tier, and the load harness.

The serving layer turns the repository's distributed SPMV/CG stack into a
long-lived *solver service*, the deployment shape the paper's batched-EMV
design is built for: the element matrices are computed once, cached, and
amortized across many incoming products (§III — "setup cost is paid once
and amortized over the solver iterations"; here, over *requests* too).

* :mod:`repro.serve.cache` — :class:`OperatorCache`: LRU cache of warm
  solver contexts keyed by a canonical problem-spec fingerprint.
* :mod:`repro.serve.queue` — bounded FIFO admission queue with per-request
  deadlines and cancellation.
* :mod:`repro.serve.batcher` — micro-batcher grouping compatible requests
  per operator into one multi-RHS product (bitwise identical per column
  to independent single-RHS execution).
* :mod:`repro.serve.service` — :class:`SolverService`: one server with
  its own virtual timeline and multi-RHS execution ``mode``, load
  shedding and fault-aware degradation (never wrong answers).
* :mod:`repro.serve.shard` — the multi-node tier: consistent-hash
  :class:`ShardRouter` with hot-key replication and coherent
  invalidation, and the SLO-aware :class:`ShardCluster` balancer
  (deadline-ordered dispatch, per-tenant admission, shed-or-spill,
  shard-kill failover).
* :mod:`repro.serve.loadgen` — the one load harness behind
  ``python -m repro.harness serve`` and ``shard``: seeded open-loop,
  closed-loop and Zipf multi-tenant scenarios, each on a
  :class:`ShardCluster` (one shard for the serve suite), with the event
  loop (``drive``) and the answer oracle (``Oracle``); writes
  ``repro.serve/3`` reports.
"""

from repro.serve.batcher import BatchPolicy, DeadlineBatcher, MicroBatcher
from repro.serve.cache import OperatorCache, ProblemKey, SolverContext
from repro.serve.queue import RequestQueue, ServeRequest
from repro.serve.service import Completion, DispatchOutcome, SolverService
from repro.serve.shard import HashRing, ShardCluster, ShardRouter

__all__ = [
    "BatchPolicy",
    "Completion",
    "DeadlineBatcher",
    "DispatchOutcome",
    "HashRing",
    "MicroBatcher",
    "OperatorCache",
    "ProblemKey",
    "RequestQueue",
    "ServeRequest",
    "ShardCluster",
    "ShardRouter",
    "SolverContext",
    "SolverService",
]
