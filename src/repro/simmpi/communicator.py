"""Per-rank communicator: nonblocking point-to-point, collectives, and
virtual-time accounting.

The API deliberately mirrors the mpi4py idioms used in distributed FEM
codes (``isend``/``irecv``/``waitall``, ``allreduce``, ``alltoall``) so the
HYMV algorithms read like their C++/MPI counterparts in the paper.

Every communicator owns an :class:`repro.obs.Instrumentation`: compute
sections and modeled advances record dotted phases, point-to-point calls
count per-message bytes and wait time, and — with ``Simulator(trace=True)``
— each interval lands on the structured event stream that
:func:`repro.simmpi.trace.render_gantt` renders.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.faults.plan import MessageLostError, corrupt_array, payload_checksum
from repro.obs.instrumentation import Instrumentation
from repro.simmpi.network import NetworkModel

__all__ = ["Communicator", "Request"]


class _Aborted(RuntimeError):
    """Raised inside rank threads when a sibling rank failed."""


def _nbytes(payload: Any) -> int:
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, (int, float, np.floating, np.integer)):
        return 8
    # container of arrays / generic object: rough estimate
    if isinstance(payload, (list, tuple)):
        return sum(_nbytes(x) for x in payload) + 16
    return 64


@dataclass
class _Message:
    payload: Any
    arrival_vtime: float
    seq: int = 0
    checksum: int | None = None
    drops: int = 0  # injected transmission losses the receiver must absorb


@dataclass
class Request:
    """Handle for a nonblocking operation."""

    kind: str  # "send" | "recv"
    peer: int
    tag: int
    complete_vtime: float = 0.0
    payload: Any = None
    done: bool = False
    seq: int = 0


class _Mailbox:
    """Thread-safe per-rank mailbox with (source, tag, seq) matching.

    Messages carry per-edge sequence numbers, so matching is immune to
    physical delivery order: a :class:`repro.faults.plan.Reorder` fault
    may enqueue a message at the *front* of its queue, and receives still
    complete in posted order (MPI's non-overtaking guarantee, restored at
    the receiver).
    """

    def __init__(self, abort: threading.Event) -> None:
        self._abort = abort
        self._cond = threading.Condition()
        self._queues: dict[tuple[int, int], deque[_Message]] = {}

    def put(
        self, source: int, tag: int, msg: _Message, front: bool = False
    ) -> None:
        with self._cond:
            q = self._queues.setdefault((source, tag), deque())
            if front:
                q.appendleft(msg)
            else:
                q.append(msg)
            self._cond.notify_all()

    def get(self, source: int, tag: int, seq: int) -> _Message:
        key = (source, tag)
        with self._cond:
            while True:
                q = self._queues.get(key)
                if q:
                    for i, msg in enumerate(q):
                        if msg.seq == seq:
                            del q[i]
                            return msg
                if self._abort.is_set():
                    raise _Aborted()
                self._cond.wait(timeout=0.05)

    def wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def empty(self) -> bool:
        with self._cond:
            return not any(self._queues.values())


class Communicator:
    """One rank's endpoint into the simulated communicator.

    Created by :class:`repro.simmpi.engine.Simulator`; user code receives
    one per rank program.
    """

    def __init__(self, simulator, rank: int):
        self._sim = simulator
        self.rank = rank
        self.size = simulator.n_ranks
        self.vtime = 0.0
        #: unified observability registry: phases + counters + events
        self.obs = Instrumentation(
            rank=rank,
            clock=lambda: self.vtime,
            trace=bool(getattr(simulator, "trace_enabled", False)),
        )
        self.network: NetworkModel = simulator.network
        #: bound fault injector (None on fault-free runs)
        self._faults = getattr(simulator, "faults", None)
        self._compute_factor = (
            self._faults.compute_factor(rank)
            if self._faults is not None
            else 1.0
        )
        # per-edge sequence counters for send/recv matching
        self._send_seq: dict[tuple[int, int], int] = {}
        self._recv_seq: dict[tuple[int, int], int] = {}

    @property
    def faults_active(self) -> bool:
        """True when this run injects faults (enables detection hooks)."""
        return self._faults is not None

    @property
    def trace(self) -> list[tuple[str, float, float]]:
        """Traced ``(label, start, end)`` virtual-time intervals (legacy
        view over ``obs.events``)."""
        return [(e.label, e.t0, e.t1) for e in self.obs.events]

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------

    def isend(self, payload: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking (buffered/eager) send.  The payload is copied, so
        the caller may reuse its buffer immediately.

        With a bound :class:`~repro.faults.plan.FaultPlan` the message may
        be delayed, reordered, dropped (``drops`` attempts absorbed by the
        receiver's retry path) or corrupted in flight; every injection is
        counted under ``faults.*`` on the sender's instrumentation.
        """
        if not (0 <= dest < self.size):
            raise ValueError(f"invalid destination rank {dest}")
        if isinstance(payload, np.ndarray):
            payload = payload.copy()
        nbytes = _nbytes(payload)
        self.obs.incr("comm.bytes_sent", nbytes)
        self.obs.incr("comm.msgs_sent")
        key = (dest, tag)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1

        checksum = None
        extra_delay = 0.0
        drops = 0
        front = False
        fi = self._faults
        if fi is not None:
            eff = fi.on_send(self.rank, dest, tag)
            if fi.checksums and isinstance(payload, np.ndarray):
                # checksummed before in-flight corruption is applied
                checksum = payload_checksum(payload)
            if eff.corrupt_mode is not None and isinstance(payload, np.ndarray):
                if corrupt_array(payload, eff.corrupt_mode, eff.corrupt_seed):
                    self.obs.incr("faults.corrupted")
            if eff.delay > 0.0:
                extra_delay = eff.delay
                self.obs.incr("faults.delayed")
                self.obs.incr("faults.delay_s", eff.delay)
            if eff.drops:
                drops = eff.drops
                self.obs.incr("faults.dropped", eff.drops)
            if eff.reorder:
                front = True
                self.obs.incr("faults.reordered")

        self.vtime += self.network.send_overhead
        arrival = (
            self.vtime
            + self.network.msg_time(self.rank, dest, nbytes)
            + extra_delay
        )
        self._sim.mailbox(dest).put(
            self.rank,
            tag,
            _Message(payload, arrival, seq=seq, checksum=checksum, drops=drops),
            front=front,
        )
        return Request(
            "send", dest, tag, complete_vtime=self.vtime, done=True, seq=seq
        )

    def irecv(self, source: int, tag: int = 0) -> Request:
        """Nonblocking receive; the payload is available after ``wait``."""
        if not (0 <= source < self.size):
            raise ValueError(f"invalid source rank {source}")
        key = (source, tag)
        seq = self._recv_seq.get(key, 0)
        self._recv_seq[key] = seq + 1
        return Request("recv", source, tag, seq=seq)

    def wait(self, req: Request) -> Any:
        """Complete one request; returns the payload for receives.

        Idempotent: waiting an already-completed request (including a
        second ``wait`` on the same handle) returns the cached payload
        without advancing the clock or double-counting bytes.
        """
        if req.done:
            return req.payload
        t0 = self.vtime
        msg = self._sim.mailbox(self.rank).get(req.peer, req.tag, req.seq)
        req.payload = msg.payload
        nbytes = _nbytes(req.payload)
        complete = max(self.vtime, msg.arrival_vtime)
        if msg.drops:
            complete = self._recover_dropped(req, msg, nbytes, complete)
        if msg.checksum is not None and isinstance(req.payload, np.ndarray):
            if payload_checksum(req.payload) != msg.checksum:
                self.obs.incr("faults.checksum_fail")
                self.obs.event(
                    f"fault.checksum<-{req.peer}",
                    t0,
                    complete,
                    kind="fault",
                    bytes=nbytes,
                )
        req.complete_vtime = complete
        req.done = True
        self.vtime = complete
        self.obs.incr("comm.bytes_recv", nbytes)
        self.obs.incr("comm.msgs_recv")
        self.obs.record("comm.wait", vtime=self.vtime - t0)
        if self.obs.trace_enabled:
            self.obs.event(
                f"wait<-{req.peer}", t0, self.vtime, kind="wait", bytes=nbytes
            )
        return req.payload

    def _recover_dropped(
        self, req: Request, msg: _Message, nbytes: int, complete: float
    ) -> float:
        """Timeout + bounded-retry recovery of a dropped message.

        Each injected drop costs the receiver a modeled ``retry_timeout``
        (loss detection) plus one retransmission; past ``max_retries`` the
        message is declared lost and the rank fails.
        """
        fi = self._faults
        max_retries = fi.max_retries if fi is not None else 0
        if msg.drops >= max_retries:
            raise MessageLostError(
                f"message {req.peer}->{self.rank} tag {req.tag} lost: "
                f"dropped {msg.drops}x, max_retries={max_retries}"
            )
        retry_cost = msg.drops * (
            fi.retry_timeout + self.network.msg_time(req.peer, self.rank, nbytes)
        )
        self.obs.incr("faults.retries", msg.drops)
        self.obs.event(
            f"fault.retry<-{req.peer}",
            complete,
            complete + retry_cost,
            kind="fault",
            retries=msg.drops,
        )
        return complete + retry_cost

    def waitall(self, reqs: list[Request]) -> list[Any]:
        """Complete all requests; the clock advances to the latest.

        Payloads come back in *request* order — sequence-numbered matching
        keeps this stable even when a fault plan reorders the physical
        delivery of same-edge messages.
        """
        return [self.wait(r) for r in reqs]

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        self.wait(self.isend(payload, dest, tag))

    def recv(self, source: int, tag: int = 0) -> Any:
        return self.wait(self.irecv(source, tag))

    # ------------------------------------------------------------------
    # collectives (deterministic reduction order)
    # ------------------------------------------------------------------

    def barrier(self) -> None:
        times = self._sim.exchange(self.rank, self.vtime)
        self.vtime = max(times) + self.network.barrier_time(self.size)

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        """Allreduce of a scalar or ndarray, reduced in rank order."""
        entries = self._sim.exchange(self.rank, (self.vtime, value))
        times, vals = zip(*entries)
        result = _reduce(vals, op)
        self.vtime = max(times) + self.network.allreduce_time(
            self.size, _nbytes(vals[0])
        )
        return result

    def allgather(self, value: Any) -> list[Any]:
        entries = self._sim.exchange(self.rank, (self.vtime, value))
        tmax = max(t for t, _ in entries)
        total = sum(_nbytes(v) for _, v in entries)
        self.vtime = tmax + self.network.allreduce_time(self.size, total)
        return [v for _, v in entries]

    def bcast(self, value: Any, root: int = 0) -> Any:
        entries = self._sim.exchange(self.rank, (self.vtime, value))
        tmax = max(t for t, _ in entries)
        self.vtime = tmax + self.network.allreduce_time(
            self.size, _nbytes(entries[root][1])
        )
        return entries[root][1]

    def alltoall(self, per_dest: list[Any]) -> list[Any]:
        """Personalized all-to-all: entry ``d`` goes to rank ``d``."""
        if len(per_dest) != self.size:
            raise ValueError("alltoall needs one entry per rank")
        entries = self._sim.exchange(self.rank, (self.vtime, per_dest))
        tmax = max(t for t, _ in entries)
        received = [v[self.rank] for _, v in entries]
        total = sum(_nbytes(v) for v in received) + sum(
            _nbytes(v) for v in per_dest
        )
        self.vtime = tmax + self.network.allreduce_time(self.size, total)
        return received

    # ------------------------------------------------------------------
    # compute accounting
    # ------------------------------------------------------------------

    def compute(self, label: str = "compute") -> "_Compute":
        """Measure the enclosed local compute and advance the clock.

        Durations are measured with per-thread CPU time
        (``time.thread_time``), so concurrent sibling rank threads do not
        pollute each other's measurements.  The measured time is scaled by
        the simulator's ``compute_scale`` before advancing virtual time.
        """
        return _Compute(self, label)

    def advance(self, seconds: float, label: str = "modeled") -> None:
        """Advance virtual time by a modeled (not measured) duration.

        Modeled durations represent rank-local compute/device work, so a
        :class:`~repro.faults.plan.Straggler` rule scales them too.
        """
        if seconds < 0:
            raise ValueError("cannot advance time backwards")
        if self._compute_factor != 1.0:
            self.obs.incr(
                "faults.straggler_s", seconds * (self._compute_factor - 1.0)
            )
            seconds *= self._compute_factor
        v0 = self.vtime
        self.vtime += seconds
        self.obs.record(label, vtime=seconds)
        if self.obs.trace_enabled:
            self.obs.event(label, v0, self.vtime, kind="modeled")


class _Compute:
    """:meth:`Communicator.compute`'s context manager (every sweep)."""

    __slots__ = ("comm", "label", "t0", "w0", "v0")

    def __init__(self, comm: Communicator, label: str):
        self.comm = comm
        self.label = label

    def __enter__(self) -> Communicator:
        self.t0 = time.thread_time()
        self.w0 = time.perf_counter()
        self.v0 = self.comm.vtime
        return self.comm

    def __exit__(self, *exc) -> None:
        comm = self.comm
        dt = (time.thread_time() - self.t0) * comm._sim.compute_scale
        if comm._compute_factor != 1.0:
            comm.obs.incr(
                "faults.straggler_s", dt * (comm._compute_factor - 1.0)
            )
            dt *= comm._compute_factor
        comm.vtime += dt
        # the virtual-time delta includes nested modeled advances, so
        # hierarchical phases stay meaningful under compute_scale=0
        comm.obs.record(
            self.label, vtime=comm.vtime - self.v0,
            wall=time.perf_counter() - self.w0,
        )
        if comm.obs.trace_enabled:
            comm.obs.event(self.label, self.v0, comm.vtime)


def _reduce(vals: Sequence[Any], op: str) -> Any:
    if op == "sum":
        out = vals[0]
        if isinstance(out, np.ndarray):
            out = out.copy()
        for v in vals[1:]:
            out = out + v
        return out
    if op == "max":
        out = vals[0]
        for v in vals[1:]:
            out = np.maximum(out, v) if isinstance(out, np.ndarray) else max(out, v)
        return out
    if op == "min":
        out = vals[0]
        for v in vals[1:]:
            out = np.minimum(out, v) if isinstance(out, np.ndarray) else min(out, v)
        return out
    raise ValueError(f"unknown reduction op {op!r}")
