"""CUDA-stream pipeline scheduler (the mechanism behind Fig. 3).

A device executes chunked work through three serial engines — the H2D
copy engine, the compute engine, and the D2H copy engine.  Work items in
one stream are ordered (H2D → kernel → D2H per chunk); items in different
streams overlap freely subject to engine availability.  This is exactly
the model CUDA exposes (one copy engine per direction on Quadro parts,
one compute queue), and it reproduces the interleaved timeline the paper
profiles with eight streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.perfmodel.machine import GPU_NODE, GpuModel

__all__ = ["StreamEvent", "StreamScheduler"]


@dataclass(frozen=True)
class StreamEvent:
    """One scheduled operation on the device timeline."""

    stream: int
    kind: str  # "h2d" | "kernel" | "d2h"
    chunk: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class StreamScheduler:
    """Schedules chunked (H2D, kernel, D2H) triples over ``n_streams``.

    Chunks are issued round-robin to streams, as Algorithm 3 does with
    its ``Ns`` chunks of the element-matrix/vector arrays.
    """

    gpu: GpuModel = field(default_factory=lambda: GPU_NODE)
    n_streams: int = 8

    def __post_init__(self) -> None:
        if self.n_streams < 1:
            raise ValueError("need at least one stream")
        self.reset()

    def reset(self) -> None:
        self.events: list[StreamEvent] = []
        self._engine_free = {"h2d": 0.0, "kernel": 0.0, "d2h": 0.0}
        self._stream_free = [0.0] * self.n_streams
        self._t0 = 0.0

    def _issue(self, stream: int, kind: str, chunk: int, duration: float) -> float:
        start = max(self._engine_free[kind], self._stream_free[stream])
        end = start + duration
        self._engine_free[kind] = end
        self._stream_free[stream] = end
        self.events.append(StreamEvent(stream, kind, chunk, start, end))
        return end

    def run_batch(
        self,
        h2d_bytes: float,
        kernel_flops: float,
        kernel_bytes: float,
        d2h_bytes: float,
        n_chunks: int | None = None,
        kernel_scale: Sequence[float] | None = None,
    ) -> float:
        """Schedule a full batched EMV: the arrays are split into chunks
        (default: one per stream) and pipelined.  Returns the makespan.

        ``kernel_scale`` optionally multiplies the kernel duration of each
        chunk individually (length ``n_chunks``, factors >= 1) — a
        straggler-chunk model for fault-injection studies.
        """
        g = self.gpu
        if n_chunks is None:
            n_chunks = self.n_streams
        if n_chunks < 1:
            raise ValueError("n_chunks must be >= 1")
        if kernel_scale is not None:
            kernel_scale = list(kernel_scale)
            if len(kernel_scale) != n_chunks:
                raise ValueError(
                    f"kernel_scale has {len(kernel_scale)} entries "
                    f"for {n_chunks} chunks"
                )
            if any(f < 1.0 for f in kernel_scale):
                raise ValueError("kernel_scale factors must be >= 1")
        for c in range(n_chunks):
            s = c % self.n_streams
            self._issue(s, "h2d", c, h2d_bytes / n_chunks / (g.pcie_gbps * 1e9))
            t_k = max(
                kernel_bytes / n_chunks / (g.mem_gbps * 1e9),
                kernel_flops / n_chunks / (g.fp64_gflops * 1e9),
            ) + g.kernel_launch_s
            if kernel_scale is not None:
                t_k *= kernel_scale[c]
            self._issue(s, "kernel", c, t_k)
            self._issue(s, "d2h", c, d2h_bytes / n_chunks / (g.pcie_gbps * 1e9))
        return self.makespan

    @property
    def makespan(self) -> float:
        return max((e.end for e in self.events), default=0.0)

    def export_events(self, obs, t_offset: float = 0.0, prefix: str = "gpu"):
        """Append the scheduled device segments to an
        :class:`repro.obs.Instrumentation` event stream.

        Each segment becomes a ``{prefix}.s{stream}.{kind}`` interval of
        kind ``"gpu"`` offset by ``t_offset`` (the virtual time at which
        the batch was issued), so device pipelines line up with the rank
        timeline in :func:`repro.simmpi.trace.render_gantt` exports.
        """
        for e in self.events:
            obs.event(
                f"{prefix}.s{e.stream}.{e.kind}",
                t_offset + e.start,
                t_offset + e.end,
                kind="gpu",
                stream=e.stream,
                chunk=e.chunk,
            )

    def overlap_efficiency(self) -> float:
        """Serial-sum of all operations divided by the makespan (1.0 = no
        overlap; ~3.0 = perfect three-engine overlap)."""
        total = sum(e.duration for e in self.events)
        ms = self.makespan
        return total / ms if ms > 0 else 0.0

    def render_ascii(self, width: int = 72) -> str:
        """Fig. 3-style timeline: one row per (stream, engine) lane."""
        ms = self.makespan
        if ms == 0:
            return "(empty timeline)"
        sym = {"h2d": "H", "kernel": "K", "d2h": "D"}
        lanes: dict[tuple[int, str], list[str]] = {}
        for kind in ("h2d", "kernel", "d2h"):
            for s in range(self.n_streams):
                lanes[(s, kind)] = [" "] * width
        for e in self.events:
            a = int(e.start / ms * (width - 1))
            b = max(int(e.end / ms * (width - 1)), a + 1)
            row = lanes[(e.stream, e.kind)]
            for i in range(a, min(b, width)):
                row[i] = sym[e.kind]
        out = []
        for s in range(self.n_streams):
            for kind in ("h2d", "kernel", "d2h"):
                out.append(f"s{s}:{kind:6s} |" + "".join(lanes[(s, kind)]) + "|")
        out.append(f"makespan = {ms * 1e3:.3f} ms, "
                   f"overlap efficiency = {self.overlap_efficiency():.2f}x")
        return "\n".join(out)
