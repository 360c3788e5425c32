"""GPU simulation: stream scheduler semantics and the GPU operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpu import StreamScheduler
from repro.harness import run_solve
from repro.mesh import ElementType
from repro.perfmodel.machine import GpuModel
from repro.problems import elastic_bar_problem
from repro.problems import poisson_problem


def _assert_valid_timeline(s: StreamScheduler) -> None:
    """Engine serialization + per-stream (h2d -> kernel -> d2h) order."""
    by_engine: dict[str, list] = {"h2d": [], "kernel": [], "d2h": []}
    by_stream: dict[int, list] = {}
    for e in s.events:
        by_engine[e.kind].append(e)
        by_stream.setdefault(e.stream, []).append(e)
    # engines execute serially
    for evs in by_engine.values():
        evs.sort(key=lambda e: e.start)
        for a, b in zip(evs, evs[1:]):
            assert b.start >= a.end - 1e-15
    # within a stream: h2d -> kernel -> d2h per chunk, in order
    for evs in by_stream.values():
        evs.sort(key=lambda e: e.start)
        kinds = [e.kind for e in evs]
        assert kinds == ["h2d", "kernel", "d2h"] * (len(evs) // 3)


def test_stream_events_obey_engine_and_stream_order():
    s = StreamScheduler(n_streams=4)
    s.run_batch(h2d_bytes=1e6, kernel_flops=1e7, kernel_bytes=1e7, d2h_bytes=1e6)
    _assert_valid_timeline(s)


@given(st.integers(min_value=1, max_value=16))
def test_more_streams_never_slower(n):
    one = StreamScheduler(n_streams=1)
    one.run_batch(1e6, 1e7, 1e7, 1e6, n_chunks=16)
    many = StreamScheduler(n_streams=n)
    many.run_batch(1e6, 1e7, 1e7, 1e6, n_chunks=16)
    assert many.makespan <= one.makespan + 1e-12


def test_overlap_efficiency_bounds():
    s = StreamScheduler(n_streams=8)
    s.run_batch(1e7, 1e8, 1e8, 1e7)
    eff = s.overlap_efficiency()
    assert 1.0 <= eff <= 3.0  # three engines max


def test_single_stream_serializes():
    s = StreamScheduler(n_streams=1)
    s.run_batch(1e6, 1e7, 1e7, 1e6, n_chunks=4)
    total = sum(e.duration for e in s.events)
    np.testing.assert_allclose(s.makespan, total, rtol=1e-12)


def test_eight_streams_best_for_paper_workload():
    """§V-D: sweeping stream counts, more streams monotonically improve
    until the pipeline saturates (the paper picked 8)."""
    times = {}
    for ns in (1, 2, 4, 8):
        s = StreamScheduler(n_streams=ns)
        times[ns] = s.run_batch(
            h2d_bytes=5e8, kernel_flops=7e9, kernel_bytes=3.6e9, d2h_bytes=5e8,
            n_chunks=ns,
        )
    assert times[8] <= times[4] <= times[2] <= times[1]
    assert times[8] < 0.75 * times[1]


def test_invalid_stream_count():
    with pytest.raises(ValueError):
        StreamScheduler(n_streams=0)


def test_run_batch_rejects_invalid_chunking():
    s = StreamScheduler(n_streams=2)
    with pytest.raises(ValueError, match="n_chunks"):
        s.run_batch(1e6, 1e7, 1e7, 1e6, n_chunks=0)
    with pytest.raises(ValueError, match="kernel_scale"):
        s.run_batch(1e6, 1e7, 1e7, 1e6, n_chunks=4, kernel_scale=[1.0, 1.0])
    with pytest.raises(ValueError, match=">= 1"):
        s.run_batch(1e6, 1e7, 1e7, 1e6, n_chunks=2, kernel_scale=[1.0, 0.5])


def test_single_chunk_serializes_on_any_stream_count():
    s = StreamScheduler(n_streams=8)
    s.run_batch(1e6, 1e7, 1e7, 1e6, n_chunks=1)
    assert len(s.events) == 3
    assert {e.stream for e in s.events} == {0}
    np.testing.assert_allclose(
        s.makespan, sum(e.duration for e in s.events), rtol=1e-12
    )
    _assert_valid_timeline(s)


def test_zero_byte_chunks_cost_only_launch_overhead():
    """Empty transfers pipeline cleanly; kernels still pay the launch."""
    s = StreamScheduler(n_streams=4)
    ms = s.run_batch(0.0, 0.0, 0.0, 0.0, n_chunks=4)
    assert len(s.events) == 12
    for e in s.events:
        if e.kind in ("h2d", "d2h"):
            assert e.duration == 0.0
    # four zero-size kernels on one serial compute engine
    np.testing.assert_allclose(ms, 4 * s.gpu.kernel_launch_s, rtol=1e-12)
    _assert_valid_timeline(s)


def test_more_streams_than_chunks_leaves_streams_idle():
    s = StreamScheduler(n_streams=8)
    s.run_batch(1e6, 1e7, 1e7, 1e6, n_chunks=3)
    assert {e.stream for e in s.events} == {0, 1, 2}
    _assert_valid_timeline(s)


def test_straggler_chunk_stretches_timeline_consistently():
    """A slowed chunk (kernel_scale > 1) delays the makespan and scales
    exactly its own kernel; the pipeline invariants survive."""
    base = StreamScheduler(n_streams=4)
    base.run_batch(1e6, 1e7, 1e7, 1e6, n_chunks=8)
    slow = StreamScheduler(n_streams=4)
    scale = [1.0] * 8
    scale[5] = 4.0
    slow.run_batch(1e6, 1e7, 1e7, 1e6, n_chunks=8, kernel_scale=scale)

    def kernel(s, chunk):
        return next(
            e for e in s.events if e.kind == "kernel" and e.chunk == chunk
        )

    assert slow.makespan > base.makespan
    np.testing.assert_allclose(
        kernel(slow, 5).duration, 4.0 * kernel(base, 5).duration, rtol=1e-12
    )
    np.testing.assert_allclose(
        kernel(slow, 0).duration, kernel(base, 0).duration, rtol=1e-12
    )
    _assert_valid_timeline(slow)


def test_uniform_kernel_scale_one_changes_nothing():
    a = StreamScheduler(n_streams=3)
    a.run_batch(1e6, 1e7, 1e7, 1e6, n_chunks=6)
    b = StreamScheduler(n_streams=3)
    b.run_batch(1e6, 1e7, 1e7, 1e6, n_chunks=6, kernel_scale=[1.0] * 6)
    assert a.events == b.events


def test_timeline_render_contains_lanes():
    s = StreamScheduler(n_streams=2)
    s.run_batch(1e6, 1e7, 1e7, 1e6)
    txt = s.render_ascii(40)
    assert "s0:h2d" in txt and "s1:d2h" in txt and "makespan" in txt


@pytest.mark.parametrize("scheme", ["gpu", "gpu_cpu_overlap", "gpu_gpu_overlap"])
def test_gpu_schemes_solve_identically(scheme):
    spec = elastic_bar_problem(3, 3, ElementType.HEX20)
    out = run_solve(spec, "hymv_gpu", precond="jacobi", rtol=1e-10,
                    scheme=scheme)
    ref = run_solve(spec, "hymv", precond="jacobi", rtol=1e-10)
    assert out.iterations == ref.iterations
    np.testing.assert_allclose(out.err_inf, ref.err_inf, rtol=1e-6)


def test_gpu_setup_includes_h2d_cost():
    from repro.harness import run_bench

    spec = poisson_problem(8, 2)
    cpu = run_bench(spec, "hymv", n_spmv=2)
    gpu = run_bench(spec, "hymv_gpu", n_spmv=2)
    assert "setup.ke_h2d" in gpu.breakdown
    assert gpu.breakdown["setup.ke_h2d"] > 0


def test_gpu_rejects_unknown_scheme():
    spec = poisson_problem(4, 1)
    with pytest.raises(ValueError):
        run_solve(spec, "hymv_gpu", precond="none", scheme="warp-drive")


def test_faster_gpu_model_gives_faster_vtime():
    from repro.harness import run_bench

    # single rank: no communication, so the SPMV virtual time is purely
    # the deterministic device model
    spec = poisson_problem(8, 1)
    slow = run_bench(spec, "hymv_gpu", n_spmv=5, gpu=GpuModel(mem_gbps=50.0))
    fast = run_bench(spec, "hymv_gpu", n_spmv=5, gpu=GpuModel(mem_gbps=800.0))
    assert fast.spmv_time < slow.spmv_time


def test_gpu_operator_single_element_ranks():
    """Boundary: one element per rank (every element is dependent, the
    independent device batch is empty) still matches the CPU operator."""
    from repro.core import HymvOperator
    from repro.fem import PoissonOperator
    from repro.gpu import HymvGpuOperator
    from repro.mesh import box_hex_mesh
    from repro.partition import build_partition
    from repro.simmpi import run_spmd

    mesh = box_hex_mesh(1, 1, 2)
    op = PoissonOperator()
    part = build_partition(mesh, 2, method="slab")
    x = np.random.default_rng(11).standard_normal(mesh.n_nodes)

    def prog(comm, lmesh, xo, gpu):
        cls = HymvGpuOperator if gpu else HymvOperator
        A = cls(comm, lmesh, op)
        return A.apply_owned(xo)

    args = [
        (part.local(r), x[part.ranges[r, 0]: part.ranges[r, 1]])
        for r in range(2)
    ]
    cpu, _ = run_spmd(2, prog, rank_args=args, gpu=False)
    gpu, _ = run_spmd(2, prog, rank_args=args, gpu=True)
    np.testing.assert_allclose(
        np.concatenate(gpu), np.concatenate(cpu), atol=1e-13
    )


def test_gpu_spmv_overlap_false_is_blocking():
    """``overlap=False`` maps onto the blocking ``"gpu"`` scheme even when
    the configured scheme overlaps: no independent device batch is
    recorded, and the product is bitwise that of a ``scheme="gpu"``
    operator.  (Blocking and overlapped products agree only to rounding:
    a dof touched by both element sets is summed in two groups.)"""
    from repro.fem import PoissonOperator
    from repro.gpu import HymvGpuOperator
    from repro.mesh import box_hex_mesh
    from repro.partition import build_partition
    from repro.simmpi import run_spmd

    mesh = box_hex_mesh(3, 3, 4)
    part = build_partition(mesh, 2, method="slab")
    x = np.random.default_rng(3).standard_normal(mesh.n_nodes)

    def prog(comm, lmesh, xo):
        A = HymvGpuOperator(comm, lmesh, PoissonOperator())
        B = HymvGpuOperator(comm, lmesh, PoissonOperator(), scheme="gpu")
        assert A.scheme == "gpu_gpu_overlap"
        u, v, w, b = (A.new_array() for _ in range(4))
        u.set_owned(xo)
        A.spmv(u, v)
        phases = comm.obs.phases
        n_indep = phases["spmv.gpu.independent"].count
        assert "spmv.gpu" not in phases
        A.spmv(u, w, overlap=False)
        assert phases["spmv.gpu.independent"].count == n_indep
        assert phases["spmv.gpu"].count == 1
        B.spmv(u, b)
        np.testing.assert_allclose(w.owned_flat, v.owned_flat, atol=1e-13)
        return np.array_equal(w.owned_flat, b.owned_flat)

    args = [
        (part.local(r), x[part.ranges[r, 0]: part.ranges[r, 1]])
        for r in range(2)
    ]
    res, _ = run_spmd(2, prog, rank_args=args)
    assert all(res)


@pytest.mark.parametrize("scheme", ["gpu", "gpu_cpu_overlap", "gpu_gpu_overlap"])
def test_gpu_solve_unchanged_under_noncorrupting_faults(scheme):
    """The GPU pipeline rides the same fault-tolerant exchange: delays,
    reordering and drop+retry leave every scheme's solve identical."""
    from repro.faults import Delay, Drop, FaultPlan, Reorder

    spec = poisson_problem(4, 4)
    ref = run_solve(spec, "hymv_gpu", precond="jacobi", rtol=1e-10,
                    scheme=scheme, return_solution=True)
    plan = FaultPlan(
        rules=(Delay(1e-4, tag=101), Reorder(period=2), Drop(tag=101)),
        seed=3,
    )
    out = run_solve(spec, "hymv_gpu", precond="jacobi", rtol=1e-10,
                    scheme=scheme, return_solution=True, faults=plan)
    np.testing.assert_array_equal(out.solution, ref.solution)
    assert out.iterations == ref.iterations
