"""Simulated MPI runtime: semantics, determinism, virtual time."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simmpi import NetworkModel, Simulator, run_spmd


def test_point_to_point_roundtrip():
    def prog(comm):
        nxt, prv = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        comm.isend(np.arange(5) + comm.rank, nxt, tag=3)
        got = comm.recv(prv, tag=3)
        np.testing.assert_array_equal(got, np.arange(5) + prv)
        return True

    res, _ = run_spmd(6, prog)
    assert all(res)


def test_message_payload_is_copied():
    def prog(comm):
        if comm.rank == 0:
            buf = np.ones(4)
            comm.isend(buf, 1)
            buf[:] = -1.0  # mutate after send: receiver must see ones
            comm.barrier()
            return None
        got = comm.recv(0)
        comm.barrier()
        return got

    res, _ = run_spmd(2, prog)
    np.testing.assert_array_equal(res[1], np.ones(4))


def test_fifo_ordering_same_source_tag():
    def prog(comm):
        if comm.rank == 0:
            for i in range(5):
                comm.isend(np.array([i]), 1, tag=9)
            return None
        return [int(comm.recv(0, tag=9)[0]) for _ in range(5)]

    res, _ = run_spmd(2, prog)
    assert res[1] == [0, 1, 2, 3, 4]


def test_collectives_values_and_determinism():
    def prog(comm):
        s = comm.allreduce(comm.rank + 1.5)
        mx = comm.allreduce(float(comm.rank), op="max")
        mn = comm.allreduce(float(comm.rank), op="min")
        g = comm.allgather(comm.rank * 2)
        b = comm.bcast("hello" if comm.rank == 2 else None, root=2)
        return s, mx, mn, g, b

    for _ in range(3):  # determinism across repeated runs
        res, _ = run_spmd(5, prog)
        for s, mx, mn, g, b in res:
            assert s == sum(r + 1.5 for r in range(5))
            assert mx == 4.0 and mn == 0.0
            assert g == [0, 2, 4, 6, 8]
            assert b == "hello"


def test_one_rank_collectives_values_and_virtual_time():
    """With one participant the rendezvous hands a rank its own value
    back without a lock; every collective returns what it returned
    through the lock, and costs no virtual time (a one-rank collective's
    network time is 0)."""

    def prog(comm):
        comm.advance(1.5e-3)
        arr = np.arange(3.0)
        out = {
            "sum": comm.allreduce(2.5),
            "max": comm.allreduce(-1.0, op="max"),
            "min": comm.allreduce(4.0, op="min"),
            "arr": comm.allreduce(arr),
            "gather": comm.allgather((7, 8)),
            "bcast": comm.bcast("root"),
            "alltoall": comm.alltoall([arr]),
            "barrier": comm.barrier(),
        }
        return out, arr, comm.vtime

    (out, arr, vtime), = run_spmd(1, prog)[0]
    assert (out["sum"], out["max"], out["min"]) == (2.5, -1.0, 4.0)
    np.testing.assert_array_equal(out["arr"], arr)
    assert out["arr"] is not arr  # a reduction result is a fresh array
    assert out["gather"] == [(7, 8)]
    assert out["bcast"] == "root"
    assert len(out["alltoall"]) == 1 and out["alltoall"][0] is arr
    assert out["barrier"] is None
    assert vtime == 1.5e-3


def test_allreduce_array():
    def prog(comm):
        return comm.allreduce(np.full(3, float(comm.rank)))

    res, _ = run_spmd(4, prog)
    np.testing.assert_allclose(res[0], np.full(3, 6.0))


def test_alltoall_personalized():
    def prog(comm):
        out = comm.alltoall(
            [np.array([comm.rank * 100 + d]) for d in range(comm.size)]
        )
        return [int(v[0]) for v in out]

    res, _ = run_spmd(4, prog)
    for r, row in enumerate(res):
        assert row == [s * 100 + r for s in range(4)]


def test_exception_propagates_and_aborts_peers():
    def prog(comm):
        if comm.rank == 1:
            raise KeyError("rank1 failure")
        comm.recv(1)  # would deadlock without the abort path

    with pytest.raises(KeyError):
        run_spmd(3, prog)


def test_unreceived_messages_flagged():
    def prog(comm):
        if comm.rank == 0:
            comm.isend(np.zeros(1), 1)
        comm.barrier()

    with pytest.raises(RuntimeError, match="unreceived"):
        run_spmd(2, prog)


def test_virtual_time_monotone_and_message_causality():
    def prog(comm):
        marks = [comm.vtime]
        if comm.rank == 0:
            comm.advance(0.5, "work")
            comm.isend(np.zeros(1), 1)
            marks.append(comm.vtime)
        else:
            got = comm.recv(0)
            marks.append(comm.vtime)
        comm.barrier()
        marks.append(comm.vtime)
        return marks

    res, sim = run_spmd(2, prog)
    for marks in res:
        assert all(b >= a for a, b in zip(marks, marks[1:]))
    # receiver cannot complete before the send was posted (t=0.5)
    assert res[1][1] >= 0.5
    # barrier synchronizes clocks
    assert abs(res[0][-1] - res[1][-1]) < 1e-12


def test_overlap_reduces_total_time():
    def prog(comm, do_overlap):
        if comm.rank == 0:
            comm.isend(np.zeros(1_000_000), 1)
            comm.barrier()
        else:
            req = comm.irecv(0)
            if do_overlap:
                comm.advance(0.01, "compute")
                comm.wait(req)
            else:
                comm.wait(req)
                comm.advance(0.01, "compute")
            comm.barrier()

    _, s1 = run_spmd(2, prog, do_overlap=True)
    _, s2 = run_spmd(2, prog, do_overlap=False)
    assert s1.max_vtime < s2.max_vtime


def test_compute_context_measures_and_labels():
    def prog(comm):
        with comm.compute("kernel"):
            np.ones(200_000) @ np.ones(200_000)
        return comm.obs.total("kernel")

    res, _ = run_spmd(2, prog)
    assert all(t > 0 for t in res)


def test_compute_scale_applied():
    def prog(comm):
        with comm.compute("k"):
            np.ones(100_000) @ np.ones(100_000)
        return comm.vtime

    _, s1 = run_spmd(1, prog, compute_scale=1.0)
    _, s2 = run_spmd(1, prog, compute_scale=0.0)
    assert s2.max_vtime == 0.0
    assert s1.max_vtime > 0.0


def test_network_model_topology():
    net = NetworkModel(cores_per_node=4)
    assert net.same_node(0, 3) and not net.same_node(3, 4)
    intra = net.msg_time(0, 1, 8000)
    inter = net.msg_time(0, 5, 8000)
    assert inter > intra
    assert net.allreduce_time(1, 8) == 0.0
    assert net.allreduce_time(16, 8) == 4 * net.allreduce_time(2, 8)


def test_invalid_ranks_rejected():
    def prog(comm):
        with pytest.raises(ValueError):
            comm.isend(np.zeros(1), comm.size)
        with pytest.raises(ValueError):
            comm.irecv(-1)
        comm.barrier()

    run_spmd(2, prog)


def test_simulator_rank_bounds():
    with pytest.raises(ValueError):
        Simulator(0)
    with pytest.raises(ValueError):
        Simulator(100000)


def test_advance_rejects_negative():
    def prog(comm):
        with pytest.raises(ValueError):
            comm.advance(-1.0)

    run_spmd(1, prog)


def test_wait_is_idempotent():
    """A second wait on a completed request returns the cached payload
    without advancing the clock or double-counting traffic."""

    def prog(comm):
        if comm.rank == 0:
            sreq = comm.isend(np.arange(3, dtype=np.float64), 1, tag=4)
            comm.wait(sreq)
            comm.wait(sreq)  # double-wait on a send: no-op
            comm.barrier()
            return None
        req = comm.irecv(0, tag=4)
        first = comm.wait(req)
        t = comm.vtime
        msgs = comm.obs.counter("comm.msgs_recv")
        again = comm.wait(req)
        assert again is first  # cached payload, not a re-receive
        assert comm.vtime == t
        assert comm.obs.counter("comm.msgs_recv") == msgs
        comm.barrier()
        return first

    res, _ = run_spmd(2, prog)
    np.testing.assert_array_equal(res[1], np.arange(3.0))


def test_waitall_order_preserved_under_reorder_fault():
    """Sequence-numbered matching restores MPI's non-overtaking guarantee:
    even when a fault plan permutes physical delivery, waitall returns
    payloads in posted-request order."""
    from repro.faults import FaultPlan, Reorder

    def prog(comm):
        if comm.rank == 0:
            for i in range(3):
                comm.isend(np.array([float(i)]), 1, tag=7)
            comm.barrier()
            return comm.obs.counter("faults.reordered")
        reqs = [comm.irecv(0, tag=7) for _ in range(3)]
        vals = [float(v[0]) for v in comm.waitall(reqs)]
        comm.barrier()
        return vals

    plan = FaultPlan(rules=(Reorder(period=2, src=0, dst=1, tag=7),))
    res, _ = run_spmd(2, prog, faults=plan)
    assert res[0] == 1  # the second message physically overtook the first
    assert res[1] == [0.0, 1.0, 2.0]
