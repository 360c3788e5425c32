"""Property-based tests of the simulated MPI runtime: random traffic
patterns against sequential references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simmpi import NetworkModel, run_spmd


@given(
    p=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=10)
def test_random_point_to_point_delivery(p, seed):
    """Random (dense) message pattern: every posted message is received
    exactly once with the right payload."""
    rng = np.random.default_rng(seed)
    # schedule[s][d] = list of payload seeds s sends to d
    schedule = [
        [list(rng.integers(0, 1000, size=rng.integers(0, 3)))
         for _ in range(p)]
        for _ in range(p)
    ]

    def prog(comm):
        me = comm.rank
        for d in range(p):
            for k, payload in enumerate(schedule[me][d]):
                comm.isend(np.array([payload, me, k]), d, tag=k)
        got = {}
        for s in range(p):
            for k, payload in enumerate(schedule[s][me]):
                data = comm.recv(s, tag=k)
                got[(s, k)] = data.tolist()
        return got

    res, _ = run_spmd(p, prog)
    for d in range(p):
        for s in range(p):
            for k, payload in enumerate(schedule[s][d]):
                assert res[d][(s, k)] == [payload, s, k]


@given(
    p=st.integers(min_value=1, max_value=6),
    vals=st.lists(
        st.floats(min_value=-100, max_value=100), min_size=6, max_size=6
    ),
)
@settings(max_examples=10)
def test_allreduce_matches_sequential(p, vals):
    def prog(comm):
        return comm.allreduce(vals[comm.rank])

    res, _ = run_spmd(p, prog)
    expected = sum(vals[:p])
    for r in res:
        np.testing.assert_allclose(r, expected, atol=1e-9)


@given(st.integers(min_value=2, max_value=6))
@settings(max_examples=6)
def test_barrier_synchronizes_clocks(p):
    def prog(comm):
        comm.advance(0.01 * (comm.rank + 1), "work")
        comm.barrier()
        return comm.vtime

    res, _ = run_spmd(p, prog)
    assert max(res) - min(res) < 1e-12
    assert min(res) >= 0.01 * p  # everyone waited for the slowest


def test_vtime_deterministic_across_runs_with_modeled_compute():
    """With compute_scale=0 and modeled advances, virtual times are
    bitwise reproducible run-to-run (regression guard for the
    deterministic mode used by the overlap ablation)."""
    from repro.core import HymvOperator
    from repro.problems import poisson_problem

    spec = poisson_problem(6, 3)

    def prog(comm, lmesh):
        A = HymvOperator(comm, lmesh, spec.operator, modeled_rate_gflops=0.1)
        u, v = A.new_array(), A.new_array()
        u.set_owned(np.ones(A.n_dofs_owned))
        for _ in range(3):
            A.spmv(u, v)
        return comm.vtime

    times = []
    for _ in range(3):
        res, _ = run_spmd(
            3, prog,
            rank_args=[(spec.partition.local(r),) for r in range(3)],
            compute_scale=0.0,
        )
        times.append(tuple(res))
    assert times[0] == times[1] == times[2]


def test_assembled_modeled_products_charge_two_flops_per_entry():
    """With a modeled rate, an assembled operator's products advance 2
    flops per stored entry per column (1-D, oracle and GEMM blocks
    alike), the same seconds run to run."""
    from repro.baselines.assembled import AssembledOperator
    from repro.problems import poisson_problem

    spec = poisson_problem(6, 3)
    rate = 0.1

    def prog(comm, lmesh):
        A = AssembledOperator(
            comm, lmesh, spec.operator, modeled_rate_gflops=rate
        )
        u, v = A.new_array(), A.new_array()
        u.set_owned(np.ones(A.n_dofs_owned))
        A.spmv(u, v)
        U, V = A.work_multivectors(4)
        for mode in ("oracle", "gemm"):
            A.spmv_multi(U, V, mode=mode)
        return comm.obs.as_dict()["spmv.csr.modeled"], A.nnz

    runs = [
        run_spmd(
            3, prog,
            rank_args=[(spec.partition.local(r),) for r in range(3)],
            compute_scale=0.0,
        )[0]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    for charged, nnz in runs[0]:
        assert charged == pytest.approx(9 * 2.0 * nnz / (rate * 1e9))


def test_solve_charges_the_setup_model_once_per_rank():
    from repro.harness.driver import run_solve
    from repro.problems import poisson_problem

    spec = poisson_problem(4, 2)
    seen = []

    def model(A):
        seen.append(A.n_dofs_owned)
        return 0.25

    out = run_solve(spec, "hymv", compute_scale=0.0, setup_model=model)
    assert len(seen) == 2
    assert out.breakdown["setup.modeled"] == 0.25
    assert 0.25 <= out.setup_time < 0.25 + 1e-3


def test_network_hierarchy_affects_vtime():
    flat = NetworkModel(cores_per_node=1)  # everything inter-node
    packed = NetworkModel(cores_per_node=64)  # everything intra-node

    def prog(comm):
        if comm.rank == 0:
            comm.isend(np.zeros(100_000), 1)
            comm.barrier()
        else:
            comm.recv(0)
            comm.barrier()
        return comm.vtime

    _, s_flat = run_spmd(2, prog, network=flat)
    _, s_packed = run_spmd(2, prog, network=packed)
    # intra-node transport (higher latency but the defaults differ):
    # modeled times must simply differ according to the topology
    assert s_flat.max_vtime != s_packed.max_vtime


def test_collective_order_requirement_documented():
    """Mismatched collective sequences across ranks produce garbage or
    deadlock (here: abort via exception in one rank unblocks the rest)."""
    def prog(comm):
        if comm.rank == 0:
            raise RuntimeError("divergent control flow")
        comm.allreduce(1.0)

    with pytest.raises(RuntimeError, match="divergent"):
        run_spmd(3, prog)
