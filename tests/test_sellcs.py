"""SELL-C-sigma backend: bitwise identity to the assembled-CSR operator
across problems, ranks, batch widths and reassembly, and as a cached
serve-tier context."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines import AssembledOperator, SellCSOperator
from repro.core.hymv import HymvOperator
from repro.core.kernels import gemm_equivalence_rtol
from repro.obs.instrumentation import Instrumentation
from repro.problems import graph_laplacian_problem, poisson_problem
from repro.serve.cache import OperatorCache, ProblemKey
from repro.serve.queue import ServeRequest
from repro.serve.service import SolverService
from repro.simmpi import run_spmd

from .kernel_cases import SELL_LAYOUTS, SHAPES, spec


def _case(name, make, p, C=32, sigma=256, k=4, id=None):
    """One bitwise case; the default id is pytest's own for the
    ``(name, make, p)`` triple."""
    return pytest.param(
        name, make, p, C, sigma, k, id=id or f"{name}-{make.__name__}-{p}"
    )


def _bench_shape(case):
    return lambda p: spec(case)


CASES = [
    _case("poisson", lambda p: poisson_problem(5, n_parts=p), 3),
    _case("graphlap", lambda p: graph_laplacian_problem(6, n_parts=p, seed=2), 4),
] + [
    _case(case, _bench_shape(case), 1, C=C, sigma=sigma,
          id=f"{case}/sellcs-C{C}-s{sigma}-spmv")
    for case, C, sigma in SELL_LAYOUTS
] + [
    _case(case, _bench_shape(case), 1, k=k,
          id=f"{case}/sellcs-multirhs-k{k}-oracle")
    for case in SHAPES for k in (8, 32)
]


def _run_ranks(problem, p, prog, seed=11):
    """``prog(comm, lmesh, x_owned)`` on every rank of ``problem``."""
    nd = problem.operator.ndpn
    x = np.random.default_rng(seed).standard_normal(problem.n_dofs)
    args = [
        (
            problem.partition.local(r),
            x[problem.partition.ranges[r, 0] * nd:
              problem.partition.ranges[r, 1] * nd],
        )
        for r in range(p)
    ]
    return run_spmd(p, prog, rank_args=args)[0]


@pytest.mark.parametrize("name,make,p,C,sigma,k", CASES)
def test_sellcs_bitwise_identical_to_assembled(name, make, p, C, sigma, k):
    """Single- and oracle multi-RHS products equal bit for bit on every
    rank, FEM and graph-Laplacian sparsity alike, at any (C, sigma)."""
    spec = make(p)

    def prog(comm, lmesh, xo):
        A = AssembledOperator(comm, lmesh, spec.operator)
        S = SellCSOperator(comm, lmesh, spec.operator, C=C, sigma=sigma)
        rng = np.random.default_rng(7 + comm.rank)
        X = rng.standard_normal((A.n_dofs_owned, k))
        return (
            A.apply_owned(xo), S.apply_owned(xo),
            A.apply_owned_multi(X, mode="oracle"),
            S.apply_owned_multi(X, mode="oracle"),
        )

    for ya, ys, Ya, Ys in _run_ranks(spec, p, prog):
        assert np.array_equal(ya, ys)
        assert np.array_equal(Ya, Ys)


@pytest.mark.parametrize("make,p,k", [
    pytest.param(lambda p: graph_laplacian_problem(6, n_parts=p, seed=2), 2, 16,
                 id="graphlap-p2-k16"),
] + [
    pytest.param(_bench_shape(case), 1, k,
                 id=f"{case}/sellcs-multirhs-k{k}-gemm")
    for case in SHAPES for k in (8, 32)
])
def test_sellcs_gemm_within_derived_bound(make, p, k):
    """The chunk-matmul GEMM path agrees with the oracle within the
    derived accumulation-order bound: ``gemm_equivalence_rtol`` of the
    widest SELL chunk, relative to the ``|A| |X|`` magnitude scale (the
    oracle product of the absolute-valued matrix and ``|X|``)."""
    problem = make(p)

    def prog(comm, lmesh, xo):
        S = SellCSOperator(comm, lmesh, problem.operator)
        A_abs = AssembledOperator(comm, lmesh, problem.operator)
        for B in (A_abs.A_diag, A_abs.A_pre, A_abs.A_post):
            B.data[:] = np.abs(B.data)
        X = np.random.default_rng(7 + comm.rank).standard_normal(
            (S.n_dofs_owned, k)
        )
        width = max(int(b.widths[0]) for b in (S.S_diag, S.S_pre, S.S_post)
                    if b is not None and len(b.widths))
        return (
            S.apply_owned_multi(X, mode="oracle"),
            S.apply_owned_multi(X, mode="gemm"),
            A_abs.apply_owned_multi(np.abs(X), mode="oracle"),
            gemm_equivalence_rtol(width, k=k),
        )

    for Yo, Yg, scale, rtol in _run_ranks(problem, p, prog):
        bound = rtol * np.maximum(scale, np.finfo(np.float64).tiny)
        assert np.all(np.abs(Yg - Yo) <= bound)


def test_sellcs_cg_solution_matches_assembled():
    """CG through the SELL backend walks the identical iterate sequence:
    same iteration count, bitwise-equal solution."""
    from repro.harness.driver import run_solve

    spec = poisson_problem(5, n_parts=3)
    out_s = run_solve(spec, "sellcs", rtol=1e-8, return_solution=True)
    out_a = run_solve(spec, "assembled", rtol=1e-8, return_solution=True)
    assert out_s.converged and out_a.converged
    assert out_s.iterations == out_a.iterations
    assert np.array_equal(out_s.solution, out_a.solution)


def test_sellcs_survives_update_elements():
    """Value-only reassembly rebuilds the SELL blocks; products stay
    bitwise-identical to the reassembled CSR, and the padding gauges
    track the *current* layout instead of accumulating."""
    spec = graph_laplacian_problem(5, n_parts=1, seed=4)
    lmesh = spec.partition.local(0)

    def prog(comm, lm):
        A = AssembledOperator(comm, lm, spec.operator)
        S = SellCSOperator(comm, lm, spec.operator)
        pad0 = S.padded_nnz
        ids = np.arange(0, lm.n_local_elements, 3)
        scale = np.full(ids.size, 2.5)
        A.update_elements(ids, stiffness_scale=scale)
        S.update_elements(ids, stiffness_scale=scale)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(A.n_dofs_owned)
        counters = dict(comm.obs.snapshot()["counters"])
        return (
            A.apply_owned(x), S.apply_owned(x), pad0, S.padded_nnz,
            counters["sellcs.padded_nnz"],
        )

    (res,), _ = run_spmd(1, prog, rank_args=[(lmesh,)])
    ya, ys, pad0, pad1, gauge = res
    assert np.array_equal(ya, ys)
    assert pad1 == pad0  # value-only update: layout unchanged
    assert gauge == pad1  # the counter is a gauge, not a running sum


def test_sellcs_serve_context_bitwise_vs_assembled():
    """Through the serve cache, a sellcs context returns the same bits
    as an assembled context for the same problem key."""
    cache = OperatorCache(capacity=4, obs=Instrumentation(rank=-1))
    k_sell = ProblemKey(problem="graphlap", nel=4, n_parts=2,
                        etype="tet4", method="sellcs", seed=2)
    k_asm = dataclasses.replace(k_sell, method="assembled")
    ctx_s, _ = cache.get(k_sell)
    ctx_a, _ = cache.get(k_asm)
    assert ctx_s.n_dofs == ctx_a.n_dofs
    X = np.random.default_rng(0).standard_normal((ctx_s.n_dofs, 2))
    Ys, _ = ctx_s.apply_multi(X, mode="oracle")
    Ya, _ = ctx_a.apply_multi(X, mode="oracle")
    assert np.array_equal(Ys, Ya)


def test_backend_none_preserves_key():
    """The service runs every request on the operator kind its key
    names: a batch for a ``hymv`` key is served from (and cached under)
    that very key, never rerouted to ``sellcs``."""
    cache = OperatorCache(capacity=4, obs=Instrumentation(rank=-1))
    svc = SolverService(cache)
    key = ProblemKey(problem="poisson", nel=3, n_parts=2, etype="hex8")
    assert svc.submit(ServeRequest(rid=0, key=key, kind="spmv", seed=1,
                                   arrival=0.0))
    out = svc.dispatch(now=0.0)
    assert [c.status for c in out.completions] == ["ok"]
    assert len(cache) == 1
    ctx = cache.peek(key)
    assert ctx is not None and ctx.key is key
    assert all(isinstance(st["A"], HymvOperator) for st in ctx.ranks)
