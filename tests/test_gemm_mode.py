"""GEMM execution mode: BLAS3 batched EMV vs the per-column oracle.

The oracle path is the verification reference — bitwise identical per
column to k single-RHS runs (tests/test_multirhs.py).  The GEMM path
reorders the elemental accumulation into one batched ``(nd, nd) @
(nd, k)`` matmul per element, so it matches the oracle to *rounding*,
not bitwise.  These tests pin down both sides of that contract:

* the drift is bounded by the **derived** rtol
  (:func:`repro.core.kernels.gemm_equivalence_rtol`) relative to the
  magnitude scale ``|K| |u|`` — a rigorous bound on every intermediate
  of either accumulation order, not a hand-tuned tolerance;
* ``mode="oracle"`` stays bitwise at any batch width;
* ``resolve_mode`` / ``SegmentScatter.add_into_multi`` / the serve
  layer's mode plumbing behave as specified.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    DEFAULT_K_MIN,
    EMV_MODES,
    EmvWorkspace,
    emv_columns,
    emv_einsum,
    gemm_equivalence_rtol,
    resolve_mode,
)
from repro.core.segment import SegmentScatter

from .kernel_cases import spec

# ----------------------------------------------------------------------------
# resolve_mode
# ----------------------------------------------------------------------------


def test_resolve_mode_auto_threshold():
    assert resolve_mode("auto", DEFAULT_K_MIN - 1) == "oracle"
    assert resolve_mode("auto", DEFAULT_K_MIN) == "gemm"
    assert resolve_mode("auto", 64) == "gemm"


def test_resolve_mode_explicit_passthrough():
    # explicit modes ignore k entirely
    assert resolve_mode("oracle", 1000) == "oracle"
    assert resolve_mode("gemm", 1) == "gemm"


def test_resolve_mode_k_min_override():
    assert resolve_mode("auto", 2, k_min=2) == "gemm"
    assert resolve_mode("auto", 2, k_min=3) == "oracle"
    # None -> DEFAULT_K_MIN
    assert resolve_mode("auto", DEFAULT_K_MIN, k_min=None) == "gemm"


@pytest.mark.parametrize("bad", ["blas3", "", "Oracle", None])
def test_resolve_mode_rejects_unknown(bad):
    with pytest.raises(ValueError):
        resolve_mode(bad, 4)


def test_emv_modes_tuple():
    assert EMV_MODES == ("oracle", "gemm", "auto")


# ----------------------------------------------------------------------------
# kernel-level equivalence (hypothesis property, both dtypes)
# ----------------------------------------------------------------------------

_KS = (1, 2, 3, 8, 32)


def _kernel_case(seed: int, nd: int, k: int, dtype):
    rng = np.random.default_rng(seed)
    E = 17
    ke = rng.standard_normal((E, nd, nd)).astype(dtype)
    ue = rng.standard_normal((E, nd, k)).astype(dtype)
    return ke, ue


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nd=st.sampled_from([4, 8, 24]),
    k=st.sampled_from(_KS),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_emv_gemm_within_derived_bound(seed, nd, k, dtype):
    ke, ue = _kernel_case(seed, nd, k, dtype)
    y_oracle = emv_einsum(ke, ue, mode="oracle")
    y_gemm = emv_einsum(ke, ue, mode="gemm")
    # magnitude scale: the oracle product of |K| and |u| bounds every
    # partial sum of either accumulation order entrywise
    y_abs = emv_einsum(np.abs(ke), np.abs(ue), mode="oracle")
    rtol = gemm_equivalence_rtol(nd, k=k, dtype=dtype)
    bound = rtol * np.maximum(y_abs, np.finfo(dtype).tiny)
    assert np.all(np.abs(y_gemm - y_oracle) <= bound)


@pytest.mark.parametrize("k", _KS)
def test_emv_columns_gemm_matches_einsum_gemm(k):
    ke, ue = _kernel_case(99, 8, k, np.float64)
    # in the 3-D gemm regime both kernel formulations degenerate to the
    # same batched matmul — bitwise identical
    assert np.array_equal(
        emv_columns(ke, ue, mode="gemm"), emv_einsum(ke, ue, mode="gemm")
    )


def test_emv_oracle_is_bitwise_per_column():
    ke, ue = _kernel_case(7, 8, 5, np.float64)
    y = emv_einsum(ke, ue, mode="oracle")
    for j in range(5):
        assert np.array_equal(y[:, :, j], emv_einsum(ke, ue[:, :, j]))


def test_emv_workspace_multi_views_cached():
    ws = EmvWorkspace(n_elements=10, nd=8)
    ue, ve = ws.multi_views(6, 4)
    assert ue.shape == (6, 8, 4) and ve.shape == (6, 8, 4)
    ue2, ve2 = ws.multi_views(4, 4)
    # same backing buffers, sliced shorter, and a narrower k views them
    assert ue2.base is ue.base and ve2.base is ve.base
    ue3, ve3 = ws.multi_views(6, 2)
    assert ue3.shape == (6, 8, 2)
    assert ue3.base is ue.base and ve3.base is ve.base


# ----------------------------------------------------------------------------
# SegmentScatter.add_into_multi
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("force_fallback", [False, True])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_add_into_multi_bitwise_per_column(force_fallback, k):
    rng = np.random.default_rng(5)
    idx = rng.integers(0, 40, size=(30, 6))
    vals = rng.standard_normal((30, 6, k))
    seg = SegmentScatter(idx, force_fallback=force_fallback)
    out_multi = rng.standard_normal((40, k))
    out_cols = out_multi.copy()
    seg.add_into_multi(out_multi, vals)
    seg1 = SegmentScatter(idx, force_fallback=force_fallback)
    for j in range(k):
        col = np.ascontiguousarray(out_cols[:, j])
        seg1.add_into(col, np.ascontiguousarray(vals[:, :, j]))
        out_cols[:, j] = col
    assert np.array_equal(out_multi, out_cols)


def test_add_into_multi_csr_and_fallback_identical():
    rng = np.random.default_rng(6)
    idx = rng.integers(0, 25, size=(20, 4))
    vals = rng.standard_normal((20, 4, 5))
    out_a = np.zeros((25, 5))
    out_b = np.zeros((25, 5))
    SegmentScatter(idx).add_into_multi(out_a, vals)
    SegmentScatter(idx, force_fallback=True).add_into_multi(out_b, vals)
    assert np.array_equal(out_a, out_b)


def test_add_into_multi_shape_validation():
    seg = SegmentScatter(np.arange(12).reshape(4, 3))
    vals = np.zeros((4, 3, 2))
    with pytest.raises(ValueError):
        seg.add_into_multi(np.zeros(12), vals)  # 1-D destination
    with pytest.raises(ValueError):
        seg.add_into_multi(np.zeros((12, 3)), vals)  # k mismatch
    with pytest.raises(IndexError):
        seg.add_into_multi(np.zeros((11, 2)), vals)  # destination too small


def test_add_into_multi_empty_structure():
    seg = SegmentScatter(np.empty((0, 3), dtype=np.int64))
    out = np.ones((5, 2))
    seg.add_into_multi(out, np.empty((0, 3, 2)))
    assert np.array_equal(out, np.ones((5, 2)))


# ----------------------------------------------------------------------------
# operator-level equivalence, all five kinds
# ----------------------------------------------------------------------------

K_OP = 8  # >= DEFAULT_K_MIN: "auto" resolves to gemm


def _jittered_elastic():
    from repro.fem import ElasticityOperator
    from repro.mesh import ElementType, jittered_hex_mesh
    from repro.partition import build_partition

    mesh = jittered_hex_mesh(3, 3, 3, ElementType.HEX8, jitter=0.25, seed=11)
    return mesh, ElasticityOperator(), build_partition(mesh, 4, method="graph")


def _bench_shape(case):
    return lambda: (spec(case).mesh, spec(case).operator, spec(case).partition)


def _operator_modes(kind: str, k: int, make):
    """Owned products of the oracle/gemm/auto modes plus, for operators
    that hold element matrices, the |K||u| magnitude scale (the oracle
    product of |Ke| and |u|), each rank's block stacked in rank order."""
    from repro.baselines import AssembledOperator, MatrixFreeOperator
    from repro.baselines.partial import PartialAssemblyOperator
    from repro.core import HymvOperator
    from repro.gpu import HymvGpuOperator
    from repro.simmpi import run_spmd

    factories = {
        "hymv": HymvOperator,
        "matfree": MatrixFreeOperator,
        "partial": PartialAssemblyOperator,
        "assembled": AssembledOperator,
        "hymv_gpu": HymvGpuOperator,
    }
    mesh, op, part = make()
    n = mesh.n_nodes * op.ndpn
    X = np.random.default_rng(31).standard_normal((n, k))

    def prog(comm, lmesh, Xr):
        A = factories[kind](comm, lmesh, op)
        out = {
            m: A.apply_owned_multi(Xr, mode=m)
            for m in ("oracle", "gemm", "auto")
        }
        if hasattr(A, "ke"):
            A_abs = factories[kind](comm, lmesh, op)
            A_abs.ke[:] = np.abs(A_abs.ke)
            out["scale"] = A_abs.apply_owned_multi(np.abs(Xr), mode="oracle")
        return out

    rank_args = []
    for r in range(part.n_parts):
        lm = part.local(r)
        rank_args.append((lm, X[lm.n_begin * op.ndpn: lm.n_end * op.ndpn]))
    results, _ = run_spmd(part.n_parts, prog, rank_args=rank_args)
    out = {m: np.vstack([res[m] for res in results]) for m in results[0]}
    return out, op.element_dofs(mesh.etype)


OPERATOR_CASES = [
    pytest.param(kind, K_OP, _jittered_elastic, id=kind)
    for kind in ("hymv", "matfree", "partial", "assembled", "hymv_gpu")
] + [
    pytest.param("hymv", k, _bench_shape("poisson-hex8-medium"),
                 id=f"poisson-hex8-medium/hymv-einsum-multirhs-k{k}-gemm")
    for k in (1, 2, 8, 32)
]


@pytest.mark.parametrize("kind,k,make", OPERATOR_CASES)
def test_operator_gemm_within_derived_bound(kind, k, make):
    out, ndpe = _operator_modes(kind, k, make)
    rtol = gemm_equivalence_rtol(ndpe, k=k)
    # the entrywise |K||u| scale bounds every intermediate of both
    # accumulation orders; operators without element matrices use the
    # norm-scale form, the oracle column magnitude
    scale = out.get("scale", np.max(np.abs(out["oracle"]), axis=0))
    err = np.abs(out["gemm"] - out["oracle"])
    assert np.all(err <= rtol * np.maximum(scale, np.finfo(np.float64).tiny))
    # "auto" IS the path resolve_mode picks at this k, bit for bit
    assert np.array_equal(out["auto"], out[resolve_mode("auto", k)])


# ----------------------------------------------------------------------------
# cg_multi under gemm
# ----------------------------------------------------------------------------


def _hymv_cg_multi_by_mode(k=8, rtol=1e-9):
    """Per-mode ``cg_multi`` results of a shifted HYMV Poisson system on
    2 ranks: ``{mode: [per-rank list of CGResult]}``."""
    from repro.core import HymvOperator
    from repro.problems import poisson_problem
    from repro.simmpi import run_spmd
    from repro.solvers.cg import cg_multi

    spec = poisson_problem(5, n_parts=2)
    F = np.random.default_rng(13).standard_normal((spec.n_dofs, k))

    def prog(comm, lmesh, Fr):
        A = HymvOperator(comm, lmesh, spec.operator)

        # the pure-Neumann Poisson matrix is singular (constant
        # nullspace); shift to the SPD K + I so lock-step CG converges
        def apply_shifted(X, mode="auto"):
            return A.apply_owned_multi(X, mode=mode) + X

        return {
            m: cg_multi(
                comm, lambda X, m=m: apply_shifted(X, mode=m), Fr, rtol=rtol
            )
            for m in ("oracle", "gemm")
        }

    rank_args = []
    for r in range(2):
        lm = spec.partition.local(r)
        rank_args.append((lm, F[lm.n_begin: lm.n_end]))
    results, _ = run_spmd(2, prog, rank_args=rank_args)
    return {m: [res[m] for res in results] for m in ("oracle", "gemm")}


def test_cg_multi_gemm_converges_to_oracle_solution():
    rtol = 1e-9
    by_mode = _hymv_cg_multi_by_mode(rtol=rtol)
    for ranks in by_mode.values():
        assert all(r.converged for res in ranks for r in res)
    X_o, X_g = (
        np.vstack([np.column_stack([r.x for r in res]) for res in ranks])
        for ranks in (by_mode["oracle"], by_mode["gemm"])
    )
    # both converged to rtol of the same system: iterates agree to the
    # solver tolerance (the elemental reordering only shifts last ulps
    # per matvec, amplified at most by the usual CG error constant)
    scale = np.max(np.abs(X_o), axis=0)
    assert np.all(np.max(np.abs(X_g - X_o), axis=0) <= 100 * rtol * scale)


def test_cg_multi_gemm_iterations_within_one_of_oracle():
    by_mode = _hymv_cg_multi_by_mode()
    it_o = [r.iterations for r in by_mode["oracle"][0]]
    it_g = [r.iterations for r in by_mode["gemm"][0]]
    assert all(abs(a - b) <= 1 for a, b in zip(it_o, it_g)), (it_o, it_g)


def test_cg_multi_vector_stage_is_mode_independent():
    """With an operator that ignores ``mode``, oracle and gemm solves
    are bitwise equal: CG's own (k, n) vector stage has no mode branch,
    so any gemm-mode drift comes from the operator alone."""
    from repro.simmpi import run_spmd
    from repro.solvers.cg import cg_multi
    from repro.solvers.preconditioners import JacobiPreconditioner

    n, k = 300, 8
    rng = np.random.default_rng(17)
    d = rng.uniform(1.0, 1e3, n)
    B = rng.standard_normal((n, k)) * np.logspace(0, 2, k)

    def apply_diag(P, mode="auto"):
        return d[:, None] * P

    def prog(comm):
        return {
            m: cg_multi(comm, lambda P, m=m: apply_diag(P, mode=m), B,
                        apply_M=JacobiPreconditioner(np.sqrt(d)),
                        rtol=1e-10, atol=1e-8)
            for m in ("oracle", "gemm")
        }

    res = run_spmd(1, prog)[0][0]
    assert len({r.iterations for r in res["oracle"]}) > 1  # staggered
    for o, g in zip(res["oracle"], res["gemm"]):
        assert np.array_equal(o.x, g.x)
        assert o.iterations == g.iterations
        assert o.residual_norms == g.residual_norms


# ----------------------------------------------------------------------------
# serve layer: mode plumbing, histogram, schema
# ----------------------------------------------------------------------------


def test_solver_service_rejects_unknown_mode():
    from repro.serve.plan import ExecutionPlan, PlanError

    with pytest.raises(PlanError, match="execution mode"):
        ExecutionPlan(mode="blas3")


def test_run_workload_records_modes():
    from repro.serve.loadgen import run_workload, suite_workloads

    _clean, gemm, _faulted = suite_workloads("serve", seed=5, smoke=True)
    sc = run_workload(gemm, seed=5)
    assert sc["requests"]["wrong_answers"] == 0
    assert "gemm" in sc["modes"] and sc["modes"]["gemm"] > 0
    assert sum(sc["modes"].values()) == sum(sc["batch_histogram"].values())


def test_forced_oracle_workload_never_runs_gemm():
    import dataclasses

    from repro.serve.loadgen import run_workload, suite_workloads
    from repro.serve.plan import ExecutionPlan

    _clean, gemm, _faulted = suite_workloads("serve", seed=5, smoke=True)
    forced = dataclasses.replace(gemm, name="open-forced-oracle",
                                 plan=ExecutionPlan(mode="oracle"))
    sc = run_workload(forced, seed=5)
    assert set(sc["modes"]) <= {"oracle", "degraded"}


def test_serve_schema_v2_requires_modes():
    from tests.test_bench_compare import assert_rejected

    # a report without "modes" is rejected, and v1/v2 documents are no
    # longer read
    for case_id in ("serve-no-modes", "serve-modes-not-object", "serve-v1",
                    "serve-v2"):
        assert_rejected(case_id)


def test_load_calibrated_k_min_roundtrip(tmp_path):
    """A tuned GEMM crossover reaches the service's per-batch mode
    resolution through the one loader: a 2-wide batch runs GEMM under
    ``gemm_k_min=2`` and the oracle under the default plan."""
    import json

    from repro.obs.instrumentation import Instrumentation
    from repro.obs.schema import TUNE_CONFIG_SCHEMA
    from repro.serve.cache import ProblemKey
    from repro.serve.plan import ExecutionPlan, load_tuned_config
    from repro.serve.queue import ServeRequest
    from repro.serve.service import SolverService

    class _Ctx:
        n_dofs = 4
        faulted = False

        def fault_signal(self):
            return 0.0

        def apply_multi(self, X, mode="auto"):
            return X.copy(), 0.0

    class _Cache:
        obs = Instrumentation(rank=-1)

        def get(self, key):
            return _Ctx(), 0.0

    p = tmp_path / "tuned_config.json"
    p.write_text(json.dumps(
        {"schema": TUNE_CONFIG_SCHEMA, "config": {"gemm_k_min": 2}}
    ))
    for plan, expect in ((load_tuned_config(p), "gemm"),
                         (ExecutionPlan(), "oracle")):
        svc = SolverService(_Cache(), plan=plan)
        for rid in range(2):
            assert svc.submit(ServeRequest(rid=rid, key=ProblemKey(),
                                           kind="spmv", seed=rid))
        assert svc.dispatch(now=0.0).batch_size == 2
        assert svc.mode_histogram == {expect: 1}
