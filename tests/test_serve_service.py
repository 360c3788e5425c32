"""Service-level tests: operator cache behaviour, dispatch correctness,
fault-policy state machine, and the end-to-end load harness contract
(schema-valid report, zero wrong answers — fault plan or not)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.scatter import SCATTER_TAG
from repro.faults.plan import Corrupt, Delay, FaultPlan
from repro.obs.instrumentation import Instrumentation
from repro.obs.schema import SERVE_SCHEMA, new_report, validate_report
from repro.serve.cache import OperatorCache, ProblemKey, SolverContext
from repro.serve.loadgen import Oracle, run_workload, suite_workloads
from repro.serve.queue import ServeRequest
from repro.serve.service import Completion, SolverService

KEY_A = ProblemKey(problem="poisson", nel=3, n_parts=2, etype="hex8")
KEY_B = ProblemKey(problem="poisson", nel=4, n_parts=2, etype="hex8")
KEY_C = ProblemKey(problem="poisson", nel=3, n_parts=2, etype="tet4", seed=3)


# ----------------------------------------------------------------------------
# ProblemKey / OperatorCache
# ----------------------------------------------------------------------------

def test_fingerprint_stable_and_distinct():
    assert KEY_A.fingerprint() == dataclasses.replace(KEY_A).fingerprint()
    fps = {k.fingerprint() for k in (KEY_A, KEY_B, KEY_C)}
    assert len(fps) == 3


def test_cache_hit_miss_eviction_lru():
    cache = OperatorCache(capacity=2, obs=Instrumentation(rank=-1))
    ctx_a, dt_a = cache.get(KEY_A)
    assert dt_a > 0  # a miss pays modeled setup time
    ctx_a2, dt_a2 = cache.get(KEY_A)
    assert ctx_a2 is ctx_a and dt_a2 == 0.0  # hit: setup amortized
    cache.get(KEY_B)
    cache.get(KEY_A)  # refresh A, so B is now LRU
    cache.get(KEY_C)  # evicts B
    assert KEY_B not in cache and KEY_A in cache and KEY_C in cache
    stats = cache.stats()
    assert stats == {
        "hits": 2, "misses": 3, "evictions": 1,
        "hit_rate": 2 / 5, "size": 2, "capacity": 2,
    }


def test_cache_invalidate_forces_rebuild():
    cache = OperatorCache(capacity=2)
    ctx, _ = cache.get(KEY_A)
    assert cache.invalidate(KEY_A)
    assert not cache.invalidate(KEY_A)  # already gone
    ctx2, dt = cache.get(KEY_A)
    assert ctx2 is not ctx and dt > 0


def test_context_batch_matches_singles_bitwise():
    ctx = SolverContext(KEY_A)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((ctx.n_dofs, 3))
    Y, _ = ctx.apply_multi(X)
    for j in range(3):
        yj, _ = ctx.apply_multi(np.ascontiguousarray(X[:, j:j + 1]))
        assert np.array_equal(Y[:, j], yj[:, 0])


def test_context_solve_satisfies_residual():
    ctx = SolverContext(KEY_A)
    F = np.random.default_rng(1).standard_normal((ctx.n_dofs, 2))
    out, dt = ctx.solve_multi(F, rtol=1e-8)
    assert all(out["converged"]) and dt > 0
    rel = ctx.residuals(F, out["x"])
    assert np.all(rel <= 1e-7)


# ----------------------------------------------------------------------------
# SolverService dispatch
# ----------------------------------------------------------------------------

def _request(rid, key=KEY_A, kind="spmv", **kw):
    return ServeRequest(rid=rid, key=key, kind=kind, seed=100 + rid, **kw)


def test_dispatch_spmv_batch_correct_answers():
    cache = OperatorCache(capacity=2)
    service = SolverService(cache, max_batch=4)
    for rid in range(3):
        assert service.submit(_request(rid))
    out = service.dispatch(now=0.0)
    assert out.batch_size == 3 and out.duration > 0
    ref, _ = cache.get(KEY_A)
    for c in out.completions:
        assert c.status == "ok"
        x = SolverService.input_vector(ref, c.request.seed)
        y, _ = ref.apply_multi(x[:, None])
        assert np.array_equal(c.value, y[:, 0])
    assert service.batch_histogram == {3: 1}


def test_dispatch_sheds_expired_and_queue_overflow():
    service = SolverService(OperatorCache(capacity=1), queue_capacity=2)
    assert service.submit(_request(0, deadline=1.0))
    assert service.submit(_request(1, deadline=5.0))
    assert not service.submit(_request(2))  # queue full -> shed
    out = service.dispatch(now=2.0)  # rid 0 expired by now
    assert [r.rid for r in out.expired] == [0]
    assert [c.request.rid for c in out.completions] == [1]
    obs = service.obs
    assert obs.counter("serve.rejected") == 1
    assert obs.counter("serve.shed_deadline") == 1
    assert obs.counter("serve.completed") == 1


def test_cancel_only_while_queued():
    service = SolverService(OperatorCache(capacity=1))
    service.submit(_request(0))
    assert service.cancel(0)
    assert not service.cancel(0)
    assert service.pending == 0
    assert service.dispatch(now=0.0).batch_size == 0


# ----------------------------------------------------------------------------
# the single-server timeline the event loop drives
# ----------------------------------------------------------------------------

def test_step_waits_for_busy_server():
    service = SolverService(OperatorCache(capacity=1))
    service.submit(_request(0))
    [out] = service.step(0.0)
    assert out.batch_size == 1 and out.end == out.duration > 0
    assert service.free_at == out.end and service.dispatches == 1
    service.submit(_request(1))
    assert service.step(out.end / 2) == []  # busy: no dispatch before free_at
    assert service.next_wakeup(out.end / 2) == out.end
    assert service.pending == 1
    [nxt] = service.step(out.end)
    assert nxt.batch_size == 1 and nxt.end == out.end + nxt.duration
    assert service.busy_s == out.duration + nxt.duration


def test_next_wakeup_inf_when_queue_empty():
    service = SolverService(OperatorCache(capacity=1))
    assert service.next_wakeup(0.0) == float("inf")
    assert service.step(0.0) == []
    service.submit(_request(0))
    service.step(0.0)  # busy until free_at, but nothing left queued
    assert service.free_at > 0
    assert service.next_wakeup(0.0) == float("inf")


def test_all_expired_dispatch_ends_now():
    service = SolverService(OperatorCache(capacity=1))
    service.submit(_request(0, deadline=1.0))
    [out] = service.step(2.0)
    assert [r.rid for r in out.expired] == [0]
    assert out.batch_size == 0 and out.end == 2.0
    assert service.free_at == 0.0 and service.dispatches == 0


# ----------------------------------------------------------------------------
# the answer oracle must reject wrong answers, not only accept right ones
# ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle():
    return Oracle(1)


def _answer(oracle, kind, perturb):
    """A completion for a ``kind`` request on KEY_A whose value is the
    reference answer passed through ``perturb``."""
    req = _request(0, kind=kind)
    ctx = oracle.context(KEY_A)
    x = SolverService.input_vector(ctx, req.seed)
    if kind == "spmv":
        value = ctx.apply_multi(x[:, None])[0][:, 0]
    else:
        value = ctx.solve_multi(x[:, None], rtol=req.rtol)[0]["x"][:, 0]
    return Completion(req, "ok", perturb(value.copy()))


def _one_ulp(v):
    i = int(np.argmax(np.abs(v)))
    v[i] = np.nextafter(v[i], np.inf)
    return v


def _rel_1e8(v):
    e = np.zeros_like(v)
    e[0] = 1e-8 * np.linalg.norm(v)
    return v + e


def _nan(v):
    v[0] = np.nan
    return v


def _scaled(v):
    # residual of 1.001 x is ~1e-3 relative: far past max(10 rtol, 1e-8)
    return v * 1.001


@pytest.mark.parametrize(
    "kind,perturb,exact,ok",
    [
        ("spmv", lambda v: v, True, True),
        ("spmv", lambda v: v, False, True),
        ("solve", lambda v: v, True, True),
        ("solve", lambda v: v, False, True),
        ("spmv", _one_ulp, True, False),
        ("spmv", _one_ulp, False, True),  # within SPMV_REL_TOL
        ("spmv", _rel_1e8, False, False),
        ("spmv", _nan, True, False),
        ("spmv", _nan, False, False),
        ("solve", _nan, True, False),
        ("solve", _nan, False, False),
        ("solve", _scaled, True, False),
        ("solve", _scaled, False, False),
    ],
    ids=[
        "spmv-true-exact", "spmv-true-tol", "solve-true-exact",
        "solve-true-tol", "spmv-1ulp-exact", "spmv-1ulp-tol",
        "spmv-rel1e-8-tol", "spmv-nan-exact", "spmv-nan-tol",
        "solve-nan-exact", "solve-nan-tol", "solve-residual-exact",
        "solve-residual-tol",
    ],
)
def test_oracle_verdicts(oracle, kind, perturb, exact, ok):
    assert oracle.check(_answer(oracle, kind, perturb), exact) is ok


# ----------------------------------------------------------------------------
# fault policy (deterministic, via a scripted context/cache)
# ----------------------------------------------------------------------------

class _ScriptedCtx:
    """Stand-in context whose fault signal follows a script."""

    def __init__(self, signals):
        self.n_dofs = 8
        self.faulted = True
        self._signals = list(signals)  # signal delta per apply_multi call
        self._sig = 0.0
        self.calls = 0

    def fault_signal(self):
        return self._sig

    def apply_multi(self, X, mode="auto"):
        self.calls += 1
        self._sig += self._signals.pop(0) if self._signals else 0.0
        return X * 2.0, 1e-3


class _ScriptedCache:
    def __init__(self, ctx):
        self.ctx = ctx
        self.obs = Instrumentation(rank=-1)
        self.invalidations = 0

    def get(self, key):
        return self.ctx, 0.0

    def invalidate(self, key):
        self.invalidations += 1
        return True


def test_corrupt_batch_retried_then_clean():
    ctx = _ScriptedCtx(signals=[1.0, 0.0])  # first attempt corrupt
    service = SolverService(_ScriptedCache(ctx))
    service.submit(_request(0))
    out = service.dispatch(now=0.0)
    assert ctx.calls == 2
    assert [c.status for c in out.completions] == ["ok"]
    assert service.obs.counter("serve.retries") == 1
    assert service.obs.counter("serve.corrupt_batches") == 1
    assert service.obs.counter("serve.completed") == 1


def test_persistent_corruption_fails_cleanly():
    ctx = _ScriptedCtx(signals=[1.0, 1.0, 1.0, 1.0])
    service = SolverService(_ScriptedCache(ctx))
    service.submit(_request(0))
    out = service.dispatch(now=0.0)
    assert [c.status for c in out.completions] == ["failed"]
    assert all(c.value is None for c in out.completions)
    assert service.obs.counter("serve.failed") == 1


class _ExplodingCtx(_ScriptedCtx):
    def __init__(self, failures):
        super().__init__(signals=[])
        self.failures = failures

    def apply_multi(self, X, mode="auto"):
        if self.failures:
            self.failures -= 1
            raise RuntimeError("simulated rank abort")
        return super().apply_multi(X)


def test_poisoned_context_rebuilt_then_recovers():
    ctx = _ExplodingCtx(failures=1)
    cache = _ScriptedCache(ctx)
    service = SolverService(cache)
    service.submit(_request(0))
    out = service.dispatch(now=0.0)
    assert [c.status for c in out.completions] == ["ok"]
    assert cache.invalidations == 1
    assert service.obs.counter("serve.rebuilds") == 1


# ----------------------------------------------------------------------------
# end-to-end: real fault plan, never a wrong answer
# ----------------------------------------------------------------------------

def test_faulted_service_never_wrong():
    plan = FaultPlan(
        rules=(
            Delay(1e-4, tag=SCATTER_TAG, jitter=5e-5),
            Corrupt("nan", src=0, dst=1, tag=SCATTER_TAG, skip=1, times=3),
        ),
        seed=5,
        checksums=True,
    )
    cache = OperatorCache(capacity=1, faults=plan)
    service = SolverService(cache, max_batch=4)
    ref = OperatorCache(capacity=1)
    n_ok = 0
    for rid in range(8):
        service.submit(_request(rid, kind="spmv" if rid % 2 else "solve"))
        out = service.dispatch(now=float(rid))
        rctx, _ = ref.get(KEY_A)
        for c in out.completions:
            if c.status != "ok":
                continue
            n_ok += 1
            x = SolverService.input_vector(rctx, c.request.seed)
            if c.request.kind == "spmv":
                y, _ = rctx.apply_multi(x[:, None])
                scale = float(np.linalg.norm(y[:, 0])) or 1.0
                assert float(
                    np.linalg.norm(c.value - y[:, 0])
                ) <= 1e-9 * scale
            else:
                rel = float(rctx.residuals(x[:, None], c.value[:, None])[0])
                assert np.isfinite(rel) and rel <= 1e-4
    assert n_ok > 0
    # solves under an active plan must have taken the degraded path
    assert service.obs.counter("serve.degraded") > 0


def test_run_workload_report_is_schema_valid_and_exact():
    clean, _gemm, faulted = suite_workloads("serve", seed=99, smoke=True)
    small = dataclasses.replace(clean, n_requests=12)
    sc = run_workload(small, seed=99)
    doc = new_report(SERVE_SCHEMA, {"seed": 99}, scenarios=[])
    doc["scenarios"].append(sc)
    validate_report(doc, SERVE_SCHEMA)
    r = sc["requests"]
    assert r["submitted"] == 12
    assert r["wrong_answers"] == 0
    assert (
        r["completed"] + r["rejected"] + r["shed_deadline"]
        + r["cancelled"] + r["failed"] == r["submitted"]
    )
    assert sum(sc["batch_histogram"].values()) > 0
    # determinism: same seed, same report (modeled time, seeded arrivals)
    assert run_workload(small, seed=99) == sc


def test_faulted_workload_zero_wrong_answers():
    _, _gemm, faulted = suite_workloads("serve", seed=7, smoke=True)
    small = dataclasses.replace(faulted, n_requests=10, n_clients=3)
    sc = run_workload(small, seed=7)
    assert sc["requests"]["wrong_answers"] == 0
    assert sc["counters"].get("faults.checksum_fail", 0) >= 0
    assert sc["requests"]["completed"] > 0


@pytest.mark.parametrize("bad", ["triangle", ""])
def test_problem_key_rejects_unknown_problem(bad):
    with pytest.raises((ValueError, KeyError)):
        ProblemKey(problem=bad).build_spec()


@pytest.mark.parametrize("field,bad", [("method", "bogus"), ("etype", "hex99")])
def test_malformed_key_build_raises_value_error(field, bad):
    """A key naming no operator kind or element type fails its build with
    a ValueError naming the bad value, not a KeyError from inside set-up."""
    cache = OperatorCache(capacity=1, obs=Instrumentation(rank=-1))
    with pytest.raises(ValueError, match=bad):
        cache.get(dataclasses.replace(KEY_A, **{field: bad}))


@pytest.mark.parametrize("field,bad", [("method", "bogus"), ("etype", "hex99")])
def test_unbuildable_key_fails_each_request_once(field, bad):
    """A batch whose key cannot be built is answered, not dropped: one
    failed Completion per request naming the bad value, no retry and no
    rebuild, and the request count balances.  A good key queued behind
    it is still served."""
    bad_key = dataclasses.replace(KEY_A, **{field: bad})
    service = SolverService(OperatorCache(capacity=2), max_batch=4)
    for rid in range(3):
        assert service.submit(_request(rid, key=bad_key))
    assert service.submit(_request(3))
    out = service.dispatch(now=0.0)
    assert [c.request.rid for c in out.completions] == [0, 1, 2]
    for c in out.completions:
        assert c.status == "failed" and bad in c.info["reason"]
    (good,) = service.dispatch(now=out.end).completions
    assert good.status == "ok" and service.pending == 0
    n = service.obs.counter
    assert n("serve.failed") == 3 and n("serve.completed") == 1
    assert n("serve.submitted") == (
        n("serve.completed") + n("serve.failed") + n("serve.rejected")
    )
    assert n("serve.retries") == n("serve.rebuilds") == 0


def test_completion_dataclass_defaults():
    c = Completion(_request(0), "failed")
    assert c.value is None and c.info == {}
