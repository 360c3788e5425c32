"""repro.tune unit tests: search space semantics, calibration fitting,
tuned configs as execution plans, the evaluation cache, winner
selection, and the end-to-end harness doc."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.obs.schema import TUNE_SCHEMA, SchemaError, validate_report
from repro.serve.plan import ExecutionPlan
from repro.tune.calibration import calibrated_machine, fit_machine_constants
from repro.tune.evaluate import GATED_METRICS, BaseEvaluator
from repro.tune.pareto import Objectives, dominates, pareto_front
from repro.tune.space import SearchSpace, choice_knob, default_space, int_knob

KERNELS = "benchmarks/baseline/BENCH_kernels.json"
SELLCS = "benchmarks/baseline/BENCH_sellcs.json"


# ----------------------------------------------------------------------
# search space
# ----------------------------------------------------------------------

class TestSpace:
    def test_default_config_covers_every_knob(self):
        space = default_space()
        cfg = space.default_config()
        assert set(cfg) == {k.name for k in space.knobs}
        # the ISSUE's knob inventory is all present
        for name in (
            "n_streams", "gpu_chunks", "max_batch", "cache_capacity",
            "queue_capacity", "fused_cg", "gemm_k_min",
            "sellcs_crossover_dofs", "sell_c", "sell_sigma_factor",
        ):
            assert name in cfg

    def test_normalize_pins_inactive_knobs(self):
        space = default_space()
        cfg = dict(
            space.default_config(),
            sellcs_crossover_dofs=0, sell_c=8, sell_sigma_factor=2,
        )
        norm = space.normalize(cfg)
        # crossover 0 -> sellcs never routes -> (C, sigma) dead, pinned
        assert norm["sell_c"] == 32
        assert norm["sell_sigma_factor"] == 8
        # and the fingerprint collapses with the plain default
        assert space.fingerprint(cfg) == space.fingerprint(
            space.default_config()
        )

    def test_active_sell_knobs_survive_normalize(self):
        space = default_space()
        cfg = dict(
            space.default_config(),
            sellcs_crossover_dofs=1000, sell_c=8, sell_sigma_factor=2,
        )
        norm = space.normalize(cfg)
        assert norm["sell_c"] == 8
        assert norm["sell_sigma_factor"] == 2

    def test_off_grid_value_rejected(self):
        space = default_space()
        with pytest.raises(ValueError, match="not on the grid"):
            space.normalize(dict(space.default_config(), n_streams=3))

    def test_duplicate_knob_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SearchSpace(knobs=(
                choice_knob("a", (1, 2), 1), choice_knob("a", (3, 4), 3),
            ))

    def test_int_knob_log_grid(self):
        k = int_knob("x", 2, 64, default=8, log=True)
        assert k.values == (2, 4, 8, 16, 32, 64)

    def test_operators_stay_on_grid_and_are_seeded(self):
        space = default_space()
        rng1, rng2 = (np.random.default_rng(7) for _ in range(2))
        for _ in range(50):
            a, b = space.sample(rng1), space.sample(rng2)
            assert a == b  # same seed, same draw
            assert a == space.normalize(a)
        rng = np.random.default_rng(3)
        cfg = space.default_config()
        for _ in range(50):
            cfg = space.neighbor(cfg, rng)
            assert cfg == space.normalize(cfg)
            cfg = space.mutate(cfg, rng)
            assert cfg == space.normalize(cfg)


# ----------------------------------------------------------------------
# pareto
# ----------------------------------------------------------------------

class TestPareto:
    def test_dominates_is_strict(self):
        a = Objectives(10.0, 1.0, 100.0)
        assert not dominates(a, a)
        assert dominates(Objectives(11.0, 1.0, 100.0), a)
        assert dominates(a, Objectives(10.0, 2.0, 100.0))
        # trade-off: neither dominates
        b = Objectives(11.0, 2.0, 100.0)
        assert not dominates(a, b) and not dominates(b, a)

    def test_front_drops_dominated_and_dedups(self):
        class C:
            def __init__(self, fp, o):
                self.fingerprint, self.objectives = fp, o

        good = C("a", Objectives(10.0, 1.0, 100.0))
        bad = C("b", Objectives(9.0, 2.0, 200.0))
        dup = C("a", Objectives(10.0, 1.0, 100.0))
        front = pareto_front([bad, good, dup])
        assert [c.fingerprint for c in front] == ["a"]


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

class TestCalibration:
    def test_fit_from_checked_in_baselines(self):
        cal = fit_machine_constants(KERNELS, SELLCS)
        # every fitted rate is admissible (positive, finite, sane)
        for key in ("emv_gflops", "csr_gflops", "sellcs_gflops"):
            assert 0.01 < cal[key] < 1000.0
        for key in ("emv_overhead_s", "csr_overhead_s", "sellcs_overhead_s"):
            assert cal[key] >= 0.0
        assert 0.5 < cal["sellcs_occupancy"] <= 1.0
        assert cal["gemm_k_min"] == 2
        assert cal["sellcs_crossover_dofs"] == 4913
        # the calibrated model must order assembled-vs-sellcs the way
        # the measurements do on every case (the ISSUE's agreement gate)
        assert cal["rank_agreement"] == 1.0
        assert cal["n_points"] >= 6

    def test_fit_missing_reports_returns_none(self, tmp_path):
        assert fit_machine_constants(None, None) is None
        assert fit_machine_constants(tmp_path / "nope.json", None) is None

    def test_fit_skips_only_a_missing_report(self, tmp_path):
        cal = fit_machine_constants(tmp_path / "nope.json", SELLCS)
        assert cal["csr_gflops"] > 0 and "emv_gflops" not in cal
        bad = tmp_path / "bad.json"
        doc = json.loads(Path(KERNELS).read_text())
        bad.write_text(json.dumps(dict(doc, results=5)))
        with pytest.raises(SchemaError, match="results must be a list"):
            fit_machine_constants(bad, None)

    @pytest.mark.parametrize("content", [
        pytest.param("not json {", id="garbage"),
        pytest.param(json.dumps({"schema": TUNE_SCHEMA}), id="wrong-schema"),
    ])
    def test_bad_baseline_exits_2(self, tmp_path, capsys, content):
        from repro.harness.__main__ import main

        bad = tmp_path / "baseline.json"
        bad.write_text(content)
        out = tmp_path / "out"
        assert main([
            "tune", "--quiet", "--kernels-baseline", str(bad),
            "--out", str(out / "t.json"), "--tuned-out", str(out / "c.json"),
            "--bench-out", str(out / "b.json"),
        ]) == 2
        assert "[tune] error: " in capsys.readouterr().err
        assert not out.exists()

    def test_calibrated_machine_substitutes_rates(self):
        cal = fit_machine_constants(KERNELS, SELLCS)
        m = calibrated_machine(cal)
        assert m.rates.emv_gflops == pytest.approx(cal["emv_gflops"])
        assert m.rates.csr_gflops == pytest.approx(cal["csr_gflops"])
        # untouched constants survive
        assert m.dram_gbps == calibrated_machine(None).dram_gbps

    def test_affine_fit_clamps_negative_slope(self):
        from repro.tune.calibration import _affine_fit

        # fewer flops but MORE time: lstsq slope is negative, the
        # through-origin fallback must kick in
        a, b = _affine_fit([(2e6, 0.0008), (3e6, 0.0004)])
        assert a == 0.0 and b > 0.0


# ----------------------------------------------------------------------
# evaluation cache + service round-trip
# ----------------------------------------------------------------------

class _StubEvaluator(BaseEvaluator):
    """Analytic metrics — fast, deterministic, exercise the cache."""

    def __init__(self, space):
        super().__init__(space)
        self.computed: list[dict] = []

    def _compute(self, config):
        self.computed.append(config)
        thr = 1e4 / config["max_batch"]
        mem = float(
            config["cache_capacity"] * 1000 + config["queue_capacity"] * 8
        )
        m = {
            "serve.throughput_rps": thr,
            "serve.p99_s": 1e-4 * config["max_batch"],
            "serve.time_per_req_s": 1.0 / thr,
            "solve.vtime_s": 1e-3 if config["fused_cg"] else 2e-3,
            "model.gpu_pipeline_s": 1e-2 / config["n_streams"],
            "mem.bytes": mem,
        }
        assert set(GATED_METRICS) <= set(m)
        return m


class TestEvaluationCache:
    def test_cache_hits_and_counts(self):
        space = default_space()
        ev = _StubEvaluator(space)
        r1 = ev.evaluate(space.default_config())
        r2 = ev.evaluate(space.default_config())
        assert not r1.cached and r2.cached
        assert ev.evaluations == 1 and ev.cache_hits == 1
        assert len(ev.computed) == 1
        # cached result is identical in everything but the flag
        assert r1.fingerprint == r2.fingerprint
        assert r1.objectives == r2.objectives
        assert r1.score == r2.score

    def test_inactive_knobs_share_one_evaluation(self):
        space = default_space()
        ev = _StubEvaluator(space)
        base = dict(space.default_config(), sellcs_crossover_dofs=0)
        ev.evaluate(dict(base, sell_c=8))
        r = ev.evaluate(dict(base, sell_c=64, sell_sigma_factor=16))
        assert r.cached and ev.evaluations == 1


class TestServiceRoundTrip:
    def test_solver_service_accepts_tuned_artifact(self):
        from repro.serve.cache import OperatorCache
        from repro.serve.service import SolverService

        plan = ExecutionPlan.from_tuned({
            "max_batch": 4, "queue_capacity": 16, "gemm_k_min": 16,
            "sellcs_crossover_dofs": 1000, "sell_c": 8,
            "sell_sigma_factor": 2,
        })
        assert plan == ExecutionPlan(
            k_min=16, backend="auto", sellcs_crossover_dofs=1000,
            sell_c=8, sell_sigma=16,
        )
        svc = SolverService(OperatorCache(capacity=2), plan=plan)
        assert svc.plan is plan

    def test_explicit_args_beat_tuned(self):
        # sizing is always the caller's: a tuned artifact's max_batch /
        # queue_capacity never override explicit (even default-valued)
        # arguments
        from repro.serve.cache import OperatorCache
        from repro.serve.service import SolverService

        plan = ExecutionPlan.from_tuned(
            {"max_batch": 4, "queue_capacity": 16, "gemm_k_min": 16}
        )
        svc = SolverService(
            OperatorCache(capacity=1), max_batch=8, queue_capacity=64,
            plan=plan,
        )
        assert svc.batcher.policy.max_batch == 8
        assert svc.queue.capacity == 64
        assert svc.plan.k_min == 16

    def test_zero_crossover_does_not_enable_routing(self):
        plan = ExecutionPlan.from_tuned({"sellcs_crossover_dofs": 0})
        assert plan.backend is None and plan.sellcs_crossover_dofs is None


# ----------------------------------------------------------------------
# harness end-to-end (tiny budget)
# ----------------------------------------------------------------------

@pytest.mark.slow
class TestHarness:
    def test_run_tune_emits_valid_doc_and_winner_gate(self):
        from repro.tune.harness import run_tune

        doc = run_tune(
            seed=99, budget=4, kernels_baseline=KERNELS,
            sellcs_baseline=SELLCS, verbose=False,
        )
        validate_report(doc, TUNE_SCHEMA)
        d, w = doc["default"]["metrics"], doc["winner"]["metrics"]
        for key in GATED_METRICS:
            assert w[key] <= d[key]
        assert doc["evaluations"] >= 1
        assert len(doc["trajectory"]) == 3 * 4
        assert doc["calibrated"]["rank_agreement"] == 1.0
