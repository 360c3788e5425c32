"""repro.tune unit tests: calibration fitting, tuned configs as
execution plans, and the ``tune`` harness writing the measured crossovers
as ``tuned_config.json``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.schema import SERVE_SCHEMA, SchemaError, read_json
from repro.serve.plan import ExecutionPlan, load_tuned_config
from repro.tune.calibration import calibrated_machine, fit_machine_constants

KERNELS = "benchmarks/baseline/BENCH_kernels.json"
SELLCS = "benchmarks/baseline/BENCH_sellcs.json"


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
        pytest.param(json.dumps({"schema": SERVE_SCHEMA}), id="wrong-schema"),
    ])
    def test_bad_baseline_exits_2(self, tmp_path, capsys, content):
        from repro.harness.__main__ import main

        bad = tmp_path / "baseline.json"
        bad.write_text(content)
        out = tmp_path / "out"
        assert main([
            "tune", "--quiet", "--kernels-baseline", str(bad),
            "--tuned-out", str(out / "c.json"),
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
# tuned configs as execution plans
# ----------------------------------------------------------------------

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
# harness: calibration -> tuned_config.json
# ----------------------------------------------------------------------

def _tune(tmp_path, *args) -> int:
    from repro.harness.__main__ import main

    return main([
        "tune", "--quiet", "--tuned-out", str(tmp_path / "tuned.json"), *args,
    ])


class TestHarness:
    def test_tuned_config_carries_measured_crossovers(self, tmp_path):
        assert _tune(tmp_path) == 0
        k_min = read_json(KERNELS)["config"]["gemm_k_min_crossover"]
        crossover = read_json(SELLCS)["config"]["sellcs_crossover_dofs"]
        assert load_tuned_config(tmp_path / "tuned.json") == ExecutionPlan(
            k_min=k_min, backend="auto", sellcs_crossover_dofs=crossover,
        )

    def test_kernels_only_sets_only_k_min(self, tmp_path):
        assert _tune(
            tmp_path, "--sellcs-baseline", str(tmp_path / "nope.json")
        ) == 0
        k_min = read_json(KERNELS)["config"]["gemm_k_min_crossover"]
        doc = read_json(tmp_path / "tuned.json")
        assert doc["config"] == {"gemm_k_min": k_min}
        assert load_tuned_config(tmp_path / "tuned.json") == ExecutionPlan(
            k_min=k_min
        )

    def test_no_calibration_input_exits_2(self, tmp_path, capsys):
        kernels, sellcs = tmp_path / "k.json", tmp_path / "s.json"
        assert _tune(
            tmp_path, "--kernels-baseline", str(kernels),
            "--sellcs-baseline", str(sellcs),
        ) == 2
        err = capsys.readouterr().err
        assert str(kernels) in err and str(sellcs) in err
        assert not (tmp_path / "tuned.json").exists()
