"""repro.tune unit tests: the crossover selection rule on synthetic
timings, tuned configs as execution plans, and the ``tune`` harness
measuring the GEMM crossover and writing it as ``tuned_config.json``."""

from __future__ import annotations

import pytest

from repro.obs.schema import read_json
from repro.serve.plan import ExecutionPlan, PlanError, load_tuned_config
from repro.tune.calibration import GEMM_KS, crossovers


def _timings(gemm_wins=()):
    """Synthetic timings: GEMM beats the oracle at the ``k`` in
    ``gemm_wins``."""
    return {
        k: {"oracle": 1.0, "gemm": 0.5 if k in gemm_wins else 2.0}
        for k in GEMM_KS
    }


# ----------------------------------------------------------------------
# the selection rule
# ----------------------------------------------------------------------

class TestCrossovers:
    def test_gemm_never_wins_gives_no_k_min(self):
        assert "gemm_k_min" not in crossovers(_timings())

    def test_hymv_wins_every_shape_gives_no_crossover(self):
        # the config names the GEMM crossover and nothing else
        config = crossovers(_timings(gemm_wins=(8, 32)))
        assert config == {"gemm_k_min": 8}

    def test_k1_win_gives_k_min_1(self):
        assert crossovers(_timings(gemm_wins=(1, 8, 32)))["gemm_k_min"] == 1

    def test_a_tie_is_no_win(self):
        timings = _timings()
        timings[2]["gemm"] = timings[2]["oracle"]
        assert crossovers(timings) == {}


# ----------------------------------------------------------------------
# tuned configs as execution plans
# ----------------------------------------------------------------------

class TestServiceRoundTrip:
    def test_solver_service_accepts_tuned_artifact(self):
        from repro.serve.cache import OperatorCache
        from repro.serve.service import SolverService

        plan = ExecutionPlan.from_tuned({"gemm_k_min": 16})
        assert plan == ExecutionPlan(k_min=16)
        svc = SolverService(OperatorCache(capacity=2), plan=plan)
        assert svc.plan is plan

    def test_explicit_args_beat_tuned(self):
        # sizing is always the caller's: a tuned artifact carrying
        # max_batch / queue_capacity is rejected, and the plan leaves the
        # explicit (even default-valued) arguments alone
        from repro.serve.cache import OperatorCache
        from repro.serve.service import SolverService

        with pytest.raises(PlanError, match="max_batch, queue_capacity"):
            ExecutionPlan.from_tuned(
                {"max_batch": 4, "queue_capacity": 16, "gemm_k_min": 16}
            )
        plan = ExecutionPlan.from_tuned({"gemm_k_min": 16})
        svc = SolverService(
            OperatorCache(capacity=1), max_batch=8, queue_capacity=64,
            plan=plan,
        )
        assert svc.batcher.policy.max_batch == 8
        assert svc.queue.capacity == 64
        assert svc.plan.k_min == 16

    def test_zero_crossover_does_not_enable_routing(self):
        # a retired router key is rejected, never silently dropped
        with pytest.raises(PlanError, match="sellcs_crossover_dofs"):
            ExecutionPlan.from_tuned({"sellcs_crossover_dofs": 0})


# ----------------------------------------------------------------------
# harness: measurement -> tuned_config.json
# ----------------------------------------------------------------------

def _tune(tmp_path) -> int:
    from repro.harness.__main__ import main

    return main(["tune", "--quiet", "--tuned-out", str(tmp_path / "tuned.json")])


class TestHarness:
    def test_tuned_config_carries_measured_crossovers(self, tmp_path):
        """One live run: the written value is a measured ladder rung,
        and the artifact loads as the plan it names."""
        assert _tune(tmp_path) == 0
        config = read_json(tmp_path / "tuned.json")["config"]
        assert set(config) <= {"gemm_k_min"}
        assert config.get("gemm_k_min", GEMM_KS[0]) in GEMM_KS
        assert load_tuned_config(tmp_path / "tuned.json") == (
            ExecutionPlan.from_tuned(config)
        )

    def test_kernels_only_sets_only_k_min(self, tmp_path, monkeypatch):
        """The artifact holds only ``gemm_k_min`` and loads as the plan
        with that crossover."""
        import repro.tune.calibration as calibration

        monkeypatch.setattr(
            calibration, "measure", lambda: _timings(gemm_wins=(2, 8, 32))
        )
        assert _tune(tmp_path) == 0
        doc = read_json(tmp_path / "tuned.json")
        assert doc["config"] == {"gemm_k_min": 2}
        assert load_tuned_config(tmp_path / "tuned.json") == ExecutionPlan(
            k_min=2
        )
