"""repro.tune unit tests: the crossover selection rule on synthetic
timings, tuned configs as execution plans, and the ``tune`` harness
measuring the crossovers and writing them as ``tuned_config.json``."""

from __future__ import annotations

from repro.obs.schema import read_json
from repro.serve.plan import ExecutionPlan, load_tuned_config
from repro.tune.calibration import GEMM_KS, SHAPES, crossovers


def _timings(gemm_wins=(), sellcs_wins=()):
    """Synthetic timings: GEMM beats the oracle at the ``k`` in
    ``gemm_wins``, SELL beats HYMV on the shapes in ``sellcs_wins``."""
    return {
        "gemm": {
            k: {"oracle": 1.0, "gemm": 0.5 if k in gemm_wins else 2.0}
            for k in GEMM_KS
        },
        "sellcs": {
            name: {"n_dofs": 100 * (i + 1), "hymv": 1.0,
                   "sellcs": 0.5 if name in sellcs_wins else 1.5}
            for i, name in enumerate(SHAPES)
        },
    }


# ----------------------------------------------------------------------
# the selection rule
# ----------------------------------------------------------------------

class TestCrossovers:
    def test_gemm_never_wins_gives_no_k_min(self):
        assert "gemm_k_min" not in crossovers(_timings())

    def test_hymv_wins_every_shape_gives_no_crossover(self):
        config = crossovers(_timings(gemm_wins=(8, 32)))
        assert config == {"gemm_k_min": 8}

    def test_k1_win_gives_k_min_1(self):
        assert crossovers(_timings(gemm_wins=(1, 8, 32)))["gemm_k_min"] == 1

    def test_crossover_is_the_largest_winning_shape(self):
        names = list(SHAPES)
        config = crossovers(_timings(sellcs_wins=(names[0], names[2])))
        assert config == {"sellcs_crossover_dofs": 300}

    def test_a_tie_is_no_win(self):
        timings = _timings()
        timings["gemm"][2]["gemm"] = timings["gemm"][2]["oracle"]
        assert crossovers(timings) == {}


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
# harness: measurement -> tuned_config.json
# ----------------------------------------------------------------------

def _tune(tmp_path) -> int:
    from repro.harness.__main__ import main

    return main(["tune", "--quiet", "--tuned-out", str(tmp_path / "tuned.json")])


class TestHarness:
    def test_tuned_config_carries_measured_crossovers(self, tmp_path):
        """One live run: every written value is a measured ladder rung
        or shape size, and the artifact loads as the plan it names."""
        assert _tune(tmp_path) == 0
        config = read_json(tmp_path / "tuned.json")["config"]
        assert set(config) <= {"gemm_k_min", "sellcs_crossover_dofs"}
        assert config.get("gemm_k_min", GEMM_KS[0]) in GEMM_KS
        shape_dofs = {343, 729, 4913, 9261}  # SHAPES, smallest first
        crossover = config.get("sellcs_crossover_dofs")
        assert crossover is None or crossover in shape_dofs
        assert load_tuned_config(tmp_path / "tuned.json") == (
            ExecutionPlan.from_tuned(config)
        )

    def test_kernels_only_sets_only_k_min(self, tmp_path, monkeypatch):
        """HYMV fastest at every shape: the artifact holds only
        ``gemm_k_min`` and the plan routes no backend."""
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
