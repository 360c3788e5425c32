"""Candidate evaluation: virtual-time probes + perfmodel scoring.

Every config is scored by four deterministic sub-probes, each cached on
the exact knob subset it reads (so a hill-climb step that only moves
``n_streams`` never re-runs the serving probe):

* **serve** — a short open-loop workload through the real
  :class:`~repro.serve.service.SolverService` in virtual time
  (throughput, p99, per-request latency), under the config's
  :class:`~repro.serve.plan.ExecutionPlan` (GEMM crossover, backend
  crossover, SELL ``(C, sigma)`` layout);
* **solve** — one distributed CG solve in pure virtual time
  (fused vs classic iteration);
* **layout** — an exact SELL-C-sigma build of a reference stencil
  matrix (occupancy and stored bytes, the padding the memory objective
  charges);
* **model** — the perfmodel's GPU stream-pipeline costs
  (:func:`~repro.perfmodel.costs.gpu_spmv_time` and the SELL streamed-
  chunk branch) on the paper's Fig. 8 granularity, on a machine model
  optionally re-rated by the calibration stage.

The whole-config cache keys on the space fingerprint, so two configs
differing only in inactive knobs share one evaluation — the cache-hit
accounting the tuner reports and the hypothesis suite checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.sellcs import build_sellcs
from repro.fem.operators import ElasticityOperator
from repro.mesh.element import ElementType
from repro.perfmodel.costs import (
    CaseGeometry,
    gpu_spmv_time,
    sellcs_gpu_spmv_time,
)
from repro.tune.calibration import calibrated_machine
from repro.tune.pareto import Objectives
from repro.tune.space import SearchSpace

__all__ = ["BaseEvaluator", "EvalResult", "Evaluator"]

#: gated metrics (all minimized): the winner must be no worse than the
#: hand-picked default on every one of these
GATED_METRICS = (
    "serve.time_per_req_s",
    "serve.p99_s",
    "solve.vtime_s",
    "model.gpu_pipeline_s",
    "mem.bytes",
)


@dataclass(frozen=True)
class EvalResult:
    """One scored candidate."""

    fingerprint: str
    config: dict
    objectives: Objectives
    metrics: dict
    score: float
    cached: bool = False

    def as_trial(self, step: int, strategy: str) -> dict:
        return {
            "step": step,
            "strategy": strategy,
            "fingerprint": self.fingerprint,
            "config": dict(self.config),
            "objectives": self.objectives.to_dict(),
            "score": self.score,
            "cached": self.cached,
        }

    def as_winner(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "config": dict(self.config),
            "objectives": self.objectives.to_dict(),
            "metrics": dict(self.metrics),
            "score": self.score,
        }


def _score(metrics: dict) -> float:
    """Scalar rank: sum of log gated metrics (a geometric mean, so no
    single axis dominates by unit choice)."""
    return float(sum(math.log(max(metrics[k], 1e-300)) for k in GATED_METRICS))


class BaseEvaluator:
    """Fingerprint-keyed evaluation cache around an abstract probe.

    Subclasses implement ``_compute(config) -> metrics dict`` containing
    at least the :data:`GATED_METRICS` plus ``serve.throughput_rps``.
    Tests subclass this with an analytic stub; the real
    :class:`Evaluator` runs the harnesses.
    """

    def __init__(self, space: SearchSpace):
        self.space = space
        self.evaluations = 0
        self.cache_hits = 0
        self._cache: dict[str, EvalResult] = {}

    def evaluate(self, config: dict) -> EvalResult:
        config = self.space.normalize(config)
        fp = self.space.fingerprint(config)
        hit = self._cache.get(fp)
        if hit is not None:
            self.cache_hits += 1
            return EvalResult(
                fp, hit.config, hit.objectives, hit.metrics, hit.score,
                cached=True,
            )
        self.evaluations += 1
        metrics = self._compute(config)
        res = EvalResult(
            fingerprint=fp,
            config=config,
            objectives=Objectives(
                throughput_rps=metrics["serve.throughput_rps"],
                p99_s=metrics["serve.p99_s"],
                mem_bytes=metrics["mem.bytes"],
            ),
            metrics=metrics,
            score=_score(metrics),
        )
        self._cache[fp] = res
        return res

    def _compute(self, config: dict) -> dict:
        raise NotImplementedError


def _reference_stencil(n: int = 13) -> sp.csr_matrix:
    """A 3-D 27-point stencil on an ``n**3`` grid — the deterministic
    reference sparsity for layout probes (boundary rows are shorter, so
    ``(C, sigma)`` genuinely moves occupancy)."""
    one = sp.diags(
        [np.ones(n - 1), np.ones(n), np.ones(n - 1)], [-1, 0, 1],
        format="csr",
    )
    return sp.kron(sp.kron(one, one), one).tocsr()


class Evaluator(BaseEvaluator):
    """The real probe battery (virtual-time harness runs + perfmodel)."""

    #: dofs of the serving probe's hot key (poisson tet4 nel=4)
    _SERVE_DOFS = 125

    def __init__(self, space: SearchSpace, seed: int = 1234, calibrated=None):
        super().__init__(space)
        self.seed = seed
        self.calibrated = dict(calibrated) if calibrated else None
        self.machine = calibrated_machine(self.calibrated)
        self._serve_cache: dict = {}
        self._solve_cache: dict = {}
        self._layout_cache: dict = {}
        self._model_cache: dict = {}
        self._geo = CaseGeometry.from_granularity(
            ElementType.HEX8, ElasticityOperator(),
            dofs_per_process=1.0e6, n_ranks=2,
        )

    # -- sub-probes ----------------------------------------------------

    def _serve_probe(self, config: dict) -> dict:
        key = tuple(
            config[k]
            for k in (
                "max_batch", "queue_capacity", "cache_capacity",
                "gemm_k_min", "sellcs_crossover_dofs", "sell_c",
                "sell_sigma_factor",
            )
        )
        if key in self._serve_cache:
            return self._serve_cache[key]
        from repro.serve.cache import ProblemKey
        from repro.serve.loadgen import Workload, run_workload
        from repro.serve.plan import ExecutionPlan

        w = Workload(
            name="tune-probe",
            keys=(
                ProblemKey(problem="poisson", nel=3, n_parts=2,
                           etype="tet4", seed=1),
                ProblemKey(problem="poisson", nel=4, n_parts=2,
                           etype="tet4", seed=2),
            ),
            arrival="open",
            n_requests=24,
            rate_rps=20000.0,
            solve_frac=0.25,
            max_batch=config["max_batch"],
            queue_capacity=config["queue_capacity"],
            cache_capacity=config["cache_capacity"],
            plan=ExecutionPlan.from_tuned(config),
            verify=False,
        )
        sc = run_workload(w, seed=self.seed)
        lat = sc["latency_s"].get("all", {})
        thr = sc["throughput_rps"]
        out = {
            "serve.throughput_rps": thr,
            "serve.p99_s": float(lat.get("p99", 0.0)),
            "serve.time_per_req_s": 1.0 / thr if thr > 0 else float("inf"),
        }
        self._serve_cache[key] = out
        return out

    def _solve_probe(self, config: dict) -> dict:
        key = (config["fused_cg"],)
        if key in self._solve_cache:
            return self._solve_cache[key]
        from repro.harness.driver import run_solve
        from repro.problems import elastic_bar_problem

        # elastic needs ~130 CG iterations, so the fused iteration's
        # halved allreduce count shows up in the virtual solve time
        outcome = run_solve(
            elastic_bar_problem(4, 2, ElementType.HEX8), "hymv",
            rtol=1e-8, maxiter=400, compute_scale=0.0,
            cg_fused=config["fused_cg"],
        )
        out = {
            "solve.vtime_s": float(outcome.solve_time),
            "solve.iterations": int(outcome.iterations),
        }
        self._solve_cache[key] = out
        return out

    def _layout_probe(self, config: dict) -> dict:
        key = (config["sell_c"], config["sell_sigma_factor"])
        if key in self._layout_cache:
            return self._layout_cache[key]
        C = config["sell_c"]
        sellcs = build_sellcs(
            _reference_stencil(), C, config["sell_sigma_factor"] * C
        )
        out = {
            "layout.occupancy": float(sellcs.occupancy),
            "layout.stored_bytes": float(sellcs.stored_bytes()),
            "layout.bytes_per_dof": sellcs.stored_bytes() / sellcs.n_rows,
        }
        self._layout_cache[key] = out
        return out

    def _model_probe(self, config: dict, occupancy: float) -> dict:
        key = (
            config["n_streams"], config["gpu_chunks"], config["sell_c"],
            config["sell_sigma_factor"],
        )
        if key in self._model_cache:
            return self._model_cache[key]
        op = ElasticityOperator()
        t_hymv = gpu_spmv_time(
            self._geo, op, machine=self.machine,
            n_streams=config["n_streams"],
        )
        t_sell = sellcs_gpu_spmv_time(
            self._geo, op, machine=self.machine,
            n_streams=config["n_streams"], n_chunks=config["gpu_chunks"],
            C=config["sell_c"], occupancy=occupancy,
        )
        out = {
            "model.gpu_hymv_s": t_hymv,
            "model.gpu_sellcs_s": t_sell,
            "model.gpu_pipeline_s": min(t_hymv, t_sell),
        }
        self._model_cache[key] = out
        return out

    def _mem_model(self, config: dict, layout: dict) -> float:
        """Coarse resident-footprint model of the serving tier: cached
        operator contexts + queue slots + in-flight batch columns."""
        nd = self._SERVE_DOFS
        if config["sellcs_crossover_dofs"] > 0:
            # SELL routing keeps both layouts resident (assembled CSR +
            # sorted padded slices) — charge the measured per-dof rate
            ctx_bytes = nd * (27 * 12 + layout["layout.bytes_per_dof"])
        else:
            # HYMV: stored element matrices dominate (~2 CSR's worth)
            ctx_bytes = nd * 27 * 8 * 2
        return float(
            config["cache_capacity"] * ctx_bytes
            + config["queue_capacity"] * nd * 8
            + config["max_batch"] * nd * 8 * 2
        )

    # -- whole-config probe --------------------------------------------

    def _compute(self, config: dict) -> dict:
        metrics: dict = {}
        metrics.update(self._serve_probe(config))
        metrics.update(self._solve_probe(config))
        layout = self._layout_probe(config)
        metrics.update(layout)
        metrics.update(
            self._model_probe(config, layout["layout.occupancy"])
        )
        metrics["mem.bytes"] = self._mem_model(config, layout)
        return metrics
