"""``python -m repro.harness tune`` — the autotuner entry point.

Pipeline: calibrate the perfmodel from the checked-in measured reports,
run the seeded strategy battery over the full search space, keep the
Pareto front over (throughput, p99, memory), and pick the winner — the
best-scoring config that is **no worse than the hand-picked default on
every gated metric** (the default itself always qualifies, so the
winner can never regress it).  Everything runs in virtual time or
against the cost model, so the ``TUNE_report.json`` is bit-reproducible
given the seed — the CI determinism gate diffs two runs.

Artifacts:

* ``TUNE_report.json`` — schema ``repro.tune/1``: the full trajectory,
  Pareto front, calibrated constants, default and winner;
* ``tuned_config.json`` — schema ``repro.tune-config/1``: just the
  winning knobs; :func:`repro.serve.plan.load_tuned_config` turns it
  into the :class:`~repro.serve.plan.ExecutionPlan` the serve/shard
  harnesses run under with ``--tuned-from``;
* ``BENCH_tune.json`` — the standard bench projection so
  ``repro.obs.compare`` can gate default-vs-winner phases against a
  checked-in baseline.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.obs.schema import (
    BENCH_SCHEMA,
    TUNE_CONFIG_SCHEMA,
    TUNE_SCHEMA,
    SchemaError,
    new_report,
    point_phase,
    validate_report,
    write_report,
)
from repro.tune.calibration import fit_machine_constants
from repro.tune.evaluate import GATED_METRICS, EvalResult, Evaluator
from repro.tune.pareto import pareto_front
from repro.tune.space import default_space
from repro.tune.strategies import run_search

__all__ = ["main", "run_tune"]

_DEFAULT_KERNELS = pathlib.Path("benchmarks/baseline/BENCH_kernels.json")
_DEFAULT_SELLCS = pathlib.Path("benchmarks/baseline/BENCH_sellcs.json")


def _qualifies(cand: EvalResult, default: EvalResult) -> bool:
    """Winner gate: no gated metric regresses the hand-picked default."""
    return all(
        cand.metrics[k] <= default.metrics[k] for k in GATED_METRICS
    )


def run_tune(
    seed: int = 1234,
    budget: int = 20,
    kernels_baseline=None,
    sellcs_baseline=None,
    machine_profile: str = "frontera-rtx5000",
    verbose: bool = True,
) -> dict:
    """Run the full tuning pipeline; returns a validated TUNE doc."""
    calibrated = fit_machine_constants(kernels_baseline, sellcs_baseline)
    if verbose and calibrated is not None:
        print(
            f"[tune] calibrated emv={calibrated.get('emv_gflops', 0):.3g} "
            f"csr={calibrated.get('csr_gflops', 0):.3g} "
            f"sellcs={calibrated.get('sellcs_gflops', 0):.3g} GF/s, "
            f"rank agreement "
            f"{calibrated.get('rank_agreement', 0):.0%} over "
            f"{calibrated.get('rank_cases', 0)} case(s)"
        )
    space = default_space()
    evaluator = Evaluator(space, seed=seed, calibrated=calibrated)

    default = evaluator.evaluate(space.default_config())
    trajectory, results = run_search(space, evaluator, seed, budget)
    if verbose:
        print(
            f"[tune] {len(trajectory)} trials, "
            f"{evaluator.evaluations} evaluations, "
            f"{evaluator.cache_hits} cache hits"
        )

    front = pareto_front([default, *results])
    qualified = [r for r in [default, *results] if _qualifies(r, default)]
    winner = min(qualified, key=lambda r: (r.score, r.fingerprint))
    if verbose:
        print(
            f"[tune] pareto front {len(front)} point(s); winner "
            f"{winner.fingerprint} score {winner.score:.4f} "
            f"(default {default.score:.4f})"
        )
        for name in sorted(
            k for k in winner.config if winner.config[k] != default.config[k]
        ):
            print(
                f"[tune]   {name}: {default.config[name]} -> "
                f"{winner.config[name]}"
            )

    doc = new_report(
        TUNE_SCHEMA,
        {
            "seed": seed,
            "budget_per_strategy": budget,
            "kernels_baseline": str(kernels_baseline) if kernels_baseline else None,
            "sellcs_baseline": str(sellcs_baseline) if sellcs_baseline else None,
        },
        machine_profile=machine_profile,
        space=space.describe(),
        calibrated=calibrated,
        trajectory=trajectory,
        evaluations=evaluator.evaluations,
        cache_hits=evaluator.cache_hits,
        pareto=[
            {
                "fingerprint": r.fingerprint,
                "config": dict(r.config),
                "objectives": r.objectives.to_dict(),
            }
            for r in front
        ],
        default=default.as_winner(),
        winner=winner.as_winner(),
    )
    return validate_report(doc, TUNE_SCHEMA)


def _bench_doc(doc: dict) -> dict:
    """Project default-vs-winner onto the bench schema for the compare
    gate.  All phases are virtual-time/model numbers — machine-
    independent, so the checked-in baseline holds everywhere."""
    bench = new_report(
        BENCH_SCHEMA, doc["config"], suite="tune", repeats=1, results=[]
    )
    winner_m = doc["winner"]["metrics"]
    default_m = doc["default"]["metrics"]
    regressions = sum(
        1 for k in GATED_METRICS if winner_m[k] > default_m[k]
    )
    for case, entry in (("tune-default", doc["default"]),
                        ("tune-winner", doc["winner"])):
        m = entry["metrics"]
        phases = {
            name: point_phase(m[key])
            for name, key in (
                ("tune.serve.time_per_req", "serve.time_per_req_s"),
                ("tune.serve.p99", "serve.p99_s"),
                ("tune.solve.total", "solve.vtime_s"),
                ("tune.model.gpu_pipeline", "model.gpu_pipeline_s"),
            )
        }
        counters = {
            "tune.mem_bytes": m["mem.bytes"],
            "tune.evaluations": doc["evaluations"],
            "tune.winner_worse_than_default": regressions,
        }
        bench["results"].append({
            "case": case,
            "method": "tune",
            "n_parts": 1,
            "n_dofs": 0,
            "phases": phases,
            "counters": counters,
        })
    return validate_report(bench, BENCH_SCHEMA)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.harness tune",
        description="Autotuner: seeded search over the system knobs "
        "against virtual-time harness probes and the perfmodel; emits "
        "TUNE_report.json, tuned_config.json and BENCH_tune.json",
    )
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument(
        "--budget", type=int, default=None,
        help="trials per strategy (default: 20, or 12 with --smoke)",
    )
    ap.add_argument(
        "--smoke", action="store_true",
        help="CI-sized budget (same pipeline, fewer trials)",
    )
    ap.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("TUNE_report.json"),
    )
    ap.add_argument(
        "--tuned-out", type=pathlib.Path,
        default=pathlib.Path("tuned_config.json"),
        help="winning-knobs artifact for --tuned-from",
    )
    ap.add_argument(
        "--bench-out", type=pathlib.Path,
        default=pathlib.Path("BENCH_tune.json"),
        help="bench-schema projection for the compare gate",
    )
    ap.add_argument(
        "--kernels-baseline", type=pathlib.Path, default=_DEFAULT_KERNELS,
        help="measured kernels report to calibrate from (missing: skip)",
    )
    ap.add_argument(
        "--sellcs-baseline", type=pathlib.Path, default=_DEFAULT_SELLCS,
        help="measured sellcs report to calibrate from (missing: skip)",
    )
    ap.add_argument("--machine-profile", default="frontera-rtx5000")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    budget = args.budget if args.budget is not None else (12 if args.smoke else 20)
    try:
        doc = run_tune(
            seed=args.seed,
            budget=budget,
            kernels_baseline=args.kernels_baseline,
            sellcs_baseline=args.sellcs_baseline,
            machine_profile=args.machine_profile,
            verbose=not args.quiet,
        )
    except SchemaError as exc:
        print(f"[tune] error: {exc}", file=sys.stderr)
        return 2
    tuned = validate_report({
        "schema": TUNE_CONFIG_SCHEMA,
        "config": dict(doc["winner"]["config"]),
        "source": str(args.out),
    }, TUNE_CONFIG_SCHEMA)
    bench = _bench_doc(doc)
    for path, payload in (
        (args.out, doc),
        (args.tuned_out, tuned),
        (args.bench_out, bench),
    ):
        write_report(path, payload)
    if not args.quiet:
        print(
            f"[tune] wrote {args.out}, {args.tuned_out} and {args.bench_out}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
