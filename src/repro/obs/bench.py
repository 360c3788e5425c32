"""The CI smoke-bench suite: ``python -m repro.harness bench``.

Runs a fixed, fast matrix of (problem, method) pairs — a small Poisson
cube and a small elasticity bar, each through HYMV and both baselines —
and writes a schema-versioned ``BENCH_smoke.json`` with per-phase medians
over repeats, summed counters and a machine fingerprint.

By default the suite runs in **modeled** mode (``compute_scale=0`` plus a
fixed modeled EMV rate), so every phase duration is a deterministic
function of the code path, the network model and the problem — identical
on a laptop and a CI runner.  That is what makes the checked-in baseline
under ``benchmarks/baseline/`` comparable across machines; wall-clock
seconds are still recorded per phase, but only as informational data.
``--measured`` switches to real measured compute for local profiling.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.kinds import MODELED_RATE_GFLOPS
from repro.obs.instrumentation import percentile
from repro.obs.schema import (
    BENCH_SCHEMA,
    new_report,
    phase_stats,
    validate_report,
    write_report,
)

__all__ = ["SmokeCase", "SMOKE_CASES", "run_smoke_suite", "main"]


@dataclass(frozen=True)
class SmokeCase:
    """One problem of the smoke suite."""

    name: str
    make_spec: Callable[[], Any]
    methods: tuple[str, ...] = ("hymv", "matfree", "assembled")
    n_spmv: int = 5
    options: dict = field(default_factory=dict)


def _poisson_small():
    from repro.problems import poisson_problem

    return poisson_problem(8, n_parts=4)


def _elastic_small():
    from repro.mesh.element import ElementType
    from repro.problems import elastic_bar_problem

    return elastic_bar_problem(
        (3, 3, 6), n_parts=4, etype=ElementType.HEX8
    )


SMOKE_CASES: tuple[SmokeCase, ...] = (
    SmokeCase(name="poisson-hex8-small", make_spec=_poisson_small),
    SmokeCase(name="elastic-bar-hex8-small", make_spec=_elastic_small),
)


def _run_case_method(
    case: SmokeCase, method: str, repeats: int, modeled: bool
) -> dict[str, Any]:
    """Repeat the bench protocol; aggregate per-phase stats over repeats."""
    from repro.harness.driver import run_bench

    spec = case.make_spec()
    # taken by the kinds with a modeled EMV rate (repro.kinds)
    options = dict(
        case.options, modeled_rate=MODELED_RATE_GFLOPS if modeled else None
    )
    compute_scale = 0.0 if modeled else 1.0

    vtimes: dict[str, list[float]] = {}
    walls: dict[str, list[float]] = {}
    setup_s: list[float] = []
    spmv_s: list[float] = []
    counters: dict[str, float] = {}
    for _ in range(repeats):
        b = run_bench(
            spec,
            method,
            n_spmv=case.n_spmv,
            compute_scale=compute_scale,
            **options,
        )
        setup_s.append(b.setup_time)
        spmv_s.append(b.spmv_time)
        for label, stats in b.obs["phases"].items():
            vtimes.setdefault(label, []).append(stats["vtime"])
            walls.setdefault(label, []).append(stats["wall"])
        counters = dict(b.obs["counters"])  # deterministic per repeat

    phases = {}
    for label, samples in sorted(vtimes.items()):
        phases[label] = phase_stats(samples)
        phases[label]["wall_median"] = percentile(walls[label], 50)
    return {
        "case": case.name,
        "method": method,
        "n_parts": spec.n_parts,
        "n_dofs": spec.n_dofs,
        "n_spmv": case.n_spmv,
        "modeled": modeled,
        "setup_s": phase_stats(setup_s),
        "spmv_s": phase_stats(spmv_s),
        "phases": phases,
        "counters": counters,
    }


def run_smoke_suite(
    repeats: int = 3,
    modeled: bool = True,
    cases: tuple[SmokeCase, ...] = SMOKE_CASES,
    verbose: bool = True,
) -> dict[str, Any]:
    """Run the full smoke matrix; returns a validated bench document."""
    doc = new_report(
        BENCH_SCHEMA,
        {
            "modeled": modeled,
            "modeled_rate_gflops": MODELED_RATE_GFLOPS if modeled else None,
            "cases": [c.name for c in cases],
        },
        suite="smoke",
        repeats=repeats,
        results=[],
    )
    for case in cases:
        for method in case.methods:
            if verbose:
                print(f"[bench] {case.name} / {method} ...", flush=True)
            res = _run_case_method(case, method, repeats, modeled)
            doc["results"].append(res)
            if verbose:
                spmv = res["spmv_s"]["median"]
                total = res["phases"].get("spmv.total", {}).get("median", 0.0)
                print(
                    f"[bench]   {case.n_spmv} spmv: {spmv * 1e3:.3f} ms "
                    f"(spmv.total {total * 1e3:.3f} ms, "
                    f"{len(res['phases'])} phases)"
                )
    return validate_report(doc, BENCH_SCHEMA)


def _summary_table(doc: dict[str, Any]) -> str:
    """Human-readable digest of the headline phases."""
    headline = ("spmv.total", "spmv.emv.independent", "spmv.scatter.wait")
    rows = [
        f"{'case':<26} {'method':<10} {'spmv.total':>12} "
        f"{'emv.indep':>12} {'scat.wait':>12}"
    ]
    for res in doc["results"]:
        cells = []
        for label in headline:
            med = res["phases"].get(label, {}).get("median")
            cells.append(f"{med * 1e3:>10.3f}ms" if med is not None else f"{'—':>12}")
        rows.append(
            f"{res['case']:<26} {res['method']:<10} "
            + " ".join(cells)
        )
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.harness bench",
        description="Run the smoke bench and emit BENCH_smoke.json",
    )
    ap.add_argument(
        "--repeats", type=int, default=3, help="repeats per (case, method)"
    )
    ap.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_smoke.json"),
        help="output JSON path (default: ./BENCH_smoke.json)",
    )
    ap.add_argument(
        "--measured",
        action="store_true",
        help="measure real compute instead of the deterministic model "
        "(machine-dependent output; not comparable across hosts)",
    )
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error(f"--repeats must be >= 1 (got {args.repeats})")

    doc = run_smoke_suite(
        repeats=args.repeats,
        modeled=not args.measured,
        verbose=not args.quiet,
    )
    write_report(args.out, doc)
    if not args.quiet:
        print()
        print(_summary_table(doc))
        print(f"\n[bench] wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
