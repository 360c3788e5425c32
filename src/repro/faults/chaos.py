"""Chaos harness: a fault-scenario matrix over the distributed CG solve.

``python -m repro.harness chaos`` runs every scenario against a
fault-free reference solve of the same problem and writes a
schema-versioned ``CHAOS_report.json`` (``repro.chaos/1``).  Each
scenario pairs a :class:`repro.faults.plan.FaultPlan` with explicit
expectations:

* **non-corrupting** faults (delay, reorder, straggler, drop+retry) must
  leave the solution bit-for-bit unchanged — the simulator recovers the
  original payloads, and sequence-numbered matching makes delivery order
  irrelevant to numerics;
* **corrupting** faults (NaN / bit flip on a ghost payload) must be
  *detected* (``faults.checksum_fail`` / ``spmv.ghost_nonfinite``
  counters) and *recovered* by the resilient CG's restart, re-converging
  to the reference solution within the solve tolerance.

The problem is the jittered-tet Poisson verification case: its RHS is not
a discrete eigenvector (unlike the uniform hex grid), so CG runs tens of
iterations and faults land mid-solve.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

import numpy as np

from repro.core.scatter import SCATTER_TAG
from repro.faults.plan import (
    Corrupt,
    Delay,
    Drop,
    FaultPlan,
    Reorder,
    Straggler,
)
from repro.obs.schema import CHAOS_SCHEMA, new_report, validate_report, write_report

__all__ = ["run_chaos", "main"]

#: relative tolerance of the chaos CG solves
SOLVE_RTOL = 1e-10
#: non-corrupting faults must reproduce the reference to this accuracy
EXACT_TOL = 1e-12
#: corrupting faults must *recover* to this accuracy (restart re-converges
#: to SOLVE_RTOL, not to the bit-identical iterate sequence)
RECOVER_TOL = 1e-6


def _scatter_edges(spec) -> list[tuple[int, int]]:
    """Discover the live ghost-scatter edges ``(src, dst)`` of ``spec``
    (one cheap SPMD pass building only the node/communication maps)."""
    from repro.core.maps import build_node_maps
    from repro.core.scatter import build_comm_maps
    from repro.simmpi.engine import run_spmd

    def prog(comm, lmesh):
        maps = build_node_maps(lmesh.e2g, lmesh.n_begin, lmesh.n_end)
        cmaps = build_comm_maps(comm, maps)
        return list(cmaps.send_ranks)

    p = spec.n_parts
    results, _ = run_spmd(
        p, prog, rank_args=[(spec.partition.local(r),) for r in range(p)]
    )
    return [(src, dst) for src, dsts in enumerate(results) for dst in dsts]


def _scenarios(n_ranks: int, edge: tuple[int, int], seed: int) -> list[dict]:
    """The scenario matrix.  ``edge`` is a live scatter edge of the
    problem (so single-edge drop/corrupt rules actually fire)."""
    src, dst = edge
    lag_rank = n_ranks // 2
    return [
        {
            "name": "delay",
            "plan": FaultPlan(
                rules=(Delay(2e-4, tag=SCATTER_TAG, jitter=1e-4),),
                seed=seed,
            ),
            "expect_counters": ["faults.delayed"],
            "tol": EXACT_TOL,
        },
        {
            "name": "reorder",
            "plan": FaultPlan(
                rules=(Reorder(period=2, tag=SCATTER_TAG),), seed=seed
            ),
            "expect_counters": ["faults.reordered"],
            "tol": EXACT_TOL,
        },
        {
            "name": "straggler",
            "plan": FaultPlan(rules=(Straggler(lag_rank, 4.0),), seed=seed),
            "expect_counters": ["faults.straggler_s"],
            "tol": EXACT_TOL,
        },
        {
            "name": "drop_retry",
            "plan": FaultPlan(
                rules=(Drop(src=src, dst=dst, tag=SCATTER_TAG),), seed=seed
            ),
            "expect_counters": ["faults.dropped", "faults.retries"],
            "tol": EXACT_TOL,
        },
        {
            # the issue's acceptance scenario: one lost ghost message plus
            # a 4x straggler rank, in one plan
            "name": "drop_plus_straggler",
            "plan": FaultPlan(
                rules=(
                    Drop(src=src, dst=dst, tag=SCATTER_TAG),
                    Straggler(lag_rank, 4.0),
                ),
                seed=seed,
            ),
            "expect_counters": ["faults.retries", "faults.straggler_s"],
            "tol": 1e-10,
        },
        {
            # skip=1: the first scatter per edge feeds the Dirichlet RHS
            # lift (unrecoverable by a solver restart); the corruption
            # lands on CG iteration 1 instead
            "name": "corrupt_nan",
            "plan": FaultPlan(
                rules=(
                    Corrupt("nan", src=src, dst=dst, tag=SCATTER_TAG, skip=1),
                ),
                seed=seed,
                checksums=True,
            ),
            "resilient": True,
            "expect_counters": ["faults.corrupted", "faults.checksum_fail"],
            "expect_restarts": 1,
            "tol": RECOVER_TOL,
        },
        {
            "name": "corrupt_bitflip",
            "plan": FaultPlan(
                rules=(
                    Corrupt(
                        "bitflip", src=src, dst=dst, tag=SCATTER_TAG, skip=1
                    ),
                ),
                seed=seed,
                checksums=True,
            ),
            "resilient": True,
            "expect_counters": ["faults.corrupted", "faults.checksum_fail"],
            "expect_restarts": 1,
            "tol": RECOVER_TOL,
        },
    ]


def run_chaos(
    nel: int = 6,
    n_ranks: int = 8,
    seed: int = 0,
    rtol: float = SOLVE_RTOL,
) -> dict:
    """Run the full scenario matrix; returns the chaos report document."""
    # lazy imports: repro.harness imports repro.faults.plan (via simmpi),
    # so the package-level wiring must not be circular
    from repro.harness.driver import run_solve
    from repro.problems import ElementType, poisson_problem
    from repro.solvers.cg import ResilienceConfig

    spec = poisson_problem(nel, n_ranks, etype=ElementType.TET4, seed=seed)
    edges = _scatter_edges(spec)
    if not edges:
        raise RuntimeError("problem has no ghost-scatter edges to fault")

    ref = run_solve(
        spec, "hymv", precond="jacobi", rtol=rtol, return_solution=True
    )
    x_ref = ref.solution
    scale = float(np.abs(x_ref).max()) or 1.0

    doc = new_report(
        CHAOS_SCHEMA,
        {
            "nel": nel,
            "n_ranks": n_ranks,
            "seed": seed,
            "rtol": rtol,
            "edge": list(edges[0]),
            "reference_iterations": ref.iterations,
        },
        scenarios=[],
    )
    for sc in _scenarios(n_ranks, edges[0], seed):
        failures: list[str] = []
        counters: dict = {}
        iterations = -1
        restarts = -1
        rel_err = float("nan")
        resilience = (
            ResilienceConfig() if sc.get("resilient") else None
        )
        try:
            out = run_solve(
                spec,
                "hymv",
                precond="jacobi",
                rtol=rtol,
                return_solution=True,
                faults=sc["plan"],
                resilience=resilience,
            )
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            failures.append(f"solve raised {type(exc).__name__}: {exc}")
        else:
            iterations = out.iterations
            restarts = out.restarts
            counters = {
                k: v
                for k, v in out.obs.get("counters", {}).items()
                if k.startswith(("faults.", "solve.", "spmv.ghost"))
            }
            rel_err = float(np.abs(out.solution - x_ref).max()) / scale
            if not out.converged:
                failures.append("solve did not converge")
            if rel_err > sc["tol"]:
                failures.append(
                    f"rel_err {rel_err:.3e} exceeds tol {sc['tol']:.0e}"
                )
            for name in sc.get("expect_counters", ()):
                if counters.get(name, 0) <= 0:
                    failures.append(f"expected counter {name!r} > 0")
            if restarts < sc.get("expect_restarts", 0):
                failures.append(
                    f"expected >= {sc['expect_restarts']} restarts, "
                    f"got {restarts}"
                )
        doc["scenarios"].append(
            {
                "scenario": sc["name"],
                "ok": not failures,
                "failures": failures,
                "plan": sc["plan"].describe(),
                "counters": counters,
                "iterations": iterations,
                "restarts": restarts,
                "rel_err": rel_err,
            }
        )
    return validate_report(doc, CHAOS_SCHEMA)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.harness chaos",
        description="Fault-injection scenario matrix over the CG solve",
    )
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized problem (smaller mesh)")
    ap.add_argument("--ranks", type=int, default=8)
    ap.add_argument("--nel", type=int, default=None,
                    help="elements per cube edge (default 6; 5 with --smoke)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=pathlib.Path,
                    default=pathlib.Path("CHAOS_report.json"))
    args = ap.parse_args(argv)

    nel = args.nel if args.nel is not None else (5 if args.smoke else 6)
    doc = run_chaos(nel=nel, n_ranks=args.ranks, seed=args.seed)
    write_report(args.out, doc)

    n_ok = sum(1 for s in doc["scenarios"] if s["ok"])
    for s in doc["scenarios"]:
        status = "ok  " if s["ok"] else "FAIL"
        print(
            f"[{status}] {s['scenario']:<20s} iters={s['iterations']:>4d} "
            f"restarts={s['restarts']:>2d} rel_err={s['rel_err']:.3e}"
        )
        for f in s["failures"]:
            print(f"         - {f}")
    print(f"{n_ok}/{len(doc['scenarios'])} scenarios ok -> {args.out}")
    return 0 if n_ok == len(doc["scenarios"]) else 1


if __name__ == "__main__":
    sys.exit(main())
