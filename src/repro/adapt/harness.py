"""Incremental-update harness: ``python -m repro.harness adapt``.

Serves a delta stream against warm cached operators — crack-front
softening (stiffness scales), near-front mesh smoothing (node moves) and
local refinement (structural) — interleaved with batched solves in
deterministic virtual time, and *differentially verifies every step*:
after each delta the updated context's products and solves are compared
**bitwise** (oracle mode) against a context freshly built from the
post-update key.  Any mismatch is a wrong answer; the CI gate requires
zero.

The same fresh build doubles as the cost baseline: each step reports the
modeled cost of the delta path (measured on the warm context's
simulator), of a full context rebuild (fresh build comm time plus the
modeled recompute of every element matrix, net of nothing), of the fair
assembled patch (an assembled-method shadow context fed the same deltas:
it re-adds only the values around the touched nodes over its fixed
pattern, as a PETSc user would) and of a full CSR reassembly of that
shadow (what the assembled baseline paid before it could patch).  Costs
are modeled virtual time, so the checked-in ``BENCH_adapt.json``
baseline compares across machines; the wall time of the three update
paths is reported next to them.

Outputs ``ADAPT_report.json`` (schema ``repro.adapt/1``) plus a
bench-schema projection ``BENCH_adapt.json`` for ``repro.obs.compare``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.adapt.delta import CrackFront, MeshDelta
from repro.obs.instrumentation import Instrumentation
from repro.obs.schema import (
    ADAPT_SCHEMA,
    BENCH_SCHEMA,
    new_report,
    validate_report,
    write_report,
)
from repro.kinds import MODELED_RATE_GFLOPS
from repro.serve.cache import OperatorCache, ProblemKey, SolverContext

__all__ = ["AdaptScenario", "run_scenario", "run_adapt_suite", "main"]

#: front granularity: the crack advances 1/N of the domain per step, so
#: a scale delta touches ~1/N of the band — small enough for the patch
#: path at the default 10% threshold
_FRONT_STEPS = 8


@dataclass(frozen=True)
class AdaptScenario:
    """One delta-stream scenario against a warm cached operator."""

    name: str
    kind: str  # "scale" | "move" | "refine"
    method: str = "hymv"
    nel: int = 4
    n_parts: int = 2
    steps: int = 4
    n_rhs: int = 3
    rtol: float = 1e-8
    #: narrower softening band for move deltas: a moved node dirties every
    #: incident element, so the same band touches ~3x more elements
    half_width: float = 0.26


def suite_scenarios(smoke: bool = True) -> list[AdaptScenario]:
    """The standard scenario set (same structure in smoke and full)."""
    steps = 4 if smoke else 8
    nel = 4 if smoke else 6
    n_parts = 2 if smoke else 4
    return [
        AdaptScenario("crack-scale", "scale", nel=nel, n_parts=n_parts,
                      steps=steps),
        AdaptScenario("crack-coords", "move", nel=nel, n_parts=n_parts,
                      steps=steps, half_width=0.08),
        AdaptScenario("refine-local", "refine", nel=nel, n_parts=n_parts,
                      steps=min(steps, 3)),
        AdaptScenario("crack-scale-assembled", "scale", method="assembled",
                      nel=nel, n_parts=n_parts, steps=steps),
    ]


def _make_delta(cf: CrackFront, ctx: SolverContext, kind: str,
                step: int) -> MeshDelta:
    if kind == "scale":
        return cf.scale_delta(ctx.spec.mesh, step, _FRONT_STEPS)
    if kind == "move":
        return cf.move_delta(ctx.spec, step, _FRONT_STEPS, amplitude=2e-3)
    if kind == "refine":
        return cf.refine_delta(ctx.spec.mesh, step, _FRONT_STEPS)
    raise ValueError(f"unknown delta kind {kind!r}")


def _reassembly_program(comm, st, ke_flops, rate):
    """Full CSR reassembly of one rank of an assembled context, plus the
    modeled integration of every local element."""
    st["A"].reassemble()
    n = st["A"].lmesh.n_local_elements
    comm.advance(n * ke_flops / (rate * 1e9), "update.modeled")


def run_scenario(sc: AdaptScenario, seed: int = 1234) -> dict[str, Any]:
    """Run one scenario; returns its schema-conforming report entry."""
    obs = Instrumentation(rank=-1)
    cache = OperatorCache(capacity=4, obs=obs)
    key = ProblemKey(
        problem="poisson", nel=sc.nel, n_parts=sc.n_parts, etype="tet4",
        seed=seed % 100, method=sc.method,
    )
    ctx, _ = cache.get(key)
    # shadow baseline: the same delta stream against the assembled-CSR
    # operator (fixed-pattern patch, then a timed full reassembly) on its
    # own simulator
    shadow = SolverContext(
        ProblemKey(
            problem="poisson", nel=sc.nel, n_parts=sc.n_parts, etype="tet4",
            seed=seed % 100, method="assembled",
        )
    )
    cf = CrackFront(half_width=sc.half_width)
    rng = np.random.default_rng(seed)
    kf = ctx.spec.operator.ke_flops(ctx.spec.mesh.etype)
    rate = ctx.modeled_rate or MODELED_RATE_GFLOPS

    patches = rebuilds = touched_total = checks = bitwise = wrong = 0
    max_fraction = 0.0
    delta_s = rebuild_s = patch_s = reassembly_s = 0.0
    wall = {"delta": 0.0, "assembled_patch": 0.0, "reassembly": 0.0}
    detail: list[dict[str, Any]] = []
    for step in range(sc.steps):
        delta = _make_delta(cf, ctx, sc.kind, step)
        # -- serve-path update (re-keys the cached context in place)
        w0 = time.perf_counter()
        key, info = cache.update(key, delta)
        wall["delta"] += time.perf_counter() - w0
        ctx = cache.peek(key)
        assert ctx is not None and info is not None
        patches += info["path"] == "patch"
        rebuilds += info["path"] == "full_rebuild"
        touched_total += info["touched"]
        max_fraction = max(max_fraction, info["fraction"])
        delta_s += info["vtime"]

        # -- assembled baselines: the same delta patched into the
        # shadow, then one full reassembly of it (same bits)
        w0 = time.perf_counter()
        rinfo = shadow.apply_delta(delta)
        w1 = time.perf_counter()
        _, step_reassembly = shadow.timed(
            shadow.sim.run, _reassembly_program,
            rank_args=[(st,) for st in shadow.ranks], ke_flops=kf, rate=rate,
        )
        wall["assembled_patch"] += w1 - w0
        wall["reassembly"] += time.perf_counter() - w1
        patch_s += rinfo["vtime"]
        reassembly_s += step_reassembly

        # -- full-rebuild baseline: fresh context from the post-update
        # key; its build time is comm-modeled, the element-matrix work is
        # the analytic E * ke_flops / rate it would pay with no reuse
        fresh = SolverContext(key)
        step_rebuild = (
            fresh.build_vtime + ctx.spec.mesh.n_elements * kf / (rate * 1e9)
        )
        rebuild_s += step_rebuild

        # -- differential verification, bitwise in oracle mode: the
        # delta-updated context must be indistinguishable from the fresh
        # build on single-RHS, multi-RHS and solve paths
        n = ctx.n_dofs
        step_wrong = 0
        for k in (1, sc.n_rhs):
            X = rng.standard_normal((n, k))
            Yd, _ = ctx.apply_multi(X, mode="oracle")
            Yf, _ = fresh.apply_multi(X, mode="oracle")
            checks += 1
            if np.array_equal(Yd, Yf):
                bitwise += 1
            else:
                step_wrong += 1
        F = rng.standard_normal((n, 2))
        Sd, _ = ctx.solve_multi(F, rtol=sc.rtol, mode="oracle")
        Sf, _ = fresh.solve_multi(F, rtol=sc.rtol, mode="oracle")
        checks += 1
        if (
            np.array_equal(Sd["x"], Sf["x"])
            and Sd["iterations"] == Sf["iterations"]
        ):
            bitwise += 1
        else:
            step_wrong += 1
        wrong += step_wrong
        if step_wrong:
            obs.incr("adapt.wrong_answers", step_wrong)

        # -- serving continues on the warm context between deltas
        F = rng.standard_normal((n, sc.n_rhs))
        out, _ = ctx.solve_multi(F, rtol=sc.rtol)
        if not all(out["converged"]):
            wrong += 1
            obs.incr("adapt.wrong_answers")

        detail.append({
            "step": step,
            "delta": delta.describe(),
            "path": info["path"],
            "touched": info["touched"],
            "fraction": info["fraction"],
            "delta_s": info["vtime"],
            "rebuild_s": step_rebuild,
            "assembled_patch_s": rinfo["vtime"],
            "reassembly_s": step_reassembly,
        })

    counters = {
        k: v for k, v in ctx.counters().items() if k.startswith("update.")
    }
    counters["adapt.wrong_answers"] = obs.counter("adapt.wrong_answers")
    return {
        "scenario": sc.name,
        "method": sc.method,
        "n_parts": sc.n_parts,
        "n_dofs": ctx.n_dofs,
        "steps": sc.steps,
        "deltas": {
            "applied": sc.steps,
            "patches": patches,
            "rebuilds": rebuilds,
            "touched_total": touched_total,
            "max_fraction": max_fraction,
        },
        "verify": {
            "checks": checks,
            "bitwise": bitwise,
            "wrong_answers": wrong,
        },
        "costs": {
            "delta_s": delta_s,
            "rebuild_s": rebuild_s,
            "assembled_patch_s": patch_s,
            "reassembly_s": reassembly_s,
            "speedup_vs_rebuild": rebuild_s / delta_s if delta_s else 0.0,
            "speedup_vs_assembled_patch": patch_s / delta_s if delta_s else 0.0,
            "wall_s": wall,
        },
        "cache": cache.stats(),
        "steps_detail": detail,
        "counters": counters,
    }


def run_adapt_suite(
    seed: int = 1234, smoke: bool = True, verbose: bool = True
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run the standard scenarios; returns ``(adapt_doc, bench_doc)``."""
    doc = new_report(ADAPT_SCHEMA, {"seed": seed, "smoke": smoke}, scenarios=[])
    for sc in suite_scenarios(smoke=smoke):
        if verbose:
            print(f"[adapt] scenario {sc.name} ...", flush=True)
        entry = run_scenario(sc, seed=seed)
        doc["scenarios"].append(entry)
        if verbose:
            v, c = entry["verify"], entry["costs"]
            print(
                f"[adapt]   {entry['deltas']['patches']} patch / "
                f"{entry['deltas']['rebuilds']} rebuild, "
                f"verify {v['bitwise']}/{v['checks']} bitwise, "
                f"delta {c['delta_s'] * 1e3:.3f} ms vs rebuild "
                f"{c['rebuild_s'] * 1e3:.3f} ms "
                f"({c['speedup_vs_rebuild']:.1f}x), "
                f"wrong {v['wrong_answers']}"
            )
            print("[adapt]   delta / assembled patch / reassembly, ms: "
                  "virtual " + " / ".join(f"{c[k] * 1e3:.3f}" for k in (
                      "delta_s", "assembled_patch_s", "reassembly_s"))
                  + ", wall " + " / ".join(
                      f"{t * 1e3:.2f}" for t in c["wall_s"].values()))
    return validate_report(doc, ADAPT_SCHEMA), _bench_doc(doc)


def _bench_doc(adapt_doc: dict[str, Any]) -> dict[str, Any]:
    """Project the adapt report onto the standard bench schema so the
    existing ``repro.obs.compare`` gate applies unchanged."""
    bench = new_report(
        BENCH_SCHEMA, adapt_doc["config"], suite="adapt", repeats=1, results=[]
    )
    for sc in adapt_doc["scenarios"]:
        steps = sc["steps_detail"]
        phases = {}
        for label in ("delta_s", "rebuild_s", "assembled_patch_s",
                      "reassembly_s"):
            # the upper median, not percentile(·, 50): the checked-in
            # baseline was recorded with it
            vals = sorted(st[label] for st in steps)
            phases[f"adapt.update.{label[:-2]}"] = {
                "median": vals[len(vals) // 2],
                "min": vals[0],
                "max": vals[-1],
                "repeats": len(vals),
            }
        counters = {
            "adapt.checks": sc["verify"]["checks"],
            "adapt.bitwise": sc["verify"]["bitwise"],
            "adapt.wrong_answers": sc["verify"]["wrong_answers"],
            "adapt.patches": sc["deltas"]["patches"],
            "adapt.rebuilds": sc["deltas"]["rebuilds"],
        }
        bench["results"].append({
            "case": f"adapt-{sc['scenario']}",
            "method": sc["method"],
            "n_parts": sc["n_parts"],
            "n_dofs": sc["n_dofs"],
            "phases": phases,
            "counters": counters,
        })
    return validate_report(bench, BENCH_SCHEMA)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.harness adapt",
        description="Incremental-update harness: delta streams against "
        "warm cached operators, every step differentially verified "
        "(bitwise) against a fresh build; emits ADAPT_report.json "
        "(+ BENCH_adapt.json for the compare gate)",
    )
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized scenarios (fewer steps; same structure)",
    )
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("ADAPT_report.json"),
        help="adapt report path (default: ./ADAPT_report.json)",
    )
    ap.add_argument(
        "--bench-out",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_adapt.json"),
        help="bench-schema projection path (default: ./BENCH_adapt.json)",
    )
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    doc, bench = run_adapt_suite(
        seed=args.seed, smoke=args.smoke, verbose=not args.quiet
    )
    write_report(args.out, doc)
    write_report(args.bench_out, bench)
    wrong = sum(sc["verify"]["wrong_answers"] for sc in doc["scenarios"])
    if not args.quiet:
        print(f"\n[adapt] wrote {args.out} and {args.bench_out}")
    if wrong:
        print(f"[adapt] FAIL: {wrong} wrong answer(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
