#!/usr/bin/env python3
"""Wall-clock end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py                        # all four, end to end
    python3 benchmarks/e2e/run.py --workload apply-hymv
    python3 benchmarks/e2e/run.py --workload serve-mixed --trace 1

Every workload runs in its own fresh child process started with the
pinned environment of :data:`e2ebench.protocol.PINNED_ENV` and bound to
one vCPU; workloads never overlap.  The report is printed first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (``--trace 0``: the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1``: its per-layer metrics).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from e2ebench.protocol import (
    NOMINAL_SECONDS,
    PINNED_ENV,
    REPO_ROOT,
    WORKLOADS,
    load_registry,
)

#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 170


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--seconds", type=float, default=NOMINAL_SECONDS,
        help="nominal measured seconds; op counts scale with it "
        f"(calibrated for {NOMINAL_SECONDS})",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true",
        help="tiny meshes and op counts (the test suite's size)",
    )
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _child(args) -> int:
    """Inside the pinned process: run one workload, print its document."""
    # one core for the one thread, chosen before numpy loads: a thread the
    # scheduler moves between the vCPUs leaves its L2 behind
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from e2ebench.runner import run_workload

    doc = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print(json.dumps(doc))
    return 0


def _spawn(args, workload: str) -> dict | None:
    env = dict(os.environ, **PINNED_ENV)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: child exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def _report(doc: dict, registry: dict) -> None:
    """The human-readable part: every metric by name, unit and bound."""
    env = doc["env"]
    why = next(w["why"] for w in registry["workloads"] if w["name"] == doc["workload"])
    kind = "per-layer (traced)" if doc["trace"] else "end-to-end (untraced)"
    print(f"== {doc['workload']} — {kind}, seed {env['seed']}")
    print(f"   why: {why}")
    declared = registry["per_layer" if doc["trace"] else "end_to_end"]
    for d in declared:
        if d["name"] in doc["not_exercised"]:
            continue  # named in one line below, not printed as a value
        value = doc["metrics"][d["name"]]["value"]
        note = f"{d['better']} is better"
        if "bound" in d:
            note += f", may worsen by {d['bound']:g} of the median"
        if d["name"] in doc["samples"]:
            note += f", n={doc['samples'][d['name']]}"
        print(f"   {d['name']:<38} {value:>14.6g} {d['unit']:<8} ({note})")
    print(
        f"   ops: attempted {doc['attempted']}, failed {doc['failed']} "
        f"(fail_frac {doc['failed'] / doc['attempted']:.6f})"
    )
    if doc["not_exercised"]:
        print(
            f"   not exercised by this workload (0 in the result line): "
            f"{', '.join(doc['not_exercised'])}"
        )
    tail = doc["tail"]
    print(
        f"   latency as measured, neighbours included (reported, not gated): "
        f"p50 = {doc['all_ops_p50_ms']:.4f} ms, p{tail['percentile']:.2f} = "
        f"{tail['ms']:.4f} ms; {doc['step_classes']} step classes"
    )
    p50s = doc["block_p50_ms"]
    print(
        f"   block medians as measured: {min(p50s):.4f} .. {max(p50s):.4f} ms "
        f"(max/min - 1 = {max(p50s) / min(p50s) - 1:.1%})"
    )
    if doc["layer_shares"]:
        top = sorted(doc["layer_shares"].items(), key=lambda kv: -kv[1])[:3]
        print(
            "   top layers by share of an op: "
            + ", ".join(f"{name} {share:.0%}" for name, share in top)
        )
    pinned = " ".join(f"{k}={v}" for k, v in env["pinned"].items())
    print(
        f"   env: nproc={env['nproc']} cpus={env['cpus']} load {env['load_start']} -> "
        f"{env['load_end']} thp={env['thp']!r} wall={env['wall_s']:.1f}s"
    )
    print(
        f"        python {env['python']} numpy {env['numpy']} scipy "
        f"{env['scipy']} blas {env['blas']} git {env['git_sha'][:12]}"
    )
    print(f"        {pinned}")
    print(
        f"        disturbed={env['disturbed']} "
        f"(pyloop spread {env['pyloop_spread']:.1%})"
    )


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        return _child(args)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {REPO_ROOT}: nothing to measure", file=sys.stderr)
        return 2
    registry = load_registry()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = []
    for name in names:
        doc = _spawn(args, name)
        if doc is None:
            return 1
        _report(doc, registry)
        docs.append(doc)
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {
            f"{d['workload']}/{name}": m
            for d in docs
            for name, m in d["metrics"].items()
        }
    print(json.dumps({
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
