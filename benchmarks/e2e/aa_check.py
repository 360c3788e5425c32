#!/usr/bin/env python3
"""A/A check: does the benchmark repeat within its own bounds?

Runs two sets (A and B) of ``--runs`` full end-to-end invocations of this
same checkout, interleaved A B A B ..., every invocation with a seed of
its own, and prints for each workload x end-to-end metric both medians
and quartiles, each set's spread (inter-quartile distance over median),
the relative difference of the medians, the bound, and a verdict.  Both
sets run the same code, so a difference in *either* direction is noise:
a pair breaches when one median is worse than the other by more than the
bound, and is ``noisy`` when a set's spread exceeds the bound (a
regression of the bound's size could not be told from one such set).
Exits non-zero on any breach or noisy pair, or when a run fails or
reports a wrong answer.

    python3 benchmarks/e2e/aa_check.py                   # 2 x 5 runs, all four
    python3 benchmarks/e2e/aa_check.py --runs 10 --workload solve-batch
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

from e2ebench.protocol import (
    NOMINAL_SECONDS,
    WORKLOADS,
    load_registry,
    quartile_spread,
    worsening,
)

RUN = pathlib.Path(__file__).resolve().with_name("run.py")


def _invoke(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(RUN), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
        ],
        stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(
            f"{workload} seed {seed}: {result['failed']} of "
            f"{result['attempted']} ops failed"
        )
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """``(spread_a, spread_b, diff, word)`` for two sets of one metric:
    ``diff`` is the amount by which B's median is worse than A's (negative
    when A's is the worse one), ``word`` one of ok / noisy / BREACH."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    spread_a, spread_b = quartile_spread(a), quartile_spread(b)
    diff = worsening(med_a, med_b, better)
    if max(diff, worsening(med_b, med_a, better)) > bound:
        word = "BREACH"
    elif max(spread_a, spread_b) > bound:
        word = "noisy"
    else:
        word = "ok"
    return spread_a, spread_b, diff, word


def _quartiles(values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:>10.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="invocations per set")
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two values)")
    workloads = args.workload or list(WORKLOADS)
    declared = load_registry()["end_to_end"]

    # one "full invocation" covers every workload; A and B alternate
    sets = {"A": {w: [] for w in workloads}, "B": {w: [] for w in workloads}}
    seed = args.first_seed
    for i in range(args.runs):
        for label in "AB":
            for w in workloads:
                sets[label][w].append(_invoke(w, seed, args.seconds))
            print(f"# set {label} run {i + 1}/{args.runs} done (seed {seed})",
                  file=sys.stderr)
            seed += 1

    bad = 0
    print(
        f"{'workload':<12} {'metric':<17} {'A median [q1, q3]':<34} "
        f"{'B median [q1, q3]':<34} {'spreadA':>8} {'spreadB':>8} "
        f"{'B worse':>8} {'bound':>6}  verdict"
    )
    for w in workloads:
        for d in declared:
            name, bound = d["name"], d["bound"]
            a = [run[name] for run in sets["A"][w]]
            b = [run[name] for run in sets["B"][w]]
            spread_a, spread_b, worse, word = verdict(a, b, d["better"], bound)
            bad += word != "ok"
            print(
                f"{w:<12} {name:<17} {_quartiles(a):<34} {_quartiles(b):<34} "
                f"{spread_a:>8.2%} {spread_b:>8.2%} {worse:>+8.2%} "
                f"{bound:>6g}  {word}"
            )
    print(f"{bad} pair(s) not ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
