"""The perf gate: diff two bench documents against tolerance budgets.

``python -m repro.obs.compare baseline.json candidate.json`` compares
every shared ``(case, method)`` result phase-by-phase and exits nonzero
when the candidate exceeds the baseline by more than the relative budget
(plus a small absolute floor that keeps sub-microsecond phases from
flaking).  Counter *increases* beyond their own budget also fail — more
bytes on the wire or more elements swept for the same problem is a
regression even if the modeled clock hides it.

Two absolute gates exist for *measured* suites, where raw wall-clock
medians are machine-dependent and must never be compared across hosts:

* ``--require-zero NAME@SUBSTR`` — counter ``NAME`` must be exactly 0 in
  every candidate result whose key contains ``SUBSTR`` (e.g. the
  ``spmv.bytes_alloc`` tracemalloc counter on workspace rows);
* ``--min-speedup VALUE@SUBSTR`` — every matching candidate result must
  carry ``speedup_vs_reference >= VALUE``.  The ratio is taken between
  two runs on the *same* machine inside one bench invocation, so it is
  portable even though the medians it is built from are not.

Both flags are repeatable, match on the candidate only, and fail when no
result matches (a gate that silently matches nothing is misconfigured).

Exit codes: ``0`` pass, ``1`` regression, ``2`` bad input/schema.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from dataclasses import dataclass
from typing import Any

from repro.obs.schema import (
    BENCH_SCHEMA,
    SchemaError,
    read_json,
    result_key,
    validate_report,
)

__all__ = ["Finding", "compare_docs", "markdown_summary", "main"]

#: phases below this baseline magnitude (seconds) are never gated —
#: relative noise on a ~0s phase is meaningless
ABS_FLOOR_S = 5e-6


@dataclass(frozen=True)
class Finding:
    """One comparison outcome (regression, improvement, or note)."""

    severity: str  # "fail" | "warn" | "info"
    where: str  # "case/method phase-or-counter"
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.where}: {self.message}"


def _compare_phases(
    key: str,
    base: dict[str, Any],
    cand: dict[str, Any],
    budget: float,
    findings: list[Finding],
) -> None:
    for label, bstats in base.get("phases", {}).items():
        cstats = cand.get("phases", {}).get(label)
        b = bstats["median"]
        if cstats is None:
            # a gated phase that vanishes is a hard failure, not a warn:
            # "the hot path stopped being measured" must never read as
            # "the hot path got faster".  Sub-floor phases were never
            # gated, so their disappearance is only noteworthy.
            if b > ABS_FLOOR_S:
                findings.append(
                    Finding(
                        "fail",
                        f"{key} {label}",
                        f"gated phase missing in candidate (baseline "
                        f"{b * 1e3:.4f} ms) — the instrumented code path "
                        f"was removed or renamed; regenerate the baseline "
                        f"if intentional",
                    )
                )
            else:
                findings.append(
                    Finding(
                        "warn",
                        f"{key} {label}",
                        "sub-floor phase missing in candidate",
                    )
                )
            continue
        c = cstats["median"]
        if b <= ABS_FLOOR_S:
            continue
        rel = (c - b) / b
        if c > b * (1.0 + budget) + ABS_FLOOR_S:
            findings.append(
                Finding(
                    "fail",
                    f"{key} {label}",
                    f"{b * 1e3:.4f} ms -> {c * 1e3:.4f} ms "
                    f"(+{rel * 100:.1f}% > budget +{budget * 100:.0f}%)",
                )
            )
        elif rel < -budget:
            findings.append(
                Finding(
                    "info",
                    f"{key} {label}",
                    f"improved {b * 1e3:.4f} ms -> {c * 1e3:.4f} ms "
                    f"({rel * 100:.1f}%)",
                )
            )


def _compare_counters(
    key: str,
    base: dict[str, Any],
    cand: dict[str, Any],
    counter_budget: float,
    findings: list[Finding],
) -> None:
    for name, b in base.get("counters", {}).items():
        c = cand.get("counters", {}).get(name)
        if c is None:
            # same reasoning as gated phases: a nonzero baseline counter
            # that disappears means the work stopped being counted, which
            # must not pass silently
            if b > 0:
                findings.append(
                    Finding(
                        "fail",
                        f"{key} {name}",
                        f"gated counter missing in candidate (baseline "
                        f"{b:.6g}) — regenerate the baseline if intentional",
                    )
                )
            else:
                findings.append(
                    Finding(
                        "warn", f"{key} {name}",
                        "zero-baseline counter missing in candidate",
                    )
                )
            continue
        if b <= 0:
            continue
        rel = (c - b) / b
        if rel > counter_budget:
            findings.append(
                Finding(
                    "fail",
                    f"{key} {name}",
                    f"{b:.6g} -> {c:.6g} "
                    f"(+{rel * 100:.2f}% > budget +{counter_budget * 100:.0f}%)",
                )
            )
        elif rel < -counter_budget:
            findings.append(
                Finding("info", f"{key} {name}", f"decreased {b:.6g} -> {c:.6g}")
            )


def _matching(
    cand_doc: dict[str, Any], substr: str, gate: str, findings: list[Finding]
) -> list[tuple[str, dict[str, Any]]]:
    """``(key, result)`` of every candidate result whose key contains
    ``substr``; a gate that matches nothing is misconfigured and fails."""
    rows = [
        (result_key(r), r) for r in cand_doc["results"]
        if substr in result_key(r)
    ]
    if not rows:
        findings.append(
            Finding("fail", gate, "no candidate result matches the key substring")
        )
    return rows


def _check_zero_counters(
    cand_doc: dict[str, Any],
    require_zero: list[tuple[str, str]],
    findings: list[Finding],
) -> None:
    """Absolute gate: counter must be exactly 0 in matching results."""
    for name, substr in require_zero:
        gate = f"--require-zero {name}@{substr}"
        for key, res in _matching(cand_doc, substr, gate, findings):
            value = res["counters"].get(name)
            if value is None:
                findings.append(
                    Finding("fail", f"{key} {name}", "required counter missing")
                )
            elif value != 0:
                findings.append(
                    Finding(
                        "fail",
                        f"{key} {name}",
                        f"must be 0, got {value:.6g}",
                    )
                )


def _check_min_speedups(
    cand_doc: dict[str, Any],
    min_speedup: list[tuple[float, str]],
    findings: list[Finding],
) -> None:
    """Absolute gate: ``speedup_vs_reference`` floor on matching results."""
    for floor, substr in min_speedup:
        gate = f"--min-speedup {floor}@{substr}"
        for key, res in _matching(cand_doc, substr, gate, findings):
            ratio = res.get("speedup_vs_reference")
            if ratio is None:
                findings.append(
                    Finding(
                        "fail",
                        f"{key} speedup_vs_reference",
                        "result carries no speedup ratio",
                    )
                )
            elif ratio < floor:
                findings.append(
                    Finding(
                        "fail",
                        f"{key} speedup_vs_reference",
                        f"{ratio:.2f}x < required {floor:.2f}x",
                    )
                )
            else:
                findings.append(
                    Finding(
                        "info",
                        f"{key} speedup_vs_reference",
                        f"{ratio:.2f}x >= required {floor:.2f}x",
                    )
                )


def compare_docs(
    base_doc: dict[str, Any],
    cand_doc: dict[str, Any],
    budget: float = 0.25,
    counter_budget: float = 0.01,
    require_zero: list[tuple[str, str]] | None = None,
    min_speedup: list[tuple[float, str]] | None = None,
) -> tuple[bool, list[Finding]]:
    """Compare candidate against baseline; returns ``(ok, findings)``.

    ``budget`` is the allowed relative increase of any phase median;
    ``counter_budget`` the allowed relative increase of any counter.
    ``require_zero`` and ``min_speedup`` are the absolute candidate-side
    gates described in the module docstring.
    """
    validate_report(base_doc, BENCH_SCHEMA)
    validate_report(cand_doc, BENCH_SCHEMA)
    findings: list[Finding] = []
    cand_by_key = {result_key(r): r for r in cand_doc["results"]}
    for base in base_doc["results"]:
        key = result_key(base)
        cand = cand_by_key.get(key)
        if cand is None:
            findings.append(
                Finding("fail", key, "result missing in candidate")
            )
            continue
        if cand["n_dofs"] != base["n_dofs"] or cand["n_parts"] != base["n_parts"]:
            findings.append(
                Finding(
                    "warn",
                    key,
                    f"problem shape changed "
                    f"({base['n_dofs']} dofs/{base['n_parts']} parts -> "
                    f"{cand['n_dofs']}/{cand['n_parts']}); skipping",
                )
            )
            continue
        _compare_phases(key, base, cand, budget, findings)
        _compare_counters(key, base, cand, counter_budget, findings)
    if require_zero:
        _check_zero_counters(cand_doc, require_zero, findings)
    if min_speedup:
        _check_min_speedups(cand_doc, min_speedup, findings)
    ok = not any(f.severity == "fail" for f in findings)
    return ok, findings


def markdown_summary(
    base_doc: dict[str, Any],
    cand_doc: dict[str, Any],
    findings: list[Finding],
    ok: bool,
    budget: float,
) -> str:
    """GitHub-flavored markdown digest of one comparison: a phase table
    (baseline vs candidate medians) plus every non-info finding.  Written
    to ``$GITHUB_STEP_SUMMARY`` by :func:`main` so each bench job renders
    its gate verdict on the run's summary page."""
    verdict = "PASS" if ok else "FAIL"
    suite = cand_doc.get("suite", "?")
    lines = [
        f"### Perf gate `{suite}`: **{verdict}** "
        f"(budget +{budget * 100:.0f}%)",
        "",
        "| result | phase | baseline | candidate | delta |",
        "|---|---|---:|---:|---:|",
    ]
    cand_by_key = {result_key(r): r for r in cand_doc["results"]}
    for base in base_doc["results"]:
        key = result_key(base)
        cand = cand_by_key.get(key)
        for label, bstats in base.get("phases", {}).items():
            b = bstats["median"]
            cstats = cand.get("phases", {}).get(label) if cand else None
            if cstats is None:
                lines.append(f"| {key} | {label} | {b * 1e3:.4f} ms "
                             f"| *missing* | — |")
                continue
            c = cstats["median"]
            delta = f"{(c - b) / b * 100:+.1f}%" if b > 0 else "—"
            lines.append(
                f"| {key} | {label} | {b * 1e3:.4f} ms "
                f"| {c * 1e3:.4f} ms | {delta} |"
            )
    # SELL-C-sigma layout digest: padding cost of every candidate row that
    # carries the sellcs gauges, so the format overhead is visible on the
    # run summary next to the timings it buys
    sell_rows = [
        (result_key(r), r["counters"])
        for r in cand_doc["results"]
        if "sellcs.padded_nnz" in r.get("counters", {})
    ]
    if sell_rows:
        lines += [
            "",
            "#### SELL-C-sigma layout",
            "",
            "| result | padded_nnz | occupancy |",
            "|---|---:|---:|",
        ]
        lines += [
            f"| {key} | {counters['sellcs.padded_nnz']:.0f} "
            f"| {counters.get('sellcs.occupancy', float('nan')):.3f} |"
            for key, counters in sell_rows
        ]
    flagged = [f for f in findings if f.severity != "info"]
    if flagged:
        lines += ["", "#### Findings", ""]
        lines += [f"- **{f.severity}** `{f.where}` — {f.message}"
                  for f in flagged]
    n_info = sum(1 for f in findings if f.severity == "info")
    if n_info:
        lines += ["", f"_{n_info} informational finding(s) in the job log._"]
    return "\n".join(lines) + "\n"


def _write_step_summary(text: str) -> None:
    """Append to the GitHub Actions step summary when running under CI;
    a no-op (by design) everywhere else."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # never fail the gate over a summary file
        print(f"[compare] step summary not written: {exc}", file=sys.stderr)


def _split_gate(spec: str) -> tuple[str, str]:
    """Split a ``NAME@SUBSTR`` / ``VALUE@SUBSTR`` gate spec."""
    left, sep, right = spec.partition("@")
    if not sep or not left or not right:
        raise SchemaError(f"bad gate spec {spec!r} (expected NAME@SUBSTR)")
    return left, right


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.obs.compare",
        description="Diff two bench JSONs against perf budgets",
    )
    ap.add_argument("baseline", type=pathlib.Path)
    ap.add_argument("candidate", type=pathlib.Path)
    ap.add_argument(
        "--budget",
        type=float,
        default=0.25,
        help="allowed relative phase-median increase (default 0.25)",
    )
    ap.add_argument(
        "--counter-budget",
        type=float,
        default=0.01,
        help="allowed relative counter increase (default 0.01)",
    )
    ap.add_argument(
        "--require-zero",
        action="append",
        default=[],
        metavar="NAME@SUBSTR",
        help="counter NAME must be 0 in every candidate result whose key "
        "contains SUBSTR (repeatable; fails if nothing matches)",
    )
    ap.add_argument(
        "--min-speedup",
        action="append",
        default=[],
        metavar="VALUE@SUBSTR",
        help="speedup_vs_reference must be >= VALUE in every candidate "
        "result whose key contains SUBSTR (repeatable; fails if nothing "
        "matches)",
    )
    args = ap.parse_args(argv)

    try:
        require_zero = [_split_gate(s) for s in args.require_zero]
        min_speedup = []
        for s in args.min_speedup:
            value, sub = _split_gate(s)
            try:
                min_speedup.append((float(value), sub))
            except ValueError:
                raise SchemaError(
                    f"bad --min-speedup value {value!r} in {s!r}"
                ) from None
        base = read_json(args.baseline)
        cand = read_json(args.candidate)
        ok, findings = compare_docs(
            base,
            cand,
            budget=args.budget,
            counter_budget=args.counter_budget,
            require_zero=require_zero,
            min_speedup=min_speedup,
        )
    except SchemaError as exc:
        print(f"[compare] error: {exc}", file=sys.stderr)
        return 2
    for f in findings:
        stream = sys.stderr if f.severity == "fail" else sys.stdout
        print(str(f), file=stream)
    _write_step_summary(
        markdown_summary(base, cand, findings, ok, args.budget)
    )
    n_fail = sum(1 for f in findings if f.severity == "fail")
    if ok:
        print(
            f"[compare] OK — {len(base['results'])} results within "
            f"+{args.budget * 100:.0f}% budgets"
        )
        return 0
    print(f"[compare] FAIL — {n_fail} regression(s)", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
