"""Perfmodel calibration from measured reports.

:func:`fit_machine_constants` is a least-squares fit of the perfmodel's
effective machine rates (EMV sweep, CSR SPMV, SELL slice sweep) from
measured ``BENCH_kernels``/``BENCH_sellcs`` reports, with a rank-
agreement check that the calibrated model orders backends the way the
measurements do.  The affine fit ``t = a + f·b`` is clamped: a negative
intercept or non-positive slope (possible on noisy two-point data) falls
back to the through-origin estimator ``b = Σf·t / Σf²``.

Tuned configs are loaded by :func:`repro.serve.plan.load_tuned_config`.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.obs.schema import BENCH_SCHEMA, read_json, validate_report
from repro.perfmodel.machine import FRONTERA, FronteraMachine

__all__ = [
    "calibrated_machine",
    "fit_machine_constants",
]

#: analytic per-SPMV HYMV flop counts for the kernel-suite cases
#: (2 · n_elements · (nodes_per_elem · dofs_per_node)², the batched
#: dense EMV sweep) — paired with the measured per-call medians to fit
#: the EMV rate
_KERNEL_CASE_FLOPS = {
    "poisson-hex8-medium": 2.0 * 8000 * (8 * 1) ** 2,
    "elastic-bar-hex8-medium": 2.0 * 1024 * (8 * 3) ** 2,
}


def _affine_fit(points: list) -> tuple[float, float]:
    """Fit ``t = a + f·b`` over ``points = [(flops, seconds), ...]``.

    Returns ``(a, b)`` with ``a >= 0`` and ``b > 0``: an inadmissible
    least-squares solution (negative overhead or non-positive rate,
    which two noisy points can produce) falls back to the through-origin
    fit ``b = Σf·t / Σf²``.
    """
    f = np.asarray([p[0] for p in points], dtype=float)
    t = np.asarray([p[1] for p in points], dtype=float)
    a, b = 0.0, 0.0
    if len(points) >= 2:
        design = np.stack([np.ones_like(f), f], axis=1)
        (a, b), *_ = np.linalg.lstsq(design, t, rcond=None)
    if len(points) < 2 or a < 0.0 or b <= 0.0:
        a, b = 0.0, float(np.sum(f * t) / np.sum(f * f))
    return float(a), float(b)


def _fit_block(points: list) -> dict:
    a, b = _affine_fit(points)
    return {
        "gflops": 1.0 / (b * 1e9),
        "overhead_s": a,
        "n_points": len(points),
    }


def _median(row: dict, phase: str = "spmv.total"):
    ph = row.get("phases", {}).get(phase)
    return None if ph is None else float(ph["median"])


def fit_machine_constants(
    kernels_path=None, sellcs_path=None
) -> dict | None:
    """Calibrate effective rates from measured bench reports.

    Fits three rate/overhead pairs (EMV from the kernels suite, CSR and
    SELL slice-sweep from the sellcs suite), extracts the measured SELL
    occupancy at the default ``(C, sigma) = (32, 256)`` layout, carries
    over the measured GEMM ``k_min`` crossover, and scores
    ``rank_agreement``: the fraction of cases where the calibrated model
    predicts the same assembled-vs-SELL winner the measurements show.
    A report path that is ``None`` or names no file is skipped; any
    other unreadable or non-``repro.bench/1`` report raises
    :class:`~repro.obs.schema.SchemaError`.  Returns ``None`` when both
    are skipped.
    """
    kernels, sellcs = (
        validate_report(read_json(path), BENCH_SCHEMA)
        if path and Path(path).exists()
        else None
        for path in (kernels_path, sellcs_path)
    )
    if kernels is None and sellcs is None:
        return None
    out: dict = {"machine": "measured"}

    if kernels is not None:
        pts = []
        for row in kernels.get("results", ()):
            flops = _KERNEL_CASE_FLOPS.get(row.get("case"))
            med = _median(row)
            if (
                flops is not None
                and med is not None
                and row.get("method") == "hymv-einsum-workspace"
            ):
                pts.append((flops, med))
        if pts:
            fit = _fit_block(pts)
            out["emv_gflops"] = fit["gflops"]
            out["emv_overhead_s"] = fit["overhead_s"]
            out["emv_points"] = fit["n_points"]
        kcfg = kernels.get("config", {})
        if kcfg.get("gemm_k_min_crossover") is not None:
            out["gemm_k_min"] = int(kcfg["gemm_k_min_crossover"])

    if sellcs is not None:
        csr_pts, sell_pts, occs = [], [], []
        cases: dict = {}
        for row in sellcs.get("results", ()):
            med = _median(row)
            if med is None:
                continue
            case = row.get("case")
            method = row.get("method")
            counters = row.get("counters", {})
            if method == "assembled-spmv":
                cases.setdefault(case, {})["assembled"] = med
            elif method == "sellcs-C32-s256-spmv":
                padded = counters.get("sellcs.padded_nnz")
                occ = counters.get("sellcs.occupancy")
                if padded and occ:
                    # true nnz = padded · occupancy (the gauges are exact)
                    csr_flops = 2.0 * padded * occ
                    cases.setdefault(case, {}).update(
                        sellcs=med, nnz_flops=csr_flops,
                        padded_flops=2.0 * padded,
                    )
                    sell_pts.append((2.0 * padded, med))
                    occs.append(float(occ))
        for c in cases.values():
            if "assembled" in c and "nnz_flops" in c:
                csr_pts.append((c["nnz_flops"], c["assembled"]))
        if csr_pts:
            fit = _fit_block(csr_pts)
            out["csr_gflops"] = fit["gflops"]
            out["csr_overhead_s"] = fit["overhead_s"]
            out["csr_points"] = fit["n_points"]
        if sell_pts:
            fit = _fit_block(sell_pts)
            out["sellcs_gflops"] = fit["gflops"]
            out["sellcs_overhead_s"] = fit["overhead_s"]
            out["sellcs_points"] = fit["n_points"]
        if occs:
            out["sellcs_occupancy"] = float(np.mean(occs))
        scfg = sellcs.get("config", {})
        if scfg.get("sellcs_crossover_dofs") is not None:
            out["sellcs_crossover_dofs"] = int(scfg["sellcs_crossover_dofs"])

        # rank agreement: does the calibrated model order the two
        # assembled-format backends the way the measurements do?
        if csr_pts and sell_pts and "csr_gflops" in out:
            agree = total = 0
            for c in cases.values():
                if not {"assembled", "sellcs", "nnz_flops"} <= c.keys():
                    continue
                pred_a = out["csr_overhead_s"] + c["nnz_flops"] / (
                    out["csr_gflops"] * 1e9
                )
                pred_s = out["sellcs_overhead_s"] + c["padded_flops"] / (
                    out["sellcs_gflops"] * 1e9
                )
                total += 1
                if (pred_a <= pred_s) == (c["assembled"] <= c["sellcs"]):
                    agree += 1
            out["rank_agreement"] = agree / total if total else 0.0
            out["rank_cases"] = total

    out["n_points"] = sum(
        out.get(k, 0) for k in ("emv_points", "csr_points", "sellcs_points")
    )
    return out


def calibrated_machine(
    calibrated: dict | None, base: FronteraMachine = FRONTERA
) -> FronteraMachine:
    """A machine model with measured effective rates substituted in.

    Only the rates the calibration actually produced are replaced; the
    paper-calibrated constants remain for everything else.
    """
    if not calibrated:
        return base
    fields = {}
    if calibrated.get("emv_gflops"):
        fields["emv_gflops"] = float(calibrated["emv_gflops"])
    if calibrated.get("csr_gflops"):
        fields["csr_gflops"] = float(calibrated["csr_gflops"])
    if not fields:
        return base
    return replace(base, rates=replace(base.rates, **fields))
