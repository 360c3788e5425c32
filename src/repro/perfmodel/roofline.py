"""Fig. 10: roofline placement of the SPMV methods.

Produces (arithmetic intensity, GFLOP/s) for each method on a single
Cascade Lake core — the paper's Intel Advisor experiment, extended with
the repo's SELL-C-sigma backend — plus the roofline ceilings, and can
render an ASCII roofline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fem.operators import Operator
from repro.mesh.element import ElementType
from repro.perfmodel.counters import advisor_counters
from repro.perfmodel.machine import FRONTERA, FronteraMachine

__all__ = ["RooflinePoint", "roofline_points", "PAPER_ROOFLINE", "render_ascii"]

#: The paper's reported single-core values (Fig. 10, 20-node hex elasticity).
PAPER_ROOFLINE = {
    "hymv": (0.079, 1.614),
    "assembled": (0.161, 1.062),
    "matfree": (0.083, 5.053),
}


@dataclass(frozen=True)
class RooflinePoint:
    method: str
    arithmetic_intensity: float  # FLOP / byte
    gflops: float
    bound: str  # limiting ceiling at this AI


def _ceiling(ai: float, machine: FronteraMachine) -> tuple[float, str]:
    """Attainable single-core GFLOP/s at arithmetic intensity ``ai``."""
    mem = ai * machine.dram_gbps
    if mem < machine.dp_fma_peak_gflops:
        return mem, "DRAM"
    return machine.dp_fma_peak_gflops, "DP FMA peak"


def roofline_points(
    etype: ElementType,
    operator: Operator,
    n_elements: float,
    n_nodes: float,
    measured_rates: dict[str, float] | None = None,
    machine: FronteraMachine = FRONTERA,
    sellcs_occupancy: float | None = None,
) -> list[RooflinePoint]:
    """Roofline placement of the SPMV methods.

    ``measured_rates`` maps method → achieved GFLOP/s; when omitted the
    machine's single-core rates (calibrated from the paper's own Advisor
    run, Fig. 10) are used.  Methods the paper never measured on a lone
    core (``sellcs``) are placed *on* the attainable ceiling at their AI
    unless a measured rate is supplied — a model-only upper placement,
    flagged by the ceiling coinciding with the rate.  Bytes follow the
    Advisor all-level traffic convention — see
    :data:`repro.perfmodel.counters.ADVISOR_TRAFFIC_FACTOR`.
    ``sellcs_occupancy`` moves the sellcs point to a measured padding
    level instead of the model default.
    """
    default_rates = dict(machine.rates.single_core_gflops)
    rates = {**default_rates, **(measured_rates or {})}
    out = []
    for method in ("hymv", "assembled", "matfree", "sellcs"):
        c = advisor_counters(
            method, etype, operator, n_elements, n_nodes,
            sellcs_occupancy=sellcs_occupancy,
        )
        ceiling, bound = _ceiling(c.arithmetic_intensity, machine)
        gf = rates.get(method)
        if gf is None:
            gf = ceiling
        # points above the DRAM line are cache-resident traffic (Advisor
        # counts all levels), exactly as in the paper's plot
        out.append(
            RooflinePoint(
                method=method,
                arithmetic_intensity=c.arithmetic_intensity,
                gflops=gf,
                bound=bound if gf <= ceiling else "cache",
            )
        )
    return out


def render_ascii(
    points: list[RooflinePoint], machine: FronteraMachine = FRONTERA
) -> str:
    """A small log-log ASCII roofline (for the harness output)."""
    import math

    cols, rows = 64, 16
    ai_lo, ai_hi = 1e-3, 1e3
    gf_lo, gf_hi = 1e-2, 1e2
    grid = [[" "] * cols for _ in range(rows)]

    def col(ai):
        return int(
            (math.log10(ai) - math.log10(ai_lo))
            / (math.log10(ai_hi) - math.log10(ai_lo))
            * (cols - 1)
        )

    def row(gf):
        frac = (math.log10(gf) - math.log10(gf_lo)) / (
            math.log10(gf_hi) - math.log10(gf_lo)
        )
        return rows - 1 - int(frac * (rows - 1))

    for j in range(cols):
        ai = ai_lo * (ai_hi / ai_lo) ** (j / (cols - 1))
        ceil, _ = _ceiling(ai, machine)
        rr = row(min(max(ceil, gf_lo), gf_hi))
        grid[rr][j] = "."
    for p in points:
        rr = row(min(max(p.gflops, gf_lo), gf_hi))
        cc = col(min(max(p.arithmetic_intensity, ai_lo), ai_hi))
        grid[rr][cc] = p.method[0].upper()
    legend = "  ".join(f"{p.method[0].upper()}={p.method}" for p in points)
    return "\n".join("".join(r) for r in grid) + "\n" + legend
