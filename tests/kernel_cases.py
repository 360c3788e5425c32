"""The named problem shapes the kernel-level bitwise, derived-bound and
zero-allocation checks run on: the ``tune`` crossover shapes plus the
medium elasticity bar.  Case ids follow ``<case>/<method>``."""

from __future__ import annotations

from functools import cache

from repro.mesh.element import ElementType
from repro.problems import elastic_bar_problem
from repro.tune.calibration import SHAPES, _NullComm

#: case name -> single-part spec factory
FACTORIES = {
    **SHAPES,
    # 8x8x16 -> 1024 HEX8 elements, 24 dofs/element (ndpn=3)
    "elastic-bar-hex8-medium": lambda: elastic_bar_problem(
        (8, 8, 16), n_parts=1, etype=ElementType.HEX8
    ),
}

#: the two HYMV workspace shapes, one scalar and one vector PDE
HYMV_CASES = ("poisson-hex8-medium", "elastic-bar-hex8-medium")

#: ``(case, C, sigma)`` SELL-C-sigma layouts: the 9-point (C, sigma) grid
#: on the two small shapes, the default layout on the larger ones (each
#: layout costs a fresh assembly of its shape)
SELL_LAYOUTS = [
    (case, C, sigma)
    for case in SHAPES
    for C, sigma in (
        [(C, s) for C in (4, 8, 32) for s in (1, C, 8 * C)]
        if case in ("poisson-hex8-tiny", "graphlap-tet4-small")
        else [(32, 256)]
    )
]


@cache
def spec(case: str):
    """The (shared, read-only) spec of ``case``, built once per session."""
    return FACTORIES[case]()


def single_rank(cls, case: str, **options):
    """Operator ``cls`` of ``case`` on an in-process single-rank comm."""
    s = spec(case)
    return cls(_NullComm(), s.partition.local(0), s.operator, **options)
