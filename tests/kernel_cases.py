"""The named problem shapes the kernel-level bitwise, derived-bound and
zero-allocation checks run on: two Poisson and two irregular-row graph
Laplacian shapes plus the medium elasticity bar.  Case ids follow
``<case>/<method>``."""

from __future__ import annotations

import gc
import tracemalloc
from functools import cache

from repro.mesh.element import ElementType
from repro.problems import (
    elastic_bar_problem,
    graph_laplacian_problem,
    poisson_problem,
)
from repro.simmpi import Simulator


def _graphlap(nel):
    # jittered tets: irregular row lengths (729 / 4913 dofs)
    return lambda: graph_laplacian_problem(nel, n_parts=1, seed=3)


#: the scalar shapes, smallest first: name -> single-part spec factory
SHAPES = {
    "poisson-hex8-tiny": lambda: poisson_problem(6, n_parts=1),  # 343 dofs
    "graphlap-tet4-small": _graphlap(8),
    "graphlap-tet4-medium": _graphlap(16),
    # 8000 HEX8 elements, 9261 dofs: the sweep dominates Python overhead
    "poisson-hex8-medium": lambda: poisson_problem(20, n_parts=1),
}

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


def one_rank_comm():
    """A real one-rank communicator, used in-process without a run: its
    collectives return at once and its clock charges no compute."""
    return Simulator(1, compute_scale=0.0).comms[0]


def single_rank(cls, case: str, **options):
    """Operator ``cls`` of ``case`` on an in-process single-rank comm."""
    s = spec(case)
    return cls(one_rank_comm(), s.partition.local(0), s.operator, **options)


def traced_bytes(call) -> tuple[object, int, int]:
    """``(result, retained, peak)`` of a second ``call()``: the bytes
    its result still holds, and the most it held at once, both counted
    from before the call.  The first call warms caches (reference
    basis, quadrature rules, tracemalloc's own structures)."""
    call()
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        gc.collect()
        now, peak = tracemalloc.get_traced_memory()
        return out, now - base, peak - base
    finally:
        tracemalloc.stop()
