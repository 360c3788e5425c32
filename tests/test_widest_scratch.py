"""One widest-batch scratch per operator, and chunked GEMM sweeps.

Every multi-RHS scratch (work multivectors, the GEMM element blocks, the
segment scatter's grouped sums, SELL-C-sigma workspaces, the served
Dirichlet operator's held rows) is one buffer per role sized for the
widest ``k`` seen; narrower widths view its leading part.  A GEMM sweep
over more than ``EmvWorkspace.chunk`` elements runs gather -> GEMM ->
segment-add chunk by chunk, for every element-by-element kind (partial
assembly's contractions included).  These pins fail if

* a product depends on the widths an operator served before (a stale
  view after a regrow, a narrower width reading a wider one's data);
* a chunked sweep drifts from one whole-batch ``np.matmul`` (partial
  assembly: its own whole-slice contraction) plus
  ``SegmentScatter.add_into_multi`` by a bit, at the chunk edges
  ``E in {C-1, C, C+1, 3C+7}``, zeroed (the direct path) or not (the
  grouped path, which multi-rank overlap runs on the dependent slice);
* an operator keeps scratch per width, or a sweep's working set outgrows
  the chunk budget.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.baselines import AssembledOperator, MatrixFreeOperator
from repro.baselines.partial import PartialAssemblyOperator
from repro.baselines.sellcs import SellCSOperator
from repro.core import HymvOperator, kernels
from repro.core.kernels import GEMM_CHUNK_BYTES
from repro.fem import ElasticityOperator, PoissonOperator
from repro.gpu import HymvGpuOperator
from repro.mesh import ElementType, Mesh, box_hex_mesh
from repro.partition import build_partition
from repro.problems import poisson_problem
from repro.serve import ProblemKey, SolverContext
from repro.simmpi import run_spmd

from .kernel_cases import one_rank_comm

FACTORIES = {
    "hymv": HymvOperator,
    "matfree": MatrixFreeOperator,
    "partial": PartialAssemblyOperator,
    "assembled": AssembledOperator,
    "sellcs": SellCSOperator,
    "hymv_gpu": HymvGpuOperator,
}

#: the interleaved batch widths, and the distinct ones among them
SEQUENCE = (1, 8, 3, 8, 2, 1, 5, 8)
WIDTHS = sorted(set(SEQUENCE))
MODES = ("oracle", "gemm", "auto")

#: HEX8 Poisson: nd = 8, so the GEMM chunk is C elements
ND = 8
C = GEMM_CHUNK_BYTES // (128 * ND)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _inputs(n_dofs: int, widths=WIDTHS) -> dict[int, np.ndarray]:
    return {
        k: np.random.default_rng(10 + k).standard_normal((n_dofs, k))
        for k in widths
    }


def _run(spec, program):
    p = spec.n_parts
    res, _ = run_spmd(
        p, program, rank_args=[(spec.partition.local(r),) for r in range(p)],
        compute_scale=0.0,
    )
    return res


# ----------------------------------------------------------------------
# width interleaving
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_interleaved_widths_equal_fresh_operators(kind, p):
    """Products at k = 1, 8, 3, 8, 2, 1, 5, 8 on one operator equal, by
    int64 view, the same products on fresh operators that only ever
    served that width, in every mode.  On one rank the mesh (1089
    elements) is longer than one GEMM chunk."""
    spec = poisson_problem((11, 11, 9), p)
    X = _inputs(spec.n_dofs)

    def program(comm, lmesh):
        rows = slice(lmesh.n_begin, lmesh.n_end)
        A = FACTORIES[kind](comm, lmesh, spec.operator)
        seen = {
            (k, mode, i): A.apply_owned_multi(X[k][rows], mode=mode)
            for mode in MODES for i, k in enumerate(SEQUENCE)
        }
        fresh = {}
        for k in WIDTHS:
            B = FACTORIES[kind](comm, lmesh, spec.operator)
            for mode in MODES:
                fresh[k, mode] = B.apply_owned_multi(X[k][rows], mode=mode)
        return all(
            np.array_equal(_bits(Y), _bits(fresh[k, mode]))
            for (k, mode, _), Y in seen.items()
        )

    assert all(_run(spec, program))


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("method", ["hymv", "assembled"])
def test_served_solves_across_widths_equal_fresh_contexts(method, p):
    """Served solves at k = 1, 8, 1 on one context equal fresh contexts:
    solutions and virtual times by int64 view, and iteration counts (a
    solve is charged its own clock increments, whatever the context ran
    before)."""
    key = ProblemKey("poisson", 6, p, "hex8", 0, method)
    ctx = SolverContext(key)
    F = {
        k: np.random.default_rng(k).standard_normal((ctx.n_dofs, k))
        for k in (1, 8)
    }
    for k in (1, 8, 1):
        out, dt = ctx.solve_multi(F[k], 1e-8)
        want, want_dt = SolverContext(key).solve_multi(F[k], 1e-8)
        assert np.array_equal(_bits(out["x"]), _bits(want["x"]))
        assert out["iterations"] == want["iterations"]
        assert np.array_equal(
            _bits(np.float64(dt)), _bits(np.float64(want_dt))
        )


# ----------------------------------------------------------------------
# chunk edges
# ----------------------------------------------------------------------


def _layers(E: int, n_parts: int, etype=ElementType.HEX8):
    """Partition of ``n_parts`` stacked z-layers of ``E`` hexahedra
    each, one layer per rank: the first ``E`` elements (x fastest) of a
    ``w x w`` layer, so a node on a chunk edge is shared by up to eight
    elements on both sides of it."""
    w = math.isqrt(E - 1) + 1
    box = box_hex_mesh(w, w, n_parts, etype)
    keep = np.arange(box.n_elements) % (w * w) < E
    used, conn = np.unique(box.conn[keep], return_inverse=True)
    mesh = Mesh(box.coords[used], conn.reshape(-1, etype.n_nodes), etype)
    return build_partition(mesh, n_parts, method="slab")


def _reference(A, uf, vf, sl, zeroed):
    """The whole-batch sweep: the slice's element products in one batch
    (one ``np.matmul`` over the element matrices; partial assembly's own
    contraction of the whole slice), then ``add_into_multi`` of the
    slice's segment scatter."""
    ue = uf[A.e2l_dofs[sl]]
    if isinstance(A, PartialAssemblyOperator):
        ve = A._local_emv(sl, ue)
    elif isinstance(A, HymvOperator):
        ve = np.matmul(A.ke[sl], ue)
    else:
        ve = np.matmul(
            A.operator.element_matrices(A.lmesh.coords[A._order[sl]], A.etype),
            ue,
        )
    return A._segment_for(sl).add_into_multi(vf.copy(), ve, zeroed=zeroed)


def _check_chunked_sweep(A, E, chunk):
    """A GEMM sweep of all ``E`` elements of ``A``, zeroed and not,
    equals the whole-batch reference by int64 view."""
    assert A._ws.chunk == min(chunk, E) and A.n_local_elements == E
    rng = np.random.default_rng(E)
    n, k = A.maps.n_total * A.ndpn, 8
    uf = rng.standard_normal((n, k))
    sl = A._sl_all
    for zeroed, vf in ((True, np.zeros((n, k))),
                       (False, rng.standard_normal((n, k)))):
        want = _reference(A, uf, vf, sl, zeroed)
        got = vf.copy()
        assert A._gather_emv_add(uf, got, sl, zeroed) == E
        assert np.array_equal(_bits(got), _bits(want))


EDGES = [C - 1, C, C + 1, 3 * C + 7]


@pytest.mark.parametrize("E", EDGES)
@pytest.mark.parametrize("kind", ["hymv", "matfree"])
def test_chunked_sweep_equals_whole_batch_on_one_rank(kind, E):
    """A GEMM sweep of ``E`` elements, zeroed and not, equals the
    whole-batch reference by int64 view."""
    A = FACTORIES[kind](one_rank_comm(), _layers(E, 1).local(0), PoissonOperator())
    _check_chunked_sweep(A, E, C)


#: partial assembly's sweeps: (operator, element type) -> chunk ``C``
PARTIAL_SWEEPS = {
    ("poisson", ElementType.HEX8): GEMM_CHUNK_BYTES // (128 * 8),
    ("elasticity", ElementType.HEX8): GEMM_CHUNK_BYTES // (128 * 24),
    ("elasticity", ElementType.HEX20): GEMM_CHUNK_BYTES // (128 * 60),
}
PARTIAL_OPERATORS = {"poisson": PoissonOperator,
                     "elasticity": ElasticityOperator}


def _partial(op: str, etype, E: int) -> PartialAssemblyOperator:
    return PartialAssemblyOperator(
        one_rank_comm(), _layers(E, 1, etype).local(0), PARTIAL_OPERATORS[op]()
    )


@pytest.mark.parametrize("op,etype,E", [
    pytest.param(op, etype, E, id=f"{op}-{etype.value}-{E}")
    for (op, etype), c in PARTIAL_SWEEPS.items()
    for E in (c - 1, c, c + 1, 3 * c + 7)
])
def test_partial_chunked_sweep_equals_its_whole_slice_product(op, etype, E):
    """Partial assembly sweeps GEMM products in chunks too: at every
    chunk edge its chunked sweep equals its own whole-slice contraction
    (batch-invariant stacked matmuls) by int64 view."""
    _check_chunked_sweep(
        _partial(op, etype, E), E, PARTIAL_SWEEPS[op, etype]
    )


@pytest.mark.parametrize("E", EDGES)
def test_chunked_overlap_sweeps_equal_whole_batch_on_three_ranks(
    E, monkeypatch
):
    """On three one-layer slabs of ``E`` elements, a rank whose layer
    touches another rank's nodes has all ``E`` elements dependent, so
    ``overlap=True`` runs the grouped (non-zeroed) sweep over exactly
    ``E`` elements: it equals the whole-batch reference, and every
    rank's product equals an operator sweeping whole slices (built
    under a chunk budget wider than the mesh)."""
    part = _layers(E, 3)
    X = np.random.default_rng(E).standard_normal((part.mesh.n_nodes, 8))
    poisson = PoissonOperator()
    lmeshes = [part.local(r) for r in range(3)]
    # the B operators' workspaces: one chunk spans every slice
    with monkeypatch.context() as m:
        m.setattr(kernels, "GEMM_CHUNK_BYTES", 128 * ND * E)
        wide = [kernels.EmvWorkspace(lm.n_local_elements, ND)
                for lm in lmeshes]

    def program(comm, lmesh):
        A = HymvOperator(comm, lmesh, poisson)
        B = HymvOperator(comm, lmesh, poisson)
        B._ws = wide[comm.rank]
        assert B._ws.chunk == lmesh.n_local_elements
        sl = A._sl_dep
        assert A._ws.chunk == min(C, E)
        rows = slice(lmesh.n_begin, lmesh.n_end)
        prods = []
        for op in (A, B):
            U, V = op.new_multivector(8), op.new_multivector(8)
            U.set_owned(X[rows])
            op.spmv_multi(U, V, overlap=True, mode="gemm")
            prods.append(V.owned_matrix.copy())
        same = np.array_equal(_bits(prods[0]), _bits(prods[1]))
        if sl.stop == sl.start:
            return 0, same
        uf = U.dof_view  # ghosts filled by the product's scatter
        vf = np.random.default_rng(comm.rank).standard_normal(uf.shape)
        want = _reference(A, uf, vf, sl, False)
        got = vf.copy()
        A._gather_emv_add(uf, got, sl, False)
        return sl.stop - sl.start, same and np.array_equal(
            _bits(got), _bits(want)
        )

    res, _ = run_spmd(
        3, program, rank_args=[(lm,) for lm in lmeshes], compute_scale=0.0,
    )
    assert all(ok for _, ok in res)
    assert sum(n == E for n, _ in res) >= 2


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------

#: interpreter-level objects kept per width: the views (a few hundred
#: bytes per width and role) and the idle one-rank halo exchanges
#: (8-12 KB over k = 1..8 for every kind).  One width's
#: work pair on this mesh is 23 KB (k = 1) to 184 KB (k = 8); per-width
#: scratch retained 0.9-9.2 MB here, the widest alone 0.2-2.2 MB
RETAINED_SLACK = 65536


def _retained(A, widths) -> int:
    """Traced bytes ``A`` still holds after GEMM and oracle products at
    each of ``widths``."""
    X = _inputs(A.n_dofs_owned, widths)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for k in widths:
            for mode in ("gemm", "oracle"):
                A.apply_owned_multi(X[k], copy=False, mode=mode)
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_scratch_of_every_width_is_the_widest_ones(kind):
    """Products at every k = 1..8 leave an operator holding no more
    than products at k = 8 alone (plus the per-width views)."""
    spec = poisson_problem((11, 11, 9), 1)
    make = lambda: FACTORIES[kind](
        one_rank_comm(), spec.partition.local(0), spec.operator
    )
    every = _retained(make(), range(1, 9))
    widest = _retained(make(), [8])
    assert widest > 0
    assert every <= widest + RETAINED_SLACK, (every, widest)


def _sweep_peak(A) -> int:
    """Traced peak of a cold k = 8 GEMM sweep of all of ``A``'s
    elements (chunk plans built at k = 1 first)."""
    n = A.maps.n_total * A.ndpn
    sl = A._sl_all
    A._gather_emv_add(np.ones((n, 1)), np.zeros((n, 1)), sl, True)
    uf, vf = np.ones((n, 8)), np.zeros((n, 8))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        A._gather_emv_add(uf, vf, sl, True)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_gemm_sweep_peak_stays_within_the_chunk_budget():
    """A cold k = 8 GEMM sweep of 3C+7 elements allocates one chunk's
    element blocks (``GEMM_CHUNK_BYTES``), not the mesh's."""
    A = HymvOperator(one_rank_comm(), _layers(3 * C + 7, 1).local(0),
                     PoissonOperator())
    peak = _sweep_peak(A)
    assert 2 * C * ND * 8 * 8 <= GEMM_CHUNK_BYTES
    assert peak <= GEMM_CHUNK_BYTES + 65536, peak


@pytest.mark.parametrize("op,etype", [
    pytest.param(op, etype, id=f"{op}-{etype.value}")
    for op, etype in PARTIAL_SWEEPS
])
def test_partial_sweep_peak_is_one_chunks(op, etype):
    """A k = 8 GEMM sweep of 3C+7 elements peaks at (within a quarter
    of) one chunk's contraction temporaries, as a sweep of C elements
    does, not at three chunks' worth."""
    c = PARTIAL_SWEEPS[op, etype]
    one = _sweep_peak(_partial(op, etype, c))
    many = _sweep_peak(_partial(op, etype, 3 * c + 7))
    assert many <= 1.25 * one, (many, one)
