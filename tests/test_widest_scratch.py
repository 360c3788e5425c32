"""One widest-batch scratch per operator, and chunked GEMM sweeps.

Every multi-RHS scratch (work multivectors, the GEMM element blocks, the
segment scatter's grouped sums, SELL-C-sigma workspaces, the served
Dirichlet operator's held rows) is one buffer per role sized for the
widest ``k`` seen; narrower widths view its leading part.  A GEMM sweep
over more than ``EmvWorkspace.chunk`` elements runs gather -> GEMM ->
segment-add chunk by chunk.  These pins fail if

* a product depends on the widths an operator served before (a stale
  view after a regrow, a narrower width reading a wider one's data);
* a chunked sweep drifts from one whole-batch ``np.matmul`` plus
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
from repro.core import HymvOperator
from repro.core.kernels import GEMM_CHUNK_BYTES, EmvWorkspace
from repro.fem import PoissonOperator
from repro.gpu import HymvGpuOperator
from repro.mesh import ElementType, Mesh, box_hex_mesh
from repro.partition import build_partition
from repro.problems import poisson_problem
from repro.serve import ProblemKey, SolverContext
from repro.simmpi import run_spmd
from repro.tune.calibration import _NullComm

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
    solutions by int64 view, iteration counts and virtual clocks (a
    solve's clock is a difference of absolute clocks, which round in the
    last bits once the context's clock has moved on)."""
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
        assert dt == pytest.approx(want_dt, rel=1e-12)


# ----------------------------------------------------------------------
# chunk edges
# ----------------------------------------------------------------------


def _layers(E: int, n_parts: int):
    """Partition of ``n_parts`` stacked z-layers of ``E`` HEX8 elements
    each, one layer per rank: the first ``E`` elements (x fastest) of a
    ``w x w`` layer, so a node on a chunk edge is shared by up to eight
    elements on both sides of it."""
    w = math.isqrt(E - 1) + 1
    box = box_hex_mesh(w, w, n_parts)
    keep = np.arange(box.n_elements) % (w * w) < E
    used, conn = np.unique(box.conn[keep], return_inverse=True)
    mesh = Mesh(box.coords[used], conn.reshape(-1, 8), ElementType.HEX8)
    return build_partition(mesh, n_parts, method="slab")


def _reference(A, ke, uf, vf, sl, zeroed):
    """The whole-batch sweep: one ``np.matmul`` over the slice's element
    blocks, then ``add_into_multi`` of the slice's segment scatter."""
    ve = np.matmul(ke, uf[A.e2l_dofs[sl]])
    return A._segment_for(sl).add_into_multi(vf.copy(), ve, zeroed=zeroed)


def _whole_ke(A, sl):
    if isinstance(A, HymvOperator):
        return A.ke[sl]
    return A.operator.element_matrices(A._coords_perm[sl], A.etype)


EDGES = [C - 1, C, C + 1, 3 * C + 7]


@pytest.mark.parametrize("E", EDGES)
@pytest.mark.parametrize("kind", ["hymv", "matfree"])
def test_chunked_sweep_equals_whole_batch_on_one_rank(kind, E):
    """A GEMM sweep of ``E`` elements, zeroed and not, equals the
    whole-batch reference by int64 view."""
    A = FACTORIES[kind](_NullComm(), _layers(E, 1).local(0), PoissonOperator())
    assert A._ws.chunk == min(C, E) and A.n_local_elements == E
    rng = np.random.default_rng(E)
    n = A.maps.n_total
    uf = rng.standard_normal((n, 8))
    sl = A._sl_all
    ke = _whole_ke(A, sl)
    for zeroed, vf in ((True, np.zeros((n, 8))),
                       (False, rng.standard_normal((n, 8)))):
        want = _reference(A, ke, uf, vf, sl, zeroed)
        got = vf.copy()
        assert A._gather_emv_add(uf, got, sl, zeroed) == E
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("E", EDGES)
def test_chunked_overlap_sweeps_equal_whole_batch_on_three_ranks(E):
    """On three one-layer slabs of ``E`` elements, a rank whose layer
    touches another rank's nodes has all ``E`` elements dependent, so
    ``overlap=True`` runs the grouped (non-zeroed) sweep over exactly
    ``E`` elements: it equals the whole-batch reference, and every
    rank's product equals an operator sweeping whole slices."""
    part = _layers(E, 3)
    X = np.random.default_rng(E).standard_normal((part.mesh.n_nodes, 8))
    poisson = PoissonOperator()

    def program(comm, lmesh):
        A = HymvOperator(comm, lmesh, poisson)
        B = HymvOperator(comm, lmesh, poisson)
        B._ws = EmvWorkspace(E, ND, chunk=E)  # one whole-slice chunk
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
        want = _reference(A, A.ke[sl], uf, vf, sl, False)
        got = vf.copy()
        A._gather_emv_add(uf, got, sl, False)
        return sl.stop - sl.start, same and np.array_equal(
            _bits(got), _bits(want)
        )

    res, _ = run_spmd(
        3, program, rank_args=[(part.local(r),) for r in range(3)],
        compute_scale=0.0,
    )
    assert all(ok for _, ok in res)
    assert sum(n == E for n, _ in res) >= 2


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------

#: interpreter-level objects kept per width: the views (a few hundred
#: bytes per width and role), the idle one-rank halo exchanges and, for
#: partial assembly, NumPy's einsum path cache (~21 KB).  One width's
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
        _NullComm(), spec.partition.local(0), spec.operator
    )
    every = _retained(make(), range(1, 9))
    widest = _retained(make(), [8])
    assert widest > 0
    assert every <= widest + RETAINED_SLACK, (every, widest)


def test_gemm_sweep_peak_stays_within_the_chunk_budget():
    """A cold k = 8 GEMM sweep of 3C+7 elements allocates one chunk's
    element blocks (``GEMM_CHUNK_BYTES``), not the mesh's."""
    A = HymvOperator(_NullComm(), _layers(3 * C + 7, 1).local(0),
                     PoissonOperator())
    n = A.maps.n_total
    sl = A._sl_indep
    # chunk plans are width-independent: build them at k = 1
    A._gather_emv_add(np.ones((n, 1)), np.zeros((n, 1)), sl, True)
    uf, vf = np.ones((n, 8)), np.zeros((n, 8))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        A._gather_emv_add(uf, vf, sl, True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 2 * C * ND * 8 * 8 <= GEMM_CHUNK_BYTES
    assert peak <= GEMM_CHUNK_BYTES + 65536, peak
