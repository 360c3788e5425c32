"""The sort-based assembly of :mod:`repro.baselines.assembled`: the same
pattern as SciPy's COO→CSR with values within a derived rounding bound,
every slot a sequential sum in set-up order, fixed-pattern patches
bitwise equal to a fresh assembly on 1 and 3 ranks, and HYMV's
block-Jacobi block bitwise the assembled diagonal block."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.adapt import CrackFront
from repro.baselines.assembled import AssembledOperator
from repro.baselines.sellcs import SellCSOperator
from repro.core.hymv import HymvOperator
from repro.mesh.element import ElementType
from repro.problems import (
    elastic_bar_problem,
    graph_laplacian_problem,
    poisson_problem,
)
from repro.serve.cache import ProblemKey, SolverContext
from repro.simmpi.engine import run_spmd

U = np.finfo(np.float64).eps / 2  # unit roundoff

PROBLEMS = {
    "poisson-hex8": lambda p: poisson_problem(4, p, ElementType.HEX8),
    "elastic-hex8": lambda p: elastic_bar_problem(3, p, ElementType.HEX8),
    "poisson-tet4": lambda p: poisson_problem(4, p, ElementType.TET4),
    "graphlap-tet4": lambda p: graph_laplacian_problem(4, p, ElementType.TET4),
}


def _run(spec, program, **kwargs):
    out, _ = run_spmd(
        spec.partition.n_parts, program, spec=spec, compute_scale=0, **kwargs
    )
    return out


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _global_rows(A: AssembledOperator) -> sp.csr_matrix:
    """The rank's rows over global dof columns, from its three blocks."""
    ndpn = A.ndpn
    comp = np.arange(ndpn)

    def dofs(nodes):
        return (nodes[:, None] * ndpn + comp).reshape(-1)

    m = A.maps
    cols = (
        dofs(np.arange(m.n_begin, m.n_end)),
        dofs(m.ghost_pre),
        dofs(m.ghost_post),
    )
    parts = []
    for B, c in zip(A._blocks, cols):
        coo = B.to_scipy().tocoo()
        parts.append((coo.row, c[coo.col], coo.data))
    r, c, v = (np.concatenate(x) for x in zip(*parts))
    n = A.A_diag.shape[0]
    return sp.csr_matrix((v, (r, c)), shape=(n, int(c.max(initial=0)) + 1))


def _all_triplets(spec, ke_of):
    """Every rank's element triplets ``(rows, cols, vals)`` in global
    dofs, in source-rank order and each rank's set-up order."""
    out = []
    for r in range(spec.partition.n_parts):
        lm = spec.partition.local(r)
        ke = ke_of(lm)
        nd = ke.shape[1]
        ndpn = spec.operator.ndpn
        g = (lm.e2g[:, :, None] * ndpn + np.arange(ndpn)).reshape(-1, nd)
        out.append((
            np.repeat(g, nd, axis=1).reshape(-1),
            np.tile(g, (1, nd)).reshape(-1),
            ke.reshape(-1),
        ))
    return out


def _setup_program(comm, spec):
    return AssembledOperator(comm, spec.partition.local(comm.rank), spec.operator)


@pytest.mark.parametrize("p", (1, 3))
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_assembly_matches_scipy_within_derived_bound(name, p):
    """Same pattern as SciPy's COO→CSR of the owned rows; each value
    within ``2·γ(m−1)·Σ|contributions|`` of it, ``m`` being the slot's
    contribution count (both are sums of the same ``m`` terms in two
    orders)."""
    spec = PROBLEMS[name](p)
    ops = _run(spec, _setup_program)
    trip = _all_triplets(spec, lambda lm: spec.operator.element_matrices(
        lm.coords, lm.etype))
    rows, cols, vals = (np.concatenate(x) for x in zip(*trip))
    n = spec.n_dofs
    ref = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    mag = sp.coo_matrix((np.abs(vals), (rows, cols)), shape=(n, n)).tocsr()
    cnt = sp.coo_matrix((np.ones_like(vals), (rows, cols)),
                        shape=(n, n)).tocsr()
    for A in ops:
        lo = A.maps.n_begin * A.ndpn
        hi = A.maps.n_end * A.ndpn
        got = _global_rows(A)
        got.resize((hi - lo, n))
        want = ref[lo:hi]
        got.sort_indices()
        want.sort_indices()
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        m = cnt[lo:hi]
        m.sort_indices()
        s = mag[lo:hi]
        s.sort_indices()
        k = m.data - 1
        bound = 2 * k * U / (1 - k * U) * s.data
        assert np.all(np.abs(got.data - want.data) <= bound)
        # the stored index arrays are as compact as SciPy's
        assert A.A_diag.indices.dtype == want.indices.dtype


@pytest.mark.parametrize("p", (1, 3))
def test_each_slot_is_a_sequential_sum_in_setup_order(p):
    """A slot's value is the left-to-right float sum of its
    contributions in set-up order: the rank's own elements in
    local-mesh order, then every other rank's in source-rank order."""
    spec = poisson_problem(3, p, ElementType.TET4)
    ops = _run(spec, _setup_program)
    trip = _all_triplets(spec, lambda lm: spec.operator.element_matrices(
        lm.coords, lm.etype))
    for r, A in enumerate(ops):
        lo, hi = A.maps.n_begin * A.ndpn, A.maps.n_end * A.ndpn
        order = [r] + [q for q in range(p) if q != r]
        sums: dict[tuple[int, int], float] = {}
        for q in order:
            for i, j, v in zip(*trip[q]):
                if lo <= i < hi:
                    sums[(int(i), int(j))] = sums.get((int(i), int(j)), 0.0) + v
        got = _global_rows(A).tocoo()
        want = np.array([sums[(int(i) + lo, int(j))]
                         for i, j in zip(got.row, got.col)])
        assert len(sums) == got.nnz
        assert np.array_equal(_bits(got.data), _bits(want))


# -- fixed-pattern patches ---------------------------------------------


def _patch_program(comm, spec, kind, picks):
    """Two overlapping patches of ``kind`` on the local elements named
    by ``picks(lmesh) -> [ids, ids]``, then a fresh assembly of the
    patched inputs; returns both operators."""
    lm = spec.partition.local(comm.rank)
    A = AssembledOperator(comm, lm, spec.operator)
    for step, elems in enumerate(picks(lm)):
        if kind == "scale":
            A.update_elements(elems, stiffness_scale=0.05 + 0.3 * step)
        else:
            moved = lm.coords[elems] * (1.0 + 1e-3 * (step + 1))
            A.update_elements(elems, coords=moved)
    fresh = AssembledOperator(
        comm, replace(lm, coords=A._coords), spec.operator,
        elem_scale=A._scale,
    )
    return A, fresh


def _near(spec, frac):
    """Local elements whose first node lies in the lowest ``frac`` of
    the mesh's x extent, then in the lowest ``frac + 0.1`` (overlapping
    layers)."""
    x = spec.mesh.coords[:, 0]
    x0, span = x.min(), np.ptp(x)

    def picks(lm):
        rel = (lm.coords[:, 0, 0] - x0) / span
        return [np.flatnonzero(rel < frac), np.flatnonzero(rel < frac + 0.1)]
    return picks


def _assert_same_matrix(A, B):
    assert np.array_equal(A.maps.ghost_pre, B.maps.ghost_pre)
    assert np.array_equal(A.maps.ghost_post, B.maps.ghost_post)
    for X, Y in zip((A.A_diag, A.A_pre, A.A_post),
                    (B.A_diag, B.A_pre, B.A_post)):
        assert np.array_equal(X.indptr, Y.indptr)
        assert np.array_equal(X.indices, Y.indices)
        assert np.array_equal(_bits(X.data), _bits(Y.data))


@pytest.mark.parametrize("kind", ("scale", "move"))
@pytest.mark.parametrize("p", (1, 3))
@pytest.mark.parametrize("name", ("poisson-hex8", "elastic-hex8",
                                  "poisson-tet4"))
def test_patched_operator_equals_fresh_assembly_bitwise(name, p, kind):
    spec = PROBLEMS[name](p)
    out = _run(spec, _patch_program, kind=kind, picks=_near(spec, 0.2))
    recomputed = 0
    for A, fresh in out:
        _assert_same_matrix(A, fresh)
        recomputed += A.comm.obs.counter("update.ke_recomputed")
        # re-integrates the touched elements and their node neighbours,
        # not the mesh
        assert A.comm.obs.counter("update.ke_recomputed") <= (
            2 * A.lmesh.n_local_elements
        )
    assert 0 < recomputed < 2 * spec.mesh.n_elements


def test_rank_with_empty_touched_set_joins_a_multi_rank_patch():
    """Only the last rank patches; the other ranks' calls are empty, yet
    their elements around the touched nodes are re-integrated and the
    rows the last rank contributes to are re-reduced."""
    spec = PROBLEMS["poisson-hex8"](3)

    def picks(lm):
        if lm.rank != 2:
            return [np.empty(0, dtype=np.int64)] * 2
        # the last rank's elements with a node an earlier rank owns
        return [np.flatnonzero((lm.e2g < lm.n_begin).any(axis=1))] * 2

    out = _run(spec, _patch_program, kind="scale", picks=picks)
    for A, fresh in out:
        _assert_same_matrix(A, fresh)
    assert out[2][0].comm.obs.counter("update.elements") > 0
    assert out[1][0].comm.obs.counter("update.elements") == 0
    assert out[1][0].comm.obs.counter("update.ke_recomputed") > 0
    # nobody touched anything: a no-op, still collective
    out = _run(spec, _patch_program, kind="scale",
               picks=lambda lm: [np.empty(0, dtype=np.int64)])
    for A, fresh in out:
        _assert_same_matrix(A, fresh)
        assert A.comm.obs.counter("update.ke_recomputed") == 0


def test_structural_delta_still_reassembles():
    key = ProblemKey("poisson", 4, 2, "tet4", 3, "assembled")
    ctx = SolverContext(key)
    delta = CrackFront().refine_delta(ctx.spec.mesh, 0, 8)
    info = ctx.apply_delta(delta)
    assert info["path"] == "full_rebuild"
    fresh = SolverContext(key.with_delta(delta))
    for st, st_f in zip(ctx.ranks, fresh.ranks):
        _assert_same_matrix(st["A"], st_f["A"])


def _sellcs_program(comm, spec):
    lm = spec.partition.local(comm.rank)
    S = SellCSOperator(comm, lm, spec.operator)
    elems = np.flatnonzero(lm.coords[:, 0, 0] < 0.5)
    S.update_elements(elems, stiffness_scale=0.1)
    fresh = SellCSOperator(comm, lm, spec.operator, elem_scale=S._scale)
    x = np.random.default_rng(comm.rank).standard_normal(S.n_dofs_owned)
    return S, fresh, S.apply_owned(x), fresh.apply_owned(x)


@pytest.mark.parametrize("p", (1, 3))
def test_sellcs_update_equals_fresh_build_bitwise(p):
    spec = PROBLEMS["graphlap-tet4"](p)
    for S, fresh, y, y_f in _run(spec, _sellcs_program):
        _assert_same_matrix(S, fresh)
        for X, Y in zip((S.S_diag, S.S_pre, S.S_post),
                        (fresh.S_diag, fresh.S_pre, fresh.S_post)):
            if X is None:
                assert Y is None
                continue
            assert np.array_equal(X.perm, Y.perm)
            for a, b in zip(X.slices, Y.slices):
                assert np.array_equal(a.cols, b.cols)
                assert np.array_equal(_bits(a.vals), _bits(b.vals))
        assert np.array_equal(_bits(y), _bits(y_f))
        assert S.comm.obs.counter("update.ke_recomputed") == (
            S.lmesh.n_local_elements
        )


def _block_program(comm, spec):
    lm = spec.partition.local(comm.rank)
    H = HymvOperator(comm, lm, spec.operator)
    A = AssembledOperator(comm, lm, spec.operator)
    return H.owned_block_csr(), A.A_diag


@pytest.mark.parametrize("make", (
    lambda: poisson_problem(6, 3, ElementType.HEX8),
    lambda: poisson_problem(5, 3, ElementType.TET4),
    lambda: elastic_bar_problem(4, 3, ElementType.HEX8),
), ids=("poisson-hex8", "poisson-tet4", "elastic-hex8"))
def test_hymv_owned_block_is_the_assembled_diagonal_block(make):
    """On 3 ranks the block-Jacobi block HYMV assembles equals the
    assembled baseline's ``A_diag`` bit for bit (it differed in the
    last bit when each went through its own COO→CSR)."""
    for B, D in _run(make(), _block_program):
        assert np.array_equal(B.indptr, D.indptr)
        assert np.array_equal(B.indices, D.indices)
        assert np.array_equal(_bits(B.data), _bits(D.data))


# -- the modeled charge of a patch -------------------------------------


@pytest.mark.parametrize("method", ("hymv", "assembled"))
def test_patch_charges_the_element_work_that_ran(method):
    """HYMV's scale-only patch rescales (``nd²`` flops per element); the
    assembled patch integrates the elements around the touched nodes."""
    ctx = SolverContext(ProblemKey("poisson", 4, 2, "tet4", 3, method))
    before = [c.obs.total("update.modeled") for c in ctx.sim.comms]
    done = [c.obs.counter("update.ke_recomputed") for c in ctx.sim.comms]
    info = ctx.apply_delta(CrackFront().scale_delta(ctx.spec.mesh, 0, 8))
    assert info["path"] == "patch"
    op, etype = ctx.spec.operator, ctx.spec.mesh.etype
    nd = etype.n_nodes * op.ndpn
    rate = ctx.modeled_rate * 1e9
    for c, t0, n0 in zip(ctx.sim.comms, before, done):
        integrated = c.obs.counter("update.ke_recomputed") - n0
        rescaled = c.obs.counter("update.ke_rescaled")
        charged = c.obs.total("update.modeled") - t0
        want = (integrated * op.ke_flops(etype) + rescaled * nd * nd) / rate
        assert charged == pytest.approx(want, rel=1e-12)
        if method == "hymv":
            assert integrated == 0 and rescaled > 0
        else:
            n_local = ctx.spec.partition.local(c.rank).elements.size
            assert 0 < integrated < n_local and rescaled == 0
