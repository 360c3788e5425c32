"""Algorithm 1 (E2L map), ghost classification, scatter/gather maps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.maps import build_node_maps
from repro.core.scatter import build_comm_maps, gather, scatter
from repro.mesh import ElementType, box_hex_mesh, box_tet_mesh
from repro.partition import build_partition
from repro.simmpi import run_spmd


def test_paper_figure1_example():
    """The worked example of the paper's Fig. 1 (partition P2).

    P2 owns nodes 11..14, its element 0 has E2G = [0, 3, 12, 11]; the
    paper gives E2L = [0, 1, 4, 3], Gpre = {0, 3, 6}, Gpost = {}.
    """
    e2g = np.array([[0, 3, 12, 11], [3, 6, 13, 12], [12, 13, 14, 11]])
    # paper range is inclusive [11, 14]; ours is half-open [11, 15)
    maps = build_node_maps(e2g, 11, 15)
    np.testing.assert_array_equal(maps.ghost_pre, [0, 3, 6])
    assert maps.ghost_post.size == 0
    assert maps.n_owned == 4 and maps.n_total == 7
    np.testing.assert_array_equal(maps.e2l[0], [0, 1, 4, 3])
    np.testing.assert_array_equal(maps.e2l[1], [1, 2, 5, 4])


def test_e2l_matches_bruteforce():
    mesh = box_tet_mesh(3, 3, 3, ElementType.TET10, jitter=0.15)
    part = build_partition(mesh, 4, method="graph")
    for r in range(4):
        lm = part.local(r)
        maps = build_node_maps(lm.e2g, lm.n_begin, lm.n_end)
        l2g = maps.local_to_global()
        # E2L followed by local_to_global recovers E2G exactly
        np.testing.assert_array_equal(l2g[maps.e2l], lm.e2g)
        # layout: pre < begin <= owned < end <= post
        assert (maps.ghost_pre < lm.n_begin).all()
        assert (maps.ghost_post >= lm.n_end).all()
        assert np.array_equal(maps.ghost_pre, np.sort(maps.ghost_pre))
        assert np.array_equal(maps.ghost_post, np.sort(maps.ghost_post))


def test_independent_dependent_split():
    mesh = box_hex_mesh(4, 4, 4)
    part = build_partition(mesh, 4, method="slab")
    for r in range(4):
        lm = part.local(r)
        maps = build_node_maps(lm.e2g, lm.n_begin, lm.n_end)
        both = np.sort(np.concatenate([maps.independent, maps.dependent]))
        np.testing.assert_array_equal(both, np.arange(lm.n_local_elements))
        owned = (lm.e2g >= lm.n_begin) & (lm.e2g < lm.n_end)
        for e in maps.independent:
            assert owned[e].all()
        for e in maps.dependent:
            assert not owned[e].all()


def test_global_to_local_roundtrip_and_errors():
    e2g = np.array([[2, 5, 9, 7]])
    maps = build_node_maps(e2g, 5, 8)
    l2g = maps.local_to_global()
    ids = np.array([2, 5, 6, 7, 9])
    np.testing.assert_array_equal(l2g[maps.global_to_local(ids)], ids)
    with pytest.raises(KeyError):
        maps.global_to_local(np.array([3]))  # not a ghost here
    with pytest.raises(KeyError):
        maps.global_to_local(np.array([100]))


@given(st.integers(min_value=2, max_value=6))
def test_scatter_delivers_owner_values(p):
    mesh = box_hex_mesh(3, 3, max(p, 3))
    part = build_partition(mesh, p, method="slab")

    def prog(comm, lmesh):
        maps = build_node_maps(lmesh.e2g, lmesh.n_begin, lmesh.n_end)
        cmaps = build_comm_maps(comm, maps)
        data = np.zeros((maps.n_total, 1))
        # owned entries get their global id
        data[maps.owned_slice, 0] = np.arange(lmesh.n_begin, lmesh.n_end)
        scatter(comm, data, cmaps)
        l2g = maps.local_to_global()
        np.testing.assert_array_equal(data[:, 0], l2g)
        return True

    res, _ = run_spmd(p, prog, rank_args=[(part.local(r),) for r in range(p)])
    assert all(res)


def test_gather_accumulates_each_contribution_once():
    p = 3
    mesh = box_hex_mesh(3, 3, 4)
    part = build_partition(mesh, p, method="slab")

    def prog(comm, lmesh):
        maps = build_node_maps(lmesh.e2g, lmesh.n_begin, lmesh.n_end)
        cmaps = build_comm_maps(comm, maps)
        data = np.ones((maps.n_total, 1))
        gather(comm, data, cmaps)
        return maps, data

    res, _ = run_spmd(p, prog, rank_args=[(part.local(r),) for r in range(p)])
    # each owned node accumulates 1 (its own) + 1 per rank ghosting it
    ghost_count = np.zeros(mesh.n_nodes)
    for maps, _ in res:
        for g in np.concatenate([maps.ghost_pre, maps.ghost_post]):
            ghost_count[g] += 1
    for r, (maps, data) in enumerate(res):
        owned = data[maps.owned_slice, 0]
        b, e = part.ranges[r]
        np.testing.assert_allclose(owned, 1.0 + ghost_count[b:e])


def test_scatter_then_gather_is_multiplicity_weighting():
    """scatter then gather multiplies owner values by (1 + #ghost copies)."""
    p = 4
    mesh = box_hex_mesh(3, 3, 4)
    part = build_partition(mesh, p, method="slab")
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(mesh.n_nodes)

    def prog(comm, lmesh):
        maps = build_node_maps(lmesh.e2g, lmesh.n_begin, lmesh.n_end)
        cmaps = build_comm_maps(comm, maps)
        data = np.zeros((maps.n_total, 1))
        data[maps.owned_slice, 0] = vals[lmesh.n_begin: lmesh.n_end]
        scatter(comm, data, cmaps)
        gather(comm, data, cmaps)
        return maps, data[maps.owned_slice, 0]

    res, _ = run_spmd(p, prog, rank_args=[(part.local(r),) for r in range(p)])
    ghost_count = np.zeros(mesh.n_nodes)
    for maps, _ in res:
        for g in np.concatenate([maps.ghost_pre, maps.ghost_post]):
            ghost_count[g] += 1
    for r, (maps, owned) in enumerate(res):
        b, e = part.ranges[r]
        np.testing.assert_allclose(owned, vals[b:e] * (1.0 + ghost_count[b:e]))


def test_comm_maps_symmetry():
    """Rank a sends to b exactly what b expects to receive from a."""
    p = 4
    mesh = box_tet_mesh(3, 3, 3, jitter=0.2)
    part = build_partition(mesh, p, method="graph")

    def prog(comm, lmesh):
        maps = build_node_maps(lmesh.e2g, lmesh.n_begin, lmesh.n_end)
        cmaps = build_comm_maps(comm, maps)
        l2g = maps.local_to_global()
        sends = {
            r: l2g[s].tolist() for r, s in zip(cmaps.send_ranks, cmaps.send_slots)
        }
        recvs = {
            r: l2g[s].tolist() for r, s in zip(cmaps.recv_ranks, cmaps.recv_slots)
        }
        return sends, recvs

    res, _ = run_spmd(p, prog, rank_args=[(part.local(r),) for r in range(p)])
    for a in range(p):
        for b, ids in res[a][0].items():
            assert res[b][1][a] == ids  # same global ids, same order


def test_bound_sizes_equal_array_derived_on_every_rank():
    """``NodeMaps`` binds its sizes and owned slice once at construction;
    on every rank of a 4-part partition whose elements straddle the node
    ranges on both sides (pre- *and* post-ghosts) they equal the sizes of
    the arrays they describe."""
    mesh = box_hex_mesh(4, 4, 4)
    p = 4
    bounds = np.linspace(0, mesh.n_nodes, p + 1).astype(int)
    # elements split along x while nodes are numbered z-fastest, so a
    # rank's elements touch node ids below and above its owned range
    order = np.argsort(mesh.coords[mesh.conn].mean(axis=1)[:, 0], kind="stable")
    ghosts = []
    for r, elems in enumerate(np.array_split(order, p)):
        maps = build_node_maps(mesh.conn[elems], bounds[r], bounds[r + 1])
        assert maps.n_owned == bounds[r + 1] - bounds[r]
        assert maps.n_pre == maps.ghost_pre.size
        assert maps.n_post == maps.ghost_post.size
        assert maps.n_total == maps.local_to_global().size
        assert maps.n_total == maps.n_pre + maps.n_owned + maps.n_post
        assert maps.owned_slice == slice(maps.n_pre, maps.n_pre + maps.n_owned)
        assert int(maps.e2l.max()) < maps.n_total
        ghosts.append((maps.n_pre, maps.n_post))
    assert sum(bool(pre and post) for pre, post in ghosts) >= 2, ghosts


#: virtual clocks after one overlapped plus one blocking SPMV per rank
#: under ``compute_scale=0`` and a 1 GFLOP/s modeled EMV rate, pinned as
#: the driver produced them when it still entered a timer for an empty
#: slice.  Rank 0 of the slab partition has no dependent elements,
#: ranks 1-3 no independent ones.
_EMPTY_SLICE_CLOCKS = {
    "poisson": (
        1.3569333333333332e-05,
        1.3766333333333332e-05,
        1.3960333333333333e-05,
        1.3351333333333332e-05,
    ),
    "elasticity": (
        2.8001333333333336e-05,
        2.8192333333333338e-05,
        2.837433333333334e-05,
        2.774733333333334e-05,
    ),
}


@pytest.mark.parametrize("physics", sorted(_EMPTY_SLICE_CLOCKS))
@pytest.mark.parametrize("p", [1, 4])
def test_empty_slice_sweeps_keep_bits_and_clocks(physics, p):
    """A rank with an empty independent or dependent slice runs no sweep
    for it: its product still has ``reference_spmv``'s bits, and its
    virtual clock ends where running the empty sweep left it."""
    from repro.core.hymv import HymvOperator, reference_spmv
    from repro.fem import ElasticityOperator, PoissonOperator
    from repro.mesh import jittered_hex_mesh

    op = PoissonOperator() if physics == "poisson" else ElasticityOperator()
    mesh = jittered_hex_mesh(3, 3, 3, ElementType.HEX8, jitter=0.25, seed=11)
    part = build_partition(mesh, p, method="slab")

    def prog(comm, lmesh):
        A = HymvOperator(comm, lmesh, op, modeled_rate_gflops=1.0)
        u, v = A.new_array(), A.new_array()
        u.set_owned(
            np.random.default_rng(comm.rank).standard_normal(A.n_dofs_owned)
        )
        products = []
        for overlap in (True, False):
            A.spmv(u, v, overlap=overlap)
            products.append(v.owned_flat.copy())
        clock = comm.vtime
        ref = reference_spmv(A, u.copy(), A.new_array()).owned_flat
        return A.n_independent, A.n_dependent, products, ref, clock

    res, _ = run_spmd(
        p, prog, rank_args=[(part.local(r),) for r in range(p)],
        compute_scale=0.0,
    )
    for _, _, products, ref, _ in res:
        for y in products:
            np.testing.assert_array_equal(y.view(np.int64), ref.view(np.int64))
    if p == 1:
        (n_indep, n_dep, _, _, clock), = res
        assert n_dep == 0
        flops = n_indep * op.emv_flops(ElementType.HEX8)
        assert clock == 2 * flops / 1e9
    else:
        assert res[0][1] == 0 and all(r[0] == 0 for r in res[1:])
        assert tuple(r[4] for r in res) == _EMPTY_SLICE_CLOCKS[physics]
