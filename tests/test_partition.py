"""Partitioners and the renumbered partition interface."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mesh import ElementType, box_hex_mesh, box_tet_mesh
from repro.partition import build_partition, partition_metrics
from repro.partition.interface import partition_from_elem_part

METHODS = ["slab", "rcb", "graph"]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_partition_invariants(method, p):
    mesh = box_hex_mesh(4, 4, 6)
    part = build_partition(mesh, p, method=method)
    # every element assigned exactly once, within range
    assert part.elem_part.shape == (mesh.n_elements,)
    assert part.elem_part.min() >= 0 and part.elem_part.max() < p
    # renumbering is a permutation
    assert np.array_equal(np.sort(part.old_of_new), np.arange(mesh.n_nodes))
    assert np.array_equal(part.new_of_old[part.old_of_new], np.arange(mesh.n_nodes))
    # ranges contiguous, disjoint, covering
    assert part.ranges[0, 0] == 0
    assert part.ranges[-1, 1] == mesh.n_nodes
    assert (part.ranges[1:, 0] == part.ranges[:-1, 1]).all()
    # node ownership consistent with ranges
    for r in range(p):
        b, e = part.ranges[r]
        assert (part.node_owner[part.old_of_new[b:e]] == r).all()


@pytest.mark.parametrize("method", METHODS)
def test_local_meshes_cover_mesh(method):
    mesh = box_tet_mesh(3, 3, 3, ElementType.TET10, jitter=0.2)
    p = 4
    part = build_partition(mesh, p, method=method)
    all_elems = np.concatenate([part.local(r).elements for r in range(p)])
    assert np.array_equal(np.sort(all_elems), np.arange(mesh.n_elements))
    all_nodes = np.unique(
        np.concatenate([part.local(r).e2g.reshape(-1) for r in range(p)])
    )
    assert np.array_equal(all_nodes, np.arange(mesh.n_nodes))
    for r in range(p):
        lm = part.local(r)
        # coords consistent with global mesh under renumbering
        np.testing.assert_array_equal(
            lm.coords, mesh.coords[mesh.conn[lm.elements]]
        )
        # every owned node appears in some local element
        owned = np.arange(lm.n_begin, lm.n_end)
        assert np.isin(owned, lm.e2g).all()


def test_min_rank_ownership():
    mesh = box_hex_mesh(4, 4, 4)
    part = build_partition(mesh, 4, method="slab")
    # a node's owner is the minimum part over its adjacent elements
    for node in range(0, mesh.n_nodes, 7):
        elems = np.flatnonzero((mesh.conn == node).any(axis=1))
        assert part.node_owner[node] == part.elem_part[elems].min()


def test_slab_balance_exact_when_divisible():
    mesh = box_hex_mesh(4, 4, 8)
    part = build_partition(mesh, 4, method="slab")
    sizes = np.bincount(part.elem_part)
    assert (sizes == mesh.n_elements // 4).all()


@given(st.integers(min_value=1, max_value=8))
def test_rcb_any_part_count(p):
    mesh = box_hex_mesh(4, 4, 4)
    part = build_partition(mesh, p, method="rcb")
    sizes = np.bincount(part.elem_part, minlength=p)
    assert sizes.min() >= 1
    assert sizes.max() - sizes.min() <= max(2, mesh.n_elements // p // 2)


def test_graph_partition_balance_and_cut():
    mesh = box_tet_mesh(4, 4, 4, jitter=0.2)
    part = build_partition(mesh, 6, method="graph")
    met = partition_metrics(part)
    assert met.element_imbalance < 1.15
    assert 0 < met.edge_cut_fraction < 0.5


def test_graph_partition_more_parts_than_elements_raises():
    mesh = box_hex_mesh(1, 1, 2)
    with pytest.raises(ValueError):
        build_partition(mesh, 5, method="graph")


def test_unknown_method_raises():
    with pytest.raises(ValueError):
        build_partition(box_hex_mesh(2, 2, 2), 2, method="metis")


def test_partition_from_bad_elem_part():
    mesh = box_hex_mesh(2, 2, 2)
    with pytest.raises(ValueError):
        partition_from_elem_part(mesh, 2, np.zeros(3, dtype=np.int64))
    with pytest.raises(ValueError):
        partition_from_elem_part(
            mesh, 2, np.full(mesh.n_elements, 7, dtype=np.int64)
        )


def test_partition_handles_empty_ranks():
    mesh = box_hex_mesh(2, 2, 2)
    # all elements to rank 1 of 3 => ranks 0 and 2 own nothing
    part = partition_from_elem_part(
        mesh, 3, np.ones(mesh.n_elements, dtype=np.int64)
    )
    assert (part.node_owner == 1).all()
    assert part.local(0).n_local_elements == part.local(2).n_local_elements == 0
    assert part.ranges[0, 0] == part.ranges[0, 1]  # empty
    assert part.ranges[2, 0] == part.ranges[2, 1]


def test_owned_coords_match():
    mesh = box_tet_mesh(3, 3, 3, jitter=0.1)
    part = build_partition(mesh, 3, method="rcb")
    for r in range(3):
        b, e = part.ranges[r]
        np.testing.assert_array_equal(
            part.owned_coords(r), mesh.coords[part.old_of_new[b:e]]
        )


def test_metrics_ghost_counts():
    mesh = box_hex_mesh(4, 4, 4)
    part = build_partition(mesh, 4, method="slab")
    met = partition_metrics(part)
    # rank 0 owns everything it touches under min-rank ownership
    assert met.ghost_nodes[0] == 0
    assert (met.ghost_nodes[1:] > 0).all()
