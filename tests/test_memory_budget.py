"""What a served context holds: the retained-memory budget, and one copy
of the element coordinates.

HYMV trades memory for speed by storing each rank's element matrices;
beyond them a rank needs only its element count, E2G map and owned range
(paper §IV-A).  So the mesh holds the one coordinate array: a
partition-built :class:`~repro.partition.interface.LocalMesh` gathers
its ``(E, nn, 3)`` element coordinates on read, HYMV and the assembled
kinds read them at set-up and when a patch re-integrates an element, and
an operator keeps a private copy only after a caller hands it
coordinates the mesh does not hold (copy-on-write in
:class:`~repro.core.operator.DistributedOperator`).

* **budget**: the bytes a :class:`~repro.serve.cache.SolverContext`
  still holds after its build, a k = 1 apply, a k = 8 apply and one
  solve, counted by tracemalloc, stay within ~10% of their count when
  the coordinates went single-copy.  Each per-element coordinate copy
  it dropped (``LocalMesh.coords``, HYMV's permuted copy), the mesh's
  cached face-key sort and the unused gather workspace of a CSR-view
  kind are what that saved.
* **no copies**: no partition-built local mesh, and no HYMV or
  assembled operator, holds an ``(E, nn, 3)`` float array.
* **copy-on-write**: coordinates handed to ``update_elements`` directly
  are the operator's own from then on — the mesh and a caller's local
  mesh are never written — and a later re-integration reads them,
  bitwise a fresh build on those coordinates; a move through a spec
  delta, whose mesh already holds the new coordinates, copies nothing
  and gathers only the touched elements' rows.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.adapt import MeshDelta
from repro.baselines.assembled import AssembledOperator
from repro.core.hymv import HymvOperator
from repro.mesh import ElementType, box_tet_mesh
from repro.mesh.mesh import Mesh
from repro.partition.interface import LocalMesh, build_partition
from repro.problems import poisson_problem
from repro.serve.cache import ProblemKey, SolverContext

from .kernel_cases import one_rank_comm, traced_bytes

#: case -> (key, retained-byte budget).  Each budget is the count
#: measured on the single-copy layout (x86-64 Linux, CPython 3.11,
#: NumPy 2) plus ~10%.  The three cases with per-element coordinates
#: as a large share of the context held 1.17-1.23x their count before;
#: the elasticity store dwarfs them (1.04x).
CASES = {
    # measured 1,492,200 bytes
    "hymv-hex8-poisson": (ProblemKey("poisson", 8, 2, "hex8", 0, "hymv"),
                          1_640_000),
    # measured 1,497,700
    "hymv-tet4-poisson": (ProblemKey("poisson", 6, 2, "tet4", 0, "hymv"),
                          1_650_000),
    # measured 1,388,800
    "hymv-hex8-elastic": (ProblemKey("elastic", 4, 2, "hex8", 0, "hymv"),
                          1_530_000),
    # measured 604,500
    "assembled-hex8-poisson": (
        ProblemKey("poisson", 8, 2, "hex8", 0, "assembled"), 665_000,
    ),
}


def _served(key: ProblemKey) -> SolverContext:
    """A context after its build, a k = 1 and a k = 8 apply and one
    solve."""
    ctx = SolverContext(key)
    rng = np.random.default_rng(0)
    ctx.apply_multi(rng.standard_normal((ctx.n_dofs, 1)))
    ctx.apply_multi(rng.standard_normal((ctx.n_dofs, 8)))
    ctx.solve_multi(rng.standard_normal((ctx.n_dofs, 1)), rtol=1e-8)
    return ctx


def _coordinate_arrays(obj, shape) -> list[str]:
    """Names of the float ``shape`` arrays among ``obj``'s attributes
    (looking into tuples, lists and dicts, not into other objects)."""
    found = []
    todo = list(vars(obj).items())
    while todo:
        name, v = todo.pop()
        if isinstance(v, np.ndarray):
            if v.shape == shape and v.dtype.kind == "f":
                found.append(name)
        elif isinstance(v, (tuple, list)):
            todo += [(f"{name}[{i}]", x) for i, x in enumerate(v)]
        elif isinstance(v, dict):
            todo += [(f"{name}[{k!r}]", x) for k, x in v.items()]
    return found


@pytest.mark.parametrize("case", CASES)
def test_served_context_retains_within_budget(case):
    key, budget = CASES[case]
    _, held, _ = traced_bytes(lambda: _served(key))
    assert held <= budget, f"{case}: {held:,} bytes held > {budget:,}"


@pytest.mark.parametrize("case", CASES)
def test_element_coordinates_are_held_once(case):
    ctx = _served(CASES[case][0])
    for st in ctx.ranks:
        lm, A = st["lmesh"], st["A"]
        shape = (lm.n_local_elements, lm.etype.n_nodes, 3)
        assert _coordinate_arrays(lm, shape) == []
        assert _coordinate_arrays(A, shape) == []
        mesh = ctx.spec.mesh
        assert np.array_equal(lm.coords, mesh.coords[mesh.conn[lm.elements]])


def test_mesh_sorts_face_keys_once_and_keeps_no_sort(monkeypatch):
    """A two-rank graph partition and the boundary a problem asks for
    next share one face-key sort, and the mesh caches what it derives
    from the sort, not the sort."""
    mesh = box_tet_mesh(4, 4, 4, ElementType.TET4, jitter=0.2)
    sort, calls = Mesh._sorted_face_keys, []
    monkeypatch.setattr(Mesh, "_sorted_face_keys",
                        lambda mesh: calls.append(1) or sort(mesh))
    part = build_partition(mesh, 2, method="graph")
    part.boundary_nodes_new()
    mesh.boundary_faces()
    assert len(calls) == 1
    assert sorted(mesh._cache) == ["boundary_faces", "boundary_nodes",
                                   "dual_edges"]


# -- copy-on-write --------------------------------------------------------


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("explicit", (False, True), ids=("mesh", "given"))
@pytest.mark.parametrize("cls", (HymvOperator, AssembledOperator),
                         ids=("hymv", "assembled"))
def test_direct_coordinate_update_is_copy_on_write(cls, explicit):
    """Move a band of elements by ``update_elements(coords=...)``, then
    rescale a second band from a non-1.0 scale: HYMV remembers no
    unit-scale matrix for it, the assembled kind re-integrates every
    element around it, so both re-integrate from their coordinates.  The
    operator equals a fresh build on the moved coordinates bit for bit,
    and neither the mesh nor a given coordinate array moved."""
    spec = poisson_problem(6, 1)
    lmesh = spec.partition.local(0)
    if explicit:
        lmesh = replace(lmesh, coords=lmesh.coords.copy())
    before = lmesh.coords.copy()
    mesh_before = spec.mesh.coords.copy()
    E = lmesh.n_local_elements
    scale = np.full(E, 0.5)
    A = cls(one_rank_comm(), lmesh, spec.operator, elem_scale=scale)
    assert A._coords is None

    x0 = before[:, 0, 0]
    band = np.flatnonzero(x0 < 0.3)
    moved = before.copy()
    moved[band] *= 1.0 + 1e-3
    A.update_elements(band, coords=moved[band])
    soft = np.flatnonzero((x0 >= 0.3) & (x0 < 0.6))
    scale[soft] = 0.25
    A.update_elements(soft, stiffness_scale=0.25)
    if cls is HymvOperator:
        assert A.comm.obs.counter("update.ke_recomputed") == band.size + soft.size

    assert np.array_equal(_bits(lmesh.coords), _bits(before))
    assert np.array_equal(_bits(spec.mesh.coords), _bits(mesh_before))
    fresh = cls(one_rank_comm(), replace(lmesh, coords=moved), spec.operator,
                elem_scale=scale)
    if cls is HymvOperator:
        assert np.array_equal(_bits(A.ke), _bits(fresh.ke))
    else:
        for X, Y in zip(A._blocks, fresh._blocks):
            assert np.array_equal(X.indices, Y.indices)
            assert np.array_equal(_bits(X.data), _bits(Y.data))
    x = np.random.default_rng(3).standard_normal(A.n_dofs_owned)
    assert np.array_equal(_bits(A.apply_owned(x)), _bits(fresh.apply_owned(x)))


@pytest.mark.parametrize("method", ("hymv", "assembled"))
def test_delta_move_gathers_touched_rows_only(method, monkeypatch):
    """A node move through a spec delta patches in place; every
    coordinate read of the patch gathers only the rows of elements it
    re-integrates, and the operator keeps no copy (the moved mesh
    already holds the coordinates it is handed)."""
    ctx = SolverContext(ProblemKey("poisson", 8, 2, "hex8", 0, method))
    part = ctx.spec.partition
    interior = np.setdiff1d(np.arange(part.n_nodes), part.boundary_nodes_new())
    own = [interior[(interior >= b) & (interior < e)] for b, e in part.ranges]
    nodes = np.array([ids[ids.size // 2] for ids in own])  # one per rank
    delta = MeshDelta(move_nodes=nodes,
                      move_coords=part.coords_by_new_id()[nodes] + 1e-3)
    rows = []
    gather = LocalMesh.element_coords

    def spy(lmesh, ids=None):
        every = np.arange(lmesh.n_local_elements)
        rows.append(every.size if ids is None else every[ids].size)
        return gather(lmesh, ids)

    monkeypatch.setattr(LocalMesh, "element_coords", spy)
    before = ctx.counters().get("update.ke_recomputed", 0)
    info = ctx.apply_delta(delta)
    assert info["path"] == "patch" and info["touched"] > 0
    recomputed = ctx.counters()["update.ke_recomputed"] - before
    assert rows and 0 < max(rows) and sum(rows) <= 2 * recomputed
    assert all(st["A"]._coords is None for st in ctx.ranks)
