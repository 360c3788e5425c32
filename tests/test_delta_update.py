"""Differential delta-vs-rebuild suite: a delta-updated operator must be
**bitwise identical** — not merely close — to one freshly built from the
post-update mesh, for every operator kind, every update type, and every
serving path (single-RHS, multi-RHS oracle, batched CG solve)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.adapt import CrackFront, MeshDelta, apply_delta_to_spec
from repro.serve.cache import OperatorCache, ProblemKey, SolverContext

METHODS = ("hymv", "assembled", "matfree", "partial", "hymv_gpu")
KINDS = ("scale", "coords", "refine")


def _key(method):
    return ProblemKey(
        problem="poisson", nel=4, n_parts=2, etype="tet4", seed=3,
        method=method,
    )


def _delta(ctx, kind):
    cf = CrackFront()
    if kind == "scale":
        return cf.scale_delta(ctx.spec.mesh, 0, 8)
    if kind == "coords":
        # front deep enough into the cube that interior nodes sit behind it
        return cf.move_delta(ctx.spec, 3, 8, amplitude=2e-3)
    if kind == "refine":
        return cf.refine_delta(ctx.spec.mesh, 0, 8)
    raise AssertionError(kind)


def _assert_bitwise(ctx, fresh, seed=7):
    assert fresh.n_dofs == ctx.n_dofs
    rng = np.random.default_rng(seed)
    for k in (1, 3):  # single-RHS and multi-RHS paths
        X = rng.standard_normal((ctx.n_dofs, k))
        Yd, _ = ctx.apply_multi(X, mode="oracle")
        Yf, _ = fresh.apply_multi(X, mode="oracle")
        assert np.array_equal(Yd, Yf)
    F = rng.standard_normal((ctx.n_dofs, 2))
    Sd, _ = ctx.solve_multi(F, rtol=1e-8, mode="oracle")
    Sf, _ = fresh.solve_multi(F, rtol=1e-8, mode="oracle")
    assert Sd["iterations"] == Sf["iterations"]  # same CG trajectory
    assert np.array_equal(Sd["x"], Sf["x"])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("method", METHODS)
def test_delta_updated_operator_is_bitwise_fresh(method, kind):
    """The differential matrix: operator kind x update type."""
    ctx = SolverContext(_key(method))
    delta = _delta(ctx, kind)
    info = ctx.apply_delta(delta)
    assert info["touched"] > 0
    if kind == "refine":
        assert info["path"] == "full_rebuild"  # structural: dofs change
    _assert_bitwise(ctx, SolverContext(ctx.key))


def test_delta_stream_stays_bitwise():
    """A realistic stream — patch, move, refine, patch-on-refined — stays
    bitwise against a fresh build replaying the whole key history."""
    ctx = SolverContext(_key("hymv"))
    cf = CrackFront()
    paths = []
    for d in (
        cf.scale_delta(ctx.spec.mesh, 0, 8),
        cf.move_delta(ctx.spec, 1, 8, amplitude=2e-3),
        cf.refine_delta(ctx.spec.mesh, 2, 8),
        cf.scale_delta(ctx.spec.mesh, 3, 8),
    ):
        paths.append(ctx.apply_delta(d)["path"])
    assert paths[0] == "patch" and paths[2] == "full_rebuild"
    assert len(ctx.key.deltas) == 4
    _assert_bitwise(ctx, SolverContext(ctx.key))


def test_rebuild_threshold_forces_full_rebuild():
    """A delta touching more than the threshold fraction takes the
    full-rebuild path — and still lands bitwise on the fresh build."""
    ctx = SolverContext(_key("hymv"))
    delta = CrackFront(half_width=0.5).scale_delta(ctx.spec.mesh, 0, 2)
    info = ctx.apply_delta(delta, threshold=0.10)
    assert info["fraction"] > 0.10
    assert info["path"] == "full_rebuild"
    assert info["ke_cache_hits"] > 0  # untouched matrices were reused
    _assert_bitwise(ctx, SolverContext(ctx.key))


def test_update_elements_out_of_range_raises():
    """Regression: out-of-range local element ids must raise IndexError
    (fancy-indexing through _inv_order used to wrap/ignore them), and a
    failed update must leave the operator untouched."""
    ctx = SolverContext(_key("hymv"))
    A = ctx.ranks[0]["A"]
    before = A.ke.tobytes()
    for bad in ([A.n_local_elements], [-1], [0, 10 ** 6]):
        with pytest.raises(IndexError, match="out of range"):
            A.update_elements(np.asarray(bad), stiffness_scale=2.0)
    assert A.ke.tobytes() == before


def test_mesh_delta_validation():
    with pytest.raises(ValueError, match="positive"):
        MeshDelta(scale_elements=[1], scale_values=[0.0])
    with pytest.raises(ValueError, match="length mismatch"):
        MeshDelta(scale_elements=[1, 2], scale_values=[0.5])
    with pytest.raises(ValueError, match="pure"):
        MeshDelta(scale_elements=[1], scale_values=[0.5],
                  refine_elements=[2])
    with pytest.raises(ValueError, match="structural"):
        MeshDelta(refine_elements=[1]).compose(MeshDelta())
    # last occurrence wins on duplicate ids; order is canonicalized
    d = MeshDelta(scale_elements=[4, 2, 4], scale_values=[1.0, 2.0, 3.0])
    assert d.scale_elements.tolist() == [2, 4]
    assert d.scale_values.tolist() == [2.0, 3.0]
    same = MeshDelta(scale_elements=[2, 4], scale_values=[2.0, 3.0])
    assert d == same and d.fingerprint() == same.fingerprint()


def test_apply_delta_to_spec_bounds():
    spec = _key("hymv").build_spec()
    with pytest.raises(IndexError):
        apply_delta_to_spec(
            spec,
            MeshDelta(scale_elements=[spec.mesh.n_elements],
                      scale_values=[0.5]),
        )
    with pytest.raises(IndexError):
        apply_delta_to_spec(
            spec,
            MeshDelta(move_nodes=[spec.mesh.n_nodes],
                      move_coords=[[0.0, 0.0, 0.0]]),
        )


def test_key_fingerprint_tracks_delta_history():
    base = _key("hymv")
    d = MeshDelta(scale_elements=[1], scale_values=[0.5])
    k1 = base.with_delta(d)
    assert k1.fingerprint() != base.fingerprint()
    assert k1.fingerprint() == base.with_delta(d).fingerprint()
    # a different delta gives a different identity
    d2 = MeshDelta(scale_elements=[1], scale_values=[0.25])
    assert base.with_delta(d2).fingerprint() != k1.fingerprint()
    # a key derived delta by delta hashes like one built with the whole
    # history
    chained = base.with_delta(d).with_delta(d2).with_delta(d)
    direct = replace(base, deltas=(d, d2, d))
    assert chained.fingerprint() == direct.fingerprint()


def test_mesh_delta_arrays_are_read_only():
    """Regression: a delta is immutable once built, so a key holding it
    (and the operator cached under that key) cannot drift apart."""
    ids = np.array([4, 2], dtype=np.int64)
    d = MeshDelta(scale_elements=ids, scale_values=[0.5, 0.25])
    key = _key("hymv").with_delta(d)
    fp = key.fingerprint()
    for arr in (d.scale_elements, d.scale_values, d.move_nodes,
                d.move_coords, d.refine_elements):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 1
    assert key.fingerprint() == fp
    assert d.scale_values.tolist() == [0.25, 0.5]
    # the caller's own arrays stay writable
    empty = np.empty(0, dtype=np.int64)
    MeshDelta(scale_elements=empty, scale_values=[])
    ids[0] = 7
    empty[...] = 0


def test_fingerprint_golden_values():
    """Fingerprint values are part of the wire format: consistent-hash
    ring placement and every checked-in baseline depend on them."""
    base = _key("hymv")
    d1 = MeshDelta(scale_elements=[5, 1, 9], scale_values=[0.5, 0.25, 0.125])
    d2 = MeshDelta(move_nodes=[3, 7],
                   move_coords=[[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    d3 = MeshDelta(refine_elements=[2, 11])
    k1 = base.with_delta(d1)
    k3 = k1.with_delta(d2).with_delta(d3)
    assert base.fingerprint() == "a469bded3ad5"
    assert k1.fingerprint() == "628221c7ea59"
    assert k3.fingerprint() == "24cf098ab69d"
    assert [d.fingerprint() for d in (d1, d2, d3, MeshDelta())] == [
        "87679d2dbac4", "3a24c95541ee", "83dae5248044", "18adf4988f55",
    ]
    assert ProblemKey().fingerprint() == "d34a86007272"


def _patched(kind):
    """An elastic-bar context (nonzero prescribed displacements, so
    ``A u0`` depends on the patched elements) right after one in-place
    patch, and a fresh build of its post-update key.  The coarse mesh
    needs a raised threshold for the deltas to stay patches."""
    ctx = SolverContext(ProblemKey("elastic", 4, 2, "hex8", method="hymv"))
    if kind == "scale":
        delta = CrackFront().scale_delta(ctx.spec.mesh, 0, 8)
    else:
        delta = CrackFront().move_delta(ctx.spec, 1, 8, amplitude=2e-3)
    info = ctx.apply_delta(delta, threshold=0.5)
    assert info["path"] == "patch" and info["touched"] > 0
    return ctx, SolverContext(ctx.key)


@pytest.mark.parametrize("consumer", ("degraded", "gemm", "residuals"))
@pytest.mark.parametrize("kind", ("scale", "move"))
def test_first_consumer_after_patch_sees_fresh_dirichlet_state(kind,
                                                               consumer):
    """A patch leaves the Dirichlet machinery stale; whichever consumer
    runs first must refresh it to exactly the fresh build's state."""
    ctx, fresh = _patched(kind)
    rng = np.random.default_rng(11)
    F = rng.standard_normal((ctx.n_dofs, 2))
    if consumer == "residuals":
        X = rng.standard_normal((ctx.n_dofs, 2))
        assert np.array_equal(ctx.residuals(F, X), fresh.residuals(F, X))
        return
    kw = {"degraded": True} if consumer == "degraded" else {"mode": "gemm"}
    Sd, _ = ctx.solve_multi(F, rtol=1e-8, **kw)
    Sf, _ = fresh.solve_multi(F, rtol=1e-8, **kw)
    assert Sd["iterations"] == Sf["iterations"]
    assert np.array_equal(Sd["x"], Sf["x"])


def test_partition_element_index_matches_full_scan():
    spec = _key("hymv").build_spec()
    part, conn = spec.partition, spec.mesh.conn
    rng = np.random.default_rng(5)
    for n in (0, 1, 7, 40):
        ids = rng.choice(spec.mesh.n_nodes, n, replace=False)
        want = np.flatnonzero(np.isin(conn, ids).any(axis=1))
        assert np.array_equal(part.incident_elements(ids), want)
    for lm in part.locals_:
        assert np.array_equal(
            part.local_index(lm.elements), np.arange(lm.elements.size)
        )


def test_node_move_refreshes_local_coords_views():
    """Refreshing only the moved nodes' incident rows leaves every rank's
    coords view equal to a full re-materialisation."""
    spec = _key("hymv").build_spec()
    delta = CrackFront().move_delta(spec, 3, 8, amplitude=2e-3)
    assert delta.move_nodes.size
    apply_delta_to_spec(spec, delta)
    mesh = spec.mesh
    for lm in spec.partition.locals_:
        assert np.array_equal(lm.coords, mesh.coords[mesh.conn[lm.elements]])


@pytest.mark.parametrize("kind", ("scale", "move"))
@pytest.mark.parametrize("method", ("hymv", "assembled"))
@pytest.mark.parametrize(
    "etype", ("hex8", "hex20", "hex27", "tet4", "tet10")
)
def test_patched_element_matrices_bitwise_fresh_for_every_element_type(
    etype, method, kind
):
    """Regression: a patch recomputes only the touched elements' Ke, a
    fresh build computes all of them in one batch.  Before the element
    kernels were batch invariant, HEX20/HEX27 rows depended on the batch
    they were computed in and the two operators differed in the last
    bit.  HYMV rescales a remembered matrix on a scale-only patch, so
    the move deltas are what pin the batch-invariant re-integration."""
    key = ProblemKey("poisson", 6, 1, etype, 0, method)
    cache = OperatorCache()
    ctx, _ = cache.get(key)
    cf = CrackFront()
    touched = 0
    for step in range(3):
        if kind == "scale":
            delta = cf.scale_delta(ctx.spec.mesh, step, 8)
        else:
            delta = cf.move_delta(ctx.spec, step + 1, 8, amplitude=2e-3)
        key, info = cache.update(key, delta, threshold=1.0)
        assert info["path"] == "patch"
        touched += info["touched"]
    assert touched > 0
    _assert_bitwise(cache.peek(key), SolverContext(key))
