"""SegmentScatter: the precomputed zero-allocation accumulation must be
bitwise identical to the ``np.add.at`` reference and to the legacy
bincount path, on any (duplicate-heavy) index structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segment import SegmentScatter


def _random_batch(n_dofs, n_elems, nd, dup_factor, seed):
    """An (E, nd) index set hitting only a fraction of the dof range, so
    every dof that is touched is touched many times (the dependent-sweep
    shape that stresses the grouping order)."""
    rng = np.random.default_rng(seed)
    hi = max(1, int(np.ceil(n_dofs / dup_factor)))
    idx = rng.integers(0, hi, size=(n_elems, nd))
    vals = rng.standard_normal((n_elems, nd))
    return idx, vals


@given(
    n_dofs=st.integers(min_value=1, max_value=200),
    n_elems=st.integers(min_value=1, max_value=40),
    nd=st.integers(min_value=1, max_value=12),
    dup_factor=st.sampled_from([1, 4, 16]),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40)
def test_segment_bitwise_matches_add_at_and_bincount(
    n_dofs, n_elems, nd, dup_factor, seed
):
    idx, vals = _random_batch(n_dofs, n_elems, nd, dup_factor, seed)
    seg = SegmentScatter(idx)

    # zero destination: all three formulations must agree bit for bit
    ref_at = np.zeros(n_dofs)
    np.add.at(ref_at, idx.reshape(-1), vals.reshape(-1))
    ref_bc = np.bincount(
        idx.reshape(-1), weights=vals.reshape(-1), minlength=n_dofs
    )
    got = seg.add_into(np.zeros(n_dofs), vals)
    np.testing.assert_array_equal(got, ref_at)
    np.testing.assert_array_equal(got, ref_bc)

    # nonzero destination (the dependent sweep): identical to the legacy
    # ``out += bincount`` path — group sums added with a single rounding
    rng = np.random.default_rng(seed + 1)
    base = rng.standard_normal(n_dofs)
    expect = base + ref_bc
    np.testing.assert_array_equal(seg.add_into(base.copy(), vals), expect)


def test_reuse_across_calls():
    """One structure, many value sets — the whole point of precomputing."""
    rng = np.random.default_rng(7)
    idx = rng.integers(0, 15, size=(20, 8))
    seg = SegmentScatter(idx)
    for _ in range(4):
        vals = rng.standard_normal((20, 8))
        ref = np.zeros(60)
        np.add.at(ref, idx.reshape(-1), vals.reshape(-1))
        np.testing.assert_array_equal(seg.add_into(np.zeros(60), vals), ref)


def test_touched_is_sorted_unique_and_untouched_entries_untouched():
    idx = np.array([[5, 2, 5], [2, 9, 5]])
    seg = SegmentScatter(idx)
    np.testing.assert_array_equal(seg.touched, [2, 5, 9])
    assert seg.n_touched == 3
    # np.add.at semantics: untouched entries are never read or written —
    # a negative zero outside the touched set survives (the legacy
    # bincount path would rewrite it to +0.0)
    out = np.full(12, -0.0)
    seg.add_into(out, np.ones((2, 3), dtype=float))
    assert np.signbit(out[0]) and np.signbit(out[11])
    np.testing.assert_array_equal(out[[2, 5, 9]], [2.0, 3.0, 1.0])


def test_empty_index_set():
    seg = SegmentScatter(np.empty((0, 8), dtype=np.int64))
    out = np.full(5, 3.0)
    assert seg.add_into(out, np.empty((0, 8))) is out
    np.testing.assert_array_equal(out, np.full(5, 3.0))
    assert seg.n_touched == 0


def test_value_size_mismatch_raises():
    seg = SegmentScatter(np.array([[0, 1], [1, 2]]))
    with pytest.raises(ValueError, match="value size mismatch"):
        seg.add_into(np.zeros(3), np.zeros(5))


def test_negative_index_raises_at_construction():
    # mode="clip" in the hot path must never mask a corrupt map: bad
    # indices are rejected where they are frozen, not silently clipped
    with pytest.raises(IndexError, match="negative dof index"):
        SegmentScatter(np.array([[0, 1], [-3, 2]]))


def test_out_of_range_destination_raises():
    seg = SegmentScatter(np.array([[0, 5], [5, 2]]))
    with pytest.raises(IndexError, match="destination too small"):
        seg.add_into(np.zeros(5), np.ones(4))
    # exactly large enough is fine
    seg.add_into(np.zeros(6), np.ones(4))


def test_add_into_is_allocation_free_after_construction():
    import tracemalloc

    rng = np.random.default_rng(3)
    idx = rng.integers(0, 400, size=(300, 8))
    vals = rng.standard_normal((300, 8))
    seg = SegmentScatter(idx)
    out = np.zeros(1200)
    seg.add_into(out, vals)  # warm any lazy interpreter state
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            seg.add_into(out, vals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no numpy temp anywhere near the batch (19 KB) or dof (9.6 KB) size
    assert peak - base < 4096


# ----------------------------------------------------------------------
# zeroed-destination path: one CSR call straight into ``out``
# ----------------------------------------------------------------------


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _special_vals(rng, shape, flavour):
    """Values that stress the ``0.0 + s == s`` argument: plain normals,
    ``±1.5``/``±0.0`` sets whose segments cancel to zero, or normals
    sprinkled with ``±inf`` and ``nan``."""
    if flavour == "cancel":
        return rng.choice([-1.5, 1.5, -0.0, 0.0], size=shape)
    vals = rng.standard_normal(shape)
    if flavour == "nonfinite":
        hit = rng.random(shape) < 0.15
        vals[hit] = rng.choice([np.inf, -np.inf, np.nan], size=hit.sum())
    return vals


@given(
    n_dofs=st.integers(min_value=1, max_value=200),
    n_elems=st.integers(min_value=1, max_value=40),
    nd=st.integers(min_value=1, max_value=12),
    dup_factor=st.sampled_from([1, 4, 16]),
    k=st.sampled_from([1, 3, 8]),
    flavour=st.sampled_from(["normal", "cancel", "nonfinite"]),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=60)
def test_zeroed_path_bitwise_matches_grouped(
    n_dofs, n_elems, nd, dup_factor, k, flavour, seed
):
    # indices cover only the low 1/dup_factor of the range: every touched
    # dof is hit many times and the rows above (and gaps below) the
    # largest touched dof stay untouched
    idx, _ = _random_batch(n_dofs, n_elems, nd, dup_factor, seed)
    rng = np.random.default_rng(seed + 2)
    seg = SegmentScatter(idx)

    vals = _special_vals(rng, (n_elems, nd), flavour)
    ref = seg.add_into(np.zeros(n_dofs), vals)
    got = seg.add_into(np.zeros(n_dofs), vals, zeroed=True)
    np.testing.assert_array_equal(_bits(got), _bits(ref))

    block = _special_vals(rng, (n_elems, nd, k), flavour)
    ref = seg.add_into_multi(np.zeros((n_dofs, k)), block)
    got = seg.add_into_multi(np.zeros((n_dofs, k)), block, zeroed=True)
    np.testing.assert_array_equal(_bits(got), _bits(ref))


@pytest.mark.parametrize("k", [1, 3, 8])
def test_zeroed_path_falls_back_with_same_bits(k):
    """A strided destination takes the grouped path under
    ``zeroed=True``, with the same bits."""
    rng = np.random.default_rng(11)
    idx = rng.integers(0, 30, size=(25, 8))
    vals = rng.standard_normal((25, 8))
    block = rng.standard_normal((25, 8, k))
    seg = SegmentScatter(idx)
    ref = seg.add_into(np.zeros(40), vals, zeroed=True)
    ref_multi = seg.add_into_multi(np.zeros((40, k)), block, zeroed=True)

    strided = np.zeros((40, 2))[:, 0]
    assert not strided.flags.c_contiguous
    seg.add_into(strided, vals, zeroed=True)
    np.testing.assert_array_equal(_bits(strided), _bits(ref))
    strided_multi = np.zeros((40, 2 * k))[:, ::2]
    assert not strided_multi.flags.c_contiguous
    seg.add_into_multi(strided_multi, block, zeroed=True)
    np.testing.assert_array_equal(_bits(strided_multi), _bits(ref_multi))


def test_zeroed_path_out_of_range_destination_raises():
    seg = SegmentScatter(np.array([[0, 5], [5, 2]]))
    with pytest.raises(IndexError, match="destination too small"):
        seg.add_into(np.zeros(5), np.ones(4), zeroed=True)
    with pytest.raises(IndexError, match="destination too small"):
        seg.add_into_multi(np.zeros((5, 3)), np.ones((4, 3)), zeroed=True)
    # exactly large enough is fine, and the untouched rows stay zero
    out = seg.add_into(np.zeros(6), np.ones(4), zeroed=True)
    np.testing.assert_array_equal(out, [1.0, 0.0, 1.0, 0.0, 0.0, 2.0])


@pytest.mark.parametrize("k", [None, 8])
def test_zeroed_path_is_allocation_free_after_construction(k):
    import tracemalloc

    rng = np.random.default_rng(3)
    idx = rng.integers(0, 400, size=(300, 8))
    seg = SegmentScatter(idx)
    if k is None:
        vals, out = rng.standard_normal((300, 8)), np.zeros(1200)
        call = lambda: seg.add_into(out, vals, zeroed=True)
    else:
        vals, out = rng.standard_normal((300, 8, k)), np.zeros((1200, k))
        call = lambda: seg.add_into_multi(out, vals, zeroed=True)
    call()  # warm any lazy interpreter state
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(5):
            out[:] = 0.0
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # far below the smallest scratch the grouped path would need (the
    # (n_touched,) segment sums, ~3 KB; ~25 KB at k=8)
    assert peak - base < 2048


# ----------------------------------------------------------------------
# operator-level pins: the same operator, direct vs grouped first sweep
# ----------------------------------------------------------------------


def _direct_vs_grouped(monkeypatch, product, direct_taken=True):
    """``product()`` run normally (checking whether the zeroed path is
    taken), then with every scatter forced onto the grouped path."""
    direct = SegmentScatter._direct
    taken = []

    def spy(self, out, zeroed):
        taken.append(direct(self, out, zeroed))
        return taken[-1]

    monkeypatch.setattr(SegmentScatter, "_direct", spy)
    normal = product()
    assert any(taken) == direct_taken
    monkeypatch.setattr(SegmentScatter, "_direct", lambda self, o, z: False)
    return normal, product()


@pytest.fixture(scope="module")
def two_rank_hymv():
    """A 2-rank HYMV operator on a persistent simulator, so both passes
    of :func:`_direct_vs_grouped` run on the same operator."""
    from repro.core import HymvOperator
    from repro.fem import PoissonOperator
    from repro.mesh import box_hex_mesh
    from repro.partition import build_partition
    from repro.simmpi.engine import Simulator

    part = build_partition(box_hex_mesh(4, 4, 6), 2, method="slab")
    sim = Simulator(2)
    ops = sim.run(
        lambda comm, lmesh: HymvOperator(comm, lmesh, PoissonOperator()),
        rank_args=[(part.local(r),) for r in range(2)],
    )
    assert any(A.n_dependent and A.n_independent for A in ops)
    return sim, ops


def _bits_per_rank(res):
    return [_bits(y) for y in res]


@pytest.mark.parametrize("overlap", [True, False])
def test_operator_spmv_bitwise_direct_vs_grouped(
    monkeypatch, two_rank_hymv, overlap
):
    sim, ops = two_rank_hymv

    def prog(comm, A):
        u, v = A.new_array(), A.new_array()
        u.set_owned(np.random.default_rng(comm.rank).standard_normal(
            A.n_dofs_owned
        ))
        A.spmv(u, v, overlap=overlap)
        return v.owned_flat.copy()

    def product():
        return sim.run(prog, rank_args=[(A,) for A in ops])

    normal, grouped = _direct_vs_grouped(monkeypatch, product)
    for a, b in zip(_bits_per_rank(normal), _bits_per_rank(grouped)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("k,mode", [(3, "oracle"), (8, "gemm")])
def test_operator_spmv_multi_bitwise_direct_vs_grouped(
    monkeypatch, two_rank_hymv, k, mode
):
    sim, ops = two_rank_hymv

    def prog(comm, A):
        U, V = A.new_multivector(k), A.new_multivector(k)
        U.set_owned(np.random.default_rng(comm.rank).standard_normal(
            (A.n_dofs_owned, k)
        ))
        A.spmv_multi(U, V, mode=mode)
        return V.owned_matrix.copy()

    def product():
        return sim.run(prog, rank_args=[(A,) for A in ops])

    # the oracle sweeps its k > 1 columns through contiguous scratch, so
    # its first sweep takes the direct path like the GEMM block does
    normal, grouped = _direct_vs_grouped(monkeypatch, product)
    for a, b in zip(_bits_per_rank(normal), _bits_per_rank(grouped)):
        np.testing.assert_array_equal(a, b)


def test_solve_multi_bitwise_direct_vs_grouped(monkeypatch):
    from repro.serve.cache import ProblemKey, SolverContext

    ctx = SolverContext(ProblemKey(
        problem="poisson", nel=4, n_parts=2, etype="hex8", method="hymv",
    ))
    F = np.random.default_rng(5).standard_normal((ctx.n_dofs, 8))

    def product():
        out, _ = ctx.solve_multi(F, rtol=1e-8)
        return out

    normal, grouped = _direct_vs_grouped(monkeypatch, product)
    assert normal["iterations"] == grouped["iterations"]
    np.testing.assert_array_equal(_bits(normal["x"]), _bits(grouped["x"]))


@pytest.mark.parametrize("largest", [65_535, 65_536])
def test_sort_permutation_matches_int64_stable_sort(largest):
    """Maps whose dofs fit 16 bits sort as uint16 keys; either way the
    permutation is the int64 stable sort's."""
    rng = np.random.default_rng(largest)
    idx = rng.integers(0, largest + 1, size=(4096, 8))
    idx[:64] = idx[64:128]  # heavy duplicates: the order among equal keys
    idx[17, 3] = largest
    seg = SegmentScatter(idx)
    want = np.argsort(idx.reshape(-1).astype(np.int64), kind="stable")
    np.testing.assert_array_equal(seg.indices, want.astype(np.int32))
    assert seg.touched[-1] == largest
