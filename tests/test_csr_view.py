"""The CSR view of HYMV's stored element-matrix batch (linear elements).

A HYMV operator with ``nd <= CSR_VIEW_MAX_ND`` runs its k = 1 and
oracle sweeps as one SciPy ``csr_matvec`` over ``ke`` read as CSR data.
These pins fail if that product drifts from paper eq. (4) — the
sequential sum of scaled columns :func:`emv_columns` computes, with a
separate multiply and add (an FMA-contracting SciPy build would break
them) — or if the view stops aliasing ``ke`` across adaptive updates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hymv import HymvOperator
from repro.core.kernels import (
    CSR_VIEW_MAX_ND,
    emv_columns,
    gather_element_vectors,
)
from repro.mesh import ElementType
from repro.problems import poisson_problem
from repro.simmpi import run_spmd

from .kernel_cases import one_rank_comm, single_rank

LINEAR = [
    pytest.param(ElementType.TET4, id="tet4"),
    pytest.param(ElementType.HEX8, id="hex8"),
]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("etype", LINEAR)
def test_csr_view_sweeps_equal_eq4_bitwise(etype, p):
    """Every Algorithm-2 slice — independent, dependent and whole — of
    the CSR-view sweep equals ``emv_columns`` on the gathered ``ue``,
    as int64 bit patterns."""
    s = poisson_problem((3, 3, 9), p, etype)

    def prog(comm, lmesh):
        A = HymvOperator(comm, lmesh, s.operator)
        assert A._csr is not None
        assert A.e2l_dofs.shape[1] <= CSR_VIEW_MAX_ND
        uf = np.random.default_rng(comm.rank).standard_normal(
            A.maps.n_total
        )
        swept = []
        for sl in (A._sl_indep, A._sl_dep, A._sl_all):
            idx = A.e2l_dofs[sl]
            ue, ve = A._ws.views(idx.shape[0])
            got = A._gather_emv(sl, uf, ue, ve)
            want = emv_columns(A.ke[sl], gather_element_vectors(uf, idx))
            assert np.array_equal(_bits(got), _bits(want))
            swept.append(idx.shape[0])
        return swept

    res, _ = run_spmd(p, prog, rank_args=[(s.partition.local(r),) for r in range(p)])
    # the 3-rank runs exercise non-empty independent and dependent sets
    if p > 1:
        assert any(indep and dep for indep, dep, _ in res)


def test_csr_view_aliases_ke_across_updates():
    """``update_elements`` writes into ``ke`` in place, so the view's
    ``data`` still aliases it and the patched product equals a fresh
    build on the updated inputs, bitwise."""
    s = poisson_problem(4, 1)
    lmesh = s.partition.local(0)
    elems = np.array([0, 5, 17, 40])
    scale = np.ones(lmesh.n_local_elements)
    scale[elems] = 3.0
    A = HymvOperator(one_rank_comm(), lmesh, s.operator)
    x = np.random.default_rng(7).standard_normal(A.n_dofs_owned)
    before = A.apply_owned(x)
    A.update_elements(elems, stiffness_scale=3.0)
    assert np.shares_memory(A._csr.data, A.ke)
    fresh = HymvOperator(one_rank_comm(), lmesh, s.operator, elem_scale=scale)
    patched = A.apply_owned(x)
    assert not np.array_equal(patched, before)
    assert np.array_equal(_bits(patched), _bits(fresh.apply_owned(x)))


@pytest.mark.parametrize(
    "case,kernel,streamed",
    [
        # Ke plus the view's int32 column indices (half of Ke) and rows
        ("poisson-hex8-tiny", "einsum", ("ke", "indices", "indptr")),
        # nd = 8: the columns kernel runs the same view, without a copy
        ("poisson-hex8-tiny", "columns", ("ke", "indices", "indptr")),
        # nd = 24: above the cut, Ke alone
        ("elastic-bar-hex8-medium", "einsum", ("ke",)),
        ("elastic-bar-hex8-medium", "columns", ("ke", "kcol")),
    ],
)
def test_hymv_stored_bytes_counts_every_streamed_array(case, kernel, streamed):
    A = single_rank(HymvOperator, case, kernel=kernel)
    arrays = {"ke": A.ke, "kcol": A._kcol}
    if A._csr is not None:
        arrays |= {"indices": A._csr.indices, "indptr": A._csr.indptr}
        assert A._csr.indices.nbytes * 2 == A.ke.nbytes
    assert {n for n, a in arrays.items() if a is not None} == set(streamed)
    assert A.stored_bytes() == sum(arrays[n].nbytes for n in streamed)
