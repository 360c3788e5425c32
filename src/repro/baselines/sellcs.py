"""SELL-C-sigma operator — the unified-sparse-format baseline.

:class:`SellCSOperator` assembles exactly like
:class:`~repro.baselines.assembled.AssembledOperator` (real parallel
assembly, PETSc-style diag/pre/post CSR split, packed-halo exchange) and
then converts each CSR block to the SELL-C-sigma layout of
:mod:`repro.core.sellcs`.  Each block gets its *own* row permutation —
permute-in happens once per (re)assembly, permute-out happens inside the
slice kernels on every ``apply_owned`` — so results stay in original row
order and are **bitwise-identical** to the assembled-CSR reference:

* the slice-major single-RHS kernel accumulates each row's stored
  entries in the same order as scipy's CSR row sum, and the three block
  products are combined in the same ``diag += pre += post`` order as the
  base class;
* the multi-RHS ``"oracle"`` mode applies the single-RHS path per
  column (bitwise per column, one halo round per column);
* the multi-RHS ``"gemm"`` mode is the BLAS3 analogue — one packed
  ``ndpn*k``-wide ghost exchange and a chunk-batched matmul per block —
  equal to the oracle to rounding, not bitwise (same contract as every
  other operator's gemm mode).

Steady state is allocation-free: all kernel buffers live in
:class:`~repro.core.sellcs.SellWorkspace` bundles cached on the operator
(the single-RHS set, and one multi-RHS set sized for the widest ``k``
seen, which every narrower width shares) and invalidated on
reassembly.  Padding overhead is surfaced
through the ``sellcs.padded_nnz`` / ``sellcs.occupancy`` counters
(maintained as *current values* across reassemblies, not running sums).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.assembled import AssembledOperator
from repro.core.sellcs import (
    DEFAULT_C,
    DEFAULT_SIGMA_FACTOR,
    SellWorkspace,
    build_sellcs,
    sell_spmm,
    sell_spmv,
)
from repro.fem.operators import Operator
from repro.partition.interface import LocalMesh
from repro.simmpi.communicator import Communicator

__all__ = ["SellCSOperator"]


class SellCSOperator(AssembledOperator):
    """Distributed SELL-C-sigma operator (sixth operator kind)."""

    def __init__(
        self,
        comm: Communicator,
        lmesh: LocalMesh,
        operator: Operator,
        ranges: np.ndarray | None = None,
        elem_scale: np.ndarray | None = None,
        C: int = DEFAULT_C,
        sigma: int | None = None,
    ):
        # _assemble (called from the base constructor) reads these;
        # sigma=None is the 8C sorting window
        self.C = int(C)
        self.sigma = int(sigma) if sigma is not None else DEFAULT_SIGMA_FACTOR * self.C
        super().__init__(comm, lmesh, operator, ranges=ranges, elem_scale=elem_scale)

    # ------------------------------------------------------------------
    # assembly: CSR first (inherited), then the SELL conversion
    # ------------------------------------------------------------------

    def _assemble(self, prefix: str) -> None:
        super()._assemble(prefix)
        comm = self.comm
        with comm.compute(f"{prefix}.sellcs_convert"):
            self.S_diag = build_sellcs(self.A_diag, self.C, self.sigma)
            self.S_pre = (
                build_sellcs(self.A_pre, self.C, self.sigma)
                if self.A_pre.shape[1]
                else None
            )
            self.S_post = (
                build_sellcs(self.A_post, self.C, self.sigma)
                if self.A_post.shape[1]
                else None
            )
            self._blocks = (self.S_diag, self.S_pre, self.S_post)
            # kernel workspaces of the three blocks (see _workspaces)
            self._sell_ws: dict[int, tuple] = {}
        blocks = [s for s in (self.S_diag, self.S_pre, self.S_post) if s is not None]
        padded = sum(s.padded_nnz for s in blocks)
        stored = sum(s.nnz for s in blocks)
        occ = (stored / padded) if padded else 1.0
        # counters carry the *current* layout's values: on reassembly,
        # add only the delta so readers see a gauge, not a running sum
        obs = comm.obs
        obs.incr("sellcs.padded_nnz", padded - getattr(self, "_padded_prev", 0))
        obs.incr("sellcs.occupancy", occ - getattr(self, "_occ_prev", 0.0))
        self._padded_prev = padded
        self._occ_prev = occ
        self.padded_nnz = padded
        self.occupancy = occ

    def update_elements(self, local_elems, coords=None, stiffness_scale=None):
        """Persist the inputs, then reassemble and reconvert (collective):
        the SELL layout is a function of the whole CSR."""
        self._persist_update(local_elems, coords, stiffness_scale)
        self.reassemble()

    def _workspaces(self, k: int) -> tuple:
        """The blocks' single-RHS workspaces at ``k = 1``; otherwise one
        multi-RHS set sized for the widest ``k`` seen, rebuilt only when
        a wider batch arrives."""
        key = min(k, 2)
        ws = self._sell_ws.get(key)
        if ws is None or ws[0].k < k:
            self._sell_ws[key] = None  # free the narrower set first
            ws = self._sell_ws[key] = tuple(
                None if S is None else SellWorkspace(S, k) for S in self._blocks
            )
        return ws

    # ------------------------------------------------------------------
    # application: the inherited Algorithm-2 schedule over SELL blocks
    # ------------------------------------------------------------------

    _phases = ("spmv.sell.diag", "spmv.sell.halo")

    def _block_product(self, i: int, x: np.ndarray) -> np.ndarray:
        """SELL slice kernel (1-D) or chunk-batched matmul (``(·, k)``)
        of block ``i``, into the block's workspace buffer —
        allocation-free in steady state, so ``copy=False`` results are
        workspace-owned and overwritten by the next product of any
        width."""
        if x.ndim == 1:
            return sell_spmv(self._blocks[i], x, self._workspaces(1)[i])
        k = x.shape[1]
        return sell_spmm(self._blocks[i], x, self._workspaces(k)[i])

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def flops_per_spmv(self) -> float:
        """2 flops per stored *slot* including padding — the SELL kernels
        really do multiply every pad slot by the pinned zero."""
        return 2.0 * self.padded_nnz

    def stored_bytes(self) -> int:
        """CSR blocks (kept for preconditioning and reassembly) plus the
        dual slice-/group-major SELL storage — the honest total."""
        total = super().stored_bytes()
        for s in (self.S_diag, self.S_pre, self.S_post):
            if s is not None:
                total += s.stored_bytes()
        return total
