"""Distributed preconditioned conjugate gradients.

Operates on owned-dof vectors; all inner products are distributed
reductions through the simulated communicator, and the operator
application internally performs the ghost exchange — the same division of
labour as PETSc's KSPCG over a MatShell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.simmpi.communicator import Communicator

__all__ = ["cg", "cg_multi", "CGResult", "ResilienceConfig"]

ApplyFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ResilienceConfig:
    """Breakdown detection + restart policy for :func:`cg`.

    When passed, every iteration reduces a fault flag across ranks (one
    extra scalar allreduce): non-finite ``p^T A p`` / residual norms,
    non-SPD breakdowns, and locally detected ghost corruption (the
    ``faults.checksum_fail`` / ``spmv.ghost_nonfinite`` counters) all
    trigger a collective restart from the last globally-clean iterate
    instead of diverging silently.  ``max_restarts`` bounds recovery; the
    solve fails loudly past it.
    """

    max_restarts: int = 3


@dataclass
class CGResult:
    """Outcome of a CG solve (per rank: ``x`` is the owned block)."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norms: list[float] = field(default_factory=list)
    restarts: int = 0


def _fault_signals(obs) -> float:
    """Locally observed corruption indicators (monotonic counters)."""
    return obs.counter("faults.checksum_fail") + obs.counter(
        "spmv.ghost_nonfinite"
    )


def cg(
    comm: Communicator,
    apply_A: ApplyFn,
    b: np.ndarray,
    x0: np.ndarray | None = None,
    apply_M: ApplyFn | None = None,
    rtol: float = 1e-3,
    atol: float = 0.0,
    maxiter: int = 10000,
    resilience: ResilienceConfig | None = None,
) -> CGResult:
    """Preconditioned CG on the distributed system ``A x = b``.

    Parameters
    ----------
    comm:
        Rank communicator (collective call).
    apply_A:
        SPD operator on owned dof vectors.
    b:
        Owned right-hand side.
    apply_M:
        Preconditioner application (``M ≈ A^-1``); identity if None.
        Follows the ``M(r, out=)`` protocol of
        :mod:`repro.solvers.preconditioners`.
    rtol:
        Relative tolerance on ``||r||_2 / ||r_0||_2`` (the paper solves to
        ``1e-3``).
    resilience:
        Optional :class:`ResilienceConfig` enabling breakdown detection
        and restart-from-last-good-iterate (chaos/fault-injection runs).

    Without ``resilience`` this is :func:`cg_multi` on the one column
    ``b`` (two allreduces per iteration, a non-SPD or non-finite
    ``p·Ap`` raises).  With it, the classic loop runs with its
    separately-guarded reductions and a per-iteration fault flag; on a
    fault-free run its iterates are bitwise those of the fail-fast
    solve, which makes it the independent reference for :func:`cg`.
    """
    if resilience is None:
        return cg_multi(
            comm, lambda X: apply_A(X[:, 0])[:, None],
            np.asarray(b, dtype=np.float64)[:, None], x0=x0,
            apply_M=apply_M, rtol=rtol, atol=atol, maxiter=maxiter,
        )[0]

    obs = comm.obs

    def dot(u: np.ndarray, v: np.ndarray) -> float:
        t = comm.vtime
        s = float(comm.allreduce(float(u @ v)))
        obs.record("solve.reduce", vtime=comm.vtime - t)
        return s

    def matvec(p: np.ndarray) -> np.ndarray:
        t = comm.vtime
        Ap = apply_A(p)
        obs.record("solve.spmv", vtime=comm.vtime - t)
        return Ap

    def precond(r: np.ndarray) -> np.ndarray:
        if apply_M is None:
            return r
        t = comm.vtime
        z = apply_M(r)
        obs.record("solve.precond", vtime=comm.vtime - t)
        return z

    t_solve = comm.vtime
    x = np.zeros_like(b) if x0 is None else x0.astype(np.float64).copy()
    r = b - matvec(x) if x0 is not None else b.copy()
    z = precond(r)
    p = z.copy()
    rz = dot(r, z)
    r0 = np.sqrt(dot(r, r))
    norms = [r0]
    if r0 == 0.0:
        return CGResult(x, 0, True, norms)

    x_good = x.copy()
    seen_faults = _fault_signals(obs)
    restarts = 0
    converged = False
    it = 0
    for it in range(1, maxiter + 1):
        Ap = matvec(p)
        pAp = dot(p, Ap)
        broken = (not np.isfinite(pAp)) or pAp <= 0.0
        if not broken:
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            rn = np.sqrt(dot(r, r))
            broken = not np.isfinite(rn)
        faulted = _fault_signals(obs) > seen_faults
        flag = comm.allreduce(1.0 if (broken or faulted) else 0.0, op="max")
        if flag > 0.0:
            # collective rollback: every rank restores the last iterate
            # that completed without breakdowns or detected corruption,
            # then rebuilds the Krylov state from a fresh residual
            seen_faults = _fault_signals(obs)
            restarts += 1
            obs.incr("solve.breakdowns")
            if restarts > resilience.max_restarts:
                raise RuntimeError(
                    "CG: breakdown/corruption persisted beyond "
                    f"max_restarts={resilience.max_restarts}"
                )
            obs.incr("solve.restarts")
            t_r = comm.vtime
            x = x_good.copy()
            r = b - matvec(x)
            z = precond(r)
            p = z.copy()
            rz = dot(r, z)
            obs.record("solve.restart", vtime=comm.vtime - t_r)
            continue
        x_good = x.copy()
        norms.append(rn)
        if rn <= max(rtol * r0, atol):
            converged = True
            break
        z = precond(r)
        rz_new = dot(r, z)
        beta = rz_new / rz
        rz = rz_new
        p = z + beta * p
    obs.incr("solve.iterations", it)
    obs.record("solve.cg", vtime=comm.vtime - t_solve)
    return CGResult(x, it, converged, norms, restarts=restarts)


def cg_multi(
    comm: Communicator,
    apply_A: Callable[[np.ndarray], np.ndarray],
    B: np.ndarray,
    x0: np.ndarray | None = None,
    apply_M: ApplyFn | None = None,
    rtol: float = 1e-3,
    atol: float = 0.0,
    maxiter: int = 10000,
) -> list[CGResult]:
    """Blocked multi-RHS CG: solve ``A X = B`` for all ``k`` columns of
    ``B`` at once, advancing the ``k`` independent Krylov iterations in
    lock-step.

    The Krylov vectors live in ``(k, n)`` blocks — row ``j`` is column
    ``j``, contiguous — so the vector stage is block-wide: one ufunc per
    axpy / direction update, masked (``where=``) to the active rows once
    one has converged, one ``apply_M(R, out=Z)`` over the block (see
    :mod:`repro.solvers.preconditioners`), and BLAS ddot on each
    contiguous row.  Elementwise IEEE operations round each element on
    its own and a contiguous row is the operand a single-RHS loop dots,
    so column ``j`` carries exactly the bits of its own single-RHS
    sequence (:func:`cg` is this function at ``k = 1``); the columns
    never mix numerically, and a converged row is frozen — never written
    again — just as its single-RHS solve would have stopped.  What *is*
    batched is the synchronization: each iteration ships ONE allreduce
    of a ``k``-vector of ``p·Ap`` values and one of the ``[r·r, r·z]``
    pairs, where ``k`` sequential solves would ship ``2 k`` — the
    elementwise vector reduction reduces every slot in the same rank
    order as a scalar.  A non-positive or non-finite ``p·Ap`` on an
    active column raises ``RuntimeError`` (CG breakdown).

    The operator still sees ``(n, k)``: each matvec hands it ``P.T`` — a
    transposed *view* of the search-direction block, not a copy, so
    ``apply_A`` must neither write to it nor assume a C-contiguous input
    — and copies the product back into the block: one transpose each way
    per iteration, no ``(n, k)`` staging buffer.  The vector stage has no
    mode of its own: with an operator that is column-bitwise (e.g. the
    oracle multi-RHS mode, bound in the caller's closure) column ``j`` is
    **bitwise identical** to ``cg(comm, ..., B[:, j])``; under a GEMM
    operator only its elemental accumulation differs (rounding level,
    see :func:`repro.core.kernels.gemm_equivalence_rtol`).

    Returns one :class:`CGResult` per column.
    """
    obs = comm.obs
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError(f"expected (n, k) multivector RHS, got shape {B.shape}")
    n, k = B.shape
    if k == 0:
        raise ValueError("need at least one column, got k=0")
    t_solve = comm.vtime
    AP = np.empty((k, n))

    def matvec(V: np.ndarray) -> np.ndarray:
        t = comm.vtime
        Y = apply_A(V.T)
        obs.record("solve.spmv", vtime=comm.vtime - t)
        np.copyto(AP, Y.T)
        return AP

    def reduce_dots(U: np.ndarray, V: np.ndarray, V2=None) -> np.ndarray:
        """Allreduce of the row dots ``U[j]·V[j]`` (and of ``U[j]·V2[j]``
        as a second column, when ``V2`` is given).  A
        batched ``(1, n) @ (n, 1)`` matmul runs BLAS ddot on every
        contiguous row: the single-RHS operand, so the same bits.  The
        reduction is elementwise, so the (unread) slots of frozen rows
        touch no other slot.  The payload is fresh, so no rank reuses a
        buffer a sibling is still reducing."""
        payload = np.matmul(U[:, None], V[..., None])
        if V2 is not None:
            payload = np.concatenate(
                (payload, np.matmul(U[:, None], V2[..., None])), axis=1
            )
        t = comm.vtime
        out = comm.allreduce(payload.reshape(-1))
        obs.record("solve.reduce", vtime=comm.vtime - t)
        return np.asarray(out).reshape(k, -1)

    X = np.zeros((k, n)) if x0 is None else np.asarray(
        x0, dtype=np.float64
    ).reshape(n, k).T.copy()
    R = B.T.copy()
    if x0 is not None:
        R -= matvec(X)
    Z = R if apply_M is None else np.empty_like(R)

    def precond() -> None:
        if apply_M is not None:
            t = comm.vtime
            apply_M(R, out=Z)
            obs.record("solve.precond", vtime=comm.vtime - t)

    precond()
    P = Z.copy()
    # rz, pAp and coef are (k, 1) columns that broadcast along the rows
    rz = reduce_dots(R, Z)
    r0 = np.sqrt(reduce_dots(R, R)[:, 0])
    tol = np.maximum(rtol * r0, atol)
    history = [r0]  # residual norms per iteration; row j reads to iters[j]
    iters = np.zeros(k, dtype=int)
    active = np.ones(k, dtype=bool)
    n_active = k
    live = True  # ufunc ``where=``: all rows, then only the active ones
    W = np.empty((k, n))  # axpy scratch
    coef = np.empty((k, 1))  # alpha, then beta

    def freeze(done: np.ndarray) -> None:
        """Freeze the active rows ``done`` marks: every later update is
        masked off them, so a frozen row is never written again."""
        nonlocal n_active, live
        done &= active
        if np.count_nonzero(done):
            iters[done] = len(history) - 1
            active[done] = False
            n_active = np.count_nonzero(active)
            live = active[:, None]

    freeze(r0 == 0.0)
    while n_active and len(history) <= maxiter:
        matvec(P)
        pAp = reduce_dots(P, AP)
        bad = active & ~(pAp[:, 0] > 0.0)  # NaN breaks down too
        if np.count_nonzero(bad):
            raise RuntimeError(
                f"CG breakdown: p^T A p = {pAp[bad.argmax(), 0]:.3e} "
                "(operator not SPD?)"
            )
        np.divide(rz, pAp, out=coef, where=live)
        np.multiply(P, coef, out=W, where=live)
        np.add(X, W, out=X, where=live)
        np.multiply(AP, coef, out=W, where=live)
        np.subtract(R, W, out=R, where=live)
        precond()
        red = reduce_dots(R, R, Z)
        rn = np.sqrt(red[:, 0])
        history.append(rn)
        freeze(rn <= tol)
        # p = z + beta*p in place (IEEE addition commutes bitwise)
        rz_new = red[:, 1:]
        np.divide(rz_new, rz, out=coef, where=live)
        np.copyto(rz, rz_new, where=live)
        np.multiply(P, coef, out=P, where=live)
        np.add(P, Z, out=P, where=live)
    iters[active] = len(history) - 1
    obs.incr("solve.iterations", int(iters.sum()))
    obs.incr("solve.mrhs_columns", k)
    obs.record("solve.cg", vtime=comm.vtime - t_solve)
    norms = np.array(history)
    return [
        CGResult(X[j], int(iters[j]), not active[j],
                 norms[: iters[j] + 1, j].tolist())
        for j in range(k)
    ]
