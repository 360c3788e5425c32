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

    @property
    def final_relative_residual(self) -> float:
        if not self.residual_norms or self.residual_norms[0] == 0.0:
            return 0.0
        return self.residual_norms[-1] / self.residual_norms[0]


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
    fused: bool = True,
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
        ``None`` keeps the classic fail-fast behaviour bit-for-bit.
    fused:
        Use the fused-reduction iteration: the residual norm and the
        ``r·z`` dot product are shipped as a *single* allreduce of a
        2-vector per iteration (half the global synchronizations), with
        all solver vectors preallocated and updated in place.  Iterates
        are bitwise identical to the classic loop (the simulated
        allreduce reduces vectors elementwise in the same rank order as
        scalars, and the in-place axpy updates round identically).
        Ignored when ``resilience`` is active — the restart path keeps
        the classic, separately-guarded reductions.  ``fused=False``
        runs the classic loop; no solver path selects it, it is kept as
        the bitwise reference the ``test_cg_fused_*`` tests in
        ``tests/test_solvers.py`` compare the fused iteration against.
    """

    obs = comm.obs
    detect = resilience is not None

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

    if fused and not detect:
        return _cg_fused(
            comm, apply_A, b, x0, apply_M, rtol, atol, maxiter,
            dot=dot, matvec=matvec,
        )

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

    x_good = x.copy() if detect else None
    seen_faults = _fault_signals(obs) if detect else 0.0
    restarts = 0
    converged = False
    it = 0
    for it in range(1, maxiter + 1):
        Ap = matvec(p)
        pAp = dot(p, Ap)
        if detect:
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
        else:
            if pAp <= 0.0:
                raise RuntimeError(
                    f"CG breakdown: p^T A p = {pAp:.3e} (operator not SPD?)"
                )
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            rn = np.sqrt(dot(r, r))
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


def _cg_fused(
    comm: Communicator,
    apply_A: ApplyFn,
    b: np.ndarray,
    x0: np.ndarray | None,
    apply_M: ApplyFn | None,
    rtol: float,
    atol: float,
    maxiter: int,
    dot: Callable[[np.ndarray, np.ndarray], float],
    matvec: ApplyFn,
) -> CGResult:
    """Fused-reduction CG iteration (no resilience).

    One allreduce of ``[r·r, r·z]`` per iteration instead of two scalar
    reductions, preallocated axpy scratch, in-place direction update.
    Bitwise identical iterates to the classic loop; the preconditioner
    is applied *before* the convergence check (its value is discarded on
    the final iteration), which does not change any iterate.
    """
    obs = comm.obs
    t_solve = comm.vtime
    x = np.zeros_like(b) if x0 is None else x0.astype(np.float64).copy()
    r = b - matvec(x) if x0 is not None else b.copy()

    zbuf = np.empty_like(b) if apply_M is not None else None

    def precond(r: np.ndarray) -> np.ndarray:
        if apply_M is None:
            return r
        t = comm.vtime
        z = apply_M(r, out=zbuf)
        obs.record("solve.precond", vtime=comm.vtime - t)
        return z

    z = precond(r)
    p = z.copy()
    rz = dot(r, z)
    r0 = np.sqrt(dot(r, r))
    norms = [r0]
    if r0 == 0.0:
        return CGResult(x, 0, True, norms)

    w = np.empty_like(b)  # axpy scratch (alpha*p, then alpha*Ap)
    pair = np.empty(2)  # fused-reduction payload [r.r, r.z]
    converged = False
    it = 0
    for it in range(1, maxiter + 1):
        Ap = matvec(p)
        pAp = dot(p, Ap)
        if pAp <= 0.0:
            raise RuntimeError(
                f"CG breakdown: p^T A p = {pAp:.3e} (operator not SPD?)"
            )
        alpha = rz / pAp
        np.multiply(p, alpha, out=w)
        x += w
        np.multiply(Ap, alpha, out=w)
        r -= w
        z = precond(r)
        pair[0] = r @ r
        pair[1] = r @ z
        t = comm.vtime
        red = comm.allreduce(pair)
        obs.record("solve.reduce", vtime=comm.vtime - t)
        rn = float(np.sqrt(red[0]))
        norms.append(rn)
        if rn <= max(rtol * r0, atol):
            converged = True
            break
        rz_new = float(red[1])
        beta = rz_new / rz
        rz = rz_new
        # p = z + beta*p in place (IEEE addition commutes bitwise)
        p *= beta
        p += z
    obs.incr("solve.iterations", it)
    obs.record("solve.cg", vtime=comm.vtime - t_solve)
    return CGResult(x, it, converged, norms)


def cg_multi(
    comm: Communicator,
    apply_A: Callable[[np.ndarray], np.ndarray],
    B: np.ndarray,
    x0: np.ndarray | None = None,
    apply_M: ApplyFn | None = None,
    rtol: float = 1e-3,
    atol: float = 0.0,
    maxiter: int = 10000,
    mode: str | None = None,
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
    its own and a contiguous row is the operand the single-RHS loop dots,
    so column ``j`` carries exactly the bits of the fused single-RHS
    sequence; the columns never mix numerically, and a converged row is
    frozen — never written again — just as its single-RHS solve would
    have stopped.  What *is* batched is the
    synchronization: each iteration ships ONE allreduce of a ``k``-vector
    of ``p·Ap`` values and one of the fused ``[r·r, r·z]`` pairs, where
    ``k`` sequential solves would ship ``2 k`` — the elementwise vector
    reduction reduces every slot in the same rank order as a scalar.

    The operator still sees ``(n, k)``: each matvec transposes ``P`` into
    a preallocated ``(n, k)`` buffer and copies the product back into the
    block.  ``mode`` (``"oracle"`` | ``"gemm"`` | ``"auto"``) is forwarded
    to ``apply_A`` as a keyword, selecting the multi-RHS execution mode
    of operators that support it; ``None`` (the default) calls
    ``apply_A(P)`` unchanged, so plain closures keep working.  The vector
    stage is the same in every mode, so with an oracle-mode operator
    column ``j`` is **bitwise identical** to ``cg(comm, ..., B[:, j],
    fused=True)``; under a resolved ``"gemm"`` only the operator's
    elemental accumulation differs (rounding level, see
    :func:`repro.core.kernels.gemm_equivalence_rtol`).

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
    P_op = np.empty((n, k))  # the operator's (n, k) image of a block
    AP = np.empty((k, n))

    def matvec(V: np.ndarray) -> np.ndarray:
        np.copyto(P_op, V.T)
        t = comm.vtime
        Y = apply_A(P_op) if mode is None else apply_A(P_op, mode=mode)
        obs.record("solve.spmv", vtime=comm.vtime - t)
        np.copyto(AP, Y.T)
        return AP

    def reduce_dots(*pairs) -> np.ndarray:
        """Allreduce of the row dots ``U[j]·V[j]`` of each pair.  A
        batched ``(1, n) @ (n, 1)`` matmul runs BLAS ddot on every
        contiguous row: the single-RHS operand, so the same bits.  The
        reduction is elementwise, so the (unread) slots of frozen rows
        touch no other slot.  The payload is fresh, so no rank reuses a
        buffer a sibling is still reducing."""
        payload = np.concatenate(
            [np.matmul(U[:, None], V[..., None]) for U, V in pairs], axis=1
        )
        t = comm.vtime
        out = comm.allreduce(payload.reshape(-1))
        obs.record("solve.reduce", vtime=comm.vtime - t)
        return np.asarray(out).reshape(k, len(pairs))

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
    rz = reduce_dots((R, Z))
    r0 = np.sqrt(reduce_dots((R, R))[:, 0])
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
        pAp = reduce_dots((P, AP))
        bad = active & (pAp[:, 0] <= 0.0)
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
        red = reduce_dots((R, R), (R, Z))
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
