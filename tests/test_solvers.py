"""CG, preconditioners, Dirichlet projection."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.simmpi import run_spmd
from repro.solvers import (
    BlockJacobiPreconditioner,
    JacobiPreconditioner,
    ResilienceConfig,
    cg,
    dirichlet_system,
)
from repro.solvers.cg import cg_multi


def _spd_matrix(n, seed=0, cond=50.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.linspace(1.0, cond, n)
    return (Q * w) @ Q.T


def test_cg_serial_matches_direct():
    A = _spd_matrix(40)
    b = np.random.default_rng(1).standard_normal(40)

    def prog(comm):
        return cg(comm, lambda x: A @ x, b, rtol=1e-12, maxiter=500)

    res, _ = run_spmd(1, prog)
    r = res[0]
    assert r.converged
    np.testing.assert_allclose(r.x, np.linalg.solve(A, b), atol=1e-8)
    # residual history is monotone-ish and ends below tolerance
    assert r.residual_norms[-1] <= 1e-12 * r.residual_norms[0]


def test_cg_zero_rhs_returns_zero():
    def prog(comm):
        return cg(comm, lambda x: 2.0 * x, np.zeros(7))

    res, _ = run_spmd(1, prog)
    assert res[0].iterations == 0 and res[0].converged
    np.testing.assert_array_equal(res[0].x, np.zeros(7))


def test_cg_distributed_block_diagonal():
    """A block-diagonal SPD system distributed over ranks: CG converges to
    the per-rank direct solutions."""
    p = 3
    blocks = [_spd_matrix(12, seed=s) for s in range(p)]
    rhs = [np.random.default_rng(10 + s).standard_normal(12) for s in range(p)]

    def prog(comm):
        A = blocks[comm.rank]
        b = rhs[comm.rank]
        res = cg(comm, lambda x: A @ x, b, rtol=1e-12, maxiter=400)
        return np.abs(res.x - np.linalg.solve(A, b)).max(), res.iterations

    res, _ = run_spmd(p, prog)
    errs, iters = zip(*res)
    assert max(errs) < 1e-7
    assert len(set(iters)) == 1  # collective iteration count


def test_cg_detects_non_spd():
    A = -np.eye(5)

    def prog(comm):
        with pytest.raises(RuntimeError, match="breakdown"):
            cg(comm, lambda x: A @ x, np.ones(5))
        return True

    res, _ = run_spmd(1, prog)
    assert res[0]


def test_cg_maxiter_not_converged():
    A = _spd_matrix(60, cond=1e6)
    b = np.ones(60)

    def prog(comm):
        return cg(comm, lambda x: A @ x, b, rtol=1e-14, maxiter=3)

    res, _ = run_spmd(1, prog)
    assert not res[0].converged
    assert res[0].iterations == 3


def _preconditioner(kind, A):
    if kind == "none":
        return None
    if kind == "jacobi":
        return JacobiPreconditioner(np.diag(A).copy())
    # two principal diagonal blocks of an SPD matrix: SPD, not A^-1
    h = A.shape[0] // 2
    return BlockJacobiPreconditioner(
        sp.block_diag([A[:h, :h], A[h:, h:]], format="csr")
    )


@pytest.mark.parametrize("n_ranks", [1, 3])
@pytest.mark.parametrize("with_x0", [False, True], ids=["x0=None", "x0"])
@pytest.mark.parametrize("precond", ["none", "jacobi", "bjacobi"])
def test_cg_bitwise_matches_resilient_loop(precond, with_x0, n_ranks):
    """Fault-free, ``cg`` (``cg_multi`` on one column) and the classic
    loop behind ``resilience`` do the same arithmetic — their reductions
    are elementwise in the same rank order — so solutions, residual
    histories and iteration counts agree bit for bit."""

    def prog(comm):
        rng = np.random.default_rng(21 + comm.rank)
        A = np.diag(rng.uniform(1.0, 100.0, 30)) + 0.5 * _spd_matrix(
            30, seed=22 + comm.rank, cond=5.0
        )
        b = rng.standard_normal(30)
        kw = dict(
            x0=rng.standard_normal(30) if with_x0 else None,
            apply_M=_preconditioner(precond, A), rtol=1e-11, maxiter=500,
        )
        return (
            cg(comm, lambda x: A @ x, b, **kw),
            cg(comm, lambda x: A @ x, b, resilience=ResilienceConfig(), **kw),
        )

    res, _ = run_spmd(n_ranks, prog)
    for fast, classic in res:
        assert fast.converged and classic.restarts == 0
        assert fast.iterations == classic.iterations > 1
        assert np.array_equal(fast.x, classic.x)
        assert np.array_equal(fast.residual_norms, classic.residual_norms)


def test_cg_reductions_per_iteration():
    """``cg`` ships two allreduces per iteration — the ``p·Ap`` dot and
    the ``[r·r, r·z]`` pair — after two at setup."""
    A = _spd_matrix(40)
    b = np.random.default_rng(2).standard_normal(40)

    def prog(comm):
        def n_reduce():
            phases = comm.obs.snapshot()["phases"]
            return phases.get("solve.reduce", {}).get("count", 0)

        before = n_reduce()
        res = cg(comm, lambda x: A @ x, b, rtol=1e-10, maxiter=500)
        return res.iterations, n_reduce() - before

    res, _ = run_spmd(1, prog)
    iterations, reductions = res[0]
    assert iterations > 1
    assert reductions == 2 + 2 * iterations


@pytest.mark.parametrize("k", [1, 3])
def test_cg_nan_operator_breaks_down(k):
    """A non-finite ``p·Ap`` is a breakdown like a non-positive one: a
    NaN operator raises at once instead of iterating to ``maxiter``."""
    calls = []

    def apply_nan(x):
        calls.append(None)
        return np.full_like(x, np.nan)

    def prog(comm):
        with pytest.raises(RuntimeError, match="CG breakdown"):
            if k == 1:
                cg(comm, apply_nan, np.ones(20))
            else:
                cg_multi(comm, apply_nan, np.ones((20, k)))
        return len(calls)

    res, _ = run_spmd(1, prog)
    assert res[0] <= 2


def test_cg_fused_breakdown_detected():
    def prog(comm):
        with pytest.raises(RuntimeError, match="breakdown"):
            cg(comm, lambda x: -x, np.ones(5))
        return True

    res, _ = run_spmd(1, prog)
    assert res[0]


def test_jacobi_reduces_iterations():
    rng = np.random.default_rng(4)
    d = rng.uniform(1.0, 1000.0, 80)
    A = np.diag(d) + 0.5 * _spd_matrix(80, seed=5, cond=2.0)
    b = rng.standard_normal(80)

    def prog(comm):
        plain = cg(comm, lambda x: A @ x, b, rtol=1e-10, maxiter=2000)
        M = JacobiPreconditioner(np.diag(A).copy())
        prec = cg(comm, lambda x: A @ x, b, apply_M=M, rtol=1e-10, maxiter=2000)
        return plain.iterations, prec.iterations

    res, _ = run_spmd(1, prog)
    plain_it, prec_it = res[0]
    assert prec_it < plain_it


def test_jacobi_rejects_nonpositive_diagonal():
    with pytest.raises(ValueError):
        JacobiPreconditioner(np.array([1.0, 0.0]))


def test_block_jacobi_exact_for_block_system():
    B = _spd_matrix(20, seed=7)
    M = BlockJacobiPreconditioner(sp.csr_matrix(B))
    r = np.random.default_rng(8).standard_normal(20)
    np.testing.assert_allclose(M(r), np.linalg.solve(B, r), atol=1e-9)


def test_block_jacobi_requires_square():
    with pytest.raises(ValueError):
        BlockJacobiPreconditioner(sp.csr_matrix(np.ones((2, 3))))


def _laplacian_3d(m):
    T = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(m, m))
    eye = sp.eye(m)
    return (
        sp.kron(sp.kron(T, eye), eye)
        + sp.kron(sp.kron(eye, T), eye)
        + sp.kron(sp.kron(eye, eye), T)
    ).tocsr()


@pytest.mark.parametrize("kind", ["jacobi", "bjacobi"])
def test_preconditioner_block_apply_matches_rows(kind):
    """``M(R, out=Z)`` on a (k, n) block is bitwise the per-row apply
    (the protocol cg_multi's block vector stage relies on).  The 3-D
    Laplacian's LU has supernodes, where SuperLU's multi-RHS solve would
    round differently from single solves."""
    A = _laplacian_3d(13)
    M = {
        "jacobi": JacobiPreconditioner(A.diagonal()),
        "bjacobi": BlockJacobiPreconditioner(A),
    }[kind]
    R = np.random.default_rng(3).standard_normal((8, A.shape[0]))
    Z = np.empty_like(R)
    assert M(R, out=Z) is Z
    rows = np.stack([M(r) for r in R])
    assert np.array_equal(Z, rows)
    assert np.array_equal(M(R), rows)
    z = np.empty(A.shape[0])
    assert M(R[0], out=z) is z and np.array_equal(z, rows[0])


def test_dirichlet_system_solution_matches_elimination():
    n = 30
    A = _spd_matrix(n, seed=11)
    f = np.random.default_rng(12).standard_normal(n)
    mask = np.zeros(n, dtype=bool)
    mask[[0, 5, 17]] = True
    u0 = np.zeros(n)
    u0[mask] = [1.0, -2.0, 0.5]

    apply_hat, b_hat = dirichlet_system(lambda x: A @ x, f, u0, mask)

    def prog(comm):
        return cg(comm, apply_hat, b_hat, rtol=1e-13, maxiter=500).x

    res, _ = run_spmd(1, prog)
    x = res[0]
    # compare against direct elimination
    free = ~mask
    x_ref = u0.copy()
    x_ref[free] = np.linalg.solve(
        A[np.ix_(free, free)], (f - A @ u0)[free]
    ) + u0[free]
    np.testing.assert_allclose(x, x_ref, atol=1e-8)
    np.testing.assert_allclose(x[mask], u0[mask], atol=1e-12)


def test_dirichlet_system_operator_is_spd():
    n = 15
    A = _spd_matrix(n, seed=2)
    mask = np.zeros(n, dtype=bool)
    mask[:4] = True
    apply_hat, _ = dirichlet_system(
        lambda x: A @ x, np.zeros(n), np.zeros(n), mask
    )
    H = np.column_stack([apply_hat(e) for e in np.eye(n)])
    np.testing.assert_allclose(H, H.T, atol=1e-12)
    assert np.linalg.eigvalsh(H).min() > 0


def test_dirichlet_system_shape_mismatch():
    with pytest.raises(ValueError):
        dirichlet_system(lambda x: x, np.zeros(3), np.zeros(4), np.zeros(3, bool))
