#!/usr/bin/env python
"""Adaptive mesh refinement with element-matrix reuse — the AMR use-case
of the paper's §III ("applications with adaptive multiresolution (AMR)
... only a minor subset of elements needs to be updated, while the global
assembly is completely avoided").

Workflow per adaptation cycle:

1. solve the Poisson problem on the current tet mesh,
2. estimate per-element error (gradient-jump-style indicator: elemental
   residual against the smooth exact solution here, for simplicity),
3. Rivara-bisect the worst elements (conformity closure included),
4. rebuild the HYMV operator **reusing the stored element matrices of all
   untouched elements** via the ancestry map — only new elements pay the
   elemental computation.

Run:  python examples/amr_poisson.py
"""

import numpy as np

from repro.core import HymvOperator
from repro.fem import PoissonOperator
from repro.fem.analytic import poisson_exact, poisson_forcing
from repro.fem.loads import body_force_rhs_batch
from repro.mesh import box_tet_mesh
from repro.mesh.adapt import refine_local
from repro.partition import build_partition
from repro.simmpi import run_spmd
from repro.solvers import JacobiPreconditioner, cg, dirichlet_system
from repro.util.arrays import scatter_add


def solve_on(mesh, ke_cache=None):
    """One serial-rank HYMV solve; returns (err_inf, per-element err
    indicator, exported Ke cache, #cache hits, emat time)."""
    part = build_partition(mesh, 1, method="slab")
    lmesh = part.local(0)
    op = PoissonOperator()

    def prog(comm):
        A = HymvOperator(comm, lmesh, op, ke_cache=ke_cache)
        t_emat = comm.obs.total("setup.emat_compute")
        f = np.zeros(A.n_dofs_owned)
        fe = body_force_rhs_batch(
            lmesh.coords, mesh.etype,
            lambda x: poisson_forcing(x)[..., None], 1,
        )
        scatter_add(f, A.maps.e2l, fe[:, :, 0])
        mask = np.zeros(mesh.n_nodes, dtype=bool)
        mask[part.new_of_old[mesh.boundary_nodes()]] = True
        u0 = np.zeros(mesh.n_nodes)
        apply_hat, b_hat = dirichlet_system(A.apply_owned, f, u0, mask)
        d = A.diagonal_owned()
        d[mask] = 1.0
        res = cg(comm, apply_hat, b_hat, apply_M=JacobiPreconditioner(d),
                 rtol=1e-10, maxiter=3000)
        u = res.x
        exact = poisson_exact(part.owned_coords(0))
        err = np.abs(u - exact).max()
        # element indicator: max nodal error over the element
        e_err = np.abs(u - exact)[A.maps.e2l].max(axis=1)
        # undo the independent/dependent permutation (identity at p=1,
        # but keep it explicit)
        return err, e_err, A.export_ke_cache(), A.cache_hits, t_emat

    res, _ = run_spmd(1, prog)
    return res[0]


def main() -> None:
    print("AMR Poisson with element-matrix reuse (Rivara bisection)")
    print("=" * 64)
    mesh = box_tet_mesh(4, 4, 4, jitter=0.1)
    cache = None
    print(f"{'cycle':>5s} {'elements':>9s} {'new':>6s} {'reused':>7s} "
          f"{'emat_ms':>8s} {'err_inf':>10s}")
    for cycle in range(4):
        err, e_err, new_cache, hits, t_emat = solve_on(mesh, cache)
        print(
            f"{cycle:5d} {mesh.n_elements:9d} "
            f"{mesh.n_elements - hits:6d} {hits:7d} "
            f"{t_emat * 1e3:8.2f} {err:10.3e}"
        )
        # mark the worst 10% of elements and refine
        thresh = np.quantile(e_err, 0.9)
        marked = np.flatnonzero(e_err >= thresh)
        ref = refine_local(mesh, marked)
        # carry matrices of untouched elements to the new mesh
        cache = {
            int(ei): new_cache[int(ref.ancestor[ei])]
            for ei in np.flatnonzero(ref.unchanged)
        }
        mesh = ref.mesh
    print()
    print("Each cycle recomputes element matrices only for the elements")
    print("created by the bisection — the 'reused' column is the paper's")
    print("adaptive-matrix saving; a matrix-assembled code would rebuild")
    print("the whole global matrix every cycle.")


if __name__ == "__main__":
    main()
