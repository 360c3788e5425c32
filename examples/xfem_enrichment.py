#!/usr/bin/env python
"""The adaptive-matrix use-case that motivates HYMV (paper §I, §III):
XFEM-style crack enrichment.

"When a crack occurs, additional unknowns are enriched in the cracked
element.  This enrichment changes the stiffness matrix of few (cracked)
elements while most (uncracked) elements are intact.  HYMV handles this
issue efficiently since only the cracked elements are recomputed (in
contrast, if a matrix-assembled approach is used, the entire global
matrix must be reassembled)."

This example simulates a crack sweeping through an elastic bar: at each
step the elements crossed by the crack front get their stiffness scaled
down, HYMV updates only those element matrices, and the system is
re-solved.  The cost of each update is compared against what a full
matrix reassembly would cost.

Run:  python examples/xfem_enrichment.py
"""

import numpy as np

from repro.baselines import AssembledOperator
from repro.core import HymvOperator
from repro.core.rhs import local_node_coords
from repro.fem import ElasticityOperator
from repro.mesh import ElementType, box_hex_mesh
from repro.partition import build_partition
from repro.simmpi import run_spmd
from repro.solvers import JacobiPreconditioner, cg, dirichlet_system


def main() -> None:
    print("XFEM-style crack propagation with adaptive element updates")
    print("=" * 64)
    mesh = box_hex_mesh(8, 8, 8, ElementType.HEX8, lengths=(1, 1, 1))
    part = build_partition(mesh, 2, method="slab")
    op = ElasticityOperator()
    centroids = mesh.element_centroids()
    print(f"mesh: {mesh.n_elements} Hex8 elements, {mesh.n_nodes * 3} dofs")

    # crack plane y = 0.5 advancing in +x, softening crossed elements
    steps = [0.25, 0.5, 0.75, 1.0]

    def prog(comm, lmesh):
        A = HymvOperator(comm, lmesh, op)
        setup_t = comm.obs.total("setup.emat_compute") + comm.obs.total(
            "setup.local_copy"
        )
        rng = np.random.default_rng(0)
        f = rng.standard_normal(A.n_dofs_owned)
        # clamp the bottom face (z = 0) so the operator is SPD
        coords = local_node_coords(A.maps, lmesh)[A.maps.owned_slice]
        mask = np.repeat(np.abs(coords[:, 2]) < 1e-12, 3)
        u0 = np.zeros(A.n_dofs_owned)
        log = []
        cracked_before = np.zeros(lmesh.n_local_elements, dtype=bool)
        for front in steps:
            c = centroids[lmesh.elements]
            in_crack = (np.abs(c[:, 1] - 0.5) < 1.0 / 8.0) & (c[:, 0] < front)
            newly = np.flatnonzero(in_crack & ~cracked_before)
            cracked_before |= in_crack
            t0 = comm.vtime
            A.update_elements(newly, stiffness_scale=0.05)
            t_update = comm.vtime - t0
            # a representative re-solve on the updated operator
            apply_hat, b_hat = dirichlet_system(A.apply_owned, f, u0, mask)
            d = A.diagonal_owned()
            d[mask] = 1.0
            res = cg(
                comm, apply_hat, b_hat, apply_M=JacobiPreconditioner(d),
                rtol=1e-6, maxiter=2000,
            )
            n_new = comm.allreduce(int(newly.size))
            log.append((front, n_new, t_update, res.iterations))
        # what a full reassembly costs (the matrix-assembled alternative)
        t0 = comm.vtime
        AssembledOperator(comm, lmesh, op)
        t_reassemble = comm.vtime - t0
        return setup_t, log, t_reassemble

    res, _ = run_spmd(2, prog, rank_args=[(part.local(r),) for r in range(2)])
    setup_t = max(r[0] for r in res)
    t_reassemble = max(r[2] for r in res)
    print(f"one-time HYMV setup: {setup_t * 1e3:8.2f} ms")
    print(f"full reassembly (matrix-assembled approach): "
          f"{t_reassemble * 1e3:8.2f} ms per crack step")
    print()
    print(f"{'front':>6s} {'new cracked':>12s} {'HYMV update':>12s} "
          f"{'vs reassembly':>14s} {'CG iters':>9s}")
    for i, (front, n_new, _, iters) in enumerate(res[0][1]):
        t_update = max(r[1][i][2] for r in res)
        speed = t_reassemble / max(t_update, 1e-9)
        print(
            f"{front:6.2f} {n_new:12d} {t_update * 1e3:10.2f}ms "
            f"{speed:12.0f}x {iters:9d}"
        )
    print()
    print("Each enrichment touches a handful of elements; HYMV recomputes")
    print("only those, while the assembled approach would rebuild and")
    print("re-communicate the whole global matrix.")


if __name__ == "__main__":
    main()
