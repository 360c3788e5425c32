"""Canonical problem definitions used by tests, examples and benchmarks.

The two verification problems of the paper (§V-B), packaged with their
meshes, partitions, loads, boundary conditions and analytic solutions:

* :func:`poisson_problem` — ``∇²u + sin(2πx)sin(2πy)sin(2πz) = 0`` on the
  unit cube, homogeneous Dirichlet boundary.
* :func:`elastic_bar_problem` — prismatic bar hanging under its own
  weight, uniform traction on the top face, exact Timoshenko solution
  prescribed on the top-face nodes (pinning rigid modes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.fem.analytic import (
    bar_body_force,
    bar_exact_displacement,
    bar_top_traction,
    poisson_exact,
    poisson_forcing,
)
from repro.fem.dirichlet import DirichletBC
from repro.fem.material import IsotropicElasticity
from repro.fem.operators import (
    ElasticityOperator,
    GraphLaplacianOperator,
    Operator,
    PoissonOperator,
)
from repro.mesh.element import ElementType, corner_faces
from repro.mesh.mesh import Mesh
from repro.mesh.structured import box_hex_mesh
from repro.mesh.unstructured import box_tet_mesh, jittered_hex_mesh
from repro.partition.interface import Partition, build_partition
from repro.util.arrays import INDEX_DTYPE

__all__ = [
    "ProblemSpec",
    "poisson_problem",
    "elastic_bar_problem",
    "graph_laplacian_problem",
]


@dataclass
class ProblemSpec:
    """A fully-specified distributed FEM problem."""

    name: str
    mesh: Mesh
    partition: Partition
    operator: Operator
    body_force: Callable | np.ndarray | None
    bcs: list[DirichletBC]  # in renumbered node ids
    tractions: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=list
    )  # (global element ids, face ids, traction vector)
    analytic: Callable[[np.ndarray], np.ndarray] | None = None
    #: optional absolute per-element stiffness scale ``(n_elements,)`` in
    #: mesh element order (XFEM-style softening; managed by
    #: :mod:`repro.adapt` — ``None`` means all ones)
    elem_scale: np.ndarray | None = None

    @property
    def n_parts(self) -> int:
        return self.partition.n_parts

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_nodes * self.operator.ndpn

    def rank_tractions(
        self, rank: int
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Traction specs restricted to rank-local element indices."""
        lm = self.partition.local(rank)
        out = []
        for elems, faces, t in self.tractions:
            pos = np.searchsorted(lm.elements, elems)
            pos = np.clip(pos, 0, max(lm.elements.size - 1, 0))
            hit = (
                lm.elements[pos] == elems
                if lm.elements.size
                else np.zeros(elems.shape, dtype=bool)
            )
            out.append((pos[hit].astype(INDEX_DTYPE), faces[hit], t))
        return out

    def analytic_owned(self, rank: int) -> np.ndarray | None:
        """Exact owned dof values for error measurement (flat)."""
        if self.analytic is None:
            return None
        coords = self.partition.owned_coords(rank)
        if coords.shape[0] == 0:
            return np.zeros(0)
        return np.asarray(self.analytic(coords)).reshape(
            coords.shape[0], -1
        ).reshape(-1)


def poisson_problem(
    nel: int | tuple[int, int, int],
    n_parts: int,
    etype: ElementType = ElementType.HEX8,
    part_method: str | None = None,
    jitter: float = 0.25,
    seed: int = 0,
) -> ProblemSpec:
    """The paper's Poisson verification problem on the unit cube."""
    nx, ny, nz = (nel, nel, nel) if isinstance(nel, int) else nel
    if etype.is_hex:
        mesh = box_hex_mesh(nx, ny, nz, etype)
        method = part_method or "slab"
    else:
        mesh = box_tet_mesh(nx, ny, nz, etype, jitter=jitter, seed=seed)
        method = part_method or "graph"
    part = build_partition(mesh, n_parts, method=method)
    bc = DirichletBC(part.boundary_nodes_new(), 0.0, ndpn=1)
    return ProblemSpec(
        name=f"poisson-{etype.value}",
        mesh=mesh,
        partition=part,
        operator=PoissonOperator(),
        body_force=lambda x: poisson_forcing(x)[..., None],
        bcs=[bc],
        analytic=poisson_exact,
    )


def graph_laplacian_problem(
    nel: int | tuple[int, int, int],
    n_parts: int,
    etype: ElementType = ElementType.TET4,
    part_method: str | None = None,
    seed: int = 0,
    drop: float = 0.35,
    jitter: float = 0.3,
) -> ProblemSpec:
    """Seeded graph-Laplacian problem on an unstructured mesh — the
    non-FEM sparsity scenario for the SELL-C-sigma backend.

    The mesh/partition machinery supplies the adjacency; the operator is
    a weighted clique Laplacian with deterministic coordinate-hashed
    edge weights and a ``drop`` fraction of zeroed edges (see
    :class:`~repro.fem.operators.GraphLaplacianOperator`).  A jittered
    tet mesh gives irregular node valence, so the assembled rows have
    the skewed length distribution sliced-ELL formats exist to handle.
    Edge weights are a pure function of geometry and ``seed`` — the same
    edge gets the same weight on every rank and in every partitioning —
    so the problem is deterministic and the SELL-vs-CSR comparison is
    bitwise on any fixed partition.
    """
    nx, ny, nz = (nel, nel, nel) if isinstance(nel, int) else nel
    if etype.is_hex:
        mesh = jittered_hex_mesh(nx, ny, nz, etype, jitter=jitter, seed=seed)
    else:
        mesh = box_tet_mesh(nx, ny, nz, etype, jitter=jitter, seed=seed)
    part = build_partition(mesh, n_parts, method=part_method or "graph")
    bc = DirichletBC(part.boundary_nodes_new(), 0.0, ndpn=1)
    return ProblemSpec(
        name=f"graphlap-{etype.value}",
        mesh=mesh,
        partition=part,
        operator=GraphLaplacianOperator(seed=seed, drop=drop),
        body_force=lambda x: np.ones(x.shape[:-1] + (1,)),
        bcs=[bc],
        analytic=None,
    )


def elastic_bar_problem(
    nel: int | tuple[int, int, int],
    n_parts: int,
    etype: ElementType = ElementType.HEX20,
    material: IsotropicElasticity | None = None,
    lengths: tuple[float, float, float] = (1.0, 1.0, 2.0),
    part_method: str | None = None,
    unstructured: bool = False,
    jitter: float = 0.2,
    seed: int = 0,
    pin: str = "minimal",
) -> ProblemSpec:
    """The hanging elastic bar (Timoshenko & Goodier), origin at the
    bottom-face centre, hung from the top face ``z = Lz``.

    Loads: gravity body force and uniform traction on the top face.

    ``pin`` selects how rigid modes are removed:

    * ``"minimal"`` — 6 point constraints on top-face nodes (exact values):
      all components at the node nearest the face centre, ``uy``/``uz`` at
      a node on the +x side, ``uz`` at a node on the +y side.  The top
      traction is load-bearing, as in the paper's setup ("hung from its
      top face center").
    * ``"top_face"`` — exact displacement prescribed on every top-face
      node (more constrained; the traction becomes redundant).
    """
    mat = material or IsotropicElasticity(E=100.0, nu=0.3, rho=1.0, g=1.0)
    nx, ny, nz = (nel, nel, nel) if isinstance(nel, int) else nel
    Lx, Ly, Lz = lengths
    origin = (-Lx / 2, -Ly / 2, 0.0)
    if etype.is_tet:
        mesh = box_tet_mesh(
            nx, ny, nz, etype, lengths=lengths, origin=origin,
            jitter=jitter, seed=seed,
        )
        method = part_method or "graph"
    elif unstructured:
        mesh = jittered_hex_mesh(
            nx, ny, nz, etype, lengths=lengths, origin=origin,
            jitter=jitter, seed=seed,
        )
        method = part_method or "graph"
    else:
        mesh = box_hex_mesh(nx, ny, nz, etype, lengths=lengths, origin=origin)
        method = part_method or "slab"
    part = build_partition(mesh, n_parts, method=method)

    # top-face traction (elements owning a boundary face at z = Lz)
    bfaces = mesh.boundary_faces()
    cf = np.asarray(corner_faces(etype))
    corners = mesh.conn[bfaces[:, :1], cf[bfaces[:, 1]]]  # (F, c) node ids
    on_top = np.isclose(mesh.coords[corners, 2], Lz, atol=1e-9).all(axis=1)
    top_pairs = bfaces[on_top]

    # pin rigid modes with exact displacement values
    coords_new = part.coords_by_new_id()
    top_nodes = np.flatnonzero(
        np.abs(coords_new[:, 2] - Lz) < 1e-9
    ).astype(INDEX_DTYPE)
    exact = lambda x: bar_exact_displacement(x, mat, Lz)  # noqa: E731
    if pin == "top_face":
        bcs = [DirichletBC(top_nodes, exact, ndpn=3)]
    elif pin == "minimal":
        tc = coords_new[top_nodes]
        center = top_nodes[np.argmin(tc[:, 0] ** 2 + tc[:, 1] ** 2)]
        px = top_nodes[np.argmin((tc[:, 0] - Lx) ** 2 + tc[:, 1] ** 2)]
        py = top_nodes[np.argmin(tc[:, 0] ** 2 + (tc[:, 1] - Ly) ** 2)]
        bcs = [
            DirichletBC([center], exact, ndpn=3),
            DirichletBC([px], exact, ndpn=3, components=(1, 2)),
            DirichletBC([py], exact, ndpn=3, components=(2,)),
        ]
    else:
        raise ValueError(f"unknown pin mode {pin!r}")
    return ProblemSpec(
        name=f"elastic-bar-{etype.value}",
        mesh=mesh,
        partition=part,
        operator=ElasticityOperator(material=mat),
        body_force=bar_body_force(mat),
        bcs=bcs,
        tractions=[
            (top_pairs[:, 0], top_pairs[:, 1], bar_top_traction(mat, Lz))
        ],
        analytic=exact,
    )
