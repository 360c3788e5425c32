"""Mesh substrate: element definitions, shape functions, quadrature, meshes.

The paper evaluates HYMV on structured hex meshes (8-node linear, 20-node
and 27-node quadratic) and unstructured tetrahedral meshes (quadratic,
generated with Gmsh).  This package provides equivalents built from scratch:

* :mod:`repro.mesh.element` — element-type registry (Hex8/20/27, Tet4/10).
* :mod:`repro.mesh.shape_functions` — reference-element bases and gradients.
* :mod:`repro.mesh.quadrature` — Gauss tensor rules for hexes and conical
  (collapsed-coordinate Gauss–Jacobi) rules for tets.
* :mod:`repro.mesh.structured` — box hex meshes.
* :mod:`repro.mesh.unstructured` — Gmsh substitute: conforming tetrahedral
  meshes from Freudenthal hex subdivision with interior-node jitter, plus
  jittered quadratic hex meshes.
"""

from repro.mesh.adapt import refine_local
from repro.mesh.element import ElementType
from repro.mesh.mesh import Mesh
from repro.mesh.quadrature import QuadratureRule, quadrature_for
from repro.mesh.shape_functions import shape_functions_for
from repro.mesh.structured import box_hex_mesh
from repro.mesh.unstructured import box_tet_mesh, jittered_hex_mesh

__all__ = [
    "ElementType",
    "Mesh",
    "QuadratureRule",
    "quadrature_for",
    "shape_functions_for",
    "box_hex_mesh",
    "box_tet_mesh",
    "jittered_hex_mesh",
    "refine_local",
]
