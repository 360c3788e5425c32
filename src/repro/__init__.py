"""repro — HYMV: a scalable adaptive-matrix SPMV for heterogeneous
architectures (IPDPS 2022), reproduced in Python.

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.mesh` — elements, quadrature, structured/unstructured
  meshes, refinement.
* :mod:`repro.partition` — slab/RCB/graph partitioners (METIS substitute).
* :mod:`repro.fem` — operators, loads, boundary conditions, exact
  solutions.
* :mod:`repro.simmpi` — the simulated MPI runtime.
* :mod:`repro.core` — HYMV itself (maps, distributed arrays, SPMV,
  adaptive updates).
* :mod:`repro.baselines` — matrix-assembled / matrix-free /
  partial-assembly / serial reference.
* :mod:`repro.gpu` — the simulated GPU backend (Algorithm 3).
* :mod:`repro.solvers` — distributed CG and preconditioners.
* :mod:`repro.perfmodel` — the Frontera-calibrated performance model.
* :mod:`repro.harness` — per-figure/table experiment drivers
  (``python -m repro.harness``).
* :mod:`repro.problems` — the paper's verification problems, packaged.
"""

__version__ = "1.0.0"

from repro.core import DistributedArray, HymvOperator
from repro.mesh import ElementType, box_hex_mesh, box_tet_mesh
from repro.partition import build_partition
from repro.problems import elastic_bar_problem, poisson_problem
from repro.simmpi import run_spmd

__all__ = [
    "__version__",
    "HymvOperator",
    "DistributedArray",
    "ElementType",
    "box_hex_mesh",
    "box_tet_mesh",
    "build_partition",
    "poisson_problem",
    "elastic_bar_problem",
    "run_bench",
    "run_solve",
    "run_spmd",
]


def __getattr__(name):
    # the experiment drivers load on first use: a serving process never
    # imports the figure harness
    if name in ("run_bench", "run_solve"):
        from repro import harness

        return getattr(harness, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
