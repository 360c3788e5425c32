"""HYMV core — the paper's primary contribution.

* :mod:`repro.core.maps` — Algorithm 1: E2L map construction and
  pre-/post-ghost classification from the E2G map and owned-node range.
* :mod:`repro.core.scatter` — LNSM / GNGM construction (one alltoall at
  setup) and the packed ghost scatter / gather exchange.
* :mod:`repro.core.da` — the distributed array with
  ``[pre-ghost | owned | post-ghost]`` layout (Fig. 2).
* :mod:`repro.core.hymv` — HYMV setup (compute + store element matrices),
  Algorithm 2 SPMV with communication/computation overlap, adaptive
  element updates (the XFEM use-case), diagonal and owned-block extraction
  for preconditioners.
* :mod:`repro.core.kernels` — batched dense EMV kernels (einsum and the
  paper's eq. 4 column-major sum-of-columns variant) and the CSR view
  of a stored element-matrix batch that linear elements sweep through.
* :mod:`repro.core.flops` — flop/byte counters feeding Table I and Fig. 10.
"""

from repro.core.da import DistributedArray, DistributedMultiVector
from repro.core.hymv import HymvOperator
from repro.core.maps import NodeMaps, build_node_maps
from repro.core.scatter import CommMaps, build_comm_maps

__all__ = [
    "NodeMaps",
    "build_node_maps",
    "CommMaps",
    "build_comm_maps",
    "DistributedArray",
    "DistributedMultiVector",
    "HymvOperator",
]
