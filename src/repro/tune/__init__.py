"""repro.tune — the measured plan.

:func:`measure` times the GEMM multi-RHS crossover on the live host;
:func:`crossovers` selects the plan key those timings imply.

Entry point: ``python -m repro.harness tune``, which writes the measured
crossover as ``tuned_config.json``;
:func:`repro.serve.plan.load_tuned_config` turns that into an
:class:`~repro.serve.plan.ExecutionPlan`.
"""

from repro.tune.calibration import crossovers, measure

__all__ = ["crossovers", "measure"]
