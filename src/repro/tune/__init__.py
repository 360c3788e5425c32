"""repro.tune — calibration from measured reports.

:func:`fit_machine_constants` fits the perfmodel's effective rates and
extracts the measured GEMM and SELL-C-sigma crossovers from the kernels
and sellcs bench reports; :func:`calibrated_machine` substitutes the
fitted rates into a machine model.

Entry point: ``python -m repro.harness tune``, which writes the measured
crossovers as ``tuned_config.json``;
:func:`repro.serve.plan.load_tuned_config` turns that into an
:class:`~repro.serve.plan.ExecutionPlan`.
"""

from repro.tune.calibration import calibrated_machine, fit_machine_constants

__all__ = [
    "calibrated_machine",
    "fit_machine_constants",
]
