"""repro.tune — autotuner & design-space exploration.

Declarative search space over every system knob (GPU streams, batching,
caching, crossovers, SELL layout), seeded deterministic strategies
scored by virtual-time harness probes and the perfmodel, multi-objective
Pareto pruning, and perfmodel calibration from measured bench reports.

Entry point: ``python -m repro.harness tune``.

The winner reaches the serving tier as ``tuned_config.json``, which
:func:`repro.serve.plan.load_tuned_config` turns into an
:class:`~repro.serve.plan.ExecutionPlan`.

This package root only exposes the dependency-light pieces (space,
Pareto, calibration); the evaluator, strategies and CLI (which import
the serve/harness tiers) load on demand from their own modules.
"""

from repro.tune.calibration import calibrated_machine, fit_machine_constants
from repro.tune.pareto import Objectives, dominates, pareto_front
from repro.tune.space import Knob, SearchSpace, default_space

__all__ = [
    "Knob",
    "Objectives",
    "SearchSpace",
    "calibrated_machine",
    "default_space",
    "dominates",
    "fit_machine_constants",
    "pareto_front",
]
