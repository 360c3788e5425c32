"""The execution plan: every execution-policy choice of the serve tier.

An :class:`ExecutionPlan` is one frozen, validated value holding the
multi-RHS execution ``mode`` and ``k_min``, the ``"auto"`` GEMM
crossover (Panigrahi et al., arXiv:2208.07129).
:class:`~repro.serve.service.SolverService` takes a plan and applies it
per batch; every request is served by the operator kind its key names.

:func:`load_tuned_config` is the one way a tuned artifact
(``tuned_config.json``, written by ``python -m repro.harness tune`` from
the measured crossover) becomes a plan; the serve and shard harnesses
expose it as ``--tuned-from``.  A missing, unreadable or unknown-schema
file, an unknown config key or an out-of-range value raises
:class:`PlanError`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from numbers import Integral

from repro.core.kernels import EMV_MODES
from repro.obs.schema import TUNE_CONFIG_SCHEMA, SchemaError, read_json

__all__ = [
    "ExecutionPlan",
    "PlanError",
    "add_tuned_from_argument",
    "load_tuned_config",
]


class PlanError(ValueError):
    """A malformed execution plan or tuned-config artifact."""


def _check_int(name: str, value, lo: int) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < lo:
        raise PlanError(f"{name} must be an integer >= {lo}, got {value!r}")


@dataclass(frozen=True)
class ExecutionPlan:
    """How the serve tier executes requests; see the module docstring.

    ``k_min=None`` is :data:`repro.core.kernels.DEFAULT_K_MIN`.
    """

    mode: str = "auto"
    k_min: int | None = None

    def __post_init__(self):
        if self.mode not in EMV_MODES:
            raise PlanError(
                f"unknown execution mode {self.mode!r} "
                f"(expected one of {EMV_MODES})"
            )
        if self.k_min is not None:
            _check_int("k_min", self.k_min, 1)

    @classmethod
    def from_tuned(cls, config: dict) -> "ExecutionPlan":
        """The plan a tuned config (the ``repro.tune-config/1``
        ``config`` block) describes: ``gemm_k_min`` is the GEMM
        crossover.  Any other key -- a retired backend crossover or SELL
        layout, or a sizing knob, which is the caller's -- raises
        :class:`PlanError` naming it."""
        unknown = sorted(set(config) - {"gemm_k_min"})
        if unknown:
            raise PlanError(
                f"tuned config: unknown key(s) {', '.join(unknown)} "
                "(expected only 'gemm_k_min')"
            )
        return cls(k_min=config.get("gemm_k_min"))


def load_tuned_config(path) -> ExecutionPlan:
    """Load the plan of a ``repro.tune-config/1`` document.  Raises
    :class:`PlanError` for a missing, unreadable or unknown-schema file,
    an unknown config key and an out-of-range value."""
    try:
        doc = read_json(path)
    except SchemaError as exc:
        raise PlanError(f"tuned config: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != TUNE_CONFIG_SCHEMA:
        raise PlanError(
            f"{path}: unknown schema {schema!r} "
            f"(expected {TUNE_CONFIG_SCHEMA!r})"
        )
    config = doc.get("config")
    if not isinstance(config, dict):
        raise PlanError(f"{path}: no config block")
    return ExecutionPlan.from_tuned(config)


def add_tuned_from_argument(ap: argparse.ArgumentParser) -> None:
    """Add ``--tuned-from``, parsed straight into ``args.plan`` (the
    default plan when absent); a bad artifact is a usage error."""

    def load(path: str) -> ExecutionPlan:
        try:
            return load_tuned_config(path)
        except PlanError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    ap.add_argument(
        "--tuned-from",
        dest="plan",
        type=load,
        default=ExecutionPlan(),
        metavar="TUNED_CONFIG_JSON",
        help="execute under the plan of a tuned_config.json (written by "
        "`python -m repro.harness tune`): the GEMM multi-RHS crossover "
        "k_min",
    )
