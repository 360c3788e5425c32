"""The execution plan: every execution-policy choice of the serve tier.

An :class:`ExecutionPlan` is one frozen, validated value holding the
choices the paper adapts to the machine and the problem:

* ``mode`` / ``k_min`` — the multi-RHS execution mode and the ``"auto"``
  GEMM crossover (Panigrahi et al., arXiv:2208.07129);
* ``backend`` / ``sellcs_crossover_dofs`` — the per-shape operator
  policy (``None`` serves every key under its own method, ``"hymv"`` /
  ``"sellcs"`` force one kind, ``"auto"`` sends shapes of at most
  ``sellcs_crossover_dofs`` dofs to SELL-C-sigma);
* ``sell_c`` / ``sell_sigma`` — the SELL-C-sigma layout ``(C, sigma)``,
  which Kreutzer et al. (arXiv:1112.5588) show is machine-dependent.

:class:`~repro.serve.service.SolverService` takes a plan and applies it
per batch; the layout becomes part of the identity of every SELL key it
serves (:attr:`ProblemKey.sell <repro.serve.cache.ProblemKey.sell>`), so
two layouts never share a cached context.

:func:`load_tuned_config` is the one way an autotuner artifact
(``tuned_config.json`` or a ``TUNE_report.json``) becomes a plan; the
serve and shard harnesses expose it as ``--tuned-from``.  A missing,
unreadable or unknown-schema file, or an out-of-range value, raises
:class:`PlanError`.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from numbers import Integral

from repro.core.kernels import EMV_MODES
from repro.core.sellcs import DEFAULT_C, DEFAULT_SIGMA_FACTOR
from repro.obs.schema import TUNE_CONFIG_SCHEMA, TUNE_SCHEMA, SchemaError, read_json

__all__ = [
    "ExecutionPlan",
    "PlanError",
    "add_tuned_from_argument",
    "load_tuned_config",
]

_BACKENDS = (None, "auto", "hymv", "sellcs")


class PlanError(ValueError):
    """A malformed execution plan or tuned-config artifact."""


def _check_int(name: str, value, lo: int) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < lo:
        raise PlanError(f"{name} must be an integer >= {lo}, got {value!r}")


@dataclass(frozen=True)
class ExecutionPlan:
    """How the serve tier executes requests; see the module docstring.

    ``k_min=None`` is :data:`repro.core.kernels.DEFAULT_K_MIN`;
    ``sell_sigma=None`` is the ``8 * sell_c`` sorting window.
    """

    mode: str = "auto"
    k_min: int | None = None
    backend: str | None = None
    sellcs_crossover_dofs: int | None = None
    sell_c: int = DEFAULT_C
    sell_sigma: int | None = None

    def __post_init__(self):
        if self.mode not in EMV_MODES:
            raise PlanError(
                f"unknown execution mode {self.mode!r} "
                f"(expected one of {EMV_MODES})"
            )
        if self.backend not in _BACKENDS:
            raise PlanError(
                f"unknown backend policy {self.backend!r} "
                "(expected None, 'auto', 'hymv' or 'sellcs')"
            )
        if self.k_min is not None:
            _check_int("k_min", self.k_min, 1)
        if self.sellcs_crossover_dofs is not None:
            _check_int("sellcs_crossover_dofs", self.sellcs_crossover_dofs, 0)
        _check_int("sell_c", self.sell_c, 1)
        if self.sell_sigma is not None:
            _check_int("sell_sigma", self.sell_sigma, 1)

    @property
    def sell(self) -> tuple[int, int] | None:
        """The layout as a :class:`~repro.serve.cache.ProblemKey` field:
        ``(C, sigma)``, or ``None`` for the hand-picked default layout (so
        default-layout keys keep their historical fingerprints)."""
        sigma = (
            self.sell_sigma
            if self.sell_sigma is not None
            else DEFAULT_SIGMA_FACTOR * self.sell_c
        )
        if (self.sell_c, sigma) == (DEFAULT_C, DEFAULT_SIGMA_FACTOR * DEFAULT_C):
            return None
        return (self.sell_c, sigma)

    def bind(self, key):
        """The :class:`~repro.serve.cache.ProblemKey` a request for
        ``key`` is served under: the backend policy picks the operator
        kind, and a ``sellcs`` key carries this plan's layout.  Problem,
        shape and deltas are untouched."""
        method = key.method
        if self.backend == "auto":
            crossover = self.sellcs_crossover_dofs
            small = crossover is not None and key.n_dofs_estimate() <= crossover
            method = "sellcs" if small else "hymv"
        elif self.backend is not None:
            method = self.backend
        sell = self.sell if method == "sellcs" else None
        if method == key.method and sell == key.sell:
            return key
        return replace(key, method=method, sell=sell)

    @classmethod
    def from_tuned(cls, config: dict) -> "ExecutionPlan":
        """The plan an autotuner config (the ``repro.tune-config/1``
        ``config`` block) describes: ``gemm_k_min`` is the GEMM
        crossover, a positive ``sellcs_crossover_dofs`` turns on
        ``backend="auto"`` routing, and ``sell_c`` /
        ``sell_sigma_factor`` give the layout.  Sizing knobs
        (``max_batch``, ``queue_capacity``, ...) are the caller's and are
        not part of the plan."""
        fields: dict = {}
        if config.get("gemm_k_min") is not None:
            fields["k_min"] = config["gemm_k_min"]
        crossover = config.get("sellcs_crossover_dofs")
        if crossover:
            fields["backend"] = "auto"
            fields["sellcs_crossover_dofs"] = crossover
        c = config.get("sell_c")
        if c is not None:
            factor = config.get("sell_sigma_factor", DEFAULT_SIGMA_FACTOR)
            _check_int("sell_sigma_factor", factor, 1)
            fields["sell_c"] = c
            fields["sell_sigma"] = factor * c
        return cls(**fields)


def load_tuned_config(path) -> ExecutionPlan:
    """Load the plan of a ``repro.tune-config/1`` document or of a
    ``repro.tune/1`` report's winner.  Raises :class:`PlanError` for a
    missing, unreadable or unknown-schema file and for out-of-range
    values."""
    try:
        doc = read_json(path)
    except SchemaError as exc:
        raise PlanError(f"tuned config: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema == TUNE_CONFIG_SCHEMA:
        config = doc.get("config")
    elif schema == TUNE_SCHEMA:
        winner = doc.get("winner")
        config = winner.get("config") if isinstance(winner, dict) else None
    else:
        raise PlanError(
            f"{path}: unknown schema {schema!r} (expected "
            f"{TUNE_CONFIG_SCHEMA!r} or {TUNE_SCHEMA!r})"
        )
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
        help="execute under the plan of an autotuner artifact "
        "(tuned_config.json or TUNE_report.json): GEMM crossover, backend "
        "routing and SELL (C, sigma) layout",
    )
