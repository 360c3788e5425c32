"""The operator kinds: one registry of factories and per-kind facts.

Every kind answers the same :class:`~repro.core.operator.DistributedOperator`
calls, so the drivers (``repro.harness``, ``repro.serve``, the smoke
bench) never ask which kind they hold.  What differs is what a build
takes, declared here once per kind next to its factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.baselines.assembled import AssembledOperator
from repro.baselines.matfree import MatrixFreeOperator
from repro.baselines.partial import PartialAssemblyOperator
from repro.baselines.sellcs import SellCSOperator
from repro.core.hymv import HymvOperator
from repro.gpu.hymv_gpu import AssembledGpuOperator, HymvGpuOperator

__all__ = [
    "MODELED_RATE_GFLOPS",
    "OPERATOR_KINDS",
    "OperatorKind",
    "make_operator",
]

#: deterministic modeled EMV rate (GFLOP/s) of the modeled-time runs (the
#: smoke bench and served contexts): deliberately slow, so modeled
#: durations sit well above the compare gate's noise floor
MODELED_RATE_GFLOPS = 1.0


@dataclass(frozen=True)
class OperatorKind:
    """One operator kind: ``factory(comm, lmesh, operator, ranges=...,
    **options)`` and the options a build of it takes."""

    factory: Callable
    #: takes ``kernel=`` (the EMV kernel of its element sweeps)
    kernel: bool = False
    #: ``make_operator``'s ``modeled_rate`` reaches it as
    #: ``modeled_rate_gflops=`` (deterministic EMV compute time); the
    #: assembled kind takes that option too, but only when passed as is
    modeled: bool = False
    #: takes a ``ke_cache=`` of element matrices from an earlier build
    ke_cache: bool = False
    #: its set-up integrates every local element (matrix-free recomputes
    #: them per product instead), which a rebuild's modeled time charges
    integrates: bool = True


OPERATOR_KINDS: dict[str, OperatorKind] = {
    "hymv": OperatorKind(HymvOperator, kernel=True, modeled=True, ke_cache=True),
    "assembled": OperatorKind(AssembledOperator),
    "matfree": OperatorKind(
        MatrixFreeOperator, kernel=True, modeled=True, integrates=False
    ),
    "partial": OperatorKind(PartialAssemblyOperator, kernel=True, modeled=True),
    "sellcs": OperatorKind(SellCSOperator),
    "hymv_gpu": OperatorKind(HymvGpuOperator, kernel=True, ke_cache=True),
    "assembled_gpu": OperatorKind(AssembledGpuOperator),
}


def make_operator(
    name, comm, lmesh, operator, ranges=None, *, kernel=None,
    modeled_rate=None, ke_cache=None, **options,
):
    """Build an operator of kind ``name`` on this rank (collective).

    ``kernel``, ``modeled_rate`` (GFLOP/s) and ``ke_cache`` reach only
    the kinds that take them (``None`` passes nothing); ``options`` go to
    the factory as they are.  An unknown kind raises :class:`ValueError`.
    """
    kind = OPERATOR_KINDS.get(name)
    if kind is None:
        raise ValueError(
            f"unknown method {name!r}; known: {sorted(OPERATOR_KINDS)}"
        )
    for key, value, takes in (
        ("kernel", kernel, kind.kernel),
        ("modeled_rate_gflops", modeled_rate, kind.modeled),
        ("ke_cache", ke_cache, kind.ke_cache),
    ):
        if value is not None and takes:
            options[key] = value
    return kind.factory(comm, lmesh, operator, ranges=ranges, **options)
