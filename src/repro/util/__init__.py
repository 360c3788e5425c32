"""Shared utilities: timing, tables, array helpers, deterministic RNG."""

from repro.util.arrays import (
    INDEX_DTYPE,
    as_f64,
    as_index,
    scatter_add,
)
from repro.util.tables import ResultTable
from repro.util.timer import Timer

__all__ = [
    "Timer",
    "ResultTable",
    "as_f64",
    "as_index",
    "scatter_add",
    "INDEX_DTYPE",
]
