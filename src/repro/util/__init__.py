"""Shared utilities: tables, array helpers."""

from repro.util.arrays import (
    INDEX_DTYPE,
    as_f64,
    as_index,
    scatter_add,
)
from repro.util.tables import ResultTable

__all__ = [
    "ResultTable",
    "as_f64",
    "as_index",
    "scatter_add",
    "INDEX_DTYPE",
]
