"""Lightweight wall-clock timers used across the harness.

The emulation tier measures real NumPy compute with ``time.perf_counter``
inside serialized compute sections (see :mod:`repro.simmpi.engine`), so the
timers here only need to be cheap and re-entrant.
"""

from __future__ import annotations

import time


class Timer:
    """Context-manager stopwatch.

    >>> with Timer() as t:
    ...     pass
    >>> t.elapsed >= 0.0
    True
    """

    __slots__ = ("elapsed", "_start")

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        self.elapsed = time.perf_counter() - self._start
        return self.elapsed
