"""One timing idiom for the whole repo: ``with timed("name") as t:``.

Replaces the ad-hoc ``time.perf_counter()`` pairs that had drifted into
``cli.py`` and the eval layer.  Every timed block feeds the same
``repro_operation_seconds{operation=...}`` histogram the ``/v1/metrics``
endpoint serves, so a CLI ``--json`` elapsed figure and a metrics scrape are
the same measurement, not two near-identical ones.
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterator

from .metrics import get_metrics

__all__ = ["Timer", "timed"]


class Timer:
    """Handle yielded by :func:`timed`; ``.seconds`` is live until exit."""

    def __init__(self) -> None:
        self._start = time.perf_counter()
        self._stopped: float | None = None

    def stop(self) -> float:
        if self._stopped is None:
            self._stopped = time.perf_counter() - self._start
        return self._stopped

    @property
    def seconds(self) -> float:
        if self._stopped is not None:
            return self._stopped
        return time.perf_counter() - self._start


@contextlib.contextmanager
def timed(operation: str) -> Iterator[Timer]:
    """Time a block and observe it as ``repro_operation_seconds{operation}``.

    The observation happens even when the block raises — a slow failure is
    still a latency sample worth having.
    """
    timer = Timer()
    try:
        yield timer
    finally:
        get_metrics().get("repro_operation_seconds").observe(
            timer.stop(), operation=operation
        )
