"""Unified named counters for the tracing/observability layer.

:class:`CounterRegistry` gives every layer one thread-safe place to
accumulate named monotonic counters; the exporter emits them as Chrome
``C`` (counter) events, and ``repro-trace summarize`` folds them into its
per-phase table.  A fact an owner also keeps as an int of its own
(:class:`repro.partition.cache.CacheStats`, the serve report's
``counters``) is counted by one statement and reaches the registry from
there — DESIGN.md, "Instrumentation contract".
"""

from __future__ import annotations

import threading
from typing import Mapping

__all__ = ["CounterRegistry"]


class CounterRegistry:
    """Thread-safe map of counter name -> numeric value.

    ``add`` is the hot call and takes one lock acquisition; values are
    plain ints/floats so a registry snapshot is JSON-serializable as-is.
    """

    def __init__(self) -> None:
        self._values: dict[str, float] = {}
        self._lock = threading.Lock()

    def add(self, name: str, value: float = 1) -> None:
        """Increment ``name`` by ``value`` (creating it at 0)."""
        with self._lock:
            self._values[name] = self._values.get(name, 0) + value

    def set(self, name: str, value: float) -> None:
        with self._lock:
            self._values[name] = value

    def get(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._values.get(name, default)

    def update(self, values: Mapping[str, float], prefix: str = "") -> None:
        """Fold a mapping of counters in (adding, not overwriting)."""
        with self._lock:
            for k, v in values.items():
                key = f"{prefix}{k}"
                self._values[key] = self._values.get(key, 0) + v

    def as_dict(self) -> dict[str, float]:
        with self._lock:
            return dict(self._values)

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._values
