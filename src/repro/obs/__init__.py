"""``repro.obs`` — structured tracing and counters for the whole stack.

The subsystem has three pieces:

* :class:`~repro.obs.tracer.Tracer` — thread-safe span/instant recorder
  with Chrome-trace-event-shaped events and a
  :class:`~repro.obs.counters.CounterRegistry` (``repro.obs.tracer``);
* the Chrome trace JSON exporter (Perfetto-loadable,
  ``repro.obs.export``) and the ``repro-trace`` CLI (``repro.obs.cli``)
  that summarizes a trace into the per-phase breakdown tables of the
  paper's Figures 4/6/8/9 or flattens it to CSV;
* the **ambient tracer** — the one route a tracer takes to the code it
  instruments.  It is process-global, *not* thread-local, because the
  BSP compute phase's worker threads must share the cell's tracer.

The contract (DESIGN.md, "Instrumentation contract"):
``current_tracer()`` is never ``None`` — off is :data:`NULL_TRACER`,
whose every method returns at once — so a site calls ``begin`` / ``end`` /
``instant`` / ``count`` without testing, and tests ``tracer.enabled``
only where building the *arguments* is itself work.  A layer reads the
ambient tracer when it runs, never when it is constructed.  The overhead
gate in ``benchmarks/bench_regression.py`` holds an installed disabled
tracer within 2% of the default on the ``BENCH_sync`` cells.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

from repro.obs.counters import CounterRegistry
from repro.obs.export import (
    read_trace,
    summarize_trace,
    to_chrome,
    write_chrome,
)
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "Tracer",
    "NULL_TRACER",
    "CounterRegistry",
    "to_chrome",
    "write_chrome",
    "read_trace",
    "summarize_trace",
    "current_tracer",
    "set_tracer",
    "use_tracer",
    "configure",
    "active_trace_dir",
]

_current: Tracer = NULL_TRACER
_trace_dir: Optional[str] = None


def current_tracer() -> Tracer:
    """The ambient tracer; :data:`NULL_TRACER` when tracing is off (the
    default)."""
    return _current


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` as the ambient tracer; returns the previous one.

    ``None`` and a disabled tracer both install :data:`NULL_TRACER`: off
    has one spelling, and this is the one place it is normalized.
    """
    global _current
    previous = _current
    _current = (
        tracer if (isinstance(tracer, Tracer) and tracer.enabled) else NULL_TRACER
    )
    return previous


@contextmanager
def use_tracer(tracer: Optional[Tracer]):
    """Temporarily install ``tracer`` as the ambient tracer."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def configure(trace_dir: Optional[str] = None) -> None:
    """Set (or clear) the directory where per-cell traces are written.

    ``run_task`` creates one enabled :class:`Tracer` per cell and writes
    ``<trace_dir>/<cell key>.trace.json`` whenever a directory is
    configured.  Sweep workers inherit the setting through
    ``SweepExecutor``'s pool initializer.
    """
    global _trace_dir
    if trace_dir is None:
        _trace_dir = None
        return
    trace_dir = str(trace_dir)
    os.makedirs(trace_dir, exist_ok=True)
    _trace_dir = trace_dir


def active_trace_dir() -> Optional[str]:
    """The configured trace directory, or ``None`` when tracing is off."""
    return _trace_dir
