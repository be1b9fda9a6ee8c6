"""``repro.obs`` — structured tracing and counters for the whole stack.

The subsystem has three pieces:

* :class:`~repro.obs.tracer.Tracer` — thread-safe span/instant recorder
  with Chrome-trace-event-shaped events and a
  :class:`~repro.obs.counters.CounterRegistry` (``repro.obs.tracer``);
* exporters — Chrome trace JSON (Perfetto-loadable) and flat CSV
  (``repro.obs.export``), plus the ``repro-trace`` CLI
  (``repro.obs.cli``) that summarizes a trace into the per-phase
  breakdown tables of the paper's Figures 4/6/8/9;
* an **ambient tracer** — a module-global default used by layers that
  have no kwarg plumbing to a particular engine instance (the partition
  cache, ``run_task``).  It is process-global, *not* thread-local,
  because the BSP compute phase's worker threads must share the cell's
  tracer.

Zero-overhead contract: with no tracer configured (the default),
``current_tracer()`` returns ``None`` and every instrumentation site
reduces to one ``is not None`` test.  The overhead gate in
``benchmarks/bench_regression.py`` holds this below 2% on the
``BENCH_sync`` cells.
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
    write_csv,
)
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "Tracer",
    "NULL_TRACER",
    "CounterRegistry",
    "to_chrome",
    "write_chrome",
    "write_csv",
    "read_trace",
    "summarize_trace",
    "current_tracer",
    "set_tracer",
    "use_tracer",
    "configure",
    "active_trace_dir",
]

_current: Optional[Tracer] = None
_trace_dir: Optional[str] = None


def current_tracer() -> Optional[Tracer]:
    """The ambient tracer, or ``None`` when tracing is off (the default)."""
    return _current


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install ``tracer`` as the ambient tracer; returns the previous one.

    Disabled tracers are normalized to ``None`` so ``current_tracer()``
    keeps its "None means off" contract.
    """
    global _current
    previous = _current
    _current = tracer if (tracer is not None and tracer.enabled) else None
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
