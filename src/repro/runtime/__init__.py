"""Parallel execution runtime: sweep fan-out, cell specs, compute pool.

Import structure matters here: the BSP engine imports
:mod:`repro.runtime.executors` (stdlib-only) for its threaded compute
phase, so this package initializer must not eagerly import the cell /
sweep modules — those pull in frameworks, which pull in the engines.
They are exposed lazily instead (PEP 562).
"""

from repro.runtime.executors import compute_workers, shutdown_pool, thread_map

__all__ = [
    "compute_workers",
    "thread_map",
    "shutdown_pool",
    "SweepExecutor",
    "default_start_method",
    "SystemSpec",
    "CellSpec",
    "PartitionStatsSpec",
    "CellOutcome",
    "run_task",
    "run_cells",
]

_LAZY = {
    "SweepExecutor": "repro.runtime.sweep",
    "default_start_method": "repro.runtime.sweep",
    "SystemSpec": "repro.runtime.cells",
    "CellSpec": "repro.runtime.cells",
    "PartitionStatsSpec": "repro.runtime.cells",
    "CellOutcome": "repro.runtime.cells",
    "run_task": "repro.runtime.cells",
    "run_cells": "repro.runtime.sweep",
}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(mod), name)
