"""Parallel execution runtime: sweep fan-out, cell specs, compute pool.

Import structure matters here: the BSP engine imports
:mod:`repro.runtime.executors` (stdlib-only) for its threaded compute
phase, so this package initializer imports nothing — the cell and sweep
modules pull in frameworks, which pull in the engines.  Import from the
submodules (:mod:`repro.runtime.sweep`, :mod:`repro.runtime.cells`,
:mod:`repro.runtime.executors`).
"""
