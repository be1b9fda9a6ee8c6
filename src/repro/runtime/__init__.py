"""Parallel execution runtime: sweep fan-out (:mod:`repro.runtime.sweep`)
and cell specs (:mod:`repro.runtime.cells`); import from the submodules.
"""
