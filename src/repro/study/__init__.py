"""Study drivers: regenerate every table and figure of the paper."""

from repro.study.scaling import ScalingResult, strong_scaling
from repro.study.tables import table1, table2, table3, table4
from repro.study.figures import (
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
)
from repro.study.report import format_table, format_series
from repro.study.microbench import uo_crossover_fraction, uo_threshold_curve

__all__ = [
    "ScalingResult",
    "strong_scaling",
    "table1",
    "table2",
    "table3",
    "table4",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "format_table",
    "format_series",
    "uo_threshold_curve",
    "uo_crossover_fraction",
]
