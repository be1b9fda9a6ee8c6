"""Run statistics: the quantities the paper's tables and figures report."""

from repro.metrics.stats import RunStats, RoundRecord
from repro.metrics.breakdown import Breakdown, breakdown_row

__all__ = ["RunStats", "RoundRecord", "Breakdown", "breakdown_row"]
