"""Cost-model auto-tuner: pick the configuration before running it.

The study's thesis (and "Cut to Fit"'s) is that the best (partition
policy x engine x comm flags x load balancer x GPU count) cell shifts
with the app, the graph shape, and the scale.  This package closes the
loop the sweep opened:

* :mod:`repro.tune.features` — cheap pre-partition graph features
  (degree moments, skew, estimated replication factor per policy) from
  a :class:`~repro.graph.csr.CSRGraph`, no partition built;
* :mod:`repro.tune.predictor` — an analytic predictor that prices every
  candidate cell through the *existing* cost model
  (:class:`~repro.engine.costmodel.CostModel`, Router leg pricing,
  :class:`~repro.partition.stats.PartitionStats` estimators) — it is a
  pure function of the same model the engines are charged by, never a
  fork of it;
* :mod:`repro.tune.dse` — a design-space-exploration driver that
  enumerates and prunes the config space, ranks it by predicted cost,
  validates top picks with real :class:`~repro.runtime.sweep.SweepExecutor`
  runs, and reports advisor accuracy (rank of measured best, regret);
* :mod:`repro.tune.sanity` — the fuzzer's ``advisor-sanity`` mode:
  the advisor must never recommend a cell the configuration checker
  rejects;
* :mod:`repro.tune.cli` — the ``repro-tune`` command.

Accuracy is gated, not asserted: ``bench_regression.py --only advisor``
holds top-1 regret <= 1.3x measured-best over a seeded shape suite
(committed ``benchmarks/BENCH_advisor.json``), and
``tests/test_tune.py`` carries the leave-one-shape-out harness.
"""

from repro.tune.dse import (
    AdvisorReport,
    DseConfig,
    DseResult,
    advisor_study,
    evaluate_advisor,
    run_dse,
)
from repro.tune.features import GraphFeatures, extract_features
from repro.tune.predictor import AnalyticPredictor, ConfigCell, Prediction

__all__ = [
    "AdvisorReport",
    "AnalyticPredictor",
    "ConfigCell",
    "DseConfig",
    "DseResult",
    "GraphFeatures",
    "Prediction",
    "advisor_study",
    "evaluate_advisor",
    "extract_features",
    "run_dse",
]
