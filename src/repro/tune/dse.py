"""Design-space exploration: enumerate, prune, predict, validate.

``run_dse`` is the advisor's outer loop for one (dataset, app): it
enumerates the configuration space, drops cells the configuration
checker would reject (same rules, checked *before* prediction — the
``advisor-sanity`` fuzz mode planted-mutation-tests this), ranks the
survivors by predicted cost, and validates picks with real
:class:`~repro.runtime.sweep.SweepExecutor` runs of the same
:class:`~repro.runtime.cells.CellSpec` cells the study drivers use.

``advisor_study`` sweeps the seeded fuzz-shape suite with *full*
validation (every cell measured) so predicted-best can be ranked
against measured-best; its report feeds both ``repro-study advisor``
and the ``advisor`` rows of the ``gates`` golden table, whose claim is
top-1 regret <= :data:`REGRET_GATE` on every row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.apps import get_app
from repro.errors import ConfigurationError
from repro.generators.datasets import fuzz_dataset
from repro.runtime.cells import CellSpec
from repro.runtime.sweep import run_cells
from repro.tune.features import FEATURE_PARTS, GraphFeatures, extract_features
from repro.tune.predictor import AnalyticPredictor, ConfigCell, Prediction

__all__ = [
    "AdvisorReport",
    "DseConfig",
    "DseOutcome",
    "DseResult",
    "REGRET_GATE",
    "REGRET_TIE_TOL",
    "SUITE_APPS",
    "SUITE_SHAPES",
    "advisor_study",
    "enumerate_cells",
    "evaluate_advisor",
    "prune_summary",
    "run_dse",
]

#: gate: the predicted-best cell's measured time may exceed the measured
#: best by at most this factor (ISSUE 9 acceptance criterion).
REGRET_GATE = 1.3

#: near-tie tolerance when calling a top-k pick a "hit": simulated times
#: within 5% are the same configuration for all practical purposes.
REGRET_TIE_TOL = 1.05

#: the seeded gate suite — one representative per structural family
#: (skewed/rmat, heavy-tailed, clustered, hub-extreme, dense).
SUITE_SHAPES = ("rmat", "powerlaw", "smallworld", "star", "complete")
SUITE_APPS = ("bfs", "pr")
SUITE_SEED = 7

#: D-IrGL's policy set — the advisor's default policy axis.
DSE_POLICIES = ("cvc", "oec", "iec", "hvc")

#: the engines a cell can name (``ConfigCell.system_spec``)
DSE_ENGINES = ("bsp", "basp")


@dataclass(frozen=True)
class DseConfig:
    """The search-space axes one DSE run enumerates.

    An engine outside :data:`DSE_ENGINES`, a GPU count below 1 or a
    ``top_k`` below 1 is a :class:`ConfigurationError`: no cell could
    honour it.  (A policy or GPU count the advisor cannot rank is
    pruned instead, with its reason.)
    """

    policies: tuple = DSE_POLICIES
    engines: tuple = DSE_ENGINES
    gpus: tuple = (2, 4)
    platform: str = "bridges"
    top_k: int = 3

    def __post_init__(self) -> None:
        bad = [e for e in self.engines if e not in DSE_ENGINES]
        if bad:
            raise ConfigurationError(
                f"unknown engine(s) {bad}; known: {list(DSE_ENGINES)}"
            )
        if any(p < 1 for p in self.gpus):
            raise ConfigurationError(
                f"GPU counts must be at least 1, got {list(self.gpus)}"
            )
        if self.top_k < 1:
            raise ConfigurationError(
                f"top_k must be at least 1, got {self.top_k}"
            )


def enumerate_cells(cfg: DseConfig, app: str) -> tuple[list[ConfigCell], list[tuple]]:
    """All candidate cells plus the pruned ``(cell, reason)`` pairs.

    Pruning applies the *same* rules the configuration checker enforces
    at run time — never a parallel reimplementation of different rules:

    * ``engine-unsound`` — BASP with a non-async-capable app raises
      ``ConfigurationError`` in the engine (``repro.engine.basp``);
    * ``policy-unsupported`` — outside D-IrGL's policy set;
    * ``parts-unestimated`` — GPU counts the feature extractor carries
      no replication estimate for (:data:`FEATURE_PARTS`).
    """
    from repro.frameworks.dirgl import DIrGL

    async_ok = get_app(app).async_capable
    cells: list[ConfigCell] = []
    pruned: list[tuple] = []
    for policy in cfg.policies:
        for engine in cfg.engines:
            for P in cfg.gpus:
                cell = ConfigCell(
                    policy=policy, engine=engine, num_gpus=P, platform=cfg.platform
                )
                if policy not in DIrGL.supported_policies:
                    pruned.append((cell, "policy-unsupported"))
                elif engine == "basp" and not async_ok:
                    pruned.append((cell, "engine-unsound"))
                elif P not in FEATURE_PARTS:
                    pruned.append((cell, "parts-unestimated"))
                else:
                    cells.append(cell)
    return cells, pruned


def prune_summary(pruned: list[tuple]) -> str:
    """``reason xN`` per prune reason of ``(cell, reason)`` pairs, sorted
    by reason; empty when nothing was pruned."""
    counts: dict[str, int] = {}
    for _, reason in pruned:
        counts[reason] = counts.get(reason, 0) + 1
    return ", ".join(f"{k} x{v}" for k, v in sorted(counts.items()))


@dataclass
class DseOutcome:
    """One cell's predicted and (optionally) measured cost."""

    prediction: Prediction
    predicted_rank: int
    measured_seconds: float | None = None
    failure: str = ""

    def row(self) -> tuple:
        p = self.prediction
        return (
            self.predicted_rank,
            p.cell.label(),
            p.cost,
            self.measured_seconds,
            self.failure or "",
        )


@dataclass
class DseResult:
    """One (dataset, app) exploration."""

    dataset: str
    app: str
    features: GraphFeatures
    outcomes: list[DseOutcome]
    pruned: list[tuple] = field(default_factory=list)

    @property
    def predicted_best(self) -> DseOutcome:
        return self.outcomes[0]

    def measured(self) -> list[DseOutcome]:
        return [o for o in self.outcomes if o.measured_seconds is not None]

    @property
    def measured_best(self) -> DseOutcome | None:
        m = self.measured()
        if not m:
            return None
        return min(m, key=lambda o: (o.measured_seconds, o.prediction.cell.label()))

    def regret_at(self, k: int = 1) -> float | None:
        """min measured time among the top-``k`` predicted cells, as a
        ratio over the measured best (1.0 = the advisor nailed it)."""
        best = self.measured_best
        if best is None:
            return None
        top = [o for o in self.outcomes[:k] if o.measured_seconds is not None]
        if not top:
            return float("inf")
        pick = min(o.measured_seconds for o in top)
        return pick / max(best.measured_seconds, 1e-12)

    def measured_best_rank(self) -> int | None:
        """Predicted rank (1-based) of the measured-best cell."""
        best = self.measured_best
        if best is None:
            return None
        return best.predicted_rank


def run_dse(
    dataset: str,
    app: str,
    cfg: DseConfig | None = None,
    executor=None,
    validate: str = "top-k",
) -> DseResult:
    """Explore the config space for one (dataset, app).

    ``validate`` is ``"none"`` (predictions only), ``"top-k"`` (measure
    the ``cfg.top_k`` best-predicted cells), or ``"all"`` (measure every
    cell — the accuracy-study mode).  Measurements go through
    :func:`~repro.runtime.sweep.run_cells` — the same ``CellSpec`` runs
    the study drivers issue.
    """
    from repro.generators.datasets import load_dataset

    cfg = cfg or DseConfig()
    cells, pruned = enumerate_cells(cfg, app)
    if not cells:
        raise ConfigurationError(
            f"no configuration left to rank for {app}: pruned "
            f"{prune_summary(pruned) or 'nothing (an axis is empty)'}"
        )
    ds = load_dataset(dataset)
    features = extract_features(ds.graph, name=dataset)
    predictor = AnalyticPredictor(features, scale_factor=ds.scale_factor)
    ranked = predictor.rank(cells, app)
    outcomes = [
        DseOutcome(prediction=p, predicted_rank=i + 1) for i, p in enumerate(ranked)
    ]

    if validate != "none":
        to_measure = outcomes if validate == "all" else outcomes[: cfg.top_k]
        specs = [
            CellSpec(
                key=o.prediction.cell.label(),
                system=o.prediction.cell.system_spec(),
                benchmark=app,
                dataset=dataset,
                num_gpus=o.prediction.cell.num_gpus,
                platform=cfg.platform,
            )
            for o in to_measure
        ]
        for o, res in zip(to_measure, run_cells(specs, executor)):
            if res.ok:
                o.measured_seconds = float(res.stats.execution_time)
            else:
                o.failure = res.failure_label()
    return DseResult(
        dataset=dataset, app=app, features=features, outcomes=outcomes, pruned=pruned
    )


# ---------------------------------------------------------------------- #
# advisor-accuracy study
# ---------------------------------------------------------------------- #


@dataclass
class AdvisorRow:
    """One (shape, app) accuracy measurement."""

    shape: str
    dataset: str
    app: str
    cells: int
    predicted_best: str
    measured_best: str
    best_rank: int
    regret1: float
    regret3: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class AdvisorReport:
    """The advisor-accuracy study over the seeded shape suite."""

    seed: int
    rows: list[AdvisorRow]

    @property
    def max_regret1(self) -> float:
        return max((r.regret1 for r in self.rows), default=0.0)

    @property
    def top1_hits(self) -> int:
        return sum(1 for r in self.rows if r.regret1 <= REGRET_TIE_TOL)

    @property
    def top3_hits(self) -> int:
        return sum(1 for r in self.rows if r.regret3 <= REGRET_TIE_TOL)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "regret_gate": REGRET_GATE,
                "rows": [r.to_dict() for r in self.rows],
            },
            indent=2,
            sort_keys=True,
        )


def advisor_study(
    shapes=SUITE_SHAPES,
    apps=SUITE_APPS,
    seed: int = SUITE_SEED,
    cfg: DseConfig | None = None,
    executor=None,
) -> AdvisorReport:
    """Full-validation DSE over the seeded suite -> accuracy report."""
    cfg = cfg or DseConfig()
    rows = []
    for shape in shapes:
        dataset = fuzz_dataset(shape, seed)
        for app in apps:
            res = run_dse(
                dataset,
                app,
                cfg,
                executor=executor,
                validate="all",
            )
            best = res.measured_best
            if best is None:
                continue
            rows.append(
                AdvisorRow(
                    shape=shape,
                    dataset=dataset,
                    app=app,
                    cells=len(res.outcomes),
                    predicted_best=res.predicted_best.prediction.cell.label(),
                    measured_best=best.prediction.cell.label(),
                    best_rank=res.measured_best_rank(),
                    regret1=float(res.regret_at(1)),
                    regret3=float(res.regret_at(3)),
                )
            )
    return AdvisorReport(seed=seed, rows=rows)


def evaluate_advisor(
    report: AdvisorReport,
    regret_gate: float = REGRET_GATE,
) -> list[str]:
    """Gate violations: the regret ceiling on every suite row."""
    violations = []
    if not report.rows:
        violations.append("advisor report is empty")
    for r in report.rows:
        if r.regret1 > regret_gate:
            violations.append(
                f"{r.shape}/{r.app}: top-1 regret {r.regret1:.3f}x "
                f"exceeds the {regret_gate:.2f}x gate "
                f"(predicted {r.predicted_best}, measured best {r.measured_best})"
            )
    return violations
