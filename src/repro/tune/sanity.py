"""Advisor soundness cross-check (the fuzzer's ``advisor-sanity`` mode).

The DSE prunes configurations with the same rules the runtime checker
enforces (BASP on a non-async-capable app raises ``ConfigurationError``
in the engine; D-IrGL rejects unknown policies).  This module verifies
that property from the outside: draw a random (shape, app), ask the
advisor for its top recommendation, then

1. re-check the recommendation against the rules *independently*, and
2. actually run it through :func:`repro.runtime.cells.run_task` —
   any configuration/unsupported/invariant failure means the advisor
   recommended something the system rejects.

``planted=True`` mutation-tests the harness itself: the soundness prune
is bypassed (a simulated advisor bug), and the cross-check must catch
at least one resulting unsound recommendation — otherwise the sanity
mode is vacuous and its clean pass means nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps import APPS, get_app
from repro.frameworks.dirgl import DIrGL
from repro.fuzz.gen import SHAPES
from repro.generators.datasets import fuzz_dataset
from repro.runtime.cells import CellSpec, run_task
from repro.tune.dse import DseConfig, enumerate_cells, run_dse
from repro.tune.features import extract_features
from repro.tune.predictor import AnalyticPredictor

__all__ = ["SanityReport", "advisor_sanity"]


@dataclass
class SanityReport:
    """Outcome of one advisor-sanity batch."""

    iterations: int
    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _static_violations(cell, app: str) -> list[str]:
    """The checker's rules, re-stated independently of the DSE prune."""
    out = []
    if cell.policy not in DIrGL.supported_policies:
        out.append(f"policy {cell.policy!r} unsupported by d-irgl")
    if cell.engine == "basp" and not get_app(app).async_capable:
        out.append(f"{app} cannot run under basp (not async-capable)")
    if cell.num_gpus < 1:
        out.append(f"non-positive gpu count {cell.num_gpus}")
    return out


def advisor_sanity(
    seed: int = 0, iterations: int = 20, planted: bool = False
) -> SanityReport:
    """Cross-check ``iterations`` random advisor recommendations.

    Each iteration derives its own rng from ``(seed, i)``, draws a fuzz
    shape and an app (non-async-capable apps included — that is the
    interesting case), and checks the advisor's top pick both statically
    and with a real run.  With ``planted=True`` the engine-soundness
    prune is bypassed, so a correct harness *must* report violations.
    """
    report = SanityReport(iterations=iterations)
    apps = sorted(APPS)
    shapes = sorted(SHAPES)
    cfg = DseConfig(gpus=(2, 4))
    for i in range(iterations):
        rng = np.random.default_rng([seed, i])
        shape = shapes[int(rng.integers(0, len(shapes)))]
        app = apps[int(rng.integers(0, len(apps)))]
        sub_seed = int(rng.integers(0, 2**31 - 1))
        dataset = fuzz_dataset(shape, sub_seed)

        if planted:
            # Simulated advisor bug: the engine-soundness prune is
            # forgotten AND the broken engine preference ranks the
            # pruned cells first — whenever the drawn app makes any
            # cell unsound, the buggy advisor recommends one of them.
            from repro.generators.datasets import load_dataset

            ds = load_dataset(dataset)
            features = extract_features(ds.graph, name=dataset)
            predictor = AnalyticPredictor(features, scale_factor=ds.scale_factor)
            cells, pruned = enumerate_cells(cfg, app)
            unsound = [c for c, reason in pruned if reason == "engine-unsound"]
            ranked = predictor.rank(unsound or cells, app)
            if not ranked:
                continue
            pick = ranked[0].cell
        else:
            res = run_dse(dataset, app, cfg, validate="none")
            pick = res.predicted_best.prediction.cell

        report.checked += 1
        prefix = f"iter {i} ({shape}, {app}): recommended {pick.label()}"
        static = _static_violations(pick, app)
        if static:
            report.violations.extend(f"{prefix} — {v}" for v in static)
            continue  # a statically unsound cell would also fail the run
        outcome = run_task(
            CellSpec(
                key=pick.label(),
                system=pick.system_spec(),
                benchmark=app,
                dataset=dataset,
                num_gpus=pick.num_gpus,
                platform=cfg.platform,
            )
        )
        if outcome.failure_kind in ("error", "unsupported", "invariant"):
            report.violations.append(
                f"{prefix} — rejected at run time: {outcome.failure_label()}"
            )
    return report
