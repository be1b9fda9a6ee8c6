"""Analytic configuration predictor.

Scores a candidate configuration cell by pricing a *synthetic* run
through the very objects the engines are charged by: the estimated
partition statistics (:func:`repro.tune.predictor.AnalyticPredictor.\
estimated_stats`) become a synthetic message batch
(:func:`repro.partition.stats.sync_messages_for_stats`) priced by
``Router.price_batch`` + ``route_step``, and the synthetic frontier is
priced by ``CostModel.compute_time`` through the cell's real load
balancer.  The predictor adds *no pricing formulas of its own* — the
differential test in ``tests/test_tune.py`` pins its output to a direct
Router/CostModel composition, bit for bit.

What the predictor does add is an **app model**: how many rounds a run
takes and what fraction of vertices/edges/mirrors a representative
round touches.  Those constants are crude on purpose — they only need
to preserve the *ordering* of cells; a cell's cost is the plain total
of its priced legs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.engine.costmodel import CostBreakdown, CostModel
from repro.frameworks.dirgl import DIrGL
from repro.loadbalance.base import get_balancer
from repro.partition.stats import PartitionStats, sync_messages_for_stats
from repro.runtime.cells import SystemSpec
from repro.tune.features import GraphFeatures
from repro.utils import grid_shape

__all__ = [
    "AnalyticPredictor",
    "AppModel",
    "APP_MODELS",
    "ConfigCell",
    "Prediction",
]

#: BASP runs more (staler) rounds than BSP ...
ASYNC_ROUND_INFLATION = 1.15
#: ... but overlaps sync waits with compute.
ASYNC_SYNC_DISCOUNT = 0.6


@dataclass(frozen=True)
class ConfigCell:
    """One point of the advisor's search space."""

    policy: str
    engine: str = "bsp"  # "bsp" | "basp"
    balancer: str = "alb"
    update_only: bool = True
    hierarchical: bool = False
    num_gpus: int = 2
    platform: str = "bridges"

    def label(self) -> str:
        comm = "uo" if self.update_only else "as"
        hier = "+hier" if self.hierarchical else ""
        return (
            f"{self.policy}/{self.engine}/{comm}{hier}/"
            f"{self.balancer}/p{self.num_gpus}"
        )

    def framework(self) -> DIrGL:
        return DIrGL(
            policy=self.policy,
            balancer=self.balancer,
            update_only=self.update_only,
            execution="async" if self.engine == "basp" else "sync",
            hierarchical=self.hierarchical,
        )

    def system_spec(self) -> SystemSpec:
        """The picklable spec validation runs use — same knobs, same cell."""
        return SystemSpec.dirgl(
            policy=self.policy,
            balancer=self.balancer,
            update_only=self.update_only,
            execution="async" if self.engine == "basp" else "sync",
            hierarchical=self.hierarchical,
        )


@dataclass(frozen=True)
class AppModel:
    """Round-structure constants for one app.

    ``rounds_kind`` picks the round-count estimate: ``"depth"`` scales
    the features' traversal-depth proxy (frontier algorithms),
    ``"log"`` scales ``log2(n)+1`` (label propagation / peeling),
    ``"fixed"`` is iteration-bound (PageRank).  The per-round fractions
    default to ``1/rounds`` for depth-kind apps (one BFS wave touches
    each edge once across the whole run) and to dense rounds otherwise.

    ``direction`` records which sync phases carry payload.  ``"push"``
    apps write destination labels where the edges live: when a policy
    places edges at the destination's owner (IEC; HVC for non-hub
    targets), those writes land on masters, the reduce phase ships
    nothing under update-only, and only the broadcast of source labels
    is loaded — half the sync traffic of source-side placement (OEC,
    CVC with a single grid column), which pays a loaded reduce *and*
    the echo broadcast.  ``"pull"`` apps (PageRank) reduce partial sums
    and broadcast new ranks every round regardless of placement, so
    both phases are always loaded.
    """

    rounds_kind: str = "depth"
    direction: str = "push"
    rounds_scale: float = 1.0
    fixed_rounds: float = 20.0
    frontier_fraction: float | None = None
    work_fraction: float | None = None
    updated_fraction: float | None = None

    def rounds(self, features: GraphFeatures) -> float:
        n = max(features.num_vertices, 2)
        if self.rounds_kind == "fixed":
            return self.fixed_rounds
        if self.rounds_kind == "log":
            return self.rounds_scale * (float(np.log2(n)) + 1.0)
        return max(1.0, self.rounds_scale * features.est_rounds)

    def fractions(self, rounds: float) -> tuple[float, float, float]:
        """(frontier, work, updated) fractions for a representative round."""
        if self.rounds_kind == "depth":
            ff = self.frontier_fraction if self.frontier_fraction is not None else 1.0 / rounds
            wf = self.work_fraction if self.work_fraction is not None else 1.2 / rounds
            uf = (
                self.updated_fraction
                if self.updated_fraction is not None
                else min(1.0, 2.0 / rounds)
            )
        else:
            ff = self.frontier_fraction if self.frontier_fraction is not None else 1.0
            wf = self.work_fraction if self.work_fraction is not None else 1.0
            uf = self.updated_fraction if self.updated_fraction is not None else 1.0
        clip = lambda x: float(min(1.0, max(1e-3, x)))  # noqa: E731
        return clip(ff), clip(wf), clip(uf)


APP_MODELS = {
    "bfs": AppModel("depth"),
    "bfs-do": AppModel("depth"),
    "sssp": AppModel("depth", rounds_scale=1.5),
    "cc": AppModel("log", updated_fraction=0.6),
    "cc-pj": AppModel("log", rounds_scale=0.8, updated_fraction=0.6),
    "pr": AppModel("fixed", direction="pull", fixed_rounds=20.0),
    "pr-push": AppModel("fixed", fixed_rounds=20.0),
    "kcore": AppModel("log", work_fraction=0.5, updated_fraction=0.4),
    "mis": AppModel("log", work_fraction=0.6, updated_fraction=0.5),
    # minibatch feature gathers: a fixed training-iteration count, and
    # like pagerank both sync phases (reduce agg, broadcast embed) are
    # loaded every round regardless of placement; only a minibatch-sized
    # slice of the graph is active per round.
    "gnnflow": AppModel(
        "fixed", direction="pull", fixed_rounds=6.0,
        frontier_fraction=0.4, work_fraction=0.3, updated_fraction=0.4,
    ),
}


def app_model(app: str) -> AppModel:
    return APP_MODELS.get(app, AppModel("depth"))


@dataclass(frozen=True)
class Prediction:
    """One cell's predicted whole-run cost."""

    cell: ConfigCell
    breakdown: CostBreakdown  # whole-run legs
    rounds: float
    replication_factor: float
    cost: float  # ranking key: the legs' total


class AnalyticPredictor:
    """Scores :class:`ConfigCell` candidates for one (graph, scale)."""

    def __init__(
        self,
        features: GraphFeatures,
        scale_factor: float = 1.0,
    ):
        self.features = features
        self.scale_factor = scale_factor

    # ---------------- model composition (also the test surface) -------- #
    def cost_model(self, cell: ConfigCell) -> CostModel:
        """The cell's real pricing stack: cluster + balancer + router."""
        cluster = cell.framework().make_cluster(cell.num_gpus, cell.platform)
        return CostModel(
            cluster, get_balancer(cell.balancer), scale_factor=self.scale_factor
        )

    def estimated_stats(self, cell: ConfigCell) -> PartitionStats:
        """Feature-implied :class:`PartitionStats` — same schema as the
        measured ones, so downstream pricing cannot tell them apart."""
        f = self.features
        P = cell.num_gpus
        rf = f.rf(cell.policy, P) if f.replication else 1.0
        n, m = f.num_vertices, f.num_edges
        edges = int(np.ceil(m / P)) if P else 0
        verts = int(np.ceil(n * rf / P)) if P else 0
        # ceil, not round: any nonzero replication must price at least
        # one mirror message (headers and the allreduce are real costs
        # even when the estimated mirror count is fractional)
        mirrors = int(np.ceil(max(0.0, n * (rf - 1.0) / P))) if P else 0
        if cell.policy == "cvc":
            pr, pc = grid_shape(P)
            partners = pr + pc - 2
        else:
            partners = P - 1
        return PartitionStats(
            policy=cell.policy,
            num_partitions=P,
            edges_per_partition=(edges,) * P,
            vertices_per_partition=(verts,) * P,
            mirrors_per_partition=(mirrors,) * P,
            replication_factor=rf,
            static_balance=1.0,
            vertex_balance=1.0,
            mean_comm_partners=float(partners),
            max_comm_partners=int(partners),
        )

    def frontier_degrees(self, cell: ConfigCell, app: str) -> np.ndarray:
        """Synthetic straggler-partition frontier for one representative
        round: the graph's degree sketch resampled to the expected
        frontier size, rescaled to the expected per-partition edge work.
        """
        f = self.features
        model = app_model(app)
        rounds = model.rounds(f)
        ff, wf, _ = model.fractions(rounds)
        sketch = np.asarray(f.out_degree_sketch, dtype=np.float64)
        if f.num_vertices == 0 or len(sketch) == 0:
            return np.empty(0, dtype=np.float64)
        k = max(1, int(round(f.num_vertices * ff / cell.num_gpus)))
        idx = np.linspace(0, len(sketch) - 1, k).astype(np.int64)
        frontier = sketch[idx].copy()
        target_work = f.num_edges * wf / cell.num_gpus
        total = frontier.sum()
        if total > 0:
            frontier *= target_work / total
        return frontier

    def phase_factor(self, cell: ConfigCell, app: str) -> float:
        """Fraction of the two-phase sync batch that carries payload.

        The synthetic batch prices a loaded reduce *and* broadcast; for
        push-direction apps, destination-side edge placement empties the
        reduce (see :class:`AppModel`), so the comm legs scale by:

        * IEC — 0.5 (broadcast only);
        * OEC — 1.0 (loaded reduce + echo broadcast);
        * CVC — by grid shape: a single-column grid is source-side
          placement (1.0), a single-row grid destination-side (0.5),
          a genuine 2D grid splits writes across the column (0.75);
        * HVC — destination-side except for the hash-scattered hub
          in-edges, whose writes do reduce: ``0.5 + 0.5 * hub mass``.
        """
        model = app_model(app)
        if model.direction != "push":
            return 1.0
        if cell.policy == "iec":
            return 0.5
        if cell.policy == "hvc":
            return 0.5 + 0.5 * min(1.0, self.features.hub_edge_fraction)
        if cell.policy == "cvc":
            pr, pc = grid_shape(cell.num_gpus)
            if pc == 1:
                return 1.0
            if pr == 1:
                return 0.5
            return 0.75
        return 1.0

    def synthetic_messages(self, cell: ConfigCell, app: str):
        """The synthetic one-round sync batch the prediction prices."""
        model = app_model(app)
        rounds = model.rounds(self.features)
        _, _, uf = model.fractions(rounds)
        return sync_messages_for_stats(
            self.estimated_stats(cell),
            update_only=cell.update_only,
            updated_fraction=uf,
        )

    # ---------------- prediction --------------------------------------- #
    def predict(self, cell: ConfigCell, app: str) -> Prediction:
        f = self.features
        model = app_model(app)
        rounds = model.rounds(f)
        cm = self.cost_model(cell)
        per_round = cm.price_round(
            self.frontier_degrees(cell, app),
            self.synthetic_messages(cell, app),
            hierarchical=cell.hierarchical,
        )
        phi = self.phase_factor(cell, app)
        if phi != 1.0:
            per_round = replace(
                per_round,
                sync=per_round.sync * phi,
                serialize=per_round.serialize * phi,
            )
        if cell.engine == "basp":
            rounds *= ASYNC_ROUND_INFLATION
            per_round = replace(per_round, sync=per_round.sync * ASYNC_SYNC_DISCOUNT)
        run = per_round.scaled(rounds)
        return Prediction(
            cell=cell,
            breakdown=run,
            rounds=rounds,
            replication_factor=self.estimated_stats(cell).replication_factor,
            cost=run.total,
        )

    def rank(self, cells, app: str) -> list[Prediction]:
        """All cells scored, cheapest predicted first (ties by label)."""
        preds = [self.predict(c, app) for c in cells]
        return sorted(preds, key=lambda p: (p.cost, p.cell.label()))
