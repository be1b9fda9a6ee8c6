"""Physical execution behind the serve loop.

The service's discrete-event scheduler decides *when* work runs; this
module decides *how*:

* every execution runs in the process that scheduled it, on the snapshot
  the service already holds: the snapshot rides in its
  :class:`~repro.runtime.cells.CellSpec` as a 1x-scale ``serve:<hash16>``
  :class:`~repro.generators.datasets.Dataset`, through the same
  :func:`~repro.runtime.cells.run_task` the batch studies use;
* served state lives for one execution: :meth:`ExecBackend.run_batch`
  returns with the partition cache's memory tier empty, so the
  disk-shared partition cache ``run_trace`` puts in its spool is the only
  cache that outlives an execution — a later execution on the same
  snapshot gets the identical partitioning back from disk, never a
  rebuild;
* full engine runs are memoized by ``(content hash, app, params)``:
  the simulator charges simulated seconds per service policy, so
  physically re-running a bit-identical cell would only burn wall clock
  (a hit answers with cost, CRC, rounds and failure; the memo keeps no labels);
* incremental re-execution (:mod:`repro.serve.incremental`) is attempted
  first for delta-capable apps, priced at the prior full run's simulated
  cost scaled by the fraction of edges the delta sweep touched;
* the repartition-vs-patch decision: when a mutated snapshot misses the
  partition cache but its predecessor's partitioning is known, the old
  vertex-owner assignment is re-materialized over the new edge set
  (:func:`~repro.partition.base.build_partitions`) and kept iff its
  static balance stays within ``patch_threshold`` of the baseline —
  otherwise the engine re-partitions from scratch and the baseline
  resets.  Patching is skipped for apps that run on the symmetrized
  graph (their partitions key on a different content hash), under
  ``ServeConfig.naive`` and whenever invariant checking is on (a patched
  placement intentionally deviates from the policy's placement rules).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from repro.apps.registry import SYMMETRIC_APPS
from repro.check import current_check_level
from repro.generators.datasets import Dataset
from repro.graph.csr import CSRGraph
from repro.graph.mutable import MutableGraph
# no longer called here: a name ``benchmarks/perf/layers.py`` wraps
from repro.graph.store import write_csr_store  # noqa: F401
from repro.partition.base import build_partitions
from repro.partition.cache import get_cache
from repro.partition.stats import partition_stats
from repro.runtime import cells
from repro.serve.incremental import DELTA_APPS, incremental_run

__all__ = ["ExecBackend", "ExecResult", "ExecTask"]

#: the simulated cluster and execution model every served run uses
PLATFORM = "bridges"
EXECUTION = "sync"
#: floor for any charged simulated cost (seconds)
MIN_SIM_COST = 1e-6


@dataclass(frozen=True)
class ExecTask:
    """One execution the scheduler wants performed."""

    graph_id: str
    graph: MutableGraph
    snapshot: CSRGraph
    version: int
    app: str
    params: tuple


@dataclass
class ExecResult:
    """What one execution produced, and what it should cost."""

    mode: str  # "full" | "delta" | "memo"
    sim_cost: float
    labels: np.ndarray | None = None
    labels_crc: int | None = None
    reason: str = ""
    failure: str = ""
    failure_kind: str = ""
    partition_decision: str = ""  # "" | "patch" | "repartition"
    rounds: int = 0

    @property
    def ok(self) -> bool:
        return self.failure_kind == ""


@dataclass
class _Prior:
    version: int
    snapshot: CSRGraph
    labels: np.ndarray
    full_cost: float


@dataclass
class _PartitionState:
    version: int
    vertex_owner: np.ndarray
    baseline_balance: float


def _crc(labels: np.ndarray) -> int:
    return int(zlib.crc32(np.ascontiguousarray(labels).tobytes()))


@dataclass
class ExecBackend:
    """Executes one :class:`ExecTask` at a time for the service loop."""

    config: object  # the service's ServeConfig

    def __post_init__(self) -> None:
        self._memo: dict[tuple, ExecResult] = {}
        self._prior: dict[tuple, _Prior] = {}
        self._pstate: dict[str, _PartitionState] = {}

    # ------------------------------------------------------------------ #
    def _maybe_patch(self, task: ExecTask) -> str:
        """Repartition-vs-patch for the directed-graph partition key."""
        # patched placements break per-policy placement checkers on
        # purpose; never plant them under an active check level
        # (CheckLevel is an IntEnum: OFF == 0 is falsy)
        if task.app in SYMMETRIC_APPS or self.config.naive or current_check_level():
            return ""
        state = self._pstate.get(task.graph_id)
        if state is None or state.version >= task.version:
            return ""
        policy, parts = self.config.policy, self.config.parts
        cache = get_cache()
        if cache.get(task.snapshot, policy, parts) is not None:
            return ""  # a sibling already decided for this content
        vo = state.vertex_owner
        edge_owner = vo[task.snapshot.edge_sources()]
        patched = build_partitions(task.snapshot, vo, edge_owner, parts, policy)
        balance = partition_stats(patched).static_balance
        if balance <= self.config.patch_threshold * max(state.baseline_balance, 1.0):
            cache.put(task.snapshot, policy, parts, patched)
            return "patch"
        return "repartition"

    def _record_pstate(self, task: ExecTask, decision: str) -> None:
        """Remember the partitioning the engine actually used."""
        if task.app in SYMMETRIC_APPS:
            return
        pg = get_cache().get(task.snapshot, self.config.policy, self.config.parts)
        if pg is None:
            return
        state = self._pstate.get(task.graph_id)
        if state is None or decision != "patch":
            # fresh partitioning: its balance is the new baseline
            self._pstate[task.graph_id] = _PartitionState(
                task.version, np.asarray(pg.vertex_owner),
                partition_stats(pg).static_balance,
            )
        else:
            state.version = task.version
            state.vertex_owner = np.asarray(pg.vertex_owner)

    # ------------------------------------------------------------------ #
    def _try_delta(self, task: ExecTask) -> ExecResult | None:
        if self.config.naive or task.app not in DELTA_APPS:
            return None
        prior = self._prior.get((task.graph_id, task.app, task.params))
        if prior is None or prior.version > task.version:
            return None
        batches = task.graph.log[prior.version:task.version]
        res = incremental_run(
            task.app, prior.snapshot, task.snapshot, batches, prior.labels
        )
        if res.labels is None:
            return None  # fall through to the full path; reason recorded
        ratio = res.work_edges / max(task.snapshot.num_edges, 1)
        cost = max(prior.full_cost * ratio, MIN_SIM_COST)
        self._prior[(task.graph_id, task.app, task.params)] = _Prior(
            task.version, task.snapshot, res.labels, prior.full_cost
        )
        return ExecResult(
            "delta", cost, labels=res.labels, labels_crc=_crc(res.labels),
            reason=res.reason, rounds=res.rounds,
        )

    def _spec_for(self, task: ExecTask) -> cells.CellSpec:
        name = f"serve:{task.snapshot.content_hash()[:16]}"
        return cells.CellSpec(
            key=(task.graph_id, task.app, task.params, task.version),
            system=cells.SystemSpec.dirgl(
                policy=self.config.policy, execution=EXECUTION
            ),
            benchmark=task.app,
            dataset=Dataset(name, "serve", task.snapshot, 1.0),
            num_gpus=self.config.parts,
            platform=PLATFORM,
            check_memory=False,
            ctx_overrides=task.params,
            keep_labels=True,
        )

    # ------------------------------------------------------------------ #
    def run_batch(self, task: ExecTask) -> ExecResult:
        """Execute one task in this process: a delta where one applies, a
        memo hit where this content already ran, else a full engine run.

        (The name is the boundary ``benchmarks/perf/layers.py`` wraps.)
        """
        res = self._try_delta(task)
        if res is None:
            res = self._run_full(task)
        elif self.config.verify_incremental:
            self._verify(task, res)
        # later executions reload from the spool's disk tier; a memory tier
        # kept across them would pin one partitioning (graph and plans)
        # per superseded snapshot
        get_cache().clear_memory()
        return res

    def _run_full(self, task: ExecTask) -> ExecResult:
        """A memo hit if this content already ran, else a full engine run
        whose outcome the memo keeps (without its labels)."""
        memo_key = (task.snapshot.content_hash(), task.app, task.params)
        hit = self._memo.get(memo_key)
        if hit is not None:
            return ExecResult(
                "memo", hit.sim_cost,
                labels_crc=hit.labels_crc, reason="physical memo hit",
                failure=hit.failure, failure_kind=hit.failure_kind,
                rounds=hit.rounds,
            )
        decision = self._maybe_patch(task)
        out = cells.run_task(self._spec_for(task))
        if out.ok:
            cost = max(out.stats.execution_time, MIN_SIM_COST)
            res = ExecResult(
                "full", cost, labels=out.labels, labels_crc=out.labels_crc,
                partition_decision=decision,
                rounds=getattr(out.stats, "rounds", 0),
            )
            self._prior[(task.graph_id, task.app, task.params)] = _Prior(
                task.version, task.snapshot, out.labels, cost
            )
            self._record_pstate(task, decision)
        else:
            res = ExecResult(
                "full", MIN_SIM_COST, failure=out.failure,
                failure_kind=out.failure_kind, partition_decision=decision,
            )
        self._memo[memo_key] = replace(res, labels=None)
        return res

    def _verify(self, task: ExecTask, res: ExecResult) -> None:
        """Differential check: a delta must match a from-scratch run."""
        out = cells.run_task(self._spec_for(task))
        if not out.ok:
            raise AssertionError(
                f"verify_incremental: full leg failed: {out.failure}"
            )
        if not np.array_equal(res.labels, out.labels):
            raise AssertionError(
                f"incremental labels diverge from full recompute for "
                f"{task.app} on {task.graph_id} v{task.version}"
            )
