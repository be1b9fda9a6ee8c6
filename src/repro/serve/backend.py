"""Physical execution behind the serve loop.

The service's discrete-event scheduler decides *when* work runs; this
module decides *how*:

* snapshots of mutated graphs are spilled (content-addressed) as CSR
  store containers into a spool directory and referenced as
  ``store+ram:<path>`` dataset names, so the same
  :class:`~repro.runtime.cells.CellSpec` machinery — and the
  :class:`~repro.runtime.sweep.SweepExecutor` process pool — the batch
  studies use also serves live traffic;
* full engine runs are memoized by ``(content hash, app, params)``:
  the simulator charges simulated seconds per service policy, so
  physically re-running a bit-identical cell would only burn wall clock;
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
  graph (their partitions key on a different content hash) and whenever
  invariant checking is on (a patched placement intentionally deviates
  from the policy's placement rules).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.apps.registry import SYMMETRIC_APPS
from repro.graph.csr import CSRGraph
from repro.graph.mutable import MutableGraph
from repro.graph.store import write_csr_store
from repro.partition.base import build_partitions
from repro.partition.cache import get_cache
from repro.partition.stats import partition_stats
from repro.runtime.cells import CellSpec, SystemSpec
from repro.serve.incremental import DELTA_APPS, incremental_run

__all__ = ["ExecBackend", "ExecResult", "ExecTask"]

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
    """Executes :class:`ExecTask` batches for the service loop."""

    executor: object  # SweepExecutor
    spool_dir: str
    policy: str = "oec"
    parts: int = 2
    platform: str = "bridges"
    execution: str = "sync"
    incremental: bool = True
    patch_mode: str = "auto"  # "auto" | "never"
    patch_threshold: float = 1.5
    #: floor for any charged simulated cost (seconds)
    min_sim_cost: float = 1e-6
    #: re-run every delta through the full path and assert bit-identity
    verify_incremental: bool = False

    def __post_init__(self) -> None:
        os.makedirs(self.spool_dir, exist_ok=True)
        self._memo: dict[tuple, ExecResult] = {}
        self._prior: dict[tuple, _Prior] = {}
        self._pstate: dict[str, _PartitionState] = {}
        self.engine_runs = 0
        self.delta_runs = 0
        self.memo_hits = 0
        self.patches = 0
        self.repartitions = 0

    # ------------------------------------------------------------------ #
    def _spill(self, snapshot: CSRGraph) -> str:
        """Content-addressed store container for a snapshot; returns the
        ``store+ram:`` dataset name the cell machinery can load."""
        path = os.path.join(
            self.spool_dir, f"{snapshot.content_hash()[:16]}.csr"
        )
        if not os.path.exists(path):
            write_csr_store(snapshot, path)
        return f"store+ram:{path}"

    def _patching_enabled(self) -> bool:
        if self.patch_mode != "auto":
            return False
        # patched placements break per-policy placement checkers on
        # purpose; never plant them under an active check level
        # (CheckLevel is an IntEnum: OFF == 0 is falsy)
        return not getattr(self.executor, "check", None)

    def _maybe_patch(self, task: ExecTask) -> str:
        """Repartition-vs-patch for the directed-graph partition key."""
        if task.app in SYMMETRIC_APPS or not self._patching_enabled():
            return ""
        state = self._pstate.get(task.graph_id)
        if state is None or state.version >= task.version:
            return ""
        cache = get_cache()
        if cache.get(task.snapshot, self.policy, self.parts) is not None:
            return ""  # a sibling already decided for this content
        vo = state.vertex_owner
        if len(vo) != task.snapshot.num_vertices:
            return ""  # vertex set moved (not expected; be safe)
        edge_owner = vo[task.snapshot.edge_sources()]
        patched = build_partitions(
            task.snapshot, vo, edge_owner, self.parts, self.policy
        )
        balance = partition_stats(patched).static_balance
        if balance <= self.patch_threshold * max(state.baseline_balance, 1.0):
            cache.put(task.snapshot, self.policy, self.parts, patched)
            self.patches += 1
            return "patch"
        self.repartitions += 1
        return "repartition"

    def _record_pstate(self, task: ExecTask, decision: str) -> None:
        """Remember the partitioning the engine actually used."""
        if task.app in SYMMETRIC_APPS:
            return
        pg = get_cache().get(task.snapshot, self.policy, self.parts)
        if pg is None:
            return
        state = self._pstate.get(task.graph_id)
        balance = partition_stats(pg).static_balance
        if state is None or decision != "patch":
            # fresh partitioning: its balance is the new baseline
            self._pstate[task.graph_id] = _PartitionState(
                task.version, np.asarray(pg.vertex_owner), balance
            )
        else:
            state.version = task.version
            state.vertex_owner = np.asarray(pg.vertex_owner)

    # ------------------------------------------------------------------ #
    def _try_delta(self, task: ExecTask) -> ExecResult | None:
        if not self.incremental or task.app not in DELTA_APPS:
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
        cost = max(prior.full_cost * ratio, self.min_sim_cost)
        self.delta_runs += 1
        self._prior[(task.graph_id, task.app, task.params)] = _Prior(
            task.version, task.snapshot, res.labels, prior.full_cost
        )
        return ExecResult(
            "delta", cost, labels=res.labels, labels_crc=_crc(res.labels),
            reason=res.reason, rounds=res.rounds,
        )

    def _spec_for(self, task: ExecTask) -> CellSpec:
        return CellSpec(
            key=(task.graph_id, task.app, task.params, task.version),
            system=SystemSpec.dirgl(
                policy=self.policy, execution=self.execution
            ),
            benchmark=task.app,
            dataset=self._spill(task.snapshot),
            num_gpus=self.parts,
            platform=self.platform,
            check_memory=False,
            ctx_overrides=task.params,
            keep_labels=True,
        )

    # ------------------------------------------------------------------ #
    def run_batch(self, tasks: list[ExecTask]) -> list[ExecResult]:
        """Execute a batch; full engine runs fan out over the executor's
        pool in one ``map`` call, deltas and memo hits stay in-process."""
        results: list[ExecResult | None] = [None] * len(tasks)
        full_idx: list[int] = []
        deltas: list[tuple[int, ExecResult]] = []
        for i, task in enumerate(tasks):
            res = self._try_delta(task)
            if res is not None:
                deltas.append((i, res))
                results[i] = res
                continue
            memo_key = (task.snapshot.content_hash(), task.app, task.params)
            hit = self._memo.get(memo_key)
            if hit is not None:
                self.memo_hits += 1
                results[i] = ExecResult(
                    "memo", hit.sim_cost, labels=hit.labels,
                    labels_crc=hit.labels_crc, reason="physical memo hit",
                    failure=hit.failure, failure_kind=hit.failure_kind,
                    rounds=hit.rounds,
                )
                continue
            full_idx.append(i)

        if full_idx:
            decisions = {i: self._maybe_patch(tasks[i]) for i in full_idx}
            specs = [self._spec_for(tasks[i]) for i in full_idx]
            outcomes = self.executor.map(specs)
            for i, out in zip(full_idx, outcomes):
                task = tasks[i]
                self.engine_runs += 1
                if out.ok:
                    cost = max(out.stats.execution_time, self.min_sim_cost)
                    res = ExecResult(
                        "full", cost, labels=out.labels,
                        labels_crc=out.labels_crc,
                        partition_decision=decisions[i],
                        rounds=getattr(out.stats, "rounds", 0),
                    )
                    self._prior[(task.graph_id, task.app, task.params)] = (
                        _Prior(task.version, task.snapshot, out.labels, cost)
                    )
                    self._record_pstate(task, decisions[i])
                else:
                    res = ExecResult(
                        "full", self.min_sim_cost, failure=out.failure,
                        failure_kind=out.failure_kind,
                        partition_decision=decisions[i],
                    )
                memo_key = (
                    task.snapshot.content_hash(), task.app, task.params
                )
                self._memo[memo_key] = res
                results[i] = res

        if self.verify_incremental and deltas:
            self._verify(tasks, deltas)
        return results  # type: ignore[return-value]

    def _verify(self, tasks, deltas) -> None:
        """Differential check: every delta must match a from-scratch run."""
        specs = [self._spec_for(tasks[i]) for i, _ in deltas]
        outcomes = self.executor.map(specs)
        for (i, res), out in zip(deltas, outcomes):
            if not out.ok:
                raise AssertionError(
                    f"verify_incremental: full leg failed: {out.failure}"
                )
            if not np.array_equal(res.labels, out.labels):
                raise AssertionError(
                    f"incremental labels diverge from full recompute for "
                    f"{tasks[i].app} on {tasks[i].graph_id} "
                    f"v{tasks[i].version}"
                )
