"""The vertex-program operator protocol (Section II-A, III-E).

Applications are *vertex programs*: an operator applied to active vertices,
reading and writing labels in the vertex's immediate neighborhood.  The
engine is responsible for worklists, synchronization, and timing; the
application supplies:

* its **fields** — :class:`~repro.comm.gluon.FieldSpec` sync contracts;
* a **sync plan** — the ordered reduce / master-compute / broadcast steps of
  one round (e.g. pagerank reduces partial contributions, recomputes ranks
  at masters, then broadcasts the new ranks);
* the **compute** kernel applied to the local frontier each round;
* optionally a **master_compute** kernel and a **frontier filter** deciding
  which remotely-changed proxies become active.

Push-style programs read the active vertex and write its out-neighbors;
pull-style programs read in-neighbors and write the active vertex
(Section II-A).  Data-driven programs track a worklist; topology-driven
programs treat every (relevant) vertex as active each round (Section
III-E1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from repro.comm.gluon import FieldSpec
from repro.partition.base import LocalPartition

__all__ = ["RunContext", "RoundOutput", "SyncStep", "MasterOutput", "VertexProgram"]


@dataclass(frozen=True)
class RunContext:
    """Per-run parameters shared by all partitions.

    ``global_out_degrees`` carries each vertex's *global* out-degree, which
    distributed pagerank needs locally (a vertex's out-edges may be spread
    across partitions under a vertex-cut).
    """

    num_global_vertices: int
    source: Optional[int] = None  # bfs/sssp source (max out-degree vertex)
    k: int = 10  # kcore threshold
    damping: float = 0.85  # pagerank
    tolerance: float = 1e-4  # pagerank convergence
    max_rounds: int = 10_000
    global_out_degrees: Optional[np.ndarray] = None
    global_degrees: Optional[np.ndarray] = None  # symmetric degree (kcore)
    #: app-specific global inputs (e.g. the forward phase's distances and
    #: path counts handed to Brandes' backward phase, or gnnflow's frozen
    #: :class:`repro.gnnflow.GNNFlowConfig`)
    payload: Optional[object] = None


class RoundOutput(NamedTuple):
    """What one partition's compute phase produced."""

    #: field name -> local IDs written (engine marks them dirty for sync)
    updated: dict[str, np.ndarray]
    #: local IDs whose labels changed locally (worklist candidates)
    activated: np.ndarray
    #: true edge traversals performed (work items)
    edges_processed: int
    #: degree of each processed vertex (load-balancer pricing input)
    frontier_degrees: np.ndarray
    #: host->device feature bytes this partition must load this round
    #: (raw sim scale; the engine prices them through the router's
    #: feature leg).  Zero for label-only programs.
    feature_bytes: float = 0.0
    #: feature-buffer hits this round (gnnflow placement telemetry)
    feature_cache_hits: int = 0
    #: feature-buffer misses this round (each miss contributes bytes)
    feature_cache_misses: int = 0


class MasterOutput(NamedTuple):
    """What one partition's master-compute phase produced."""

    updated: dict[str, np.ndarray]
    activated: np.ndarray
    #: partition-local convergence scalar (engine max-reduces globally)
    residual: float


class SyncStep(NamedTuple):
    """One step of the per-round synchronization plan."""

    kind: str  # "reduce" | "broadcast" | "master"
    field: str = ""  # for reduce/broadcast


class VertexProgram(ABC):
    """Base class for the five benchmarks (plus framework variants)."""

    #: registry key, e.g. "bfs"
    name: str = ""
    #: "push" or "pull" — decides whether frontier degrees are out- or
    #: in-degrees for load-balance pricing
    style: str = "push"
    #: "data" (worklist) or "topology" (all vertices active each round)
    driven: str = "data"
    #: a topology-driven program whose ``initial_frontier`` hands back the
    #: *same array* every round declares it: the engines then price each
    #: partition's compute phase once per run
    static_frontier: bool = False
    #: run on the symmetrized graph (cc, kcore)
    needs_symmetric: bool = False
    #: needs edge weights (sssp)
    needs_weights: bool = False
    #: can this program run bulk-asynchronously? (pr-pull cannot)
    async_capable: bool = True
    #: which field holds the final answer
    output_field: str = ""
    #: additional state fields to gather into ``RunResult.extra``
    extra_outputs: tuple = ()

    # ------------------------------------------------------------------ #
    # contracts
    # ------------------------------------------------------------------ #
    @abstractmethod
    def fields(self) -> list[FieldSpec]:
        """Sync contracts for every communicated field."""

    @abstractmethod
    def sync_plan(self) -> list[SyncStep]:
        """Ordered sync steps executed after each compute phase."""

    @abstractmethod
    def init_state(
        self, part: LocalPartition, ctx: RunContext
    ) -> dict[str, np.ndarray]:
        """Per-partition label arrays, keyed by field name.  Keys starting
        with ``_`` are private (never synchronized)."""

    @abstractmethod
    def initial_frontier(
        self, part: LocalPartition, ctx: RunContext, state: dict[str, np.ndarray]
    ) -> np.ndarray:
        """Local IDs active in round 0."""

    @abstractmethod
    def compute(
        self,
        part: LocalPartition,
        ctx: RunContext,
        state: dict[str, np.ndarray],
        frontier: np.ndarray,
    ) -> RoundOutput:
        """Apply the operator to the local frontier."""

    def master_compute(
        self, part: LocalPartition, ctx: RunContext, state: dict[str, np.ndarray]
    ) -> MasterOutput:
        """Optional master-side phase (pagerank rank update, kcore death)."""
        return MasterOutput({}, np.empty(0, dtype=np.int64), 0.0)

    def frontier_filter(
        self,
        part: LocalPartition,
        ctx: RunContext,
        state: dict[str, np.ndarray],
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Which remotely-changed proxies join the next frontier.

        The default admits every candidate — correct for monotone label
        propagation.  kcore overrides this to admit only death transitions.
        """
        return candidates

    def converged(self, ctx: RunContext, global_residual: float) -> bool:
        """Topology-driven termination test (residual from master phases)."""
        return True

    def frontier_degrees(
        self, part: LocalPartition, frontier: np.ndarray
    ) -> np.ndarray:
        """Degrees used for load-balance pricing of a frontier."""
        if self.style == "pull":
            return part.graph.in_degrees()[frontier]
        return part.graph.out_degrees()[frontier]

    def activating_fields(self) -> set[str]:
        """Fields whose remotely-changed proxies become frontier candidates.

        Accumulator fields (pagerank contributions, kcore decrements) change
        constantly without meaning "this vertex is active"; apps exclude
        them so activation is driven by the semantic field (dist, deg, ...).
        """
        return set(self.field_names())

    # convenience -------------------------------------------------------- #
    def field_names(self) -> list[str]:
        return [f.name for f in self.fields()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<VertexProgram {self.name} ({self.style}, {self.driven}-driven)>"
