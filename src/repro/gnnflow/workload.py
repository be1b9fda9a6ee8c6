"""The GNN feature-gather workload (``gnnflow``).

Every other app in the registry moves *scalar labels*, so the modeled
bottleneck is sync messages.  GNN training moves wide per-vertex feature
tensors: each iteration samples a minibatch of seed vertices, gathers the
feature vectors of their k-hop sampled neighborhood from host DRAM into
the GPU, and runs a forward/backward pass.  That flips the bottleneck
from the network to host->device feature loading (Song & Jiang,
"Rethinking graph data placement for GNN training on multiple GPUs",
ICS 2022), which is exactly the traffic this program generates:

* each round, a **globally deterministic minibatch** of seeds is drawn
  (every partition derives the same batch from ``(seed, round)``);
* every partition holding a copy of a seed samples a k-hop neighborhood
  of it from its **local** graph structure, with per-hop fanouts —
  the distributed-sampling view where remote partials combine through
  the ordinary sync substrate;
* the distinct sampled vertices are the features the GPU must hold:
  each is either a **feature-buffer hit** (free) or a miss costing
  ``feature_dim * bytes_per_feature`` host->device bytes, which the
  engine prices through :meth:`repro.comm.router.Router.
  price_feature_loads` (contention-aware on the ``pcie_up``/``staging``
  resources);
* the gathered aggregate reduces to each seed's master and the updated
  embedding broadcasts back — real sync messages ride alongside the
  feature traffic, so partition policy still matters.

Placement policies (the study's subject, see docs/gnnflow.md):

* ``cache_fraction`` — a PaGraph-style partition-local feature buffer
  holding that fraction of local vertices, pre-warmed with the highest
  local in-degree vertices (the ones sampling hits most) and maintained
  LRU;
* ``locality_sampling`` — when a neighbor list must be subsampled,
  prefer neighbors whose features are already resident in the buffer.

Everything is bit-deterministic: minibatches hang off ``(seed, round)``,
per-partition sampling off ``(seed, round, pid)``, and all merges happen
in sorted order — runs are identical across ``--jobs`` and engine
executors.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.comm.gluon import FieldSpec
from repro.engine.operator import (
    MasterOutput,
    RoundOutput,
    RunContext,
    SyncStep,
    VertexProgram,
)
from repro.errors import ConfigurationError
from repro.partition.base import LocalPartition

__all__ = ["GNNFlowConfig", "GNNFlow", "feature_value"]

_EMPTY = np.empty(0, dtype=np.int64)

#: Knuth multiplicative hash constant for the synthetic feature stream.
_PHI_MULT = 2654435761
_PHI_MOD = 2**32


def feature_value(global_ids: np.ndarray) -> np.ndarray:
    """Deterministic synthetic "feature summary" per global vertex.

    A multiplicative hash mapped into [0, 1) with exact float64
    arithmetic (inputs stay far below 2**53), so the gathered embeddings
    are bit-identical everywhere without materializing F-wide tensors.
    """
    g = np.asarray(global_ids, dtype=np.int64)
    return ((g * _PHI_MULT) % _PHI_MOD) / float(_PHI_MOD)


@dataclass(frozen=True)
class GNNFlowConfig:
    """Workload knobs, carried on ``RunContext.payload``.

    Frozen (hashable) so it can ride in ``CellSpec.ctx_overrides`` and
    pickle cleanly across sweep workers.
    """

    #: feature width F (floats per vertex) — what a miss costs
    feature_dim: int = 32
    #: per-hop neighbor sample sizes; ``len(fanout)`` is k
    fanout: tuple = (10, 5)
    #: seed vertices drawn per round (capped at the graph size)
    minibatch: int = 16
    #: training iterations to simulate
    num_rounds: int = 6
    #: partition-local feature-buffer size as a fraction of local
    #: vertices (0 disables caching — every gather pays full H2D)
    cache_fraction: float = 0.0
    #: prefer buffer-resident neighbors when subsampling
    locality_sampling: bool = False
    #: sampling-stream seed (minibatches and hop sampling)
    seed: int = 7
    #: bytes per feature scalar (4 = float32 features)
    bytes_per_feature: int = 4

    def __post_init__(self):
        if self.feature_dim < 1:
            raise ConfigurationError("feature_dim must be >= 1")
        if not self.fanout or any(f < 1 for f in self.fanout):
            raise ConfigurationError(
                "fanout must be a non-empty tuple of sizes >= 1"
            )
        if not isinstance(self.fanout, tuple):
            # normalize lists so the config stays hashable
            object.__setattr__(self, "fanout", tuple(self.fanout))
        if self.minibatch < 1:
            raise ConfigurationError("minibatch must be >= 1")
        if self.num_rounds < 1:
            raise ConfigurationError("num_rounds must be >= 1")
        if not 0.0 <= self.cache_fraction <= 1.0:
            raise ConfigurationError("cache_fraction must be within [0, 1]")
        if self.bytes_per_feature < 1:
            raise ConfigurationError("bytes_per_feature must be >= 1")

    @property
    def feature_nbytes(self) -> int:
        """Host->device bytes one feature-buffer miss costs."""
        return self.feature_dim * self.bytes_per_feature


def resolve_config(ctx: RunContext) -> GNNFlowConfig:
    """The workload config carried by this run's context."""
    p = ctx.payload
    if p is None:
        return GNNFlowConfig()
    if isinstance(p, GNNFlowConfig):
        return p
    if isinstance(p, dict) and isinstance(p.get("gnnflow"), GNNFlowConfig):
        return p["gnnflow"]
    raise ConfigurationError(
        "gnnflow expects ctx.payload to be a GNNFlowConfig (or a dict "
        f"with one under 'gnnflow'), got {type(p).__name__}"
    )


def _minibatch(cfg: GNNFlowConfig, num_global: int, rnd: int) -> np.ndarray:
    """Round ``rnd``'s global seed vertices — identical on every
    partition (and every process) for a fixed config."""
    if num_global <= 0:
        return _EMPTY
    m = min(cfg.minibatch, num_global)
    rng = np.random.default_rng([cfg.seed, rnd])
    return np.sort(rng.choice(num_global, size=m, replace=False))


class _FeatureBuffer:
    """Partition-local LRU feature buffer (PaGraph-style hot buffer).

    Pre-warmed with the highest local in-degree vertices — the ones
    neighbor sampling lands on most often — then maintained LRU over
    local vertex IDs.  ``capacity == 0`` disables caching entirely.
    """

    def __init__(self, part: LocalPartition, cfg: GNNFlowConfig):
        self.capacity = int(cfg.cache_fraction * part.num_local)
        self._lru: OrderedDict[int, None] = OrderedDict()
        if self.capacity > 0:
            indeg = part.graph.in_degrees()
            # hottest first; ties broken by local id for determinism
            order = np.lexsort((np.arange(part.num_local), -indeg))
            for lid in order[: self.capacity]:
                self._lru[int(lid)] = None

    def __contains__(self, lid: int) -> bool:
        return lid in self._lru

    def access(self, lid: int) -> bool:
        """Record one feature access; True on a buffer hit."""
        if self.capacity == 0:
            return False
        if lid in self._lru:
            self._lru.move_to_end(lid)
            return True
        self._lru[lid] = None
        if len(self._lru) > self.capacity:
            self._lru.popitem(last=False)
        return False


class GNNFlow(VertexProgram):
    """k-hop feature-gather rounds with placement-policy accounting."""

    name = "gnnflow"
    style = "push"
    driven = "data"
    needs_symmetric = False
    needs_weights = False
    async_capable = False  # minibatch rounds are globally synchronous
    output_field = "embed"

    def fields(self):
        return [
            FieldSpec(
                name="agg", dtype=np.float64, reduce_op="add",
                read_at="none", write_at="any", identity=0.0,
                reset_after_reduce=True,
            ),
            FieldSpec(
                name="embed", dtype=np.float64, reduce_op="add",
                read_at="src", write_at="master",
            ),
        ]

    def sync_plan(self):
        return [
            SyncStep("reduce", "agg"),
            SyncStep("master"),
            SyncStep("broadcast", "embed"),
        ]

    def activating_fields(self):
        return set()  # the next frontier is the next minibatch, not sync

    # ------------------------------------------------------------------ #
    def init_state(self, part: LocalPartition, ctx: RunContext):
        cfg = resolve_config(ctx)
        n = part.num_local
        return {
            "agg": np.zeros(n, dtype=np.float64),
            "embed": np.zeros(n, dtype=np.float64),
            "_round": np.zeros(1, dtype=np.int64),
            "_buffer": _FeatureBuffer(part, cfg),
        }

    def _local_seeds(
        self, part: LocalPartition, cfg: GNNFlowConfig,
        num_global: int, rnd: int,
    ) -> np.ndarray:
        """Local IDs of this partition's copies of round ``rnd``'s seeds."""
        if rnd >= cfg.num_rounds:
            return _EMPTY
        seeds = _minibatch(cfg, num_global, rnd)
        if not len(seeds):
            return _EMPTY
        lids = part.global_to_local[seeds]
        return np.sort(lids[lids >= 0]).astype(np.int64)

    def initial_frontier(self, part, ctx, state):
        cfg = resolve_config(ctx)
        return self._local_seeds(part, cfg, ctx.num_global_vertices, 0)

    # ------------------------------------------------------------------ #
    def _sample_neighbors(
        self, rng, nbrs: np.ndarray, fanout: int,
        buffer: _FeatureBuffer, locality: bool,
    ) -> np.ndarray:
        if len(nbrs) <= fanout:
            return nbrs
        if locality and buffer.capacity > 0:
            resident = np.array([int(v) in buffer for v in nbrs])
            cached = nbrs[resident]
            if len(cached) >= fanout:
                return np.sort(cached)[:fanout]
            rest = nbrs[~resident]
            extra = rng.choice(rest, size=fanout - len(cached), replace=False)
            return np.concatenate([cached, extra])
        return rng.choice(nbrs, size=fanout, replace=False)

    def compute(self, part, ctx, state, frontier) -> RoundOutput:
        cfg = resolve_config(ctx)
        rnd = int(state["_round"][0])
        state["_round"][0] = rnd + 1
        buffer: _FeatureBuffer = state["_buffer"]
        rng = np.random.default_rng([cfg.seed, rnd, part.pid])
        indptr = part.graph.indptr
        indices = part.graph.indices
        agg = state["agg"]
        degrees = self.frontier_degrees(part, frontier)

        edges = 0
        needed: set[int] = set()
        for l in frontier:
            cur = np.array([l], dtype=np.int64)
            sampled: list[np.ndarray] = []
            for fanout in cfg.fanout:
                hop: list[np.ndarray] = []
                for u in cur:
                    nbrs = indices[indptr[u]: indptr[u + 1]]
                    if not len(nbrs):
                        continue
                    take = self._sample_neighbors(
                        rng, nbrs, fanout, buffer, cfg.locality_sampling
                    )
                    edges += len(take)
                    hop.append(take)
                if not hop:
                    cur = _EMPTY
                    break
                cur = np.unique(np.concatenate(hop))
                sampled.append(cur)
            if not sampled:
                continue
            block = np.unique(np.concatenate(sampled))
            # simulated forward pass: mean of the sampled features — a
            # pure deterministic function of the sampled global IDs
            agg[l] += float(
                feature_value(part.local_to_global[block]).sum()
            ) / len(block)
            needed.update(int(v) for v in block)

        # feature residency: one pass over the round's distinct gathered
        # vertices in ascending local-ID order (deterministic LRU churn)
        hits = misses = 0
        for lid in sorted(needed):
            if buffer.access(lid):
                hits += 1
            else:
                misses += 1
        feature_bytes = float(misses * cfg.feature_nbytes)

        activated = self._local_seeds(
            part, cfg, ctx.num_global_vertices, rnd + 1
        )
        updated = {"agg": np.asarray(frontier, dtype=np.int64)}
        return RoundOutput(
            updated=updated,
            activated=activated,
            edges_processed=edges,
            frontier_degrees=degrees,
            feature_bytes=feature_bytes,
            feature_cache_hits=hits,
            feature_cache_misses=misses,
        )

    def master_compute(self, part, ctx, state) -> MasterOutput:
        agg = state["agg"]
        embed = state["embed"]
        folded = np.flatnonzero(part.is_master & (agg != 0.0))
        if len(folded):
            embed[folded] += agg[folded]
            agg[folded] = 0.0
        return MasterOutput({"embed": folded}, _EMPTY, 0.0)
