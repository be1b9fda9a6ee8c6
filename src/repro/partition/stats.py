"""Partition quality statistics — the inputs to Table IV and Section V-C.

* **static load balance** — max/mean edges per partition (the paper's
  "Static" column); the quantity that, at paper scale, decides whether the
  graph fits in GPU memory at all;
* **replication factor** — average proxies per vertex, which bounds
  communication volume;
* **communication partners** — how many other partitions each partition must
  exchange with, the quantity CVC's structural invariants shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.comm.buffers import Message, MessageHeader
from repro.errors import ConfigurationError
from repro.partition.base import PartitionedGraph

__all__ = ["PartitionStats", "partition_stats", "sync_messages_for_stats"]


@dataclass(frozen=True)
class PartitionStats:
    """Summary of one partitioning."""

    policy: str
    num_partitions: int
    edges_per_partition: tuple[int, ...]
    vertices_per_partition: tuple[int, ...]
    mirrors_per_partition: tuple[int, ...]
    replication_factor: float
    static_balance: float  # max/mean edges — Table IV "Static"
    vertex_balance: float
    mean_comm_partners: float
    max_comm_partners: int

    def row(self) -> tuple:
        return (
            self.policy,
            self.num_partitions,
            round(self.replication_factor, 2),
            round(self.static_balance, 2),
            round(self.mean_comm_partners, 1),
        )

    def to_dict(self) -> dict:
        """JSON-ready dict; round-trips exactly through ``from_dict``."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "PartitionStats":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown PartitionStats keys: {sorted(unknown)} "
                f"(schema: {sorted(known)})"
            )
        missing = known - set(data)
        if missing:
            raise ConfigurationError(f"missing PartitionStats keys: {sorted(missing)}")
        kw = dict(data)
        for name in (
            "edges_per_partition",
            "vertices_per_partition",
            "mirrors_per_partition",
        ):
            kw[name] = tuple(int(x) for x in kw[name])
        return cls(**kw)


def sync_messages_for_stats(
    stats: PartitionStats,
    update_only: bool = True,
    updated_fraction: float = 1.0,
    dtype=np.float32,
) -> list[Message]:
    """Synthetic one-round sync batch implied by partition statistics.

    Each partition ``p`` spreads its mirror proxies evenly over
    ``round(mean_comm_partners)`` partners chosen cyclically, sending a
    reduce message to each and receiving the mirrored broadcast back.
    Under update-only, the payload is ``updated_fraction`` of the
    exchange list with a position bitset and a full extraction scan;
    otherwise the full list ships with no scan.  Payload values are
    uninitialized — only shapes and header fields price.
    """
    P = stats.num_partitions
    partners = int(round(stats.mean_comm_partners))
    partners = max(0, min(partners, P - 1))
    if P <= 1 or partners == 0:
        return []
    msgs: list[Message] = []
    for p in range(P):
        mirrors = stats.mirrors_per_partition[p]
        if mirrors <= 0:
            continue
        per_partner = max(1, int(round(mirrors / partners)))
        if update_only:
            updated = max(1, int(round(per_partner * updated_fraction)))
            updated = min(updated, per_partner)
        else:
            updated = per_partner
        for i in range(partners):
            q = (p + 1 + i) % P
            for phase, src, dst in (("reduce", p, q), ("broadcast", q, p)):
                positions = None
                scanned = 0
                if update_only and updated < per_partner:
                    positions = np.empty(updated, dtype=np.int32)
                    scanned = per_partner
                msgs.append(
                    Message(
                        header=MessageHeader(src=src, dst=dst, phase=phase, field="est"),
                        values=np.empty(updated, dtype=dtype),
                        positions=positions,
                        exchange_len=per_partner,
                        scanned_elements=scanned,
                    )
                )
    return msgs


def partition_stats(pg: PartitionedGraph) -> PartitionStats:
    """Compute :class:`PartitionStats` for a partitioned graph."""
    edges = pg.local_edge_counts()
    verts = pg.local_vertex_counts()
    mirrors = np.asarray([p.num_mirrors for p in pg.parts], dtype=np.int64)

    partners = []
    for p in pg.parts:
        s = set(p.mirror_exchange) | set(p.master_exchange)
        s.discard(p.pid)
        partners.append(len(s))

    return PartitionStats(
        policy=pg.policy,
        num_partitions=pg.num_partitions,
        edges_per_partition=tuple(int(e) for e in edges),
        vertices_per_partition=tuple(int(v) for v in verts),
        mirrors_per_partition=tuple(int(m) for m in mirrors),
        replication_factor=pg.replication_factor,
        static_balance=float(edges.max() / max(edges.mean(), 1e-12)),
        vertex_balance=float(verts.max() / max(verts.mean(), 1e-12)),
        mean_comm_partners=float(np.mean(partners)) if partners else 0.0,
        max_comm_partners=int(max(partners)) if partners else 0,
    )
