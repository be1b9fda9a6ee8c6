"""Partitioned-graph data structures and the generic partition builder.

Every policy in this package reduces to two assignment arrays:

* ``vertex_owner[v]`` — the partition holding vertex ``v``'s **master** proxy;
* ``edge_owner[e]``  — the partition that stores edge ``e``.

:func:`build_partitions` turns those into :class:`LocalPartition` objects:
local CSR graphs over dense local IDs, master/mirror flags, and — crucially —
the *memoized exchange lists* that Gluon uses to elide global IDs on the
wire (Section III-D2, footnote 1): for each (mirror partition, master
partition) pair, both sides hold index arrays in a fixed agreed order, so a
message is just a value payload (plus an optional bitset under UO).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.constants import VID_DTYPE
from repro.errors import PartitioningError
from repro.graph import order as edge_order
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.order import ascending, count_ids
from repro.idset import as_selector

__all__ = ["LocalPartition", "PartitionedGraph", "build_partitions"]


@dataclass
class LocalPartition:
    """One GPU's share of the graph.

    Attributes
    ----------
    pid:
        partition (== GPU) index.
    graph:
        local CSR over dense local vertex IDs ``0..num_local-1``.
    local_to_global:
        global ID of each local vertex, strictly ascending; its inverse is
        :meth:`to_local`.
    is_master:
        per-local-vertex flag; exactly one partition holds the master of
        each global vertex.
    mirror_exchange:
        ``mirror_exchange[q]`` = local IDs (here) of mirror proxies whose
        master lives on partition ``q``, sorted by global ID.  This is this
        partition's *reduce send list* to ``q`` and *broadcast receive list*
        from ``q``.
    master_exchange:
        ``master_exchange[q]`` = local IDs (here) of master proxies that have
        a mirror on partition ``q``, in the same global order as ``q``'s
        ``mirror_exchange[self.pid]``.  This is the *reduce receive list*
        from ``q`` and *broadcast send list* to ``q``.
    """

    pid: int
    graph: CSRGraph
    local_to_global: np.ndarray
    is_master: np.ndarray
    mirror_exchange: dict[int, np.ndarray] = field(default_factory=dict)
    master_exchange: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def num_local(self) -> int:
        return len(self.local_to_global)

    @property
    def num_masters(self) -> int:
        return int(self.is_master.sum())

    @property
    def num_mirrors(self) -> int:
        return self.num_local - self.num_masters

    def has_out_edges(self) -> np.ndarray:
        """Per-local-vertex flag: does this proxy have any out-edge here?

        Drives Gluon's invariant-based sync filtering: only proxies that
        read a value need it broadcast; for a source-read operator those
        are exactly the proxies with local out-edges.
        """
        return self.graph.out_degrees() > 0

    def has_in_edges(self) -> np.ndarray:
        return self.graph.in_degrees() > 0

    def to_local(self, gids):
        """Local IDs of the global vertices ``gids`` (a scalar or an
        array), ``-1`` for a vertex this partition holds no proxy of — an
        out-of-range ID included.  One ``searchsorted`` over the ascending
        ``local_to_global``, so it costs O(log num_local) a lookup and no
        ``|V|``-long array."""
        l2g = self.local_to_global
        gids = np.asarray(gids)
        if not len(l2g):
            return np.full(gids.shape, -1, dtype=VID_DTYPE)[()]
        pos = np.minimum(np.searchsorted(l2g, gids), len(l2g) - 1)
        return np.where(l2g[pos] == gids, pos, -1).astype(VID_DTYPE)[()]

    def masters_global(self) -> np.ndarray:
        return self.local_to_global[self.is_master]

    def master_ids(self):
        """``(ids, sel)``: the masters' local IDs (read-only, computed
        once) and the cheapest index equal to them
        (:func:`repro.idset.as_selector`) — ``state[sel]`` is a *view*
        when that is a slice, so read it before writing ``state``."""
        memo = self.__dict__.get("_master_ids")
        if memo is None:
            ids = np.flatnonzero(self.is_master)
            ids.flags.writeable = False
            memo = self.__dict__["_master_ids"] = (ids, as_selector(ids))
        return memo

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LocalPartition {self.pid}: {self.num_local:,} proxies "
            f"({self.num_masters:,} masters), |E|={self.graph.num_edges:,}>"
        )


@dataclass
class PartitionedGraph:
    """A graph split across ``num_partitions`` simulated GPUs."""

    policy: str
    global_graph: CSRGraph
    vertex_owner: np.ndarray
    parts: list[LocalPartition]
    grid: Optional[tuple[int, int]] = None  # CVC: (rows, cols)

    @property
    def num_partitions(self) -> int:
        return len(self.parts)

    @property
    def num_global_vertices(self) -> int:
        return self.global_graph.num_vertices

    @property
    def replication_factor(self) -> float:
        """Average proxies per vertex (Section III-A)."""
        total = sum(p.num_local for p in self.parts)
        return total / max(self.num_global_vertices, 1)

    def local_edge_counts(self) -> np.ndarray:
        return np.asarray([p.graph.num_edges for p in self.parts], dtype=np.int64)

    def local_vertex_counts(self) -> np.ndarray:
        return np.asarray([p.num_local for p in self.parts], dtype=np.int64)

    def grid_position(self, pid: int) -> tuple[int, int]:
        """CVC grid (row, col) of a partition."""
        if self.grid is None:
            raise PartitioningError(f"{self.policy} is not a grid policy")
        _, pc = self.grid
        return pid // pc, pid % pc

    def gather_master_labels(self, local_labels: list[np.ndarray]) -> np.ndarray:
        """Assemble the global label vector from each partition's masters.

        ``local_labels[p]`` is partition p's per-local-vertex label array;
        the canonical value of each vertex is its master's copy.
        """
        n = self.num_global_vertices
        first = local_labels[0]
        out = np.empty(n, dtype=first.dtype)
        seen = np.zeros(n, dtype=bool)
        for part, lab in zip(self.parts, local_labels):
            g = part.masters_global()
            out[g] = lab[part.is_master]
            seen[g] = True
        if not seen.all():
            raise PartitioningError("some vertices have no master proxy")
        return out


def build_partitions(
    graph: CSRGraph,
    vertex_owner: np.ndarray,
    edge_owner: np.ndarray,
    num_partitions: int,
    policy: str,
    grid: Optional[tuple[int, int]] = None,
) -> PartitionedGraph:
    """Materialize partitions from owner assignments, as CuSP does: passes
    over the edge list, no global sort of the edges.

    Each partition receives: its assigned edges (relabeled to dense local
    IDs), proxies for every endpoint of those edges, plus its owned master
    vertices even when edge-less (so the global label vector is complete).

    Edges are bucketed by owner once: as slices of the CSR, their rows read
    off ``indptr``, when the owners ascend in CSR order (OEC, any P=1), else
    by a stable radix ``argsort`` of the owners over ``edge_sources()``.  A
    partition's proxy set is read off one reused ``|V|`` flag array (owned
    vertices, then both endpoints of its edges), so ``local_to_global`` is
    sorted and relabeling monotone: a bucket whose rows keep destinations
    ascending is adopted as the local CSR, as a loaded partition adopts its
    sections (weights a read-only slice); only one out of order goes
    through ``from_edges``.
    The relabeling reads one reused ``|V|`` scratch map, written only at
    the partition's own ``local_to_global``: O(local) a partition, and no
    partition keeps a ``|V|``-long array (the exchange lists reuse the
    same map once every bucket is relabeled).
    """
    n = graph.num_vertices
    vertex_owner = np.asarray(vertex_owner, dtype=np.int32)
    edge_owner = np.asarray(edge_owner, dtype=np.int32)
    if vertex_owner.shape != (n,):
        raise PartitioningError("vertex_owner must have one entry per vertex")
    if edge_owner.shape != (graph.num_edges,):
        raise PartitioningError("edge_owner must have one entry per edge")
    if len(vertex_owner) and (
        vertex_owner.min() < 0 or vertex_owner.max() >= num_partitions
    ):
        raise PartitioningError("vertex owner out of range")
    if len(edge_owner) and (
        edge_owner.min() < 0 or edge_owner.max() >= num_partitions
    ):
        raise PartitioningError("edge owner out of range")

    indptr, dst, weights, src = graph.indptr, graph.indices, graph.weights, None
    if ascending(edge_owner):  # bucket p: CSR positions bounds[p]:bounds[p + 1]
        bounds = edge_owner.searchsorted(np.arange(num_partitions + 1, dtype=np.int32))
    else:
        # the narrowest owner dtype makes the stable argsort a radix sort
        order = np.argsort(
            edge_owner.astype(np.min_scalar_type(num_partitions)), kind="stable"
        )
        src, dst = graph.edge_sources()[order], dst[order]
        weights = None if weights is None else weights[order]
        del order
        bounds = np.append(0, np.cumsum(count_ids(edge_owner, num_partitions)))
    flag = np.zeros(n, dtype=bool)
    # never reset: a bucket's endpoints all lie in its own l2g, which is
    # written before it is read, so an earlier partition's entries are
    # never gathered
    scratch = np.empty(n, dtype=VID_DTYPE)

    parts: list[LocalPartition] = []
    for p in range(num_partitions):
        lo, hi = bounds[p], bounds[p + 1]
        np.equal(vertex_owner, p, out=flag)
        if src is None:  # CSR positions [lo, hi): rows r0..r1-1 hold the sources
            r0, r1 = indptr.searchsorted(lo, "right") - 1, indptr.searchsorted(hi)
            flag[r0:r1][np.diff(np.clip(indptr[r0 : r1 + 1], lo, hi)) > 0] = True
        else:
            flag[src[lo:hi]] = True
        flag[dst[lo:hi]] = True
        l2g = np.flatnonzero(flag)
        scratch[l2g] = np.arange(len(l2g), dtype=VID_DTYPE)

        # a bucket's sources ascend (CSR order, kept by the stable argsort)
        if src is None:  # its rows: the global ones clipped to [lo, hi)
            local_ptr = np.append(np.clip(indptr[l2g], lo, hi), hi) - lo
        else:
            local_ptr = np.append(0, count_ids(scratch[src[lo:hi]], len(l2g)).cumsum())
        d, w = scratch[dst[lo:hi]], None if weights is None else weights[lo:hi]
        name = f"{graph.name}/p{p}"
        if edge_order.rows_ascending(local_ptr, d):  # adopt the bucket
            local = CSRGraph.from_validated_arrays(local_ptr, d, w, name=name)
        else:
            s = np.repeat(np.arange(len(l2g), dtype=VID_DTYPE), np.diff(local_ptr))
            local = from_edges(s, d, num_vertices=len(l2g), weights=w, name=name)
        parts.append(
            LocalPartition(
                pid=p,
                graph=local,
                local_to_global=l2g,
                is_master=(vertex_owner[l2g] == p),
            )
        )

    _build_exchange_lists(parts, vertex_owner, scratch)
    return PartitionedGraph(
        policy=policy,
        global_graph=graph,
        vertex_owner=vertex_owner,
        parts=parts,
        grid=grid,
    )


def _build_exchange_lists(
    parts: list[LocalPartition], vertex_owner: np.ndarray, master_local: np.ndarray
) -> None:
    """Memoize the per-pair exchange orders (Gluon's address elision).

    For each partition p and each master-owner q, p's mirrors of q's masters
    are listed sorted by global ID; q's matching master-side index list is
    read off ``master_local``, the build's ``|V|`` scratch map rewritten to
    hold every vertex's local ID on the partition that owns it (each vertex
    has exactly one master, so every entry is written).  Both sides then
    agree on order forever, so messages carry no addresses.
    """
    for q in parts:
        masters = np.flatnonzero(q.is_master)
        master_local[q.local_to_global[masters]] = masters
    for p in parts:
        mirror_l = np.flatnonzero(~p.is_master)
        if len(mirror_l) == 0:
            continue
        mirror_g = p.local_to_global[mirror_l]
        owners = vertex_owner[mirror_g]
        # local_to_global is sorted, so mirror_g is sorted; stable sort by
        # owner keeps global order within each owner group.
        by_owner = np.argsort(owners, kind="stable")
        owners_sorted = owners[by_owner]
        group_bounds = np.flatnonzero(np.diff(owners_sorted)) + 1
        groups = np.split(by_owner, group_bounds)
        for grp in groups:
            if len(grp) == 0:
                continue
            q = int(owners[grp[0]])
            locs = mirror_l[grp]
            gids = p.local_to_global[locs]
            p.mirror_exchange[q] = locs.astype(VID_DTYPE)
            parts[q].master_exchange[p.pid] = master_local[gids]
