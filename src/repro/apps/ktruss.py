"""k-truss decomposition — extension benchmark (in the D-IrGL suite).

The k-truss is the maximal subgraph in which every edge participates in at
least ``k - 2`` triangles.  Like triangle counting it is not a vertex
program (peeling operates on *edges* and needs triangle incidence), so it
runs as a partition-level algorithm:

1. enumerate triangles once over the oriented adjacency (as
   :mod:`repro.apps.tc`), building an edge -> incident-triangles index;
2. peel in bulk-synchronous waves: every round, all alive edges with
   support < k-2 die together; each dead triangle decrements the support
   of its surviving edges;
3. waves map one-to-one onto BSP rounds, with each partition handling its
   owned oriented edges and support decrements crossing partitions
   (priced, like kcore's degree deltas, per round).

Exact: validated against ``networkx.k_truss``.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from repro.engine.costmodel import CostModel
from repro.hw.cluster import Cluster
from repro.loadbalance.base import get_balancer
from repro.metrics.stats import RunStats
from repro.partition.base import PartitionedGraph

__all__ = ["ktruss", "KTrussResult"]


class KTrussResult:
    """Surviving edges of the k-truss plus run statistics."""

    def __init__(self, src, dst, alive, stats):
        self.src = src  # oriented edge endpoints (u < v), global IDs
        self.dst = dst
        self.alive = alive  # boolean per oriented edge
        self.stats = stats

    @property
    def num_surviving(self) -> int:
        return int(self.alive.sum())


def _enumerate_triangles(n, src, dst):
    """All triangles over the oriented edge list; returns (E_keys sorted,
    triangle array of edge indices [t, 3])."""
    keys = src.astype(np.int64) * n + dst.astype(np.int64)
    order = np.argsort(keys)
    skeys = keys[order]

    adj = csr_matrix(
        (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n)
    )
    adj.sum_duplicates()
    indptr, indices = adj.indptr, adj.indices

    tri_edges = []
    for e in range(len(src)):
        a, b = int(src[e]), int(dst[e])
        na = indices[indptr[a] : indptr[a + 1]]
        nb = indices[indptr[b] : indptr[b + 1]]
        common = np.intersect1d(na, nb, assume_unique=True)
        if len(common) == 0:
            continue
        # triangle (a < b < c): this edge is (a,b); the others are (a,c),(b,c)
        k1 = a * n + common.astype(np.int64)
        k2 = b * n + common.astype(np.int64)
        e1 = order[np.searchsorted(skeys, k1)]
        e2 = order[np.searchsorted(skeys, k2)]
        for i in range(len(common)):
            tri_edges.append((e, int(e1[i]), int(e2[i])))
    if not tri_edges:
        return np.empty((0, 3), dtype=np.int64)
    return np.asarray(tri_edges, dtype=np.int64)


def ktruss(
    pg: PartitionedGraph,
    cluster: Cluster,
    k: int,
    scale_factor: float = 1.0,
    balancer: str = "alb",
    max_rounds: int = 10_000,
) -> KTrussResult:
    """Compute the k-truss of ``pg``'s (symmetric) graph."""
    if k < 2:
        raise ValueError("k-truss requires k >= 2")
    graph = pg.global_graph
    n = graph.num_vertices
    es = graph.edge_sources().astype(np.int64)
    ed = graph.indices.astype(np.int64)
    keep = es < ed
    src, dst = es[keep], ed[keep]
    # dedup oriented edges (symmetrized multi-edges collapse)
    key = src * n + dst
    _, uniq = np.unique(key, return_index=True)
    src, dst = src[uniq], dst[uniq]
    m = len(src)

    tris = _enumerate_triangles(n, src, dst)
    support = np.bincount(tris.ravel(), minlength=m).astype(np.int64)
    tri_alive = np.ones(len(tris), dtype=bool)
    alive = np.ones(m, dtype=bool)

    # edge -> triangle incidence (CSR over triangle ids)
    if len(tris):
        flat = tris.ravel()
        t_ids = np.repeat(np.arange(len(tris), dtype=np.int64), 3)
        o = np.argsort(flat, kind="stable")
        inc_indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=m), out=inc_indptr[1:])
        inc = t_ids[o]
    else:
        inc_indptr = np.zeros(m + 1, dtype=np.int64)
        inc = np.empty(0, dtype=np.int64)

    # distributed pricing: owned oriented edges per partition
    edge_part = pg.vertex_owner[src]  # peel work lands with u's master
    cost = CostModel(cluster, get_balancer(balancer), scale_factor)
    stats = RunStats(
        benchmark="ktruss",
        dataset=graph.name,
        policy=pg.policy,
        num_gpus=pg.num_partitions,
        replication_factor=pg.replication_factor,
    )
    P = pg.num_partitions
    total_compute = np.zeros(P)
    total_comm_bytes = 0.0

    threshold = k - 2
    for _ in range(max_rounds):
        dying = np.flatnonzero(alive & (support < threshold))
        if len(dying) == 0:
            break
        alive[dying] = False
        # triangles through dying edges collapse once each
        touched = [
            inc[inc_indptr[e] : inc_indptr[e + 1]] for e in dying.tolist()
        ]
        affected = np.empty(0, dtype=np.int64)
        if touched:
            t_cand = np.unique(np.concatenate(touched))
            newly_dead = t_cand[tri_alive[t_cand]]
            tri_alive[newly_dead] = False
            if len(newly_dead):
                affected = tris[newly_dead].ravel()
                affected = affected[alive[affected]]
                np.subtract.at(support, affected, 1)

        # price the wave: each partition scans its dying edges' incidence
        work = np.bincount(
            edge_part[dying],
            weights=(inc_indptr[dying + 1] - inc_indptr[dying]).astype(float),
            minlength=P,
        )
        for p in range(P):
            if work[p] > 0:
                total_compute[p] += cost.compute_time(
                    p, np.asarray([work[p]])
                )
        # support decrements ship to each affected edge's owner, 8B each
        if len(affected):
            total_comm_bytes += float(len(affected)) * 8.0 * scale_factor
        stats.rounds += 1
        stats.work_items += float(
            (inc_indptr[dying + 1] - inc_indptr[dying]).sum()
        )

    stats.per_partition_compute = total_compute
    stats.per_partition_wait = np.zeros(P)
    stats.per_partition_device_comm = np.zeros(P)
    stats.max_compute = float(total_compute.max()) if P else 0.0
    stats.comm_volume_bytes = total_comm_bytes
    per_round_net = cluster.network.latency_s * 2 if cluster.num_hosts > 1 else 0.0
    stats.execution_time = (
        stats.max_compute
        + total_comm_bytes / cluster.pcie.bandwidth_bytes
        + stats.rounds * per_round_net
    )
    stats.finalize_breakdown()
    return KTrussResult(src=src, dst=dst, alive=alive, stats=stats)
